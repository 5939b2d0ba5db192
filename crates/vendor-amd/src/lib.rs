//! # vendor-amd — simulated AMD ROCm profiling stack
//!
//! The pieces the paper integrates for MI300X support (§III-D):
//!
//! * the **HIP runtime** ([`hip::HipContext`]) — `hipMalloc`,
//!   `hipMallocManaged`, `hipLaunchKernel`, `hipMemcpy` … — the same
//!   [`uvm_sim::runtime::Context`] (and so the same
//!   [`accel_sim::DeviceRuntime`] impl) `vendor-nv` instantiates, here
//!   with the HIP *vocabulary* ([`hip`]), so DL models run unchanged on
//!   either vendor;
//! * **ROCProfiler-SDK** ([`rocprofiler`]) — callback registration
//!   (`rocprofiler_configure_callback…`) and device-trace attachment,
//!   "analogous to NVIDIA's Compute Sanitizer callbacks" per the paper.
//!
//! Event conventions here deliberately *differ* from the NVIDIA facade —
//! `hip*` API names, kernel "dispatches" instead of "launches", and memory
//! releases reported as **negative deltas** — giving PASTA's event-handler
//! normalization layer (paper §III-G) real inconsistencies to unify.

pub mod callbacks;
pub mod hip;
pub mod rocprofiler;

pub use callbacks::RocCallback;
pub use hip::HipContext;
pub use rocprofiler::RocProfilerConfig;
