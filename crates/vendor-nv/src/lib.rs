//! # vendor-nv — simulated NVIDIA profiling stack
//!
//! The paper's NVIDIA backend uses three real components that this crate
//! reproduces over [`accel_sim`]:
//!
//! * the **CUDA runtime** ([`cuda::CudaContext`]) — `cudaMalloc`,
//!   `cudaMallocManaged`, `cuLaunchKernel`, `cudaMemcpy`,
//!   `cudaMemPrefetchAsync`, `cudaMemAdvise` … — which emits
//!   [`callbacks::NvCallback`] events to subscribers exactly where the real
//!   runtime triggers Compute Sanitizer callbacks. The runtime itself is
//!   [`uvm_sim::runtime::Context`], shared with `vendor-amd`; this crate
//!   holds its CUDA *vocabulary* ([`cuda`]);
//! * **Compute Sanitizer** ([`sanitizer`]) — lightweight callbacks that can
//!   patch *memory and barrier* instructions only (the paper's §III-D
//!   coverage limitation), with either GPU-resident or CPU-post-process
//!   trace analysis;
//! * **NVBit** ([`nvbit`]) — full-SASS binary instrumentation: broader
//!   coverage, but it must first dump and parse SASS per kernel and its
//!   per-record trampoline costs more (the paper's §V-B3 overhead source).
//!
//! [`inject`] models the `LD_PRELOAD` vs `CUDA_INJECTION64_PATH` process
//! injection distinction that matters for multi-GPU Megatron runs (§IV-D).

pub mod callbacks;
pub mod cuda;
pub mod inject;
pub mod nvbit;
pub mod sanitizer;

pub use callbacks::{NvCallback, NvSubscriber};
pub use cuda::CudaContext;
pub use inject::{is_spurious, should_instrument, InjectionMethod, ProcessKind};
pub use sanitizer::SanitizerConfig;
