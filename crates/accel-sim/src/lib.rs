//! # accel-sim — a discrete-event GPU accelerator simulator
//!
//! This crate is the hardware substrate of the PASTA reproduction. The paper
//! profiles real NVIDIA/AMD GPUs; this environment has none, so `accel-sim`
//! stands in for the hardware. It models:
//!
//! * **Devices** with calibrated specs ([`DeviceSpec::a100_80gb`],
//!   [`DeviceSpec::rtx_3060`], [`DeviceSpec::mi300x`]) — SM count, memory
//!   capacity and bandwidth, interconnect bandwidth, peak FLOP/s.
//! * **A device memory allocator** ([`mem::DeviceAllocator`]) handing out
//!   virtual addresses, so memory events carry realistic pointers.
//! * **Kernels** described by [`KernelDesc`]: a grid/block shape plus a
//!   [`KernelBody`] of [`AccessSpec`]s that determine both the simulated
//!   duration (roofline-style cost model) and the instruction-level trace
//!   the kernel emits when instrumented.
//! * **Instrumentation probes** ([`DeviceProbe`]) — the attachment point the
//!   simulated vendor profiling layers (Compute Sanitizer, NVBit,
//!   ROCProfiler) plug into. Probes see access batches, barriers and block
//!   boundaries, and report the device/host time their processing costs,
//!   which the engine folds into the simulated clocks. This is the mechanism
//!   that makes the paper's CPU-analysis vs. GPU-resident-analysis overhead
//!   gap (Fig. 2 / Fig. 9) *emerge* instead of being hardcoded.
//! * **Managed-memory residency hooks** ([`ResidencyModel`]) that the UVM
//!   simulator implements, so kernels touching non-resident pages pay fault
//!   and migration costs.
//!
//! The simulator is deliberately single-threaded and deterministic: all
//! timing is virtual (nanosecond [`clock`]s), so experiments are exactly
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use accel_sim::{Engine, DeviceSpec, KernelDesc, KernelBody, Dim3};
//!
//! # fn main() -> Result<(), accel_sim::AccelError> {
//! let mut engine = Engine::new(vec![DeviceSpec::a100_80gb()]);
//! let dev = engine.device_ids()[0];
//! let buf = engine.malloc(dev, 1 << 20)?;
//! let desc = KernelDesc::new("axpy_kernel", Dim3::linear(256), Dim3::linear(256))
//!     .arg(buf, 1 << 20)
//!     .body(KernelBody::streaming(1 << 20, 1 << 20));
//! let record = engine.launch(dev, 0, &desc)?;
//! assert!(record.end > record.start);
//! engine.free(dev, buf.addr())?;
//! # Ok(())
//! # }
//! ```

pub mod clock;
pub mod cost;
pub mod device;
pub mod dim;
pub mod engine;
pub mod error;
pub mod id;
pub mod inline_vec;
pub mod instrument;
pub mod kernel;
pub mod mem;
pub mod probe;
pub mod residency;
pub mod runtime;
pub mod symbol;
pub mod sync;
pub mod threads;
pub mod trace;

pub use clock::SimTime;
pub use cost::CostModel;
pub use device::{Device, DeviceSpec};
pub use dim::Dim3;
pub use engine::Engine;
pub use error::{panic_message, AccelError};
pub use id::{AllocId, DeviceId, LaunchId, StreamId, Vendor};
pub use inline_vec::InlineVec;
pub use instrument::{
    BackendCosts, DeviceTraceSink, OverheadBreakdown, ProfilerHandle, TraceCtx, TraceProfiler,
};
pub use kernel::{AccessKind, AccessPattern, AccessSpec, KernelBody, KernelDesc, MemSpace};
pub use mem::{Allocation, DevicePtr};
pub use probe::{AnalysisMode, DeviceProbe, InstrCoverage, ProbeConfig, ProbeCosts};
pub use residency::{AccessOutcome, PeerTransfer, ResidencyAdvice, ResidencyModel};
pub use runtime::{CopyDirection, DeviceRuntime, LaunchRecord, RuntimeStats};
pub use symbol::{Symbol, SymbolTable};
pub use threads::{idle_until, resolve_threads};
pub use trace::{AccessBatch, KernelTraceSummary};
