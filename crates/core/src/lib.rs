// Fault-containment audit: unwrap/expect on user-reachable paths must be
// converted to `PastaError` or carry an `#[allow]` with a justification.
// Test builds are exempt (asserting via unwrap is idiomatic there).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! # pasta-core — the PASTA framework
//!
//! PASTA (Program AnalysiS Tool framework for Accelerators) is the paper's
//! primary contribution: three modular components that turn heterogeneous
//! vendor profiling interfaces and DL-framework callbacks into a single
//! extensible analysis pipeline (paper Fig. 1):
//!
//! 1. **Event handler** ([`handler`], [`normalize`]) — subscribes to the
//!    simulated Compute Sanitizer / NVBit / ROCProfiler host callbacks and
//!    the tensorlite framework callbacks, and normalizes them into the
//!    unified [`Event`] model ([`event`], covering every row of the
//!    paper's Table II). Vendor quirks — AMD's negative release deltas,
//!    `hip*` vs `cuda*` naming, "dispatch" vs "launch" — disappear here.
//! 2. **Event processor** ([`processor`], [`hub`]) — preprocesses and
//!    dispatches events to tools. Fine-grained device events flow through
//!    the vendor profiler's trace sink; whether their *analysis* runs
//!    GPU-resident or on the CPU is the [`AnalysisMode`] choice whose cost
//!    gap Figs. 2/9/10 quantify. Range filtering ([`range`]) and
//!    inefficiency-location knobs ([`knob`], [`callstack`]) live here.
//!    The hot path stays cheap via interned kernel names ([`Symbol`]),
//!    a per-class dispatch table with a sink-side interest gate, and
//!    batched sink→processor flushes (see [`hub`]).
//! 3. **Tool collection** ([`tool`]) — the template ([`Tool`]) users
//!    override. A tool declares its [`Interest`]s; only the event classes
//!    some tool wants are instrumented, which is how PASTA keeps overhead
//!    proportional to the analysis.
//!
//! [`Pasta`] ties it together: a builder that assembles devices, backend,
//! analysis mode, UVM and tools into a [`PastaSession`] whose
//! [`PastaSession::run`] profiles any [`Workload`] — a zoo model, a kernel
//! sweep, a closure — and yields tool reports plus the Fig. 10 overhead
//! breakdown.
//!
//! ## Example
//!
//! ```
//! use pasta_core::{AnalysisMode, ModelWorkload, Pasta};
//! use pasta_core::tool::LaunchCounter;
//! use dl_framework::models::{ModelZoo, RunKind};
//!
//! # fn main() -> Result<(), pasta_core::PastaError> {
//! let mut session = Pasta::builder()
//!     .rtx_3060()
//!     .tool(LaunchCounter::default())
//!     .analysis_mode(AnalysisMode::GpuResident)
//!     .build()?;
//! let mut bert = ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8);
//! let report = session.run(&mut bert)?;
//! assert!(report.kernel_launches > 0);
//! let n = session
//!     .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
//!     .expect("tool exists");
//! assert_eq!(n, report.kernel_launches);
//! # Ok(())
//! # }
//! ```

pub mod callstack;
pub mod error;
pub mod event;
pub mod handler;
pub mod hub;
pub mod knob;
pub mod merge;
pub mod normalize;
pub mod processor;
pub mod profiler;
pub mod range;
pub mod report;
pub mod spine;
pub mod tool;
pub mod workload;

// The interner lives in accel-sim (the sink's `TraceCtx` is the first
// place a kernel name enters the pipeline) but is part of PASTA's public
// vocabulary: every name-carrying `Event` field is a `Symbol`.
pub use accel_sim::{AnalysisMode, OverheadBreakdown, Symbol, SymbolTable};
pub use error::{LaneFailure, PastaError, SalvagedRun};
pub use event::{Event, EventClass};
pub use knob::{Knob, KnobSet};
pub use processor::{EventProcessor, EventRecorder};
pub use profiler::{BackendChoice, ParallelConfig, Pasta, PastaBuilder, PastaSession, UvmSetup};
pub use range::RangeFilter;
pub use report::{MergedReport, SessionReport, ToolQuarantine, ToolReport, UvmReport};
pub use spine::{EventRing, SpineConfig, SpineDrainer, SpineMode, SpineMsg};
pub use tool::{Interest, Tool, ToolCollection};
pub use workload::{
    FnWorkload, KernelSweepWorkload, ModelWorkload, Workload, WorkloadCx, WorkloadStats,
};
