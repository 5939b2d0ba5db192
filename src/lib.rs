//! # PASTA — Program AnalysiS Tool framework for Accelerators
//!
//! This is the facade crate of the PASTA reproduction (CGO 2026,
//! arXiv:2602.22103). It re-exports the whole workspace so downstream users
//! and the examples can depend on a single crate:
//!
//! * [`sim`] — the GPU accelerator simulator substrate ([`accel_sim`]).
//! * [`nv`] — simulated CUDA runtime + Compute Sanitizer + NVBit
//!   ([`vendor_nv`]).
//! * [`amd`] — simulated HIP runtime + ROCProfiler-SDK ([`vendor_amd`]).
//! * [`dl`] — the "tensorlite" deep-learning framework with the six paper
//!   models ([`dl_framework`]).
//! * [`uvm`] — the unified-virtual-memory subsystem ([`uvm_sim`]).
//! * [`core`] — the PASTA framework itself: events, handler, processor,
//!   tool templates, workloads ([`pasta_core`]).
//! * [`tools`] — the paper's case-study tools ([`pasta_tools`]).
//! * [`trace`] — binary trace capture + offline replay ([`pasta_trace`]).
//! * [`scenarios`] — the seven canonical ops the benchmark times, with
//!   their seeded inputs and digests.
//!
//! ## Quickstart
//!
//! A session profiles anything implementing [`core::Workload`];
//! [`core::ModelWorkload`] covers the paper's model zoo:
//!
//! ```
//! use pasta::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Profile one inference batch of BERT on a simulated A100.
//! let mut session = Pasta::builder()
//!     .a100()
//!     .tool(KernelFrequencyTool::new())
//!     .analysis_mode(AnalysisMode::GpuResident)
//!     .build()?;
//! let mut workload = ModelWorkload::new(ModelZoo::Bert, RunKind::Inference);
//! let report = session.run(&mut workload)?;
//! assert!(report.kernel_launches > 0);
//! # Ok(())
//! # }
//! ```
//!
//! `steps` and `batch_divisor` scale a model run down for tests and
//! smoke runs; the report keeps the model's label:
//!
//! ```
//! use pasta::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut session = Pasta::builder().rtx_3060().build()?;
//! let mut bert = ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8);
//! let report = session.run(&mut bert)?;
//! assert!(report.workload.contains("BERT"));
//! # Ok(())
//! # }
//! ```

pub use accel_sim as sim;
pub use dl_framework as dl;
pub use pasta_core as core;
pub use pasta_tools as tools;
pub use pasta_trace as trace;
pub use uvm_sim as uvm;
pub use vendor_amd as amd;
pub use vendor_nv as nv;

pub mod scenarios;

/// One-stop imports for the common profiling flow.
pub mod prelude {
    pub use crate::core::{
        AnalysisMode, BackendChoice, FnWorkload, Interest, KernelSweepWorkload, Knob,
        ModelWorkload, ParallelConfig, Pasta, PastaBuilder, PastaError, PastaSession, RangeFilter,
        SessionReport, SpineConfig, Tool, ToolReport, UvmSetup, Workload, WorkloadCx,
        WorkloadStats,
    };
    pub use crate::dl::models::{ModelZoo, RunKind};
    pub use crate::sim::{DeviceId, DeviceSpec, Dim3, KernelBody, KernelDesc};
    pub use crate::tools::{
        BarrierStallTool, HotnessTool, KernelFrequencyTool, LaunchCensusTool,
        MemoryCharacteristicsTool, MemoryTimelineTool, OpKernelMapTool, TransferTool,
        UvmPrefetchAdvisor,
    };
    pub use crate::trace::{replay, Trace, TraceError, TraceReader, TraceWriter};
}
