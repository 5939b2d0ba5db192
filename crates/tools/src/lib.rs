//! # pasta-tools — analysis tools built on the PASTA framework
//!
//! The paper demonstrates PASTA by building tools "with only a few lines
//! of code" (§V-B). This crate contains those case-study tools plus the
//! §III-H extensibility examples:
//!
//! * [`KernelFrequencyTool`] — kernel invocation frequency distribution
//!   (Fig. 7);
//! * [`MemoryCharacteristicsTool`] — per-kernel working sets, model
//!   footprints, min/avg/median/p90 statistics (Table V);
//! * [`HotnessTool`] — time-series access hotness per 2 MiB block
//!   (Fig. 13);
//! * [`MemoryTimelineTool`] — tensor alloc/free memory curves over logical
//!   time (Figs. 14–15);
//! * [`UvmPrefetchAdvisor`] — profiles kernel↔object↔tensor access
//!   correlations and generates object-level or tensor-level prefetch
//!   plans (the §V-C tensor-aware UVM prefetcher);
//! * [`BarrierStallTool`] — memory-barrier stall analysis (§III-H);
//! * [`OverflowSanitizerTool`] — a value-based numeric-overflow sanitizer
//!   sketch (§III-H);
//! * [`LaunchCensusTool`] — launch-geometry census (quickstart example);
//! * [`OpKernelMapTool`] — the §III-E operator→kernel mapping that DL
//!   frameworks hide from users;
//! * [`TransferTool`] — CPU↔GPU transfer analysis in the spirit of the
//!   cited DrGPUM/Diogenes tools.
//!
//! [`suite`] names the usual combinations (`standard`, `census`, `memory`,
//! `uvm`).

pub mod barrier_stall;
pub mod hotness;
pub mod kernel_freq;
pub mod launch_census;
pub mod mem_timeline;
pub mod memchar;
pub mod op_kernel_map;
pub mod overflow_sanitizer;
pub mod serving;
pub mod suites;
pub mod transfer;
pub mod util;
pub mod uvm_advisor;

pub use barrier_stall::BarrierStallTool;
pub use hotness::HotnessTool;
pub use kernel_freq::KernelFrequencyTool;
pub use launch_census::LaunchCensusTool;
pub use mem_timeline::{MemoryTimelineTool, TimelinePoint, UvmTraffic};
pub use memchar::{MemoryCharacteristics, MemoryCharacteristicsTool};
pub use op_kernel_map::OpKernelMapTool;
pub use overflow_sanitizer::OverflowSanitizerTool;
pub use serving::ServingReport;
pub use suites::{standard_suite, suite, SUITE_NAMES};
pub use transfer::TransferTool;
pub use uvm_advisor::{PeerTraffic, UvmActivity, UvmPrefetchAdvisor};
