//! # uvm-sim — unified virtual memory simulator
//!
//! The paper's UVM case study (§V-C) optimizes NVIDIA's Unified Virtual
//! Memory: a page-fault-driven, on-demand migration system with optional
//! prefetching (`cudaMemPrefetchAsync`) and advice (`cudaMemAdvise`). This
//! crate reproduces those mechanics over the [`accel_sim`] substrate:
//!
//! * 64 KiB pages grouped into 2 MiB blocks ([`page`]);
//! * demand faulting with fault-group latency plus migration bandwidth
//!   ([`accel_sim::ResidencyModel::on_kernel_access`]);
//! * LRU eviction with write-back under memory pressure ([`state`]);
//! * asynchronous prefetch with a compute-overlap discount
//!   ([`accel_sim::ResidencyModel::prefetch`]);
//! * pinning/advice ([`accel_sim::ResidencyAdvice`]);
//! * per-2 MiB-block hotness accounting ([`hotness`]);
//! * peer-to-peer coherence for managed ranges *shared* across devices
//!   or parallel lanes ([`coherence`]): remote reads read-duplicate the
//!   owner's home copy over the peer link, remote writes invalidate the
//!   other devices' duplicates — see
//!   [`accel_sim::ResidencyModel::register_shared`].
//!
//! [`UvmManager`] implements [`accel_sim::ResidencyModel`], so plugging it
//! into an engine turns every kernel access to managed ranges into faults,
//! migrations and evictions whose costs land on the simulated clocks. The
//! paper's Fig. 11/12 dynamics — prefetching wins without oversubscription,
//! object-level prefetching thrashes at 3× oversubscription — *emerge* from
//! these mechanics.
//!
//! ## Example
//!
//! ```
//! use uvm_sim::{UvmConfig, UvmManager};
//! use accel_sim::{DeviceId, ResidencyModel, AccessKind};
//!
//! let mut uvm = UvmManager::new(UvmConfig::default());
//! uvm.add_device(512 << 20, 24.0, 25_000); // 512 MiB budget, PCIe 24 GB/s
//! uvm.register(0x4000_0000_0000, 64 << 20);
//! let out = uvm.on_kernel_access(
//!     DeviceId(0), 0x4000_0000_0000, 64 << 20, 64 << 20, AccessKind::Load);
//! assert!(out.faults > 0, "cold pages fault");
//! ```

pub mod coherence;
pub mod config;
pub mod hotness;
pub mod manager;
pub mod page;
mod pager;
pub mod plan;
pub mod runtime;
pub mod state;
pub mod stats;

pub use coherence::{CoherenceDirectory, RangeDirectory};
pub use config::UvmConfig;
pub use hotness::{BlockHotness, BlockRow, HotnessSeries};
pub use manager::UvmManager;
pub use page::{block_of_addr, page_range, PageRange, BLOCK_SIZE, PAGE_SIZE};
pub use plan::{PrefetchGranularity, PrefetchPlan, Range};
pub use stats::UvmStats;
