//! UVM configuration.
//!
//! The cost model — fault-group size, demand and prefetch link
//! efficiencies, the prefetch overlap curve, the per-call latency, the
//! write-back fraction — has never been set to anything but its
//! calibration, so it is constants beside the code that reads them
//! (`pager.rs` for migration, `state.rs` for eviction), each range checked
//! at compile time. Budgets are per device
//! ([`crate::UvmManager::add_device`]).

/// Settings of the UVM simulator. None are left; the type stays so that
/// callers of [`crate::UvmManager::new`] keep compiling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UvmConfig;
