//! UVM configuration: the one value callers vary.
//!
//! The cost model itself — fault-group size, demand and prefetch link
//! efficiencies, the prefetch overlap curve, the per-call latency, the
//! write-back fraction — has never been set to anything but its
//! calibration, so it is constants beside the code that reads them
//! (`pager.rs` for migration, `state.rs` for eviction), each range checked
//! at compile time.

/// Settings of the UVM simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct UvmConfig {
    /// Logical-time bin width for hotness tracking (in access events).
    pub hotness_bin_events: u64,
}

impl Default for UvmConfig {
    fn default() -> Self {
        UvmConfig {
            hotness_bin_events: 64,
        }
    }
}
