//! UVM cost-model configuration.

/// Tunable constants of the UVM simulator.
///
/// Defaults are calibrated against public UVM measurements (Allen & Ge,
/// SC'21): demand paging achieves roughly half of link bandwidth because
/// fault handling serializes with transfer, while explicit prefetch
/// saturates the link and largely overlaps with compute.
#[derive(Debug, Clone, PartialEq)]
pub struct UvmConfig {
    /// Pages migrated per fault group (the driver batches neighbouring
    /// faults; 16 × 64 KiB = 1 MiB per group).
    pub fault_group_pages: u64,
    /// Fraction of link bandwidth achieved by demand-fault migration.
    pub demand_bw_efficiency: f64,
    /// Fraction of link bandwidth achieved by prefetch DMA.
    pub prefetch_bw_efficiency: f64,
    /// Base fraction of prefetch transfer time hidden behind compute
    /// (small transfers barely overlap: the call is issued right before
    /// the launch that needs the data).
    pub prefetch_overlap_base: f64,
    /// Extra overlap per doubling of the transfer size above 1 MiB —
    /// bulk DMA pipelines against compute much better than many small
    /// requests, which is why object-level prefetching edges out
    /// tensor-level when memory is plentiful (paper Fig. 11).
    pub prefetch_overlap_per_log2_mb: f64,
    /// Ceiling on the effective overlap.
    pub prefetch_overlap_max: f64,
    /// Fixed host/driver latency per prefetch call that moves pages, ns.
    pub prefetch_call_latency_ns: u64,
    /// Fraction of evicted bytes that are dirty and must be written back.
    pub writeback_fraction: f64,
    /// Logical-time bin width for hotness tracking (in access events).
    pub hotness_bin_events: u64,
}

impl Default for UvmConfig {
    fn default() -> Self {
        UvmConfig {
            fault_group_pages: 16,
            demand_bw_efficiency: 0.45,
            prefetch_bw_efficiency: 0.95,
            prefetch_overlap_base: 0.25,
            prefetch_overlap_per_log2_mb: 0.08,
            prefetch_overlap_max: 0.85,
            prefetch_call_latency_ns: 8_000,
            writeback_fraction: 0.5,
            hotness_bin_events: 64,
        }
    }
}

impl UvmConfig {
    /// Effective compute overlap for a prefetch of `bytes`.
    ///
    /// Under memory pressure callers should ignore this and charge the
    /// full transfer: a saturated link hides nothing.
    pub fn prefetch_overlap_for(&self, bytes: u64) -> f64 {
        let mb = (bytes as f64 / (1 << 20) as f64).max(1.0);
        (self.prefetch_overlap_base + self.prefetch_overlap_per_log2_mb * mb.log2())
            .clamp(self.prefetch_overlap_base, self.prefetch_overlap_max)
    }
}

impl UvmConfig {
    /// Validates invariants; call after hand-editing a config.
    ///
    /// # Panics
    ///
    /// Panics when any efficiency/overlap value leaves `(0, 1]` or the
    /// fault group is empty.
    pub fn validate(&self) {
        assert!(self.fault_group_pages > 0, "fault group must be non-empty");
        for (name, v) in [
            ("demand_bw_efficiency", self.demand_bw_efficiency),
            ("prefetch_bw_efficiency", self.prefetch_bw_efficiency),
        ] {
            assert!(v > 0.0 && v <= 1.0, "{name} must be in (0, 1], got {v}");
        }
        assert!(
            (0.0..=1.0).contains(&self.prefetch_overlap_base)
                && (0.0..=1.0).contains(&self.prefetch_overlap_max)
                && self.prefetch_overlap_base <= self.prefetch_overlap_max,
            "prefetch overlap bounds must be ordered within [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.writeback_fraction),
            "writeback_fraction must be in [0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        UvmConfig::default().validate();
    }

    #[test]
    fn default_prefetch_beats_demand() {
        let c = UvmConfig::default();
        assert!(c.prefetch_bw_efficiency > c.demand_bw_efficiency);
        assert!(c.prefetch_overlap_base > 0.0);
    }

    #[test]
    fn bulk_transfers_overlap_better() {
        let c = UvmConfig::default();
        let small = c.prefetch_overlap_for(1 << 20);
        let big = c.prefetch_overlap_for(64 << 20);
        assert!(big > small, "bulk DMA pipelines better: {big} vs {small}");
        assert!(c.prefetch_overlap_for(1 << 40) <= c.prefetch_overlap_max);
        assert!((small - c.prefetch_overlap_base).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "demand_bw_efficiency")]
    fn validate_rejects_zero_efficiency() {
        let c = UvmConfig {
            demand_bw_efficiency: 0.0,
            ..UvmConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "fault group")]
    fn validate_rejects_empty_group() {
        let c = UvmConfig {
            fault_group_pages: 0,
            ..UvmConfig::default()
        };
        c.validate();
    }
}
