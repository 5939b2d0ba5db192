//! Profiling-overhead accounting.
//!
//! The paper's Fig. 10 breaks profiling time into four components:
//! workload *execution*, trace *collection*, trace *transfer*, and trace
//! *analysis*. [`OverheadBreakdown`] accumulates the last three; execution
//! time comes from an uninstrumented reference run.

/// Accumulated instrumentation overhead, split the way Fig. 10 reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Device time executing instrumentation callbacks and (in the
    /// GPU-resident mode) fused on-device analysis, ns.
    pub collection_ns: u64,
    /// Time moving trace/result buffers across the host link, plus buffer
    /// stall latency, ns.
    pub transfer_ns: u64,
    /// Single-thread host analysis time (CPU-post-process mode only), ns.
    pub analysis_ns: u64,
    /// One-time instrumentation setup (NVBit's SASS dump+parse), ns.
    pub setup_ns: u64,
}

impl OverheadBreakdown {
    /// Total added time across all components, ns.
    pub fn total_ns(&self) -> u64 {
        self.collection_ns + self.transfer_ns + self.analysis_ns + self.setup_ns
    }

    /// Component-wise sum.
    pub fn merge(self, o: OverheadBreakdown) -> OverheadBreakdown {
        OverheadBreakdown {
            collection_ns: self.collection_ns + o.collection_ns,
            transfer_ns: self.transfer_ns + o.transfer_ns,
            analysis_ns: self.analysis_ns + o.analysis_ns,
            setup_ns: self.setup_ns + o.setup_ns,
        }
    }

    /// Fractions `(execution, collection, transfer, analysis)` of the total
    /// profiled run, given the uninstrumented execution time.
    pub fn fractions(&self, execution_ns: u64) -> (f64, f64, f64, f64) {
        let total = (execution_ns + self.total_ns()) as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            execution_ns as f64 / total,
            (self.collection_ns + self.setup_ns) as f64 / total,
            self.transfer_ns as f64 / total,
            self.analysis_ns as f64 / total,
        )
    }

    /// Overhead factor relative to uninstrumented execution:
    /// `(execution + overhead) / execution`.
    pub fn overhead_factor(&self, execution_ns: u64) -> f64 {
        if execution_ns == 0 {
            return f64::INFINITY;
        }
        (execution_ns + self.total_ns()) as f64 / execution_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_sums() {
        let a = OverheadBreakdown {
            collection_ns: 1,
            transfer_ns: 2,
            analysis_ns: 3,
            setup_ns: 4,
        };
        assert_eq!(a.total_ns(), 10);
        let b = a.merge(a);
        assert_eq!(b.total_ns(), 20);
    }

    #[test]
    fn fractions_sum_to_one() {
        let b = OverheadBreakdown {
            collection_ns: 100,
            transfer_ns: 200,
            analysis_ns: 700,
            setup_ns: 0,
        };
        let (e, c, t, a) = b.fractions(1000);
        assert!((e + c + t + a - 1.0).abs() < 1e-9);
        assert!(a > c && a > t, "analysis dominates in this example");
    }

    #[test]
    fn overhead_factor_baseline_is_one() {
        let b = OverheadBreakdown::default();
        assert!((b.overhead_factor(500) - 1.0).abs() < 1e-12);
        let b2 = OverheadBreakdown {
            analysis_ns: 4_500,
            ..b
        };
        assert!((b2.overhead_factor(500) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_execution_is_infinite_overhead() {
        let b = OverheadBreakdown {
            analysis_ns: 1,
            ..OverheadBreakdown::default()
        };
        assert!(b.overhead_factor(0).is_infinite());
    }
}
