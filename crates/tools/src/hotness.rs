//! Time-series access-hotness analysis (paper §V-C2, Fig. 13).
//!
//! Tracks access counts per 2 MiB virtual block over logical time,
//! revealing long-lived hot blocks (parameters — pin/prefetch candidates)
//! versus short-lived bursts (transients — eviction candidates), the
//! signal an efficient UVM prefetching algorithm needs.

use pasta_core::{Event, Interest, Tool, ToolReport};
use uvm_sim::{BlockHotness, HotnessSeries};

/// Liveness from which the report counts a block as persistent ("HOT").
const PERSISTENT: f64 = 0.75;

/// The hotness-tracking tool.
#[derive(Debug)]
pub struct HotnessTool {
    hotness: BlockHotness,
}

impl Default for HotnessTool {
    fn default() -> Self {
        HotnessTool::new(64)
    }
}

impl HotnessTool {
    /// Creates a tool binning logical time every `bin_events` batches.
    pub fn new(bin_events: u64) -> Self {
        HotnessTool {
            hotness: BlockHotness::new(bin_events),
        }
    }

    /// Dense (block × time-bin) series.
    pub fn series(&self) -> HotnessSeries {
        self.hotness.series()
    }

    /// Blocks live in at least `threshold` of the bins — the paper's
    /// "frequently accessed throughout the entire execution" set.
    pub fn persistent_blocks(&self, threshold: f64) -> Vec<u64> {
        let bins = self.hotness.bins();
        self.hotness
            .rows()
            .iter()
            .filter(|row| row.liveness(bins) >= threshold)
            .map(|row| row.block)
            .collect()
    }
}

impl Tool for HotnessTool {
    fn name(&self) -> &str {
        "hotness"
    }

    fn interest(&self) -> Interest {
        Interest::GLOBAL_ACCESSES
    }

    fn on_event(&mut self, event: &Event) {
        if let Event::GlobalAccess { batch, .. } = event {
            self.hotness.record(batch.base, batch.len, batch.records);
        }
    }

    fn report(&self) -> ToolReport {
        // Straight from the spans of equal per-block rows, so a range of
        // 2^39 blocks costs what a range of one does: neither the rows
        // nor the dense `series()` grid (blocks × bins, almost all
        // zeroes) are built.
        let bins = self.hotness.bins();
        let mut text = String::new();
        let (mut blocks, mut persistent) = (0u64, 0u64);
        for span in self.hotness.spans() {
            let shown = 20u64.saturating_sub(blocks) as usize;
            for row in span.rows().take(shown) {
                let liveness = row.liveness(bins);
                let marker = if liveness >= PERSISTENT { "HOT" } else { "   " };
                text.push_str(&format!(
                    "  block {:>8} {marker} liveness {:.2} total {}\n",
                    row.block, liveness, row.total
                ));
            }
            blocks += span.blocks();
            if span.liveness(bins) >= PERSISTENT {
                persistent += span.blocks();
            }
        }
        ToolReport::new(self.name())
            .metric("blocks", blocks as f64)
            .metric("bins", bins as f64)
            .metric("persistent_blocks", persistent as f64)
            .body(text)
    }

    fn reset(&mut self) {
        self.hotness = BlockHotness::new(self.hotness.bin_events());
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(HotnessTool::new(self.hotness.bin_events())))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.downcast_ref::<HotnessTool>() else {
            return;
        };
        self.hotness.merge_from(&other.hotness);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{AccessBatch, AccessKind, AccessPattern, LaunchId, MemSpace};
    use uvm_sim::BLOCK_SIZE;

    fn access(base: u64, len: u64, records: u64) -> Event {
        Event::GlobalAccess {
            launch: LaunchId(0),
            kernel: "k".into(),
            batch: AccessBatch {
                launch: LaunchId(0),
                spec_index: 0,
                base,
                len,
                records,
                bytes: len,
                elem_size: 4,
                kind: AccessKind::Load,
                space: MemSpace::Global,
                pattern: AccessPattern::Sequential,
            },
        }
    }

    #[test]
    fn persistent_vs_bursty_blocks() {
        let mut t = HotnessTool::new(1);
        for _ in 0..10 {
            t.on_event(&access(0, 1024, 100)); // block 0: every bin
        }
        t.on_event(&access(5 * BLOCK_SIZE, 1024, 5000)); // block 5: one burst
        let persistent = t.persistent_blocks(0.8);
        assert_eq!(persistent, vec![0]);
        let r = t.report();
        assert_eq!(r.get("blocks"), Some(2.0));
        assert!(r.text.contains("HOT"));
    }

    /// The report as it was built before `BlockHotness::rows`: from the
    /// dense series.
    fn report_from_series(tool: &HotnessTool) -> ToolReport {
        let series = tool.series();
        let persistent = series.persistent_blocks(0.75);
        let mut text = String::new();
        for (row, &block) in series.blocks.iter().enumerate().take(20) {
            let marker = if persistent.contains(&block) {
                "HOT"
            } else {
                "   "
            };
            text.push_str(&format!(
                "  block {block:>8} {marker} liveness {:.2} total {}\n",
                series.block_liveness(row),
                series.block_total(row)
            ));
        }
        ToolReport::new("hotness")
            .metric("blocks", series.blocks.len() as f64)
            .metric("bins", series.bins() as f64)
            .metric("persistent_blocks", persistent.len() as f64)
            .body(text)
    }

    #[test]
    fn report_is_byte_equal_to_the_one_derived_from_the_series() {
        let mut t = HotnessTool::new(3);
        assert_eq!(t.report(), report_from_series(&t), "empty tool");
        // Weights touched every step on two heaps 2^46 bytes apart,
        // multi-block activations that move, more than 20 blocks in all,
        // and a last bin left open.
        for step in 0..50u64 {
            t.on_event(&access(0x7000_0000_0000, 3 * BLOCK_SIZE, 900));
            t.on_event(&access(0x4000_0000_0000 + 7 * BLOCK_SIZE, 64, 5));
            t.on_event(&access(
                0x7000_0000_0000 + (4 + step % 30) * BLOCK_SIZE + 4096,
                (step % 3) * BLOCK_SIZE + 128,
                40 + step,
            ));
            assert_eq!(t.report(), report_from_series(&t), "after step {step}");
        }
        let r = t.report();
        assert_eq!(r.to_string(), report_from_series(&t).to_string());
        assert!(r.get("blocks").unwrap() > 20.0 && r.get("persistent_blocks").unwrap() >= 4.0);
    }

    #[test]
    fn series_dimensions() {
        let mut t = HotnessTool::new(2);
        for i in 0..6 {
            t.on_event(&access(i % 2 * BLOCK_SIZE, 128, 10));
        }
        let s = t.series();
        assert_eq!(s.blocks.len(), 2);
        assert_eq!(s.bins(), 3);
    }

    #[test]
    fn merge_sums_block_bins() {
        let mut a = HotnessTool::new(1);
        a.on_event(&access(0, 1024, 100));
        let mut b = HotnessTool::new(1);
        b.on_event(&access(0, 1024, 50));
        b.on_event(&access(5 * BLOCK_SIZE, 1024, 7));
        let mut merged = a.fork().unwrap();
        merged.merge(&a);
        merged.merge(&b);
        let merged = merged.downcast_ref::<HotnessTool>().unwrap();
        let s = merged.series();
        assert_eq!(s.blocks, vec![0, 5]);
        assert_eq!(s.block_total(0), 150, "bin 0 of both shards sums");
    }

    #[test]
    fn reset_empties_series() {
        let mut t = HotnessTool::default();
        t.on_event(&access(0, 128, 1));
        t.reset();
        assert_eq!(t.series().blocks.len(), 0);
    }
}
