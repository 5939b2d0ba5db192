//! CPU↔GPU transfer analysis (in the spirit of DrGPUM/Diogenes, which the
//! paper cites as tools that "pinpoint memory-related inefficiencies, such
//! as inefficient CPU-GPU memory transfers" — here rebuilt as a PASTA
//! tool in a few dozen lines).

use accel_sim::CopyDirection;
use pasta_core::{Event, Interest, Tool, ToolReport};

/// Aggregate transfer statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Host→device copies and bytes.
    pub h2d: (u64, u64),
    /// Device→host copies and bytes.
    pub d2h: (u64, u64),
    /// Device→device copies and bytes.
    pub d2d: (u64, u64),
    /// Copies smaller than 64 KiB (latency-bound — the classic
    /// inefficiency DrGPUM flags).
    pub small_copies: u64,
    /// UVM batch operations (prefetch/advise) and bytes covered.
    pub batch_ops: (u64, u64),
}

/// The transfer-analysis tool.
#[derive(Debug, Default)]
pub struct TransferTool {
    stats: TransferStats,
}

impl TransferTool {
    /// Creates the tool.
    pub fn new() -> Self {
        TransferTool::default()
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Fraction of explicit copies that are latency-bound (< 64 KiB).
    pub(crate) fn small_copy_fraction(&self) -> f64 {
        let total = self.stats.h2d.0 + self.stats.d2h.0 + self.stats.d2d.0;
        if total == 0 {
            return 0.0;
        }
        self.stats.small_copies as f64 / total as f64
    }
}

impl Tool for TransferTool {
    fn name(&self) -> &str {
        "transfer-analysis"
    }

    fn interest(&self) -> Interest {
        Interest::MEMORY_OPS
    }

    fn on_event(&mut self, event: &Event) {
        match event {
            Event::MemCopy {
                direction, bytes, ..
            } => {
                let slot = match direction {
                    CopyDirection::HostToDevice => &mut self.stats.h2d,
                    CopyDirection::DeviceToHost => &mut self.stats.d2h,
                    _ => &mut self.stats.d2d,
                };
                slot.0 += 1;
                slot.1 += bytes;
                if *bytes < 64 << 10 {
                    self.stats.small_copies += 1;
                }
            }
            Event::BatchMemOp { bytes, .. } => {
                self.stats.batch_ops.0 += 1;
                self.stats.batch_ops.1 += bytes;
            }
            _ => {}
        }
    }

    fn report(&self) -> ToolReport {
        let s = self.stats;
        ToolReport::new(self.name())
            .metric("h2d_copies", s.h2d.0 as f64)
            .metric("h2d_mb", crate::util::mb(s.h2d.1))
            .metric("d2h_copies", s.d2h.0 as f64)
            .metric("d2h_mb", crate::util::mb(s.d2h.1))
            .metric("d2d_copies", s.d2d.0 as f64)
            .metric("small_copy_fraction", self.small_copy_fraction())
            .metric("uvm_batch_ops", s.batch_ops.0 as f64)
    }

    fn reset(&mut self) {
        self.stats = TransferStats::default();
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(TransferTool::new()))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.downcast_ref::<TransferTool>() else {
            return;
        };
        let o = &other.stats;
        let s = &mut self.stats;
        s.h2d = (s.h2d.0 + o.h2d.0, s.h2d.1 + o.h2d.1);
        s.d2h = (s.d2h.0 + o.d2h.0, s.d2h.1 + o.d2h.1);
        s.d2d = (s.d2d.0 + o.d2d.0, s.d2d.1 + o.d2d.1);
        s.small_copies += o.small_copies;
        s.batch_ops = (s.batch_ops.0 + o.batch_ops.0, s.batch_ops.1 + o.batch_ops.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{DeviceId, SimTime};

    fn copy(direction: CopyDirection, bytes: u64) -> Event {
        Event::MemCopy {
            device: DeviceId(0),
            direction,
            bytes,
            at: SimTime(0),
        }
    }

    #[test]
    fn directions_and_small_copies_tracked() {
        let mut t = TransferTool::new();
        t.on_event(&copy(CopyDirection::HostToDevice, 1 << 20));
        t.on_event(&copy(CopyDirection::HostToDevice, 100)); // tiny
        t.on_event(&copy(CopyDirection::DeviceToHost, 4096)); // tiny
        t.on_event(&copy(CopyDirection::DeviceToDevice, 1 << 30));
        let s = t.stats();
        assert_eq!(s.h2d, (2, (1 << 20) + 100));
        assert_eq!(s.d2h, (1, 4096));
        assert_eq!(s.d2d.0, 1);
        assert_eq!(s.small_copies, 2);
        assert!((t.small_copy_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn batch_ops_counted() {
        let mut t = TransferTool::new();
        t.on_event(&Event::BatchMemOp {
            device: DeviceId(0),
            op: "mem_prefetch".into(),
            addr: 0,
            bytes: 2 << 20,
            at: SimTime(0),
        });
        assert_eq!(t.stats().batch_ops, (1, 2 << 20));
        let r = t.report();
        assert_eq!(r.get("uvm_batch_ops"), Some(1.0));
    }

    #[test]
    fn empty_is_zero() {
        let t = TransferTool::new();
        assert_eq!(t.small_copy_fraction(), 0.0);
    }
}
