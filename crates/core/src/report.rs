//! Report types returned by tools and sessions.

use crate::error::LaneFailure;
use accel_sim::{DeviceId, OverheadBreakdown, SimTime};
use std::fmt;
use uvm_sim::UvmStats;

/// A tool disarmed mid-run after one of its callbacks panicked.
///
/// The dispatch boundary catches the panic, clears the tool out of every
/// dispatch row (the hot path pays nothing for it afterwards) and records
/// the *first* panic message here; sibling tools and the trace recorder
/// keep running. [`crate::ToolCollection::reset`] re-arms the tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolQuarantine {
    /// Name of the quarantined tool.
    pub tool: String,
    /// First panic message the tool produced.
    pub message: String,
}

impl fmt::Display for ToolQuarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tool `{}` quarantined after a panicking callback: {}",
            self.tool, self.message
        )
    }
}

impl std::error::Error for ToolQuarantine {}

/// A tool's findings: named metrics plus free-form rendered text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ToolReport {
    /// Tool name.
    pub tool: String,
    /// Named scalar metrics in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable body (tables, call stacks, …).
    pub text: String,
}

impl ToolReport {
    /// Creates an empty report for `tool`.
    pub fn new(tool: impl Into<String>) -> Self {
        ToolReport {
            tool: tool.into(),
            metrics: Vec::new(),
            text: String::new(),
        }
    }

    /// Appends a metric (builder style).
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Sets the text body (builder style).
    pub fn body(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

impl fmt::Display for ToolReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.tool)?;
        for (name, value) in &self.metrics {
            writeln!(f, "  {name}: {value}")?;
        }
        if !self.text.is_empty() {
            writeln!(f, "{}", self.text)?;
        }
        Ok(())
    }
}

/// The deterministic combination of per-shard tool state the sharded hub
/// produces at session end.
///
/// Each device shard accumulates its own tool instances, knob aggregates
/// and event counts; the merge folds them in a fixed order — each shard's
/// state is internally launch-ordered, shards combine by ascending device
/// id — so repeated runs of the same workload yield byte-identical merged
/// reports regardless of how the emitting threads interleaved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergedReport {
    /// Tool reports merged across every shard, in registration order.
    pub tools: Vec<ToolReport>,
    /// The unmerged per-shard breakdown, ascending device id. Single-shard
    /// sessions have one entry mirroring `tools`.
    pub per_device: Vec<(DeviceId, Vec<ToolReport>)>,
    /// Events processed across all shards.
    pub events_processed: u64,
    /// Merged UVM statistics — present when the session attached UVM.
    /// The hub itself fills `None` (it owns no residency state); the
    /// session layer overlays its manager's totals and the per-lane
    /// breakdown accumulated from parallel regions.
    pub uvm: Option<UvmReport>,
    /// Tools disarmed mid-run after a panicking callback, deduplicated by
    /// tool name across shards (ascending device id; the first shard's
    /// panic message wins). Empty on a healthy run.
    pub quarantined: Vec<ToolQuarantine>,
    /// Per-lane health: contained lane/workload panics the session
    /// salvaged around. The hub fills this empty (it tracks no lanes);
    /// the session layer overlays its accumulated failures. Empty on a
    /// healthy run.
    pub lane_failures: Vec<LaneFailure>,
}

/// The UVM slice of a [`MergedReport`]: the session manager's totals
/// (per-lane statistics already folded in, ascending device id — the same
/// deterministic order as the tool merge) plus the unmerged per-lane
/// breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UvmReport {
    /// Aggregate UVM statistics across the session, lanes included —
    /// peer-traffic totals ride in
    /// [`UvmStats::peer_pages_in`]/[`UvmStats::peer_stall_ns`].
    pub stats: UvmStats,
    /// Per-device statistics contributed by parallel lanes, ascending
    /// device id. Empty when no parallel region ran with UVM attached.
    pub per_device: Vec<(DeviceId, UvmStats)>,
    /// Shared-range peer-traffic matrix: bytes read-duplicated over the
    /// peer link per (src, dst) device pair, ascending. Empty when no
    /// shared managed ranges were exercised.
    pub peer_bytes: Vec<((DeviceId, DeviceId), u64)>,
}

impl fmt::Display for MergedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== merged report ({} shard(s), {} events) ===",
            self.per_device.len(),
            self.events_processed
        )?;
        if !self.quarantined.is_empty() || !self.lane_failures.is_empty() {
            writeln!(f, "== health ==")?;
            for failure in &self.lane_failures {
                writeln!(f, "  {failure}")?;
            }
            for q in &self.quarantined {
                writeln!(f, "  {q}")?;
            }
        }
        for report in &self.tools {
            write!(f, "{report}")?;
        }
        if let Some(uvm) = &self.uvm {
            writeln!(
                f,
                "== uvm ==\n  pages_in: {} ({} fault groups, {} evicted, {} ns stall)",
                uvm.stats.pages_in(),
                uvm.stats.fault_groups,
                uvm.stats.pages_evicted,
                uvm.stats.total_stall_ns(),
            )?;
            for (device, stats) in &uvm.per_device {
                writeln!(
                    f,
                    "  {device}: {} pages in, {} fault groups, {} ns stall",
                    stats.pages_in(),
                    stats.fault_groups,
                    stats.total_stall_ns(),
                )?;
            }
            if uvm.stats.peer_pages_in > 0 || !uvm.peer_bytes.is_empty() {
                writeln!(
                    f,
                    "  peer: {} pages duplicated, {} invalidated, {} ns stall",
                    uvm.stats.peer_pages_in,
                    uvm.stats.duplicates_invalidated,
                    uvm.stats.peer_stall_ns,
                )?;
                for ((src, dst), bytes) in &uvm.peer_bytes {
                    writeln!(f, "  peer {src}->{dst}: {bytes} bytes duplicated")?;
                }
            }
        }
        Ok(())
    }
}

/// Summary of one profiled run through a [`crate::PastaSession`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Workload label.
    pub workload: String,
    /// Kernels launched during the run.
    pub kernel_launches: u64,
    /// Wall (host virtual) time of the profiled run.
    pub profiled_time: SimTime,
    /// Instrumentation overhead breakdown (Fig. 10 components).
    pub overhead: OverheadBreakdown,
    /// Trace records observed (post-sampling).
    pub records: u64,
    /// Peak live tensor bytes on device 0.
    pub peak_allocated: u64,
    /// Peak reserved (footprint) bytes on device 0.
    pub peak_reserved: u64,
}

impl SessionReport {
    /// `profiled / (profiled - overhead)`: the Fig. 9 overhead factor,
    /// computed against the run's implied uninstrumented time.
    pub fn overhead_factor(&self) -> f64 {
        let profiled = self.profiled_time.as_nanos() as f64;
        let base = profiled - self.overhead.total_ns() as f64;
        if base <= 0.0 {
            return f64::INFINITY;
        }
        profiled / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_report_builder_and_lookup() {
        let r = ToolReport::new("kernel-freq")
            .metric("kernels", 42.0)
            .metric("unique", 7.0)
            .body("top kernel: sgemm");
        assert_eq!(r.get("kernels"), Some(42.0));
        assert_eq!(r.get("nope"), None);
        let s = r.to_string();
        assert!(s.contains("== kernel-freq =="));
        assert!(s.contains("unique: 7"));
        assert!(s.contains("sgemm"));
    }

    #[test]
    fn merged_report_display_includes_the_uvm_slice() {
        let report = MergedReport {
            tools: vec![ToolReport::new("t").metric("m", 1.0)],
            per_device: vec![(DeviceId(0), Vec::new())],
            events_processed: 5,
            uvm: Some(UvmReport {
                stats: UvmStats {
                    demand_pages_in: 32,
                    fault_groups: 2,
                    fault_stall_ns: 700,
                    ..UvmStats::default()
                },
                per_device: vec![(
                    DeviceId(1),
                    UvmStats {
                        demand_pages_in: 32,
                        fault_groups: 2,
                        fault_stall_ns: 700,
                        ..UvmStats::default()
                    },
                )],
                peer_bytes: vec![((DeviceId(0), DeviceId(1)), 4096)],
            }),
            quarantined: Vec::new(),
            lane_failures: Vec::new(),
        };
        let s = report.to_string();
        assert!(s.contains("== uvm =="), "UVM slice rendered: {s}");
        assert!(s.contains("pages_in: 32"), "{s}");
        assert!(s.contains("gpu1: 32 pages in"), "{s}");
        assert!(s.contains("peer gpu0->gpu1: 4096 bytes duplicated"), "{s}");
        // Sessions without UVM print no empty section.
        let without = MergedReport::default().to_string();
        assert!(!without.contains("uvm"));
    }

    #[test]
    fn merged_report_display_renders_health_when_degraded() {
        let report = MergedReport {
            quarantined: vec![ToolQuarantine {
                tool: "flaky".into(),
                message: "boom".into(),
            }],
            lane_failures: vec![LaneFailure {
                device: Some(DeviceId(1)),
                payload: "lane died".into(),
            }],
            ..MergedReport::default()
        };
        let s = report.to_string();
        assert!(s.contains("== health =="), "{s}");
        assert!(s.contains("`flaky` quarantined"), "{s}");
        assert!(s.contains("gpu1"), "{s}");
        // Healthy reports stay byte-identical to the pre-containment
        // rendering: no empty health section.
        assert!(!MergedReport::default().to_string().contains("health"));
    }

    #[test]
    fn overhead_factor_math() {
        let r = SessionReport {
            workload: "w".into(),
            kernel_launches: 1,
            profiled_time: SimTime(1_000),
            overhead: OverheadBreakdown {
                collection_ns: 300,
                transfer_ns: 100,
                analysis_ns: 100,
                setup_ns: 0,
            },
            records: 0,
            peak_allocated: 0,
            peak_reserved: 0,
        };
        assert!((r.overhead_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_factor_saturates_to_infinity() {
        let r = SessionReport {
            workload: "w".into(),
            kernel_launches: 0,
            profiled_time: SimTime(100),
            overhead: OverheadBreakdown {
                analysis_ns: 200,
                ..OverheadBreakdown::default()
            },
            records: 0,
            peak_allocated: 0,
            peak_reserved: 0,
        };
        assert!(r.overhead_factor().is_infinite());
    }
}
