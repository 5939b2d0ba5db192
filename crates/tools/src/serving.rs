//! Serving-latency report: tail percentiles next to the UVM curves.
//!
//! A serving run answers two questions at once — *how slow were the
//! tails* (p50/p95/p99 time-to-first-token and per-decode-step latency)
//! and *why* (demand faults, evictions and peer duplications as KV
//! growth oversubscribed the budget). [`ServingReport`] folds a
//! [`ServingRun`] and the session's merged [`UvmReport`] into one row so
//! an offered-load sweep prints the pairing directly: as the eviction
//! column climbs, the tail columns explain what it cost.

use crate::util::{format_bytes, percentile};
use dl_framework::serving::ServingRun;
use pasta_core::report::UvmReport;
use std::fmt;

/// Latency tails of one serving run beside its UVM traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServingReport {
    /// Lanes the run served on.
    pub lanes: usize,
    /// Requests completed across all lanes.
    pub completed: u64,
    /// TTFT percentiles, virtual ns — `None` when no request completed
    /// prefill (no samples must not read as a 0 ns tail).
    pub ttft_p50_ns: Option<u64>,
    /// 95th-percentile TTFT, virtual ns.
    pub ttft_p95_ns: Option<u64>,
    /// 99th-percentile TTFT, virtual ns.
    pub ttft_p99_ns: Option<u64>,
    /// Decode-step latency percentiles, virtual ns.
    pub decode_p50_ns: Option<u64>,
    /// 95th-percentile decode step, virtual ns.
    pub decode_p95_ns: Option<u64>,
    /// 99th-percentile decode step, virtual ns.
    pub decode_p99_ns: Option<u64>,
    /// Peak concurrent KV bytes, summed over lanes (each lane peaks
    /// independently; the sum bounds the fleet's cache footprint).
    pub kv_peak_bytes: u64,
    /// KV pages allocated (and freed) over the run, all lanes.
    pub kv_pages_allocated: u64,
    /// Demand-fault pages migrated in (from the merged UVM stats).
    pub demand_pages_in: u64,
    /// Pages evicted as the cache outgrew the budget.
    pub pages_evicted: u64,
    /// Pages read-duplicated over the peer link (shared weights).
    pub peer_pages_in: u64,
    /// Total UVM stall across the run, virtual ns.
    pub uvm_stall_ns: u64,
}

impl ServingReport {
    /// Builds the report from a run and the session's UVM slice (pass
    /// `None` when the session ran without UVM — the traffic columns
    /// report zero, the latency columns still stand).
    pub fn from_run(run: &ServingRun, uvm: Option<&UvmReport>) -> ServingReport {
        let ttft = run.ttft_sorted();
        let decode = run.decode_sorted();
        let stats = uvm.map(|u| u.stats).unwrap_or_default();
        ServingReport {
            lanes: run.lanes.len(),
            completed: run.completed(),
            ttft_p50_ns: percentile(&ttft, 50.0),
            ttft_p95_ns: percentile(&ttft, 95.0),
            ttft_p99_ns: percentile(&ttft, 99.0),
            decode_p50_ns: percentile(&decode, 50.0),
            decode_p95_ns: percentile(&decode, 95.0),
            decode_p99_ns: percentile(&decode, 99.0),
            kv_peak_bytes: run.lanes.iter().map(|l| l.kv_peak_bytes).sum(),
            kv_pages_allocated: run.lanes.iter().map(|l| l.kv_pages_allocated).sum(),
            demand_pages_in: stats.demand_pages_in,
            pages_evicted: stats.pages_evicted,
            peer_pages_in: stats.peer_pages_in,
            uvm_stall_ns: stats.total_stall_ns(),
        }
    }
}

/// `123456` ns → `"123.5us"`, `None` → `"-"`; keeps sweep rows aligned
/// without pretending absent samples are instant.
fn ns(v: Option<u64>) -> String {
    match v {
        None => "-".into(),
        Some(n) if n >= 1_000_000 => format!("{:.2}ms", n as f64 / 1e6),
        Some(n) if n >= 1_000 => format!("{:.1}us", n as f64 / 1e3),
        Some(n) => format!("{n}ns"),
    }
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serving: {} requests on {} lane(s), kv peak {} ({} pages churned)",
            self.completed,
            self.lanes,
            format_bytes(self.kv_peak_bytes),
            self.kv_pages_allocated,
        )?;
        writeln!(
            f,
            "  ttft   p50 {:>9}  p95 {:>9}  p99 {:>9}",
            ns(self.ttft_p50_ns),
            ns(self.ttft_p95_ns),
            ns(self.ttft_p99_ns),
        )?;
        writeln!(
            f,
            "  decode p50 {:>9}  p95 {:>9}  p99 {:>9}",
            ns(self.decode_p50_ns),
            ns(self.decode_p95_ns),
            ns(self.decode_p99_ns),
        )?;
        writeln!(
            f,
            "  uvm    faults_in {}  evicted {}  peer_in {}  stall {}",
            self.demand_pages_in,
            self.pages_evicted,
            self.peer_pages_in,
            ns(Some(self.uvm_stall_ns)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_framework::serving::LaneServing;
    use pasta_core::report::UvmReport;

    fn lane(device: u32, ttft: Vec<u64>, decode: Vec<u64>) -> LaneServing {
        LaneServing {
            device: accel_sim::DeviceId(device),
            completed: ttft.len() as u64,
            steps: 4,
            ttft_ns: ttft,
            decode_step_ns: decode,
            kv_peak_bytes: 1024,
            kv_pages_allocated: 3,
        }
    }

    #[test]
    fn report_folds_lanes_and_uvm() {
        let run = ServingRun {
            lanes: vec![
                lane(0, vec![100, 300], vec![10, 30]),
                lane(1, vec![200], vec![20]),
            ],
        };
        let mut uvm = UvmReport::default();
        uvm.stats.demand_pages_in = 7;
        uvm.stats.pages_evicted = 5;
        uvm.stats.peer_pages_in = 3;
        uvm.stats.fault_stall_ns = 900;
        let report = ServingReport::from_run(&run, Some(&uvm));
        assert_eq!(report.completed, 3);
        assert_eq!(report.lanes, 2);
        assert_eq!(report.ttft_p50_ns, Some(200));
        assert_eq!(report.ttft_p99_ns, Some(300));
        assert_eq!(report.decode_p50_ns, Some(20));
        assert_eq!(report.kv_peak_bytes, 2048);
        assert_eq!(report.kv_pages_allocated, 6);
        assert_eq!(report.pages_evicted, 5);
        assert_eq!(report.uvm_stall_ns, 900);
        let text = report.to_string();
        assert!(text.contains("evicted 5"), "traffic column renders: {text}");
    }

    #[test]
    fn empty_run_renders_dashes_not_zeros() {
        let report = ServingReport::from_run(&ServingRun { lanes: vec![] }, None);
        assert_eq!(report.ttft_p50_ns, None);
        assert_eq!(report.decode_p99_ns, None);
        let text = report.to_string();
        assert!(
            text.contains("p50         -"),
            "absent samples render as '-': {text}"
        );
    }
}
