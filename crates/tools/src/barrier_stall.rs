//! Memory-barrier stall analysis — the paper's §III-H memory-centric
//! extensibility example: "quantify synchronization delays … identify
//! kernels or layers that suffer from excessive synchronization overhead".

use accel_sim::Symbol;
use pasta_core::{Event, Interest, Tool, ToolReport};
use std::any::Any;
use std::collections::HashMap;

/// Estimated stall per barrier execution, ns (warp re-convergence plus
/// scheduler latency at typical occupancy).
const STALL_PER_BARRIER_NS: f64 = 0.12;

/// Per-kernel barrier statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BarrierStats {
    /// Barrier executions.
    pub barriers: u64,
    /// Kernel invocations.
    pub calls: u64,
    /// Total kernel device time, ns.
    pub duration_ns: u64,
}

impl BarrierStats {
    /// Estimated stall time, ns.
    pub fn stall_ns(&self) -> u64 {
        (self.barriers as f64 * STALL_PER_BARRIER_NS) as u64
    }

    /// Stall as a fraction of kernel time.
    pub fn stall_fraction(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.stall_ns() as f64 / self.duration_ns as f64
    }
}

/// The barrier-stall tool.
#[derive(Debug, Default)]
pub struct BarrierStallTool {
    per_kernel: HashMap<Symbol, BarrierStats>,
    current_kernel: HashMap<u64, Symbol>,
}

impl BarrierStallTool {
    /// Creates the tool.
    pub fn new() -> Self {
        BarrierStallTool::default()
    }

    /// Statistics for one kernel.
    pub fn stats_for(&self, kernel: &str) -> Option<BarrierStats> {
        self.per_kernel.get(kernel).copied()
    }

    /// Kernels ranked by estimated stall time, descending.
    pub fn ranking(&self) -> Vec<(Symbol, BarrierStats)> {
        let mut v: Vec<(Symbol, BarrierStats)> =
            self.per_kernel.iter().map(|(k, &s)| (*k, s)).collect();
        v.sort_by(|a, b| {
            b.1.stall_ns()
                .cmp(&a.1.stall_ns())
                .then_with(|| a.0.cmp(&b.0))
        });
        v
    }
}

impl Tool for BarrierStallTool {
    fn name(&self) -> &str {
        "barrier-stall"
    }

    fn interest(&self) -> Interest {
        Interest {
            barriers: true,
            kernel_launches: true,
            ..Interest::default()
        }
    }

    fn on_event(&mut self, event: &Event) {
        match event {
            Event::KernelLaunchBegin { launch, name, .. } => {
                self.current_kernel.insert(launch.value(), *name);
            }
            Event::Barrier { launch, count, .. } => {
                if let Some(name) = self.current_kernel.get(&launch.value()) {
                    let s = self.per_kernel.entry(*name).or_default();
                    s.barriers += count;
                }
            }
            Event::KernelLaunchEnd {
                launch,
                name,
                start,
                end,
                ..
            } => {
                let s = self.per_kernel.entry(*name).or_default();
                s.calls += 1;
                s.duration_ns += *end - *start;
                self.current_kernel.remove(&launch.value());
            }
            _ => {}
        }
    }

    fn report(&self) -> ToolReport {
        let ranking = self.ranking();
        let total_stall: u64 = ranking.iter().map(|(_, s)| s.stall_ns()).sum();
        let mut text = String::new();
        for (kernel, s) in ranking.iter().take(10) {
            text.push_str(&format!(
                "  {:>10} barriers  {:>8} ns stall  {:>5.1}%  {kernel}\n",
                s.barriers,
                s.stall_ns(),
                s.stall_fraction() * 100.0
            ));
        }
        ToolReport::new(self.name())
            .metric("kernels_with_barriers", self.per_kernel.len() as f64)
            .metric("total_stall_ns", total_stall as f64)
            .body(text)
    }

    fn reset(&mut self) {
        self.per_kernel.clear();
        self.current_kernel.clear();
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(BarrierStallTool::new()))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.as_any().downcast_ref::<BarrierStallTool>() else {
            return;
        };
        // `current_kernel` is in-flight launch state and never merges.
        for (kernel, theirs) in &other.per_kernel {
            let s = self.per_kernel.entry(*kernel).or_default();
            s.barriers += theirs.barriers;
            s.calls += theirs.calls;
            s.duration_ns += theirs.duration_ns;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{DeviceId, Dim3, LaunchId, SimTime};

    fn begin(launch: u64, name: &str) -> Event {
        Event::KernelLaunchBegin {
            launch: LaunchId(launch),
            device: DeviceId(0),
            stream: 0,
            name: name.into(),
            grid: Dim3::linear(1),
            block: Dim3::linear(32),
        }
    }

    fn barrier(launch: u64, count: u64) -> Event {
        Event::Barrier {
            launch: LaunchId(launch),
            count,
            cluster: false,
        }
    }

    fn end(launch: u64, name: &str, dur: u64) -> Event {
        Event::KernelLaunchEnd {
            launch: LaunchId(launch),
            device: DeviceId(0),
            name: name.into(),
            start: SimTime(0),
            end: SimTime(dur),
        }
    }

    #[test]
    fn attributes_barriers_to_kernels() {
        let mut t = BarrierStallTool::new();
        t.on_event(&begin(0, "gemm"));
        t.on_event(&barrier(0, 1_000_000));
        t.on_event(&end(0, "gemm", 10_000_000));
        t.on_event(&begin(1, "relu"));
        t.on_event(&end(1, "relu", 1_000));
        let s = t.stats_for("gemm").unwrap();
        assert_eq!(s.barriers, 1_000_000);
        assert_eq!(s.calls, 1);
        assert!(s.stall_ns() > 0);
        assert!(s.stall_fraction() > 0.0 && s.stall_fraction() < 1.0);
        assert_eq!(t.stats_for("relu").unwrap().barriers, 0);
        assert_eq!(t.ranking()[0].0, "gemm");
    }

    #[test]
    fn merge_sums_per_kernel_stats() {
        let mut a = BarrierStallTool::new();
        a.on_event(&begin(0, "gemm"));
        a.on_event(&barrier(0, 100));
        a.on_event(&end(0, "gemm", 1_000));
        let mut b = BarrierStallTool::new();
        b.on_event(&begin(1, "gemm"));
        b.on_event(&barrier(1, 50));
        b.on_event(&end(1, "gemm", 500));
        let mut merged = a.fork().unwrap();
        merged.merge(&a);
        merged.merge(&b);
        let merged = merged.as_any().downcast_ref::<BarrierStallTool>().unwrap();
        let s = merged.stats_for("gemm").unwrap();
        assert_eq!(s.barriers, 150);
        assert_eq!(s.calls, 2);
        assert_eq!(s.duration_ns, 1_500);
    }

    #[test]
    fn report_ranks_by_stall() {
        let mut t = BarrierStallTool::new();
        t.on_event(&begin(0, "light"));
        t.on_event(&barrier(0, 10));
        t.on_event(&end(0, "light", 100));
        t.on_event(&begin(1, "heavy"));
        t.on_event(&barrier(1, 10_000_000));
        t.on_event(&end(1, "heavy", 100));
        let r = t.report();
        assert_eq!(r.get("kernels_with_barriers"), Some(2.0));
        let first = r.text.lines().next().unwrap();
        assert!(first.contains("heavy"));
    }
}
