//! Kernel invocation frequency analysis (paper §V-B1, Fig. 7).
//!
//! The paper's flagship "few lines of code" example: maintain a map from
//! kernel name to invocation count. The insight it surfaces — thousands of
//! kernels launch, but a handful (`at::native::im2col_kernel`,
//! `ampere_sgemm_*`) dominate — directs optimization effort.

use accel_sim::Symbol;
use pasta_core::{Event, Interest, Tool, ToolReport};
use std::any::Any;
use std::collections::HashMap;

/// Counts kernel invocations by symbol name. Keys are interned
/// [`Symbol`]s, so counting a launch is allocation-free.
#[derive(Debug, Default)]
pub struct KernelFrequencyTool {
    counts: HashMap<Symbol, u64>,
    total: u64,
}

impl KernelFrequencyTool {
    /// Creates the tool.
    pub fn new() -> Self {
        KernelFrequencyTool::default()
    }

    /// Total launches observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct kernel symbols.
    pub fn unique(&self) -> usize {
        self.counts.len()
    }

    /// Invocations of one kernel.
    pub fn count_of(&self, kernel: &str) -> u64 {
        self.counts.get(kernel).copied().unwrap_or(0)
    }

    /// `(kernel, count)` pairs sorted by descending count (name breaks
    /// ties deterministically).
    pub fn ranking(&self) -> Vec<(Symbol, u64)> {
        let mut v: Vec<(Symbol, u64)> = self.counts.iter().map(|(k, &c)| (*k, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The `top` most-invoked kernels.
    pub fn top(&self, top: usize) -> Vec<(Symbol, u64)> {
        let mut v = self.ranking();
        v.truncate(top);
        v
    }
}

impl Tool for KernelFrequencyTool {
    fn name(&self) -> &str {
        "kernel-frequency"
    }

    fn interest(&self) -> Interest {
        Interest {
            kernel_launches: true,
            ..Interest::default()
        }
    }

    fn on_event(&mut self, event: &Event) {
        if let Event::KernelLaunchEnd { name, .. } = event {
            *self.counts.entry(*name).or_insert(0) += 1;
            self.total += 1;
        }
    }

    fn report(&self) -> ToolReport {
        let mut text = String::new();
        for (kernel, count) in self.top(15) {
            text.push_str(&format!("  {count:>8}  {kernel}\n"));
        }
        ToolReport::new(self.name())
            .metric("total_launches", self.total as f64)
            .metric("unique_kernels", self.unique() as f64)
            .body(text)
    }

    fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(KernelFrequencyTool::new()))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.as_any().downcast_ref::<KernelFrequencyTool>() else {
            return;
        };
        for (kernel, &count) in &other.counts {
            *self.counts.entry(*kernel).or_insert(0) += count;
        }
        self.total += other.total;
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
    use accel_sim::{DeviceId, LaunchId, SimTime};

    fn launch(name: &str, id: u64) -> Event {
        Event::KernelLaunchEnd {
            launch: LaunchId(id),
            device: DeviceId(0),
            name: name.into(),
            start: SimTime(0),
            end: SimTime(1),
        }
    }

    #[test]
    fn counts_and_ranks() {
        let mut t = KernelFrequencyTool::new();
        for i in 0..5 {
            t.on_event(&launch("gemm", i));
        }
        t.on_event(&launch("relu", 5));
        assert_eq!(t.total(), 6);
        assert_eq!(t.unique(), 2);
        assert_eq!(t.count_of("gemm"), 5);
        assert_eq!(t.count_of("missing"), 0);
        assert_eq!(t.top(1), vec![(Symbol::intern("gemm"), 5)]);
        let report = t.report();
        assert_eq!(report.get("total_launches"), Some(6.0));
        assert!(report.text.contains("gemm"));
    }

    #[test]
    fn ties_break_deterministically() {
        let mut t = KernelFrequencyTool::new();
        t.on_event(&launch("zeta", 0));
        t.on_event(&launch("alpha", 1));
        let r = t.ranking();
        assert_eq!(r[0].0, "alpha");
        assert_eq!(r[1].0, "zeta");
    }

    #[test]
    fn only_needs_host_events() {
        let t = KernelFrequencyTool::new();
        assert!(!t.interest().wants_device_events(), "cheap tool");
    }

    #[test]
    fn fork_is_empty_and_merge_sums() {
        let mut a = KernelFrequencyTool::new();
        for i in 0..3 {
            a.on_event(&launch("gemm", i));
        }
        let mut b = a.fork().unwrap();
        assert_eq!(b.report().get("total_launches"), Some(0.0), "fork is fresh");
        b.on_event(&launch("gemm", 3));
        b.on_event(&launch("relu", 4));
        let mut merged = a.fork().unwrap();
        merged.merge(&a);
        merged.merge(&*b);
        let merged = merged
            .as_any()
            .downcast_ref::<KernelFrequencyTool>()
            .unwrap();
        assert_eq!(merged.count_of("gemm"), 4);
        assert_eq!(merged.count_of("relu"), 1);
        assert_eq!(merged.total(), 5);
        // The merge reads, never drains, its sources.
        assert_eq!(a.total(), 3);
    }

    #[test]
    fn reset_clears() {
        let mut t = KernelFrequencyTool::new();
        t.on_event(&launch("k", 0));
        t.reset();
        assert_eq!(t.total(), 0);
        assert_eq!(t.unique(), 0);
    }
}
