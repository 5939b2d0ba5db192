//! Operator→kernel mapping.
//!
//! The paper's §III-E motivation: "DL frameworks run one or multiple
//! kernels within a single operator to complete a specific computation,
//! where this operator-to-kernel mapping information is hidden from the
//! users." PASTA sees both the `RecordFunction` operator boundaries and
//! the kernel launches between them, so the mapping falls out of event
//! ordering.

use accel_sim::{Symbol, SymbolMap};
use pasta_core::{Event, Interest, Tool, ToolReport};

/// Aggregate of one operator's kernel usage.
#[derive(Debug, Clone, Default)]
pub struct OpProfile {
    /// Times the operator executed.
    pub calls: u64,
    /// Total kernels launched inside it.
    pub kernels: u64,
    /// Distinct kernel symbols it launched, with counts.
    pub kernel_counts: SymbolMap<u64>,
    /// Total device time of its kernels, ns.
    pub device_ns: u64,
}

impl OpProfile {
    /// Mean kernels per call.
    pub fn kernels_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.kernels as f64 / self.calls as f64
    }
}

/// The operator→kernel mapping tool. Both levels — operators, and each
/// operator's kernels — are keyed by symbol address.
#[derive(Debug, Default)]
pub struct OpKernelMapTool {
    per_op: SymbolMap<OpProfile>,
    /// Operator nesting stack: kernels attribute to the innermost op.
    stack: Vec<Symbol>,
}

impl OpKernelMapTool {
    /// Creates the tool.
    pub fn new() -> Self {
        OpKernelMapTool::default()
    }

    /// Profile of one operator.
    #[cfg(test)]
    pub(crate) fn profile(&self, op: &str) -> Option<&OpProfile> {
        self.per_op.get(op)
    }

    /// Operators ranked by total device time, descending.
    pub fn ranking(&self) -> Vec<(Symbol, OpProfile)> {
        self.ranked()
            .into_iter()
            .map(|(op, p)| (*op, p.clone()))
            .collect()
    }

    /// [`OpKernelMapTool::ranking`] by reference.
    fn ranked(&self) -> Vec<(&Symbol, &OpProfile)> {
        let mut v: Vec<(&Symbol, &OpProfile)> = self.per_op.iter().collect();
        v.sort_by(|a, b| b.1.device_ns.cmp(&a.1.device_ns).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// Number of distinct operators observed.
    pub(crate) fn op_count(&self) -> usize {
        self.per_op.len()
    }
}

impl Tool for OpKernelMapTool {
    fn name(&self) -> &str {
        "op-kernel-map"
    }

    fn interest(&self) -> Interest {
        Interest::KERNEL_LAUNCHES | Interest::FRAMEWORK_OPS
    }

    fn on_event(&mut self, event: &Event) {
        match event {
            Event::OpStart { name, .. } => {
                self.per_op.update(name, |p| p.calls += 1);
                self.stack.push(*name);
            }
            Event::OpEnd { .. } => {
                self.stack.pop();
            }
            Event::KernelLaunchEnd {
                name, start, end, ..
            } => {
                if let Some(op) = self.stack.last() {
                    // The op's `OpStart` made its entry: this is a hit.
                    self.per_op.update(op, |p| {
                        p.kernels += 1;
                        p.kernel_counts.update(name, |count| *count += 1);
                        p.device_ns += *end - *start;
                    });
                }
            }
            _ => {}
        }
    }

    fn report(&self) -> ToolReport {
        let ranking = self.ranked();
        let mut text = String::new();
        for (op, p) in ranking.iter().take(12) {
            text.push_str(&format!(
                "  {:<36} {:>6} calls  {:>7.1} kernels/call  {:>12} ns\n",
                op,
                p.calls,
                p.kernels_per_call(),
                p.device_ns
            ));
        }
        ToolReport::new(self.name())
            .metric("operators", self.op_count() as f64)
            .metric(
                "total_kernels",
                self.per_op.iter().map(|(_, p)| p.kernels).sum::<u64>() as f64,
            )
            .body(text)
    }

    fn reset(&mut self) {
        self.per_op.clear();
        self.stack.clear();
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(OpKernelMapTool::new()))
    }

    fn merge(&mut self, other: &dyn Tool) {
        let Some(other) = other.downcast_ref::<OpKernelMapTool>() else {
            return;
        };
        // `stack` is in-flight operator nesting and never merges.
        for (op, theirs) in other.per_op.iter() {
            self.per_op.update(op, |p| {
                p.calls += theirs.calls;
                p.kernels += theirs.kernels;
                p.device_ns += theirs.device_ns;
                for (kernel, &count) in theirs.kernel_counts.iter() {
                    p.kernel_counts.update(kernel, |mine| *mine += count);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{DeviceId, LaunchId, SimTime};

    fn op_start(name: &str, seq: u64) -> Event {
        Event::OpStart {
            seq,
            name: name.into(),
            device: DeviceId(0),
            py_stack: Vec::new().into(),
        }
    }

    fn op_end(name: &str, seq: u64) -> Event {
        Event::OpEnd {
            seq,
            name: name.into(),
            device: DeviceId(0),
        }
    }

    fn kernel(name: &str, id: u64, dur: u64) -> Event {
        Event::KernelLaunchEnd {
            launch: LaunchId(id),
            device: DeviceId(0),
            name: name.into(),
            start: SimTime(0),
            end: SimTime(dur),
        }
    }

    #[test]
    fn kernels_attribute_to_innermost_op() {
        let mut t = OpKernelMapTool::new();
        t.on_event(&op_start("aten::linear", 0));
        t.on_event(&kernel("sgemm", 0, 100));
        t.on_event(&op_start("aten::add", 1)); // nested
        t.on_event(&kernel("elementwise", 1, 10));
        t.on_event(&op_end("aten::add", 1));
        t.on_event(&kernel("bias", 2, 5));
        t.on_event(&op_end("aten::linear", 0));

        let lin = t.profile("aten::linear").unwrap();
        assert_eq!(lin.kernels, 2, "sgemm + bias, not the nested add's");
        assert_eq!(lin.device_ns, 105);
        let add = t.profile("aten::add").unwrap();
        assert_eq!(add.kernels, 1);
        assert_eq!(add.kernel_counts.get("elementwise"), Some(&1));
    }

    #[test]
    fn kernels_outside_any_op_are_unattributed() {
        let mut t = OpKernelMapTool::new();
        t.on_event(&kernel("stray", 0, 50));
        assert_eq!(t.op_count(), 0);
    }

    #[test]
    fn merge_sums_op_profiles() {
        let mut a = OpKernelMapTool::new();
        a.on_event(&op_start("aten::linear", 0));
        a.on_event(&kernel("sgemm", 0, 100));
        a.on_event(&op_end("aten::linear", 0));
        let mut b = OpKernelMapTool::new();
        b.on_event(&op_start("aten::linear", 0));
        b.on_event(&kernel("sgemm", 1, 50));
        b.on_event(&kernel("bias", 2, 5));
        b.on_event(&op_end("aten::linear", 0));
        let mut merged = a.fork().unwrap();
        merged.merge(&a);
        merged.merge(&b);
        let merged = merged.downcast_ref::<OpKernelMapTool>().unwrap();
        let p = merged.profile("aten::linear").unwrap();
        assert_eq!(p.calls, 2);
        assert_eq!(p.kernels, 3);
        assert_eq!(p.device_ns, 155);
        assert_eq!(p.kernel_counts.get("sgemm"), Some(&2));
    }

    #[test]
    fn ranking_by_device_time() {
        let mut t = OpKernelMapTool::new();
        t.on_event(&op_start("cheap", 0));
        t.on_event(&kernel("k", 0, 10));
        t.on_event(&op_end("cheap", 0));
        t.on_event(&op_start("expensive", 1));
        t.on_event(&kernel("k", 1, 1_000));
        t.on_event(&op_end("expensive", 1));
        let r = t.ranking();
        assert_eq!(r[0].0, "expensive");
        assert!((r[0].1.kernels_per_call() - 1.0).abs() < 1e-9);
        let report = t.report();
        assert_eq!(report.get("operators"), Some(2.0));
    }
}
