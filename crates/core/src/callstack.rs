//! Cross-layer call-stack capture (paper §III-F2, Fig. 4).
//!
//! PASTA captures Python-level stacks via the CPython frame API and native
//! stacks via libbacktrace; the expensive part is doing so for *every*
//! event, so the knobs pick one kernel and this module captures the joined
//! stack only for launches of that kernel.

use crate::event::Event;
use accel_sim::{Symbol, SymbolMap};
use dl_framework::pycall::{native_frames_for_kernel, CrossLayerStack, PyFrame};
use std::sync::Arc;

/// An operator as a launch saw it: its (shared) Python stack and its name.
type Op = (Arc<[PyFrame]>, Symbol);

/// Tracks the live Python stack (from `OpStart` events) and remembers, per
/// kernel of interest, the operator current at its capture. The
/// cross-layer stack itself is built only when someone asks for it.
#[derive(Debug, Default)]
pub(crate) struct StackCapture {
    /// The most recent operator start. Every operator passes through here
    /// and almost none is ever captured, so nothing is copied until a
    /// capture asks.
    current_op: Option<Op>,
    /// The operator current at each captured kernel's capture, keyed by
    /// kernel symbol (first capture wins, as in the paper: one
    /// representative context per kernel). `None` when no operator had
    /// started.
    captured: SymbolMap<Option<Op>>,
}

impl StackCapture {
    /// An empty capture.
    pub fn new() -> Self {
        StackCapture::default()
    }

    /// Observes the event stream (needs `OpStart` events flowing). An
    /// operator on the stack its predecessor shared keeps the `Arc` held,
    /// so most operators cost no refcount traffic.
    pub fn observe(&mut self, event: &Event) {
        if let Event::OpStart { py_stack, name, .. } = event {
            match &mut self.current_op {
                Some((stack, op)) if Arc::ptr_eq(stack, py_stack) => *op = *name,
                current => *current = Some((Arc::clone(py_stack), *name)),
            }
        }
    }

    /// Captures the current operator for `kernel` if nothing is captured
    /// for it yet.
    pub(crate) fn capture_for_kernel(&mut self, kernel: &Symbol) {
        self.captured
            .with_entry(kernel, || self.current_op.clone(), |_, _| ());
    }

    /// The cross-layer stack captured for `kernel`, if any: the captured
    /// operator's Python frames, the operator itself as the innermost
    /// Python-side frame (how torch displays `aten::` ops under module
    /// code), and the kernel's native frames.
    pub(crate) fn stack_for(&self, kernel: &str) -> Option<CrossLayerStack> {
        let (kernel, op) = self.captured.iter().find(|(k, _)| *k == kernel)?;
        let mut python = Vec::new();
        if let Some((py_stack, op)) = op {
            python.extend_from_slice(py_stack);
            python.push(PyFrame::new("torch/_ops.py", 502, op.as_str()));
        }
        Some(CrossLayerStack {
            python,
            native: native_frames_for_kernel(kernel),
        })
    }

    /// Number of kernels with captured stacks.
    #[cfg(test)]
    pub(crate) fn captured_count(&self) -> usize {
        self.captured.len()
    }

    /// Clears all captures.
    pub fn reset(&mut self) {
        self.current_op = None;
        self.captured.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceId;

    fn op_start(name: &str, stack: Vec<PyFrame>) -> Event {
        Event::OpStart {
            seq: 0,
            name: name.into(),
            device: DeviceId(0),
            py_stack: stack.into(),
        }
    }

    #[test]
    fn capture_joins_python_and_native() {
        let mut sc = StackCapture::new();
        sc.observe(&op_start(
            "aten::linear",
            vec![
                PyFrame::new("models/bert/run_bert.py", 177, "<module>"),
                PyFrame::new("models/bert/run_bert.py", 146, "test_bert"),
                PyFrame::new("torch/nn/modules/linear.py", 114, "forward"),
            ],
        ));
        sc.capture_for_kernel(&Symbol::intern("ampere_sgemm_128x64_tn"));
        let stack = sc.stack_for("ampere_sgemm_128x64_tn").unwrap();
        assert_eq!(stack.python.len(), 4, "3 user frames + the aten op");
        assert!(stack
            .native
            .iter()
            .any(|f| f.symbol.contains("gemm_and_bias")));
        let rendered = stack.render();
        assert!(rendered.contains("run_bert.py:177"));
        assert!(rendered.contains("CUDABlas.cpp"));
    }

    #[test]
    fn first_capture_wins() {
        let mut sc = StackCapture::new();
        sc.observe(&op_start("aten::a", vec![PyFrame::new("a.py", 1, "fa")]));
        sc.capture_for_kernel(&Symbol::intern("k"));
        sc.observe(&op_start("aten::b", vec![PyFrame::new("b.py", 2, "fb")]));
        sc.capture_for_kernel(&Symbol::intern("k"));
        let stack = sc.stack_for("k").unwrap();
        assert!(stack.python.iter().any(|f| f.file == "a.py"));
        assert_eq!(sc.captured_count(), 1);
    }

    #[test]
    fn an_unchanged_stack_is_kept_and_another_tables_kernel_is_one_capture() {
        let stack: Arc<[PyFrame]> = vec![PyFrame::new("a.py", 1, "fa")].into();
        let op = |name: &str| Event::OpStart {
            seq: 0,
            name: name.into(),
            device: DeviceId(0),
            py_stack: Arc::clone(&stack),
        };
        let mut sc = StackCapture::new();
        sc.observe(&op("aten::a"));
        let table = accel_sim::SymbolTable::new();
        sc.capture_for_kernel(&table.intern("k"));
        sc.observe(&op("aten::b"));
        let (held, current) = sc.current_op.as_ref().unwrap();
        assert!(Arc::ptr_eq(held, &stack) && *current == "aten::b");
        sc.capture_for_kernel(&Symbol::intern("k"));
        assert_eq!(sc.captured_count(), 1);
        let python = sc.stack_for("k").unwrap().python;
        assert_eq!(python.last().unwrap().func, "aten::a", "first capture wins");
    }

    #[test]
    fn reset_clears() {
        let mut sc = StackCapture::new();
        sc.capture_for_kernel(&Symbol::intern("k"));
        assert_eq!(sc.captured_count(), 1);
        sc.reset();
        assert_eq!(sc.captured_count(), 0);
        assert!(sc.stack_for("k").is_none());
    }
}
