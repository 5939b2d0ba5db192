//! Cross-layer call-stack capture (paper §III-F2, Fig. 4).
//!
//! PASTA captures Python-level stacks via the CPython frame API and native
//! stacks via libbacktrace; the expensive part is doing so for *every*
//! event, so the knobs pick one kernel and this module captures the joined
//! stack only for launches of that kernel.

use crate::event::Event;
use accel_sim::Symbol;
use dl_framework::pycall::{native_frames_for_kernel, CrossLayerStack, PyFrame};
use std::collections::HashMap;
use std::sync::Arc;

/// Tracks the live Python stack (from `OpStart` events) and snapshots a
/// cross-layer stack per kernel of interest.
#[derive(Debug, Default)]
pub struct StackCapture {
    /// The most recent operator start: its (shared) Python stack and its
    /// name. Every operator passes through here and almost none is ever
    /// captured, so nothing is copied until a capture asks.
    current_op: Option<(Arc<[PyFrame]>, Symbol)>,
    /// Captured stacks keyed by kernel symbol (first capture wins, as in
    /// the paper: one representative context per kernel).
    captured: HashMap<Symbol, CrossLayerStack>,
}

impl StackCapture {
    /// An empty capture.
    pub fn new() -> Self {
        StackCapture::default()
    }

    /// Observes the event stream (needs `OpStart` events flowing).
    pub fn observe(&mut self, event: &Event) {
        if let Event::OpStart { py_stack, name, .. } = event {
            self.current_op = Some((Arc::clone(py_stack), *name));
        }
    }

    /// Captures the cross-layer stack for `kernel` if not already present.
    pub fn capture_for_kernel(&mut self, kernel: &Symbol) {
        if self.captured.contains_key(kernel.as_str()) {
            return;
        }
        let mut python = Vec::new();
        if let Some((py_stack, op)) = &self.current_op {
            python.extend_from_slice(py_stack);
            // The operator itself becomes the innermost Python-side frame,
            // mirroring how torch displays `aten::` ops under module code.
            python.push(PyFrame::new("torch/_ops.py", 502, op.as_str()));
        }
        let stack = CrossLayerStack {
            python,
            native: native_frames_for_kernel(kernel),
        };
        self.captured.insert(*kernel, stack);
    }

    /// The captured stack for `kernel`, if any.
    pub fn stack_for(&self, kernel: &str) -> Option<&CrossLayerStack> {
        self.captured.get(kernel)
    }

    /// Number of kernels with captured stacks.
    pub fn captured_count(&self) -> usize {
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
    fn reset_clears() {
        let mut sc = StackCapture::new();
        sc.capture_for_kernel(&Symbol::intern("k"));
        assert_eq!(sc.captured_count(), 1);
        sc.reset();
        assert_eq!(sc.captured_count(), 0);
        assert!(sc.stack_for("k").is_none());
    }
}
