//! Cross-layer call stacks.
//!
//! PASTA's inefficiency-location utilities (§III-F2, Fig. 4) join the
//! Python-side stack (captured via the CPython `PyFrame` API in the real
//! system) with the native C/C++ stack (via `libbacktrace`). Here the
//! Python stack is maintained explicitly by model code, and each kernel
//! kind maps to a representative native frame chain — the same shape as
//! the paper's Fig. 4 BERT example.

use std::fmt;
use std::sync::Arc;

/// One Python stack frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PyFrame {
    /// Source file, e.g. `"torch/nn/modules/linear.py"`.
    pub file: String,
    /// Line number.
    pub line: u32,
    /// Function, e.g. `"forward"`.
    pub func: String,
}

impl PyFrame {
    /// Creates a frame.
    pub fn new(file: impl Into<String>, line: u32, func: impl Into<String>) -> Self {
        PyFrame {
            file: file.into(),
            line,
            func: func.into(),
        }
    }
}

impl fmt::Display for PyFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}()", self.file, self.line, self.func)
    }
}

/// One native (C/C++) frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NativeFrame {
    /// Source file, e.g. `"aten/src/ATen/cuda/CUDABlas.cpp"`.
    pub file: String,
    /// Line number.
    pub line: u32,
    /// Symbol, e.g. `"at::cuda::blas::gemm_and_bias"`.
    pub symbol: String,
}

impl NativeFrame {
    /// Creates a frame.
    pub fn new(file: impl Into<String>, line: u32, symbol: impl Into<String>) -> Self {
        NativeFrame {
            file: file.into(),
            line,
            symbol: symbol.into(),
        }
    }
}

impl fmt::Display for NativeFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {}", self.file, self.line, self.symbol)
    }
}

/// The live Python call stack of the simulated interpreter.
#[derive(Debug, Default, Clone)]
pub struct PyStack {
    frames: Vec<PyFrame>,
    /// The stack as last handed out, until a push or pop changes it:
    /// operators run by the hundred between two frame changes.
    snapshot: Option<Arc<[PyFrame]>>,
}

impl PyStack {
    /// An empty stack.
    pub fn new() -> Self {
        PyStack::default()
    }

    /// Pushes a frame (entering a Python function).
    pub fn push(&mut self, frame: PyFrame) {
        self.frames.push(frame);
        self.snapshot = None;
    }

    /// Pops the top frame.
    pub fn pop(&mut self) -> Option<PyFrame> {
        self.snapshot = None;
        self.frames.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Snapshot of the stack, outermost first: copied once after a push
    /// or pop, shared until the next.
    pub fn snapshot(&mut self) -> Arc<[PyFrame]> {
        Arc::clone(
            self.snapshot
                .get_or_insert_with(|| self.frames.as_slice().into()),
        )
    }
}

/// A joined Python + native stack, as printed in the paper's Fig. 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossLayerStack {
    /// Python frames, outermost first.
    pub python: Vec<PyFrame>,
    /// Native frames, innermost first (backtrace order).
    pub native: Vec<NativeFrame>,
}

impl CrossLayerStack {
    /// Renders the stack in Fig. 4's two-section layout.
    pub fn render(&self) -> String {
        let mut out = String::from("── C/C++ ──\n");
        for f in &self.native {
            out.push_str(&format!("  {f}\n"));
        }
        out.push_str("── Python ──\n");
        for f in self.python.iter().rev() {
            out.push_str(&format!("  {f}\n"));
        }
        out
    }
}

/// Representative native frames for a kernel symbol, mirroring where each
/// kernel family lives in the PyTorch/ATen source tree (Fig. 4).
pub fn native_frames_for_kernel(kernel: &str) -> Vec<NativeFrame> {
    if kernel.contains("sgemm") || kernel.contains("gemm") {
        vec![
            NativeFrame::new(
                "aten/src/ATen/cuda/CUDABlas.cpp",
                771,
                "at::cuda::blas::gemm_and_bias",
            ),
            NativeFrame::new(
                "aten/src/ATen/native/cuda/Blas.cpp",
                281,
                "addmm_out_cuda_impl",
            ),
            NativeFrame::new(
                "build/aten/src/ATen/RegisterCUDA.cpp",
                17434,
                "wrapper_CUDA_addmm",
            ),
        ]
    } else if kernel.contains("im2col") || kernel.contains("col2im") {
        vec![
            NativeFrame::new(
                "aten/src/ATen/native/cuda/im2col.cuh",
                98,
                "at::native::im2col_kernel",
            ),
            NativeFrame::new(
                "aten/src/ATen/native/Convolution.cpp",
                1104,
                "at::native::_convolution",
            ),
        ]
    } else if kernel.contains("elementwise") {
        vec![NativeFrame::new(
            "aten/src/ATen/native/cuda/CUDALoops.cuh",
            321,
            "at::native::vectorized_elementwise_kernel",
        )]
    } else if kernel.contains("nccl") || kernel.contains("rccl") {
        vec![NativeFrame::new(
            "torch/csrc/distributed/c10d/ProcessGroupNCCL.cpp",
            2113,
            "c10d::ProcessGroupNCCL::allreduce",
        )]
    } else {
        vec![NativeFrame::new(
            "aten/src/ATen/native/cuda/DispatchStub.cpp",
            55,
            "at::native::DispatchStub::call",
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_push_pop() {
        let mut s = PyStack::new();
        s.push(PyFrame::new("run_bert.py", 177, "<module>"));
        s.push(PyFrame::new("run_bert.py", 146, "test_bert"));
        assert_eq!(s.depth(), 2);
        let snap = s.snapshot();
        assert_eq!(snap[0].func, "<module>");
        assert_eq!(s.pop().unwrap().func, "test_bert");
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn snapshot_is_shared_until_the_stack_changes() {
        let mut s = PyStack::new();
        s.push(PyFrame::new("run_bert.py", 177, "<module>"));
        let snap = s.snapshot();
        assert!(
            Arc::ptr_eq(&snap, &s.snapshot()),
            "unchanged stack, one copy"
        );
        s.push(PyFrame::new("run_bert.py", 146, "test_bert"));
        assert_eq!(s.snapshot().len(), 2, "a push invalidates the copy");
        s.pop();
        assert_eq!(*s.snapshot(), *snap, "a pop too");
        assert_eq!(snap.len(), 1, "handed-out snapshots never change");
    }

    #[test]
    fn gemm_kernels_map_to_cublas_frames() {
        let frames = native_frames_for_kernel("ampere_sgemm_128x64_tn");
        assert!(
            frames.iter().any(|f| f.symbol.contains("gemm_and_bias")),
            "Fig. 4's hot frame"
        );
    }

    #[test]
    fn unknown_kernels_get_dispatch_stub() {
        let frames = native_frames_for_kernel("mystery_kernel_42");
        assert_eq!(frames.len(), 1);
        assert!(frames[0].symbol.contains("DispatchStub"));
    }

    #[test]
    fn render_has_both_sections() {
        let s = CrossLayerStack {
            python: vec![PyFrame::new("a.py", 1, "main")],
            native: native_frames_for_kernel("sgemm"),
        };
        let r = s.render();
        assert!(r.contains("── C/C++ ──"));
        assert!(r.contains("── Python ──"));
        assert!(r.contains("a.py:1 main()"));
        assert!(r.contains("CUDABlas.cpp"));
    }

    #[test]
    fn frame_display() {
        let f = PyFrame::new("m.py", 3, "f");
        assert_eq!(f.to_string(), "m.py:3 f()");
        let n = NativeFrame::new("x.cpp", 9, "ns::sym");
        assert_eq!(n.to_string(), "x.cpp:9 ns::sym");
    }
}
