//! Process-injection model.
//!
//! The paper (§IV-D) describes a practical multi-GPU pitfall: with
//! `LD_PRELOAD`, *every* spawned process gets instrumented — including
//! Megatron-LM's JIT-compilation helper processes that never create a CUDA
//! context, causing spurious initialization and runtime errors. PASTA
//! switched to `CUDA_INJECTION64_PATH`, which the CUDA driver honours only
//! in processes that actually initialize CUDA. This module captures that
//! decision table so the multi-GPU harness can assert it.

/// How the profiler shared library reaches the target process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionMethod {
    /// Loader-level preload: injected into every process of the tree.
    LdPreload,
    /// CUDA-driver-level injection: loaded only on CUDA context creation.
    CudaInjection64Path,
}

/// What a process in the launch tree does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessKind {
    /// A worker that creates a CUDA context (one per GPU, typically).
    CudaContextCreator,
    /// An auxiliary helper (e.g. a JIT-compilation subprocess) that never
    /// touches the GPU.
    Helper,
}

/// Whether the profiler ends up active inside the process.
pub fn should_instrument(method: InjectionMethod, kind: ProcessKind) -> bool {
    match method {
        InjectionMethod::LdPreload => true,
        InjectionMethod::CudaInjection64Path => kind == ProcessKind::CudaContextCreator,
    }
}

/// Whether an active profiler in this process is *spurious* (instrumented
/// but with no CUDA context — the failure mode the paper hit).
pub fn is_spurious(method: InjectionMethod, kind: ProcessKind) -> bool {
    should_instrument(method, kind) && kind == ProcessKind::Helper
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ld_preload_instruments_helpers_spuriously() {
        assert!(should_instrument(
            InjectionMethod::LdPreload,
            ProcessKind::Helper
        ));
        assert!(is_spurious(InjectionMethod::LdPreload, ProcessKind::Helper));
    }

    #[test]
    fn cuda_injection_skips_helpers() {
        assert!(!should_instrument(
            InjectionMethod::CudaInjection64Path,
            ProcessKind::Helper
        ));
        assert!(!is_spurious(
            InjectionMethod::CudaInjection64Path,
            ProcessKind::Helper
        ));
    }

    #[test]
    fn workers_always_instrumented() {
        for m in [
            InjectionMethod::LdPreload,
            InjectionMethod::CudaInjection64Path,
        ] {
            assert!(should_instrument(m, ProcessKind::CudaContextCreator));
            assert!(!is_spurious(m, ProcessKind::CudaContextCreator));
        }
    }
}
