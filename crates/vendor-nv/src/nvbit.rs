//! NVBit facade.
//!
//! NVBit (Villa et al., MICRO'19) instruments *all* SASS instructions by
//! rewriting binaries at load time. Compared with Compute Sanitizer it
//! offers broader coverage but pays (a) a one-time SASS dump+parse per
//! kernel to find the instructions of interest, and (b) heavier per-record
//! trampolines — the overhead sources the paper cites in §V-B3.
//!
//! Nothing about it is configurable: every constant is
//! [`BackendCosts::nvbit`], and [`backend`] is what a context attaches.

use accel_sim::instrument::BackendCosts;
use accel_sim::{AnalysisMode, InstrCoverage};

/// The NVBit backend, as [`crate::CudaContext::attach_profiler`] takes it:
/// all-instruction coverage, always CPU-post-process (matching the NVBit
/// MemTrace reference tool the paper compares against), the NVBit preset.
pub fn backend() -> (InstrCoverage, AnalysisMode, BackendCosts) {
    (
        InstrCoverage::AllInstructions,
        AnalysisMode::CpuPostProcess,
        BackendCosts::nvbit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CudaContext;
    use accel_sim::DeviceSpec;

    #[test]
    fn defaults_are_heavier_than_sanitizer() {
        let (.., nvbit) = backend();
        let cs = BackendCosts::sanitizer();
        assert!(nvbit.cpu_analysis_ns_per_record > cs.cpu_analysis_ns_per_record);
        assert!(nvbit.sass_parse_ns_per_kernel > 0);
        assert_eq!(cs.sass_parse_ns_per_kernel, 0);
    }

    #[test]
    fn attach_installs_probe() {
        let mut ctx = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let (coverage, mode, costs) = backend();
        let _handle = ctx.attach_profiler(coverage, mode, costs).unwrap();
        assert!(ctx.has_profiler());
    }
}
