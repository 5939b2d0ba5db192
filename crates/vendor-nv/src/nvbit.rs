//! NVBit facade.
//!
//! NVBit (Villa et al., MICRO'19) instruments *all* SASS instructions by
//! rewriting binaries at load time. Compared with Compute Sanitizer it
//! offers broader coverage but pays (a) a one-time SASS dump+parse per
//! kernel to find the instructions of interest, and (b) heavier per-record
//! trampolines — the overhead sources the paper cites in §V-B3. The
//! attachment point here is the analogue of `nvbit_at_cuda_event`.

use crate::cuda::CudaContext;
use accel_sim::instrument::{BackendCosts, ProfilerHandle, TraceProfiler};
use accel_sim::trace::TraceBufferModel;
use accel_sim::{AnalysisMode, InstrCoverage};

/// Configuration of an NVBit attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct NvbitConfig {
    /// Record sampling factor; 1 = all.
    pub sampling_rate: u32,
    /// Device trace-buffer size in bytes.
    pub buffer_bytes: u64,
    /// Host time to dump+parse SASS per unique kernel, ns.
    pub sass_parse_ns_per_kernel: u64,
    /// Host analysis cost per record, ns (heavier than Compute Sanitizer:
    /// the CPU must decode packed NVBit records).
    pub cpu_analysis_ns_per_record: f64,
}

impl Default for NvbitConfig {
    fn default() -> Self {
        let base = BackendCosts::nvbit();
        NvbitConfig {
            sampling_rate: 1,
            buffer_bytes: 4 << 20,
            sass_parse_ns_per_kernel: base.sass_parse_ns_per_kernel,
            cpu_analysis_ns_per_record: base.cpu_analysis_ns_per_record,
        }
    }
}

impl NvbitConfig {
    /// Overrides the sampling rate.
    pub fn with_sampling(mut self, rate: u32) -> Self {
        self.sampling_rate = rate.max(1);
        self
    }
}

/// Attaches NVBit instrumentation (always CPU-post-process, matching the
/// NVBit MemTrace reference tool the paper compares against).
pub fn attach(ctx: &mut CudaContext, config: NvbitConfig) -> ProfilerHandle {
    let costs = BackendCosts {
        buffer: TraceBufferModel::with_bytes(config.buffer_bytes),
        sass_parse_ns_per_kernel: config.sass_parse_ns_per_kernel,
        cpu_analysis_ns_per_record: config.cpu_analysis_ns_per_record,
        ..BackendCosts::nvbit()
    };
    let link_bw = ctx.link_bandwidths();
    let (profiler, handle) = TraceProfiler::new(
        InstrCoverage::AllInstructions,
        AnalysisMode::CpuPostProcess,
        costs,
        link_bw,
        config.sampling_rate,
    );
    ctx.install_profiler(Box::new(profiler));
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceSpec;

    #[test]
    fn defaults_are_heavier_than_sanitizer() {
        let nvbit = NvbitConfig::default();
        let cs = BackendCosts::sanitizer();
        assert!(nvbit.cpu_analysis_ns_per_record > cs.cpu_analysis_ns_per_record);
        assert!(nvbit.sass_parse_ns_per_kernel > 0);
        assert_eq!(cs.sass_parse_ns_per_kernel, 0);
    }

    #[test]
    fn attach_installs_probe() {
        let mut ctx = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let _handle = attach(&mut ctx, NvbitConfig::default());
        assert!(ctx.has_profiler());
    }

    #[test]
    fn sampling_clamps() {
        assert_eq!(NvbitConfig::default().with_sampling(0).sampling_rate, 1);
    }
}
