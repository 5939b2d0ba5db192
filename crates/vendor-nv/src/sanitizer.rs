//! Compute Sanitizer facade.
//!
//! Mirrors the NVIDIA Compute Sanitizer API surface PASTA uses (§IV-C):
//! `sanitizerSubscribe`-style host callbacks come from
//! [`crate::CudaContext::subscribe`]; this module provides the *device*
//! side — patching memory/barrier instructions and collecting their traces
//! — via [`attach`], the analogue of `sanitizerEnableDomain` +
//! `sanitizerPatchModule`.

use crate::cuda::CudaContext;
use accel_sim::instrument::{BackendCosts, ProfilerHandle, TraceProfiler};
use accel_sim::trace::TraceBufferModel;
use accel_sim::{AnalysisMode, InstrCoverage};

/// Configuration of a Compute Sanitizer attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerConfig {
    /// Where trace analysis runs (paper Fig. 2).
    pub mode: AnalysisMode,
    /// Record sampling factor (`ACCEL_PROF_ENV_SAMPLE_RATE`); 1 = all.
    pub sampling_rate: u32,
    /// Device trace-buffer size in bytes (CPU-post-process mode).
    pub buffer_bytes: u64,
    /// Width of the on-device analysis thread group (GPU-resident mode).
    pub gpu_analysis_threads: u64,
}

impl SanitizerConfig {
    /// PASTA's GPU-resident collect-and-analyze configuration (CS-GPU).
    pub fn gpu_resident() -> Self {
        SanitizerConfig {
            mode: AnalysisMode::GpuResident,
            sampling_rate: 1,
            buffer_bytes: 4 << 20,
            gpu_analysis_threads: 4_096,
        }
    }

    /// The conventional CPU-analysis configuration (CS-CPU), as in the
    /// Compute Sanitizer MemoryTracker sample tool.
    pub fn cpu_post_process() -> Self {
        SanitizerConfig {
            mode: AnalysisMode::CpuPostProcess,
            ..SanitizerConfig::gpu_resident()
        }
    }

    /// Overrides the sampling rate.
    pub fn with_sampling(mut self, rate: u32) -> Self {
        self.sampling_rate = rate.max(1);
        self
    }

    /// Overrides the analysis thread-group width (ablation knob).
    pub fn with_analysis_threads(mut self, threads: u64) -> Self {
        self.gpu_analysis_threads = threads.max(1);
        self
    }

    /// Overrides the trace-buffer size (ablation knob).
    pub fn with_buffer_bytes(mut self, bytes: u64) -> Self {
        self.buffer_bytes = bytes;
        self
    }
}

impl Default for SanitizerConfig {
    fn default() -> Self {
        SanitizerConfig::gpu_resident()
    }
}

/// Attaches Compute Sanitizer instrumentation to a CUDA context and returns
/// the handle for wiring a sink and reading the overhead breakdown.
///
/// Equivalent to `sanitizerEnableDomain` + `sanitizerPatchModule` in the
/// real API: after this call, every kernel's memory and barrier
/// instructions are patched.
pub fn attach(ctx: &mut CudaContext, config: SanitizerConfig) -> ProfilerHandle {
    let costs = BackendCosts {
        buffer: TraceBufferModel::with_bytes(config.buffer_bytes),
        gpu_analysis_threads: config.gpu_analysis_threads,
        ..BackendCosts::sanitizer()
    };
    let link_bw = ctx.link_bandwidths();
    let (profiler, handle) = TraceProfiler::new(
        InstrCoverage::MemoryAndBarrier,
        config.mode,
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
    fn config_presets_differ_in_mode_only() {
        let gpu = SanitizerConfig::gpu_resident();
        let cpu = SanitizerConfig::cpu_post_process();
        assert_eq!(gpu.mode, AnalysisMode::GpuResident);
        assert_eq!(cpu.mode, AnalysisMode::CpuPostProcess);
        assert_eq!(gpu.buffer_bytes, cpu.buffer_bytes);
    }

    #[test]
    fn builder_knobs() {
        let c = SanitizerConfig::gpu_resident()
            .with_sampling(0)
            .with_analysis_threads(0)
            .with_buffer_bytes(1 << 20);
        assert_eq!(c.sampling_rate, 1, "sampling clamps to 1");
        assert_eq!(c.gpu_analysis_threads, 1, "threads clamp to 1");
        assert_eq!(c.buffer_bytes, 1 << 20);
    }

    #[test]
    fn attach_installs_probe() {
        let mut ctx = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        assert!(!ctx.has_profiler());
        let _handle = attach(&mut ctx, SanitizerConfig::gpu_resident());
        assert!(ctx.has_profiler());
    }
}
