//! Compute Sanitizer facade.
//!
//! Mirrors the NVIDIA Compute Sanitizer API surface PASTA uses (§IV-C):
//! `sanitizerSubscribe`-style host callbacks come from
//! [`crate::CudaContext::subscribe`]; this module provides the *device*
//! side — patching memory/barrier instructions and collecting their traces
//! — via [`attach`], the analogue of `sanitizerEnableDomain` +
//! `sanitizerPatchModule`.
//!
//! The per-record cost constants are [`BackendCosts::sanitizer`]; a
//! [`SanitizerConfig`] holds the three values callers vary on top of that
//! preset and defaults the two numeric ones from it. Record sampling is
//! not a backend setting: the session's rate reaches every backend in the
//! [`accel_sim::ProbeConfig`] its sink returns at kernel begin.

use crate::cuda::CudaContext;
use accel_sim::instrument::{BackendCosts, ProfilerHandle};
use accel_sim::trace::{TraceBufferModel, TRACE_RECORD_BYTES};
use accel_sim::{AnalysisMode, InstrCoverage};

/// Configuration of a Compute Sanitizer attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizerConfig {
    /// Where trace analysis runs (paper Fig. 2).
    pub mode: AnalysisMode,
    /// Device trace-buffer size in bytes (CPU-post-process mode).
    pub buffer_bytes: u64,
    /// Width of the on-device analysis thread group (GPU-resident mode).
    pub gpu_analysis_threads: u64,
}

impl SanitizerConfig {
    /// PASTA's GPU-resident collect-and-analyze configuration (CS-GPU).
    pub fn gpu_resident() -> Self {
        let preset = BackendCosts::sanitizer();
        SanitizerConfig {
            mode: AnalysisMode::GpuResident,
            buffer_bytes: preset.buffer.capacity_records * TRACE_RECORD_BYTES,
            gpu_analysis_threads: preset.gpu_analysis_threads,
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

    /// The backend this config describes, as
    /// [`CudaContext::attach_profiler`] takes it: memory/barrier coverage,
    /// the chosen mode, the Compute Sanitizer preset with this config's
    /// buffer and thread-group width.
    pub fn backend(&self) -> (InstrCoverage, AnalysisMode, BackendCosts) {
        let costs = BackendCosts {
            buffer: TraceBufferModel {
                capacity_records: self.buffer_bytes / TRACE_RECORD_BYTES,
            },
            gpu_analysis_threads: self.gpu_analysis_threads,
            ..BackendCosts::sanitizer()
        };
        (InstrCoverage::MemoryAndBarrier, self.mode, costs)
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
///
/// # Panics
///
/// Panics when `config.buffer_bytes` is smaller than one trace record; a
/// caller that wants the error calls [`CudaContext::attach_profiler`] with
/// [`SanitizerConfig::backend`], as the session builder does.
pub fn attach(ctx: &mut CudaContext, config: SanitizerConfig) -> ProfilerHandle {
    let (coverage, mode, costs) = config.backend();
    ctx.attach_profiler(coverage, mode, costs)
        .unwrap_or_else(|e| panic!("{e}"))
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
            .with_analysis_threads(0)
            .with_buffer_bytes(1 << 20);
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

    #[test]
    #[should_panic(expected = "buffer_bytes must be at least")]
    fn a_sub_record_buffer_panics_the_direct_attach() {
        let mut ctx = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        attach(
            &mut ctx,
            SanitizerConfig::gpu_resident().with_buffer_bytes(8),
        );
    }
}
