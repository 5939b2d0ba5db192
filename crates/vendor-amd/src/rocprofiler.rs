//! ROCProfiler-SDK facade.
//!
//! The paper integrates ROCprofiler-SDK for AMD GPUs, noting its callbacks
//! are "analogous to NVIDIA's Compute Sanitizer callbacks" (§III-D). Host
//! callbacks come from [`crate::HipContext::subscribe`]
//! (`rocprofiler_configure_callback…`); this module attaches the device
//! trace side with memory/barrier coverage and either analysis mode.

use crate::hip::HipContext;
use accel_sim::instrument::{BackendCosts, ProfilerHandle, TraceProfiler};
use accel_sim::trace::TraceBufferModel;
use accel_sim::{AnalysisMode, InstrCoverage};

/// Configuration of a ROCProfiler-SDK device-trace attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct RocProfilerConfig {
    /// Where trace analysis runs.
    pub mode: AnalysisMode,
    /// Record sampling factor; 1 = all.
    pub sampling_rate: u32,
    /// Device trace-buffer size in bytes.
    pub buffer_bytes: u64,
    /// On-device analysis thread-group width (GPU-resident mode).
    pub gpu_analysis_threads: u64,
}

impl Default for RocProfilerConfig {
    fn default() -> Self {
        RocProfilerConfig {
            mode: AnalysisMode::GpuResident,
            sampling_rate: 1,
            buffer_bytes: 4 << 20,
            gpu_analysis_threads: 4_096,
        }
    }
}

impl RocProfilerConfig {
    /// Overrides the analysis mode.
    pub fn with_mode(mut self, mode: AnalysisMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the sampling rate.
    pub fn with_sampling(mut self, rate: u32) -> Self {
        self.sampling_rate = rate.max(1);
        self
    }
}

/// Per-record costs for ROCProfiler device tracing; CDNA3's wide CU array
/// amortizes callbacks similarly to the Compute Sanitizer numbers.
fn rocprofiler_costs(buffer_bytes: u64, threads: u64) -> BackendCosts {
    BackendCosts {
        device_callback_ns_per_record: 3.1,
        cpu_analysis_ns_per_record: 3_000.0,
        cpu_drain_ns_per_record: 160.0,
        gpu_analysis_ns_per_record: 1.0,
        gpu_analysis_threads: threads,
        buffer: TraceBufferModel::with_bytes(buffer_bytes),
        buffer_flush_latency_ns: 32_000,
        sass_parse_ns_per_kernel: 0,
        result_buffer_bytes: 64 << 10,
    }
}

/// Attaches ROCProfiler-SDK device tracing to a HIP context; the analogue
/// of `rocprofiler_configure_callback_tracing_service`.
pub fn attach(ctx: &mut HipContext, config: RocProfilerConfig) -> ProfilerHandle {
    let costs = rocprofiler_costs(config.buffer_bytes, config.gpu_analysis_threads);
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
    use accel_sim::{DeviceRuntime, DeviceSpec, Dim3, KernelBody, KernelDesc};

    #[test]
    fn attach_installs_probe_and_counts_records() {
        let mut ctx = HipContext::new(vec![DeviceSpec::mi300x()]);
        let handle = attach(&mut ctx, RocProfilerConfig::default());
        assert!(ctx.has_profiler());
        let p = ctx.malloc(1 << 20).unwrap();
        let desc = KernelDesc::new("gemm", Dim3::linear(64), Dim3::linear(256))
            .arg(p, 1 << 20)
            .body(KernelBody::streaming(1 << 19, 1 << 19));
        let rec = ctx.launch(desc).unwrap();
        assert!(rec.records_emitted > 0);
        assert_eq!(handle.records_total(), rec.records_emitted);
        assert_eq!(handle.kernels(), 1);
    }

    #[test]
    fn config_builders() {
        let c = RocProfilerConfig::default()
            .with_mode(AnalysisMode::CpuPostProcess)
            .with_sampling(0);
        assert_eq!(c.mode, AnalysisMode::CpuPostProcess);
        assert_eq!(c.sampling_rate, 1);
    }

    #[test]
    fn costs_have_no_sass_parse() {
        let c = rocprofiler_costs(4 << 20, 4_096);
        assert_eq!(c.sass_parse_ns_per_kernel, 0);
    }
}
