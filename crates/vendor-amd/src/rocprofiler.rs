//! ROCProfiler-SDK facade.
//!
//! The paper integrates ROCprofiler-SDK for AMD GPUs, noting its callbacks
//! are "analogous to NVIDIA's Compute Sanitizer callbacks" (§III-D). Host
//! callbacks come from [`crate::HipContext::subscribe`]
//! (`rocprofiler_configure_callback…`); this module describes the device
//! trace side — memory/barrier coverage, either analysis mode — for
//! [`crate::HipContext::attach_profiler`], the analogue of
//! `rocprofiler_configure_callback_tracing_service`.
//!
//! The per-record cost constants are this module's `costs` preset, the
//! third beside [`BackendCosts::sanitizer`] and [`BackendCosts::nvbit`];
//! the analysis mode is the one value a caller sets.

use accel_sim::instrument::BackendCosts;
use accel_sim::{AnalysisMode, InstrCoverage};

/// Configuration of a ROCProfiler-SDK device-trace attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct RocProfilerConfig {
    /// Where trace analysis runs.
    pub mode: AnalysisMode,
}

impl Default for RocProfilerConfig {
    fn default() -> Self {
        RocProfilerConfig {
            mode: AnalysisMode::GpuResident,
        }
    }
}

impl RocProfilerConfig {
    /// The backend this config describes, as
    /// [`crate::HipContext::attach_profiler`] takes it: memory/barrier
    /// coverage, the chosen mode, the ROCProfiler preset.
    pub fn backend(&self) -> (InstrCoverage, AnalysisMode, BackendCosts) {
        (InstrCoverage::MemoryAndBarrier, self.mode, costs())
    }
}

/// Per-record costs for ROCProfiler device tracing; CDNA3's wide CU array
/// amortizes callbacks similarly to the Compute Sanitizer numbers. Trace
/// buffer, analysis thread group and result buffer are that preset's, and
/// like it there is no SASS to parse.
fn costs() -> BackendCosts {
    BackendCosts {
        device_callback_ns_per_record: 3.1,
        cpu_analysis_ns_per_record: 3_000.0,
        cpu_drain_ns_per_record: 160.0,
        gpu_analysis_ns_per_record: 1.0,
        buffer_flush_latency_ns: 32_000,
        ..BackendCosts::sanitizer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HipContext;
    use accel_sim::{DeviceRuntime, DeviceSpec, Dim3, KernelBody, KernelDesc};

    #[test]
    fn attach_installs_probe_and_counts_records() {
        let mut ctx = HipContext::new(vec![DeviceSpec::mi300x()]);
        let (coverage, mode, costs) = RocProfilerConfig::default().backend();
        let handle = ctx.attach_profiler(coverage, mode, costs).unwrap();
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
    fn costs_have_no_sass_parse() {
        assert_eq!(costs().sass_parse_ns_per_kernel, 0);
    }
}
