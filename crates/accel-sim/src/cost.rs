//! Timing cost model.
//!
//! A roofline-style model: kernel duration is the maximum of its compute
//! time and its memory time, scaled by an occupancy-derived utilization
//! factor, plus fixed launch overhead. Copies are bandwidth/latency bound.
//! The analysis-cost constants model the per-record price of trace
//! processing on a single CPU thread versus parallel on-device analysis
//! threads — the knob behind the paper's Fig. 9 overhead gap.

use crate::device::DeviceSpec;
use crate::kernel::KernelDesc;

/// All tunable timing constants of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Host-side cost of any runtime API call (ns).
    pub host_api_overhead_ns: u64,
    /// Host-side cost of enqueuing a kernel launch (ns).
    pub launch_host_overhead_ns: u64,
    /// Fixed device-side kernel startup/teardown (ns).
    pub kernel_fixed_overhead_ns: u64,
    /// Fixed latency of any memcpy (ns).
    pub memcpy_fixed_overhead_ns: u64,
    /// Device time per instrumented record: the inline callback executed by
    /// patched instructions (ns/record). Applies to both analysis modes.
    pub device_callback_ns_per_record: f64,
    /// Single-thread CPU time to analyze one trace record (ns/record) —
    /// the paper's CPU-analysis bottleneck.
    pub cpu_analysis_ns_per_record: f64,
    /// Device time for one GPU-resident analysis thread to process one
    /// record (ns/record), before dividing by the thread-group width.
    pub gpu_analysis_ns_per_record: f64,
    /// Number of concurrent on-device analysis threads PASTA launches.
    pub gpu_analysis_threads: u64,
    /// Stall latency each time the trace buffer fills and must round-trip
    /// to the host before the kernel resumes (ns/flush).
    pub buffer_flush_latency_ns: u64,
    /// Floor on achievable utilization for tiny launches.
    pub min_utilization: f64,
}

impl CostModel {
    /// Compute time for `flops` on `spec` at full utilization, ns.
    fn compute_ns(&self, spec: &DeviceSpec, flops: u64) -> f64 {
        // tflops * 1e12 flop/s = tflops * 1e3 flop/ns.
        flops as f64 / (spec.fp32_tflops * 1_000.0)
    }

    /// Memory time for `bytes` at `spec`'s HBM bandwidth, ns.
    fn memory_ns(&self, spec: &DeviceSpec, bytes: u64) -> f64 {
        // GB/s == bytes/ns.
        bytes as f64 / spec.mem_bandwidth_gbps
    }

    /// Utilization factor in `[min_utilization, 1]` from launch occupancy.
    pub fn utilization(&self, spec: &DeviceSpec, desc: &KernelDesc) -> f64 {
        let resident = spec.max_resident_threads() as f64 / 2.0;
        let occ = desc.total_threads() as f64 / resident;
        occ.min(1.0).max(self.min_utilization)
    }

    /// Uninstrumented kernel duration on `spec`, ns.
    pub fn kernel_duration_ns(&self, spec: &DeviceSpec, desc: &KernelDesc) -> u64 {
        self.kernel_duration_given(spec, desc, desc.body.global_bytes())
    }

    /// [`CostModel::kernel_duration_ns`] for a caller that already holds
    /// the body's `global_bytes` (the engine sums them while validating).
    pub(crate) fn kernel_duration_given(
        &self,
        spec: &DeviceSpec,
        desc: &KernelDesc,
        global_bytes: u64,
    ) -> u64 {
        let util = self.utilization(spec, desc);
        let compute = self.compute_ns(spec, desc.body.flops) / util;
        let memory = self.memory_ns(spec, global_bytes) / util;
        compute.max(memory) as u64 + self.kernel_fixed_overhead_ns
    }

    /// Duration of a `bytes`-long copy over a link of `bandwidth_gbps`, ns.
    pub fn copy_duration_ns(&self, bytes: u64, bandwidth_gbps: f64) -> u64 {
        (bytes as f64 / bandwidth_gbps) as u64 + self.memcpy_fixed_overhead_ns
    }

    /// Device time for GPU-resident analysis of `records` records, ns.
    pub fn gpu_analysis_ns(&self, records: u64) -> u64 {
        (records as f64 * self.gpu_analysis_ns_per_record / self.gpu_analysis_threads as f64).ceil()
            as u64
    }

    /// Host time for single-thread CPU analysis of `records` records, ns.
    pub fn cpu_analysis_ns(&self, records: u64) -> u64 {
        (records as f64 * self.cpu_analysis_ns_per_record).ceil() as u64
    }

    /// Device time spent executing inline instrumentation callbacks for
    /// `records` records, ns.
    pub fn device_callback_ns(&self, records: u64) -> u64 {
        (records as f64 * self.device_callback_ns_per_record).ceil() as u64
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            host_api_overhead_ns: 1_500,
            launch_host_overhead_ns: 6_000,
            kernel_fixed_overhead_ns: 3_000,
            memcpy_fixed_overhead_ns: 9_000,
            device_callback_ns_per_record: 1.6,
            cpu_analysis_ns_per_record: 110.0,
            gpu_analysis_ns_per_record: 0.9,
            gpu_analysis_threads: 4_096,
            buffer_flush_latency_ns: 30_000,
            min_utilization: 0.02,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim3;
    use crate::kernel::KernelBody;
    use crate::mem::DevicePtr;

    fn desc(threads: u32, flops: u64, bytes: u64) -> KernelDesc {
        KernelDesc::new("k", Dim3::linear(threads / 256), Dim3::linear(256))
            .arg(DevicePtr(0x100), bytes)
            .body(KernelBody::streaming(bytes / 2, bytes / 2).with_flops(flops))
    }

    #[test]
    fn memory_bound_kernel_scales_with_bandwidth() {
        let m = CostModel::default();
        let a100 = DeviceSpec::a100_80gb();
        let r3060 = DeviceSpec::rtx_3060();
        let d = desc(1 << 20, 1, 1 << 30);
        let fast = m.kernel_duration_ns(&a100, &d);
        let slow = m.kernel_duration_ns(&r3060, &d);
        assert!(
            slow > fast * 3,
            "3060 ({slow}ns) should be much slower than A100 ({fast}ns)"
        );
    }

    #[test]
    fn compute_bound_kernel_scales_with_tflops() {
        let m = CostModel::default();
        let a100 = DeviceSpec::a100_80gb();
        let d = desc(1 << 20, 10_000_000_000, 1024);
        let ns = m.kernel_duration_ns(&a100, &d);
        // 10 GFLOP at 19.5 TFLOP/s ≈ 513 us.
        assert!((400_000..700_000).contains(&ns), "got {ns}");
    }

    #[test]
    fn tiny_launches_hit_utilization_floor() {
        let m = CostModel::default();
        let a100 = DeviceSpec::a100_80gb();
        let tiny = desc(256, 1, 1 << 20);
        let big = desc(1 << 20, 1, 1 << 20);
        assert!(m.utilization(&a100, &tiny) < m.utilization(&a100, &big));
        assert!(m.utilization(&a100, &tiny) >= m.min_utilization);
        assert!(
            m.kernel_duration_ns(&a100, &tiny) > m.kernel_duration_ns(&a100, &big),
            "under-occupied launch must run longer"
        );
    }

    #[test]
    fn gpu_analysis_is_orders_of_magnitude_cheaper_than_cpu() {
        let m = CostModel::default();
        let records = 100_000_000u64;
        let cpu = m.cpu_analysis_ns(records);
        let gpu = m.gpu_analysis_ns(records);
        let ratio = cpu as f64 / gpu as f64;
        assert!(
            ratio > 1_000.0,
            "CPU/GPU analysis ratio {ratio} too small for Fig. 9 shapes"
        );
    }

    #[test]
    fn copy_includes_fixed_latency() {
        let m = CostModel::default();
        assert_eq!(m.copy_duration_ns(0, 24.0), m.memcpy_fixed_overhead_ns);
        let big = m.copy_duration_ns(24 << 30, 24.0);
        assert!(big > 1_000_000_000, "24 GiB at 24 GB/s is about a second");
    }

    #[test]
    fn analysis_costs_round_up() {
        let m = CostModel::default();
        assert!(m.cpu_analysis_ns(1) >= 1);
        assert!(m.gpu_analysis_ns(1) >= 1);
        assert!(m.device_callback_ns(1) >= 1);
    }
}
