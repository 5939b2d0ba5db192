//! Timing cost model.
//!
//! A roofline-style model: kernel duration is the maximum of its compute
//! time and its memory time, scaled by an occupancy-derived utilization
//! factor, plus fixed launch overhead. Copies are bandwidth/latency bound.
//!
//! What instrumentation costs — per-record callback, analysis, drain and
//! buffer-flush prices, the paper's Fig. 9 overhead gap — is not modelled
//! here: [`crate::BackendCosts`] is the one place those are written down,
//! one preset per backend.

use crate::device::DeviceSpec;
use crate::kernel::KernelDesc;

/// The timing constants of an uninstrumented run.
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
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            host_api_overhead_ns: 1_500,
            launch_host_overhead_ns: 6_000,
            kernel_fixed_overhead_ns: 3_000,
            memcpy_fixed_overhead_ns: 9_000,
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
    fn copy_includes_fixed_latency() {
        let m = CostModel::default();
        assert_eq!(m.copy_duration_ns(0, 24.0), m.memcpy_fixed_overhead_ns);
        let big = m.copy_duration_ns(24 << 30, 24.0);
        assert!(big > 1_000_000_000, "24 GiB at 24 GB/s is about a second");
    }
}
