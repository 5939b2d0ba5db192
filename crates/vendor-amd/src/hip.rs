//! The HIP vocabulary of the simulated runtime.
//!
//! [`HipContext`] is the shared [`Context`] speaking [`RocCallback`],
//! ROCProfiler-SDK's HIP-API and kernel-dispatch callbacks: `hip*` API
//! names, dispatches with workgroups, releases as negative deltas.

use crate::callbacks::RocCallback;
use accel_sim::{CopyDirection, DeviceId, LaunchId, LaunchRecord, PeerTransfer, SimTime, Vendor};
use uvm_sim::runtime::{Context, LaunchEdge, Vocabulary};

/// The simulated HIP runtime context.
pub type HipContext = Context<RocCallback>;

impl Vocabulary for RocCallback {
    const VENDOR: Vendor = Vendor::Amd;
    const CONTEXT: &'static str = "HipContext";
    const MALLOC: &'static str = "hipMalloc";
    const MALLOC_MANAGED: &'static str = "hipMallocManaged";
    const FREE: &'static str = "hipFree";
    const MEMCPY: &'static str = "hipMemcpy";
    const MEMSET: &'static str = "hipMemset";
    const LAUNCH: &'static str = "hipLaunchKernel";
    const SYNCHRONIZE: &'static str = "hipDeviceSynchronize";
    const MEM_PREFETCH: &'static str = "hipMemPrefetchAsync";
    const PLAN_PREFETCH: &'static str = "hipMemPrefetchAsync(plan)";
    const MEM_ADVISE: &'static str = "hipMemAdvise";

    fn api_enter(name: &'static str, device: DeviceId, at: SimTime) -> Self {
        RocCallback::ApiEnter { name, device, at }
    }

    fn api_exit(name: &'static str, device: DeviceId, at: SimTime) -> Self {
        RocCallback::ApiExit { name, device, at }
    }

    fn alloc(device: DeviceId, addr: u64, bytes: u64, managed: bool, at: SimTime) -> Self {
        RocCallback::MemoryDelta {
            device,
            addr,
            delta: bytes as i64,
            managed,
            at,
        }
    }

    /// ROCm convention: a release is a *negative* delta.
    fn free(device: DeviceId, addr: u64, bytes: u64, managed: bool, at: SimTime) -> Self {
        RocCallback::MemoryDelta {
            device,
            addr,
            delta: -(bytes as i64),
            managed,
            at,
        }
    }

    fn copy(device: DeviceId, direction: CopyDirection, bytes: u64, at: SimTime) -> Self {
        RocCallback::MemoryCopy {
            device,
            direction,
            bytes,
            at,
        }
    }

    fn set(device: DeviceId, addr: u64, bytes: u64, at: SimTime) -> Self {
        RocCallback::MemorySet {
            device,
            addr,
            bytes,
            at,
        }
    }

    fn launch_begin(record: &LaunchRecord) -> Self {
        RocCallback::KernelDispatch {
            launch: record.launch,
            device: record.device,
            stream: record.stream,
            name: record.name,
            workgroups: record.grid,
            workgroup_size: record.block,
            start: record.start,
        }
    }

    fn launch_end(record: &LaunchRecord) -> Self {
        RocCallback::KernelComplete {
            launch: record.launch,
            device: record.device,
            end: record.end,
        }
    }

    fn sync(device: DeviceId, at: SimTime) -> Self {
        RocCallback::Synchronize { device, at }
    }

    fn batch_op(device: DeviceId, op: &'static str, addr: u64, bytes: u64, at: SimTime) -> Self {
        RocCallback::BatchMemOp {
            device,
            op,
            addr,
            bytes,
            at,
        }
    }

    fn fault(record: &LaunchRecord, stall_ns: u64, at: SimTime) -> Self {
        RocCallback::PageMigrate {
            launch: record.launch,
            device: record.device,
            groups: record.uvm_faults,
            migrated_bytes: record.uvm_migrated_bytes,
            evicted_bytes: record.uvm_evicted_bytes,
            stall_ns,
            at,
        }
    }

    fn peer(launch: LaunchId, transfer: PeerTransfer, at: SimTime) -> Self {
        RocCallback::PeerCopy {
            launch,
            src: transfer.src,
            dst: transfer.dst,
            duplicated_pages: transfer.duplicated_pages,
            invalidated_pages: transfer.invalidated_pages,
            bytes: transfer.bytes,
            stall_ns: transfer.stall_ns,
            at,
        }
    }

    fn launch_edge(&self) -> Option<LaunchEdge<'_>> {
        match self {
            RocCallback::KernelDispatch {
                launch,
                name,
                start,
                ..
            } => Some(LaunchEdge::Begin(*launch, name, *start)),
            RocCallback::KernelComplete {
                launch,
                device,
                end,
            } => Some(LaunchEdge::End(*launch, *device, *end)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::sync::Mutex;
    use accel_sim::{DeviceRuntime, DeviceSpec, Dim3, KernelBody, KernelDesc};
    use std::sync::Arc;

    fn ctx() -> HipContext {
        HipContext::new(vec![DeviceSpec::mi300x()])
    }

    #[test]
    fn free_emits_negative_delta() {
        let mut c = ctx();
        let deltas = Arc::new(Mutex::new(Vec::new()));
        let d2 = Arc::clone(&deltas);
        c.subscribe(Box::new(move |cb| {
            if let RocCallback::MemoryDelta { delta, .. } = cb {
                d2.lock().push(*delta);
            }
        }));
        let p = c.malloc(4096).unwrap();
        c.free(p).unwrap();
        let deltas = deltas.lock();
        assert_eq!(deltas.len(), 2);
        assert_eq!(deltas[0], 4096);
        assert_eq!(deltas[1], -4096, "release is a negative delta");
    }

    #[test]
    fn dispatch_vocabulary() {
        let mut c = ctx();
        let kinds = Arc::new(Mutex::new(Vec::new()));
        let k2 = Arc::clone(&kinds);
        c.subscribe(Box::new(move |cb| k2.lock().push(cb.kind().to_owned())));
        let p = c.malloc(1 << 20).unwrap();
        let desc = KernelDesc::new("gemm", Dim3::linear(64), Dim3::linear(256))
            .arg(p, 1 << 20)
            .body(KernelBody::streaming(1 << 19, 1 << 19));
        c.launch(desc).unwrap();
        let kinds = kinds.lock();
        assert!(kinds.iter().any(|k| k == "ROCPROFILER_KERNEL_DISPATCH"));
        assert!(kinds.iter().any(|k| k == "ROCPROFILER_KERNEL_COMPLETE"));
    }

    #[test]
    fn rejects_nvidia_specs() {
        let r = std::panic::catch_unwind(|| HipContext::new(vec![DeviceSpec::a100_80gb()]));
        assert!(r.is_err());
    }

    #[test]
    fn vendor_is_amd() {
        let c = ctx();
        assert_eq!(c.vendor(), Vendor::Amd);
        assert_eq!(c.device_count(), 1);
    }

    #[test]
    fn hip_api_names_flow_through() {
        let mut c = ctx();
        let names = Arc::new(Mutex::new(Vec::new()));
        let n2 = Arc::clone(&names);
        c.subscribe(Box::new(move |cb| {
            if let RocCallback::ApiEnter { name, .. } = cb {
                n2.lock().push(*name);
            }
        }));
        let p = c.malloc(64).unwrap();
        c.free(p).unwrap();
        c.synchronize();
        let names = names.lock();
        assert_eq!(*names, vec!["hipMalloc", "hipFree", "hipDeviceSynchronize"]);
    }
}
