//! The CUDA vocabulary of the simulated runtime.
//!
//! [`CudaContext`] is the shared [`Context`] speaking [`NvCallback`], the
//! host-callback half of the Compute Sanitizer API: `cuda*` API names,
//! launches with grids, frees that carry the (positive) size released.

use crate::callbacks::NvCallback;
use accel_sim::{CopyDirection, DeviceId, LaunchId, LaunchRecord, PeerTransfer, SimTime, Vendor};
use uvm_sim::runtime::{Context, LaunchEdge, Vocabulary};

/// The simulated CUDA runtime context.
pub type CudaContext = Context<NvCallback>;

impl Vocabulary for NvCallback {
    const VENDOR: Vendor = Vendor::Nvidia;
    const CONTEXT: &'static str = "CudaContext";
    const MALLOC: &'static str = "cudaMalloc";
    const MALLOC_MANAGED: &'static str = "cudaMallocManaged";
    const FREE: &'static str = "cudaFree";
    const MEMCPY: &'static str = "cudaMemcpy";
    const MEMSET: &'static str = "cudaMemset";
    const LAUNCH: &'static str = "cuLaunchKernel";
    const SYNCHRONIZE: &'static str = "cudaDeviceSynchronize";
    const MEM_PREFETCH: &'static str = "cudaMemPrefetchAsync";
    const PLAN_PREFETCH: &'static str = "cudaMemPrefetchAsync(plan)";
    const MEM_ADVISE: &'static str = "cudaMemAdvise";

    fn api_enter(name: &'static str, device: DeviceId, at: SimTime) -> Self {
        NvCallback::ApiEnter { name, device, at }
    }

    fn api_exit(name: &'static str, device: DeviceId, at: SimTime) -> Self {
        NvCallback::ApiExit { name, device, at }
    }

    fn alloc(device: DeviceId, addr: u64, bytes: u64, managed: bool, at: SimTime) -> Self {
        NvCallback::MemoryAlloc {
            device,
            addr,
            bytes,
            managed,
            at,
        }
    }

    fn free(device: DeviceId, addr: u64, bytes: u64, _managed: bool, at: SimTime) -> Self {
        NvCallback::MemoryFree {
            device,
            addr,
            bytes,
            at,
        }
    }

    fn copy(device: DeviceId, direction: CopyDirection, bytes: u64, at: SimTime) -> Self {
        NvCallback::Memcpy {
            device,
            direction,
            bytes,
            at,
        }
    }

    fn set(device: DeviceId, addr: u64, bytes: u64, at: SimTime) -> Self {
        NvCallback::Memset {
            device,
            addr,
            bytes,
            at,
        }
    }

    fn launch_begin(record: &LaunchRecord) -> Self {
        NvCallback::LaunchBegin {
            launch: record.launch,
            device: record.device,
            stream: record.stream,
            name: record.name,
            grid: record.grid,
            block: record.block,
            start: record.start,
        }
    }

    fn launch_end(record: &LaunchRecord) -> Self {
        NvCallback::LaunchEnd {
            launch: record.launch,
            device: record.device,
            end: record.end,
        }
    }

    fn sync(device: DeviceId, at: SimTime) -> Self {
        NvCallback::Synchronize { device, at }
    }

    fn batch_op(device: DeviceId, op: &'static str, addr: u64, bytes: u64, at: SimTime) -> Self {
        NvCallback::BatchMemOp {
            device,
            op,
            addr,
            bytes,
            at,
        }
    }

    fn fault(record: &LaunchRecord, stall_ns: u64, at: SimTime) -> Self {
        NvCallback::UvmFault {
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
        NvCallback::PeerMigrate {
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
            NvCallback::LaunchBegin {
                launch,
                name,
                start,
                ..
            } => Some(LaunchEdge::Begin(*launch, name, *start)),
            NvCallback::LaunchEnd {
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
    use accel_sim::runtime::MemAdvise;
    use accel_sim::sync::Mutex;
    use accel_sim::{DeviceRuntime, DeviceSpec, Dim3, Engine, KernelBody, KernelDesc};
    use std::sync::Arc;
    use uvm_sim::{PrefetchPlan, Range, UvmConfig, UvmManager};

    fn ctx() -> CudaContext {
        CudaContext::new(vec![DeviceSpec::rtx_3060()])
    }

    fn collect_callbacks(ctx: &mut CudaContext) -> Arc<Mutex<Vec<String>>> {
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        ctx.subscribe(Box::new(move |cb| log2.lock().push(cb.cbid().to_owned())));
        log
    }

    #[test]
    fn malloc_free_emit_callbacks() {
        let mut c = ctx();
        let log = collect_callbacks(&mut c);
        let p = c.malloc(4096).unwrap();
        c.free(p).unwrap();
        let log = log.lock();
        assert!(log.contains(&"SANITIZER_CBID_MEMORY_ALLOC".to_owned()));
        assert!(log.contains(&"SANITIZER_CBID_MEMORY_FREE".to_owned()));
        assert!(log.contains(&"NV_API_ENTER".to_owned()));
    }

    #[test]
    fn launch_emits_begin_and_end() {
        let mut c = ctx();
        let log = collect_callbacks(&mut c);
        let p = c.malloc(1 << 20).unwrap();
        let desc = KernelDesc::new("k", Dim3::linear(16), Dim3::linear(128))
            .arg(p, 1 << 20)
            .body(KernelBody::streaming(1 << 19, 1 << 19));
        let rec = c.launch(desc).unwrap();
        assert!(rec.end > rec.start);
        let log = log.lock();
        assert!(log.contains(&"SANITIZER_CBID_LAUNCH_BEGIN".to_owned()));
        assert!(log.contains(&"SANITIZER_CBID_LAUNCH_END".to_owned()));
    }

    #[test]
    fn managed_alloc_round_trips_through_uvm() {
        let mut c = ctx();
        let mut uvm = UvmManager::new(UvmConfig);
        uvm.add_device(1 << 30, 12.0, 35_000);
        c.attach_uvm(uvm);
        let p = c.malloc_managed(32 << 20).unwrap();
        assert!(Engine::is_managed_addr(p.addr()));
        // A kernel touching the managed range pays faults.
        let desc = KernelDesc::new("k", Dim3::linear(256), Dim3::linear(256))
            .arg(p, 32 << 20)
            .body(KernelBody::streaming(16 << 20, 16 << 20));
        let rec = c.launch(desc).unwrap();
        assert!(rec.uvm_faults > 0, "cold managed pages fault");
        assert!(rec.uvm_stall_ns > 0);
        c.free(p).unwrap();
    }

    #[test]
    fn peer_and_fault_events_partition_the_launch_stall() {
        // A launch that both demand-faults a private region and
        // read-duplicates a shared one must report each nanosecond of
        // UVM stall exactly once: UvmFault carries the host share,
        // PeerMigrate the peer share, and they sum to the record's
        // total — tools adding both streams must not double-count.
        use accel_sim::AccessSpec;
        use uvm_sim::UvmConfig;
        let mut c = CudaContext::new(vec![DeviceSpec::rtx_3060(), DeviceSpec::rtx_3060()]);
        c.set_device(DeviceId(1)).unwrap();
        let mut uvm = UvmManager::new(UvmConfig);
        uvm.add_device(1 << 30, 12.0, 35_000);
        uvm.add_device(1 << 30, 12.0, 35_000);
        c.attach_uvm(uvm);
        let p = c.malloc_managed(8 << 20).unwrap();
        c.engine_mut()
            .residency_mut()
            .unwrap()
            .register_shared(p.addr(), 4 << 20, DeviceId(0));

        let stalls = Arc::new(Mutex::new((0u64, 0u64))); // (fault, peer)
        let stalls2 = Arc::clone(&stalls);
        c.subscribe(Box::new(move |cb| match cb {
            NvCallback::UvmFault { stall_ns, .. } => stalls2.lock().0 += stall_ns,
            NvCallback::PeerMigrate { stall_ns, .. } => stalls2.lock().1 += stall_ns,
            _ => {}
        }));
        // One launch covering shared head (peer-duplicates onto dev 1)
        // and private tail (host demand faults).
        let desc = KernelDesc::new("mixed", Dim3::linear(64), Dim3::linear(128))
            .arg(p, 8 << 20)
            .body(KernelBody::default().access(AccessSpec::load(0, 8 << 20)));
        let rec = c.launch(desc).unwrap();
        assert!(rec.uvm_peer_bytes > 0 && rec.uvm_migrated_bytes > 0);
        let (fault, peer) = *stalls.lock();
        assert!(fault > 0 && peer > 0, "both streams fired");
        assert_eq!(
            fault + peer,
            rec.uvm_stall_ns,
            "every stall nanosecond reported exactly once"
        );
        c.free(p).unwrap();
    }

    #[test]
    fn prefetch_plan_runs_before_launch() {
        let mut c = ctx();
        let mut uvm = UvmManager::new(UvmConfig);
        uvm.add_device(1 << 30, 12.0, 35_000);
        c.attach_uvm(uvm);
        let p = c.malloc_managed(32 << 20).unwrap();
        let mut plan = PrefetchPlan::default();
        plan.add(0, Range::new(p.addr(), 32 << 20));
        c.set_prefetch_plan(plan);
        let desc = KernelDesc::new("k", Dim3::linear(256), Dim3::linear(256))
            .arg(p, 32 << 20)
            .body(KernelBody::streaming(16 << 20, 16 << 20));
        let rec = c.launch(desc).unwrap();
        assert_eq!(rec.uvm_faults, 0, "prefetched pages do not fault");
    }

    #[test]
    fn mem_prefetch_and_advise_emit_batch_ops() {
        let mut c = ctx();
        let mut uvm = UvmManager::new(UvmConfig);
        uvm.add_device(1 << 30, 12.0, 35_000);
        c.attach_uvm(uvm);
        let log = collect_callbacks(&mut c);
        let p = c.malloc_managed(4 << 20).unwrap();
        c.mem_prefetch(p, 4 << 20).unwrap();
        c.mem_advise(p, 4 << 20, MemAdvise::PreferredLocationDevice)
            .unwrap();
        let n = log
            .lock()
            .iter()
            .filter(|s| *s == "SANITIZER_CBID_BATCH_MEMOP")
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn set_device_validates() {
        let mut c = ctx();
        assert!(c.set_device(DeviceId(5)).is_err());
        assert!(c.set_device(DeviceId(0)).is_ok());
        assert_eq!(c.current_device(), DeviceId(0));
    }

    #[test]
    fn rejects_amd_specs() {
        let r = std::panic::catch_unwind(|| CudaContext::new(vec![DeviceSpec::mi300x()]));
        assert!(r.is_err());
    }

    #[test]
    fn stats_accumulate_across_ops() {
        let mut c = ctx();
        let p = c.malloc(1 << 20).unwrap();
        c.memcpy(
            p,
            accel_sim::DevicePtr(0x1000),
            1 << 20,
            CopyDirection::HostToDevice,
        )
        .unwrap();
        c.synchronize();
        let s = c.stats(DeviceId(0));
        assert_eq!(s.allocs, 1);
        assert_eq!(s.copies, 1);
        assert_eq!(s.syncs, 1);
        assert_eq!(s.bytes_h2d, 1 << 20);
    }
}
