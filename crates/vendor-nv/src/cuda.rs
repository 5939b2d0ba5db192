//! Simulated CUDA runtime.
//!
//! [`CudaContext`] owns an [`accel_sim::Engine`] of NVIDIA devices and
//! exposes the runtime surface PASTA intercepts (§IV-A): `cudaMalloc`,
//! `cudaMallocManaged`, `cudaFree`, `cudaMemcpy`, `cudaMemset`,
//! `cuLaunchKernel`, `cudaDeviceSynchronize`, `cudaMemPrefetchAsync`,
//! `cudaMemAdvise`. Every call emits the corresponding
//! [`NvCallback`](crate::NvCallback) to subscribers — the host-callback
//! half of the Compute Sanitizer API.

use crate::callbacks::{NvCallback, NvSubscriber};
use accel_sim::runtime::MemAdvise;
use accel_sim::{
    AccelError, CopyDirection, DeviceId, DeviceProbe, DeviceRuntime, DeviceSpec, Engine,
    KernelDesc, LaunchRecord, ResidencyAdvice, RuntimeStats, SimTime, StreamId, Vendor,
};
use std::sync::Arc;
use uvm_sim::{PrefetchPlan, UvmManager};

/// The simulated CUDA runtime context.
pub struct CudaContext {
    engine: Engine,
    current: DeviceId,
    subscribers: Vec<NvSubscriber>,
    prefetch_plan: Option<PrefetchPlan>,
    launches_seen: u64,
    uvm_attached: bool,
}

impl std::fmt::Debug for CudaContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CudaContext")
            .field("engine", &self.engine)
            .field("current", &self.current)
            .field("subscribers", &self.subscribers.len())
            .field("uvm_attached", &self.uvm_attached)
            .finish()
    }
}

impl CudaContext {
    /// Creates a context over NVIDIA devices (a `Vec` of specs, or an
    /// `Arc<[DeviceSpec]>` shared with other contexts of the same machine).
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or contains a non-NVIDIA device.
    pub fn new(specs: impl Into<Arc<[DeviceSpec]>>) -> Self {
        let specs: Arc<[DeviceSpec]> = specs.into();
        assert!(
            specs.iter().all(|s| s.vendor == Vendor::Nvidia),
            "CudaContext requires NVIDIA device specs"
        );
        CudaContext {
            engine: Engine::new(specs),
            current: DeviceId(0),
            subscribers: Vec::new(),
            prefetch_plan: None,
            launches_seen: 0,
            uvm_attached: false,
        }
    }

    /// Subscribes to host callbacks (the `sanitizerSubscribe` analogue).
    pub fn subscribe(&mut self, subscriber: NvSubscriber) {
        self.subscribers.push(subscriber);
    }

    /// Number of active host-callback subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Installs a device instrumentation probe (used by
    /// [`crate::sanitizer::attach`] / [`crate::nvbit::attach`]).
    pub fn install_profiler(&mut self, probe: Box<dyn DeviceProbe>) {
        self.engine.set_probe(probe);
    }

    /// Removes the device instrumentation probe.
    pub fn remove_profiler(&mut self) {
        let _ = self.engine.take_probe();
    }

    /// True when a device probe is installed.
    pub fn has_profiler(&self) -> bool {
        self.engine.has_probe()
    }

    /// Attaches a UVM manager as the engine's residency model; managed
    /// allocations will fault/migrate through it.
    pub fn attach_uvm(&mut self, uvm: UvmManager) {
        self.engine.set_residency(Box::new(uvm));
        self.uvm_attached = true;
    }

    /// True when UVM is attached.
    pub fn has_uvm(&self) -> bool {
        self.uvm_attached
    }

    /// Installs a prefetch plan replayed before each subsequent launch.
    pub fn set_prefetch_plan(&mut self, plan: PrefetchPlan) {
        self.prefetch_plan = Some(plan);
        self.launches_seen = 0;
    }

    /// Removes the prefetch plan.
    pub fn clear_prefetch_plan(&mut self) {
        self.prefetch_plan = None;
    }

    /// Host-link bandwidths per device, GB/s (profiler construction input).
    pub fn link_bandwidths(&self) -> Vec<f64> {
        self.engine
            .specs()
            .iter()
            .map(|spec| spec.link_bandwidth_gbps)
            .collect()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (capacity limiting, cost calibration).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn emit(&mut self, cb: NvCallback) {
        for s in &mut self.subscribers {
            s(&cb);
        }
    }

    fn emit_api(&mut self, name: &'static str) {
        let (device, at) = (self.current, self.engine.host_now());
        self.emit(NvCallback::ApiEnter { name, device, at });
    }

    fn emit_api_exit(&mut self, name: &'static str) {
        let (device, at) = (self.current, self.engine.host_now());
        self.emit(NvCallback::ApiExit { name, device, at });
    }

    /// Drains the residency model's peer-to-peer coherence log (shared
    /// managed ranges: read duplications, write invalidations).
    fn take_peer_transfers(&mut self) -> Vec<accel_sim::PeerTransfer> {
        self.engine
            .residency_mut()
            .map(|res| res.take_peer_transfers())
            .unwrap_or_default()
    }

    /// Surfaces drained coherence operations as `PeerMigrate` callbacks
    /// carrying source *and* destination devices.
    fn emit_peer_transfers(
        &mut self,
        launch: accel_sim::LaunchId,
        transfers: Vec<accel_sim::PeerTransfer>,
    ) {
        if transfers.is_empty() {
            return;
        }
        let at = self.engine.host_now();
        for t in transfers {
            self.emit(NvCallback::PeerMigrate {
                launch,
                src: t.src,
                dst: t.dst,
                duplicated_pages: t.duplicated_pages,
                invalidated_pages: t.invalidated_pages,
                bytes: t.bytes,
                stall_ns: t.stall_ns,
                at,
            });
        }
    }

    /// Replays the prefetch plan entry for the next launch, charging the
    /// non-overlapped stall to the launch stream.
    fn run_prefetch_plan(&mut self, stream: StreamId) {
        let Some(plan) = self.prefetch_plan.as_ref() else {
            return;
        };
        let ranges: Vec<uvm_sim::Range> = plan.ranges_for(self.launches_seen as usize).to_vec();
        if ranges.is_empty() {
            return;
        }
        let device = self.current;
        let mut stall_total = 0u64;
        if let Some(res) = self.engine.residency_mut() {
            for r in &ranges {
                stall_total += res.prefetch(device, r.base, r.len);
            }
        }
        if stall_total > 0 {
            let t = self.engine.device(device).stream_time(stream);
            self.engine
                .device_mut(device)
                .set_stream_time(stream, t + stall_total);
        }
        // Plan prefetches over shared ranges may have read-duplicated
        // pages; drain their transfers here, attributed to the launch
        // being issued, so they never bleed into the launch's own drain
        // (whose stall arithmetic assumes launch-time transfers only).
        let transfers = self.take_peer_transfers();
        self.emit_peer_transfers(accel_sim::LaunchId(self.launches_seen), transfers);
        let at = self.engine.host_now();
        for r in ranges {
            self.emit(NvCallback::BatchMemOp {
                device,
                op: "cudaMemPrefetchAsync(plan)",
                addr: r.base,
                bytes: r.len,
                at,
            });
        }
    }
}

impl DeviceRuntime for CudaContext {
    fn vendor(&self) -> Vendor {
        Vendor::Nvidia
    }

    fn device_count(&self) -> usize {
        self.engine.device_ids().len()
    }

    fn set_device(&mut self, device: DeviceId) -> Result<(), AccelError> {
        if device.index() >= self.device_count() {
            return Err(AccelError::UnknownDevice(device));
        }
        self.current = device;
        Ok(())
    }

    fn current_device(&self) -> DeviceId {
        self.current
    }

    fn malloc(&mut self, bytes: u64) -> Result<accel_sim::DevicePtr, AccelError> {
        self.emit_api("cudaMalloc");
        let alloc = self.engine.malloc_info(self.current, bytes)?;
        let at = self.engine.host_now();
        let (device, addr) = (self.current, alloc.addr);
        self.emit(NvCallback::MemoryAlloc {
            device,
            addr,
            bytes,
            managed: false,
            at,
        });
        self.emit_api_exit("cudaMalloc");
        Ok(accel_sim::DevicePtr(addr))
    }

    fn malloc_managed(&mut self, bytes: u64) -> Result<accel_sim::DevicePtr, AccelError> {
        self.emit_api("cudaMallocManaged");
        let alloc = self.engine.malloc_managed(bytes)?;
        if let Some(res) = self.engine.residency_mut() {
            res.register(alloc.addr, bytes);
        }
        let at = self.engine.host_now();
        let (device, addr) = (self.current, alloc.addr);
        self.emit(NvCallback::MemoryAlloc {
            device,
            addr,
            bytes,
            managed: true,
            at,
        });
        self.emit_api_exit("cudaMallocManaged");
        Ok(accel_sim::DevicePtr(addr))
    }

    fn free(&mut self, ptr: accel_sim::DevicePtr) -> Result<(), AccelError> {
        self.emit_api("cudaFree");
        let addr = ptr.addr();
        let alloc = if Engine::is_managed_addr(addr) {
            let alloc = self.engine.free_managed(addr)?;
            if let Some(res) = self.engine.residency_mut() {
                res.unregister(addr);
            }
            alloc
        } else {
            self.engine.free(self.current, addr)?
        };
        let at = self.engine.host_now();
        let (device, bytes) = (self.current, alloc.size);
        self.emit(NvCallback::MemoryFree {
            device,
            addr,
            bytes,
            at,
        });
        self.emit_api_exit("cudaFree");
        Ok(())
    }

    fn memcpy(
        &mut self,
        dst: accel_sim::DevicePtr,
        src: accel_sim::DevicePtr,
        bytes: u64,
        dir: CopyDirection,
    ) -> Result<(), AccelError> {
        self.emit_api("cudaMemcpy");
        self.engine.memcpy(self.current, dst, src, bytes, dir)?;
        let at = self.engine.host_now();
        let device = self.current;
        self.emit(NvCallback::Memcpy {
            device,
            direction: dir,
            bytes,
            at,
        });
        self.emit_api_exit("cudaMemcpy");
        Ok(())
    }

    fn memset(&mut self, dst: accel_sim::DevicePtr, bytes: u64) -> Result<(), AccelError> {
        self.emit_api("cudaMemset");
        self.engine.memset(self.current, dst, bytes)?;
        let at = self.engine.host_now();
        let (device, addr) = (self.current, dst.addr());
        self.emit(NvCallback::Memset {
            device,
            addr,
            bytes,
            at,
        });
        self.emit_api_exit("cudaMemset");
        Ok(())
    }

    fn launch_on(
        &mut self,
        stream: StreamId,
        desc: KernelDesc,
    ) -> Result<LaunchRecord, AccelError> {
        self.emit_api("cuLaunchKernel");
        self.run_prefetch_plan(stream);
        let record = self.engine.launch(self.current, stream, &desc)?;
        self.launches_seen += 1;
        self.emit(NvCallback::LaunchBegin {
            launch: record.launch,
            device: record.device,
            stream,
            name: record.name.clone(),
            grid: record.grid,
            block: record.block,
            start: record.start,
        });
        self.emit(NvCallback::LaunchEnd {
            launch: record.launch,
            device: record.device,
            end: record.end,
        });
        // UVM activity reports the *faulting* device — the device the
        // kernel ran on (`record.device`), never `self.current`, which on
        // a shared multi-device context may point elsewhere by the time
        // the fault buffer drains. The sharded hub routes on this field.
        // The launch's total UVM stall covers host faulting AND peer
        // coherence; the peer share is reported by the PeerMigrate
        // events below, so the UvmFault event carries only the host
        // remainder — tools summing both streams must not double-count.
        let transfers = self.take_peer_transfers();
        let peer_stall: u64 = transfers.iter().map(|t| t.stall_ns).sum();
        if record.uvm_faults > 0 || record.uvm_migrated_bytes > 0 || record.uvm_evicted_bytes > 0 {
            let at = self.engine.host_now();
            self.emit(NvCallback::UvmFault {
                launch: record.launch,
                device: record.device,
                groups: record.uvm_faults,
                migrated_bytes: record.uvm_migrated_bytes,
                evicted_bytes: record.uvm_evicted_bytes,
                stall_ns: record.uvm_stall_ns.saturating_sub(peer_stall),
                at,
            });
        }
        self.emit_peer_transfers(record.launch, transfers);
        self.emit_api_exit("cuLaunchKernel");
        Ok(record)
    }

    fn synchronize(&mut self) {
        self.emit_api("cudaDeviceSynchronize");
        self.engine.synchronize(self.current);
        let at = self.engine.host_now();
        let device = self.current;
        self.emit(NvCallback::Synchronize { device, at });
        self.emit_api_exit("cudaDeviceSynchronize");
    }

    fn device_capacity(&self) -> u64 {
        self.engine.device(self.current).usable_capacity()
    }

    fn host_time(&self) -> SimTime {
        self.engine.host_now()
    }

    fn mem_prefetch(&mut self, ptr: accel_sim::DevicePtr, bytes: u64) -> Result<(), AccelError> {
        self.emit_api("cudaMemPrefetchAsync");
        let device = self.current;
        let mut stall = 0;
        if let Some(res) = self.engine.residency_mut() {
            stall = res.prefetch(device, ptr.addr(), bytes);
        }
        if stall > 0 {
            let t = self.engine.device(device).stream_time(0);
            self.engine.device_mut(device).set_stream_time(0, t + stall);
        }
        let at = self.engine.host_now();
        self.emit(NvCallback::BatchMemOp {
            device,
            op: "cudaMemPrefetchAsync",
            addr: ptr.addr(),
            bytes,
            at,
        });
        // A prefetch of a shared range may have read-duplicated pages.
        // Prefetches front-run the launch that consumes them, so the
        // transfers carry the id of the *upcoming* launch (a forward
        // reference when no further launch is ever issued).
        let transfers = self.take_peer_transfers();
        self.emit_peer_transfers(accel_sim::LaunchId(self.launches_seen), transfers);
        self.emit_api_exit("cudaMemPrefetchAsync");
        Ok(())
    }

    fn mem_advise(
        &mut self,
        ptr: accel_sim::DevicePtr,
        bytes: u64,
        advice: MemAdvise,
    ) -> Result<(), AccelError> {
        self.emit_api("cudaMemAdvise");
        let device = self.current;
        let mapped = match advice {
            MemAdvise::PreferredLocationDevice => ResidencyAdvice::PinOnDevice,
            MemAdvise::PreferredLocationHost => ResidencyAdvice::PreferHost,
            MemAdvise::ReadMostly => ResidencyAdvice::ReadMostly,
            MemAdvise::Unset => ResidencyAdvice::Unset,
        };
        if let Some(res) = self.engine.residency_mut() {
            res.advise(device, ptr.addr(), bytes, mapped);
        }
        let at = self.engine.host_now();
        self.emit(NvCallback::BatchMemOp {
            device,
            op: "cudaMemAdvise",
            addr: ptr.addr(),
            bytes,
            at,
        });
        self.emit_api_exit("cudaMemAdvise");
        Ok(())
    }

    fn stats(&self, device: DeviceId) -> RuntimeStats {
        self.engine.stats(device)
    }

    fn residency(&self) -> Option<&dyn accel_sim::ResidencyModel> {
        self.engine.residency()
    }

    fn residency_mut(&mut self) -> Option<&mut dyn accel_sim::ResidencyModel> {
        self.engine.residency_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{Dim3, KernelBody};
    use parking_lot::Mutex;
    use std::sync::Arc;
    use uvm_sim::{Range, UvmConfig};

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
        let mut uvm = UvmManager::new(UvmConfig::default());
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
        let mut uvm = UvmManager::new(UvmConfig::default());
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
        let mut uvm = UvmManager::new(UvmConfig::default());
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
        let mut uvm = UvmManager::new(UvmConfig::default());
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
