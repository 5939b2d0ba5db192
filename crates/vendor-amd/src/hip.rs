//! Simulated HIP runtime.
//!
//! [`HipContext`] is the AMD twin of `vendor_nv::CudaContext`: it owns an
//! [`accel_sim::Engine`] of AMD devices and implements
//! [`accel_sim::DeviceRuntime`], emitting [`RocCallback`] events with ROCm
//! conventions (signed memory deltas, dispatch vocabulary).

use crate::callbacks::{RocCallback, RocSubscriber};
use accel_sim::runtime::MemAdvise;
use accel_sim::{
    AccelError, CopyDirection, DeviceId, DeviceProbe, DeviceRuntime, DeviceSpec, Engine,
    KernelDesc, LaunchRecord, ResidencyAdvice, RuntimeStats, SimTime, StreamId, Vendor,
};
use std::sync::Arc;
use uvm_sim::{PrefetchPlan, UvmManager};

/// The simulated HIP runtime context.
pub struct HipContext {
    engine: Engine,
    current: DeviceId,
    subscribers: Vec<RocSubscriber>,
    prefetch_plan: Option<PrefetchPlan>,
    launches_seen: u64,
    uvm_attached: bool,
}

impl std::fmt::Debug for HipContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HipContext")
            .field("engine", &self.engine)
            .field("current", &self.current)
            .field("subscribers", &self.subscribers.len())
            .field("uvm_attached", &self.uvm_attached)
            .finish()
    }
}

impl HipContext {
    /// Creates a context over AMD devices (a `Vec` of specs, or an
    /// `Arc<[DeviceSpec]>` shared with other contexts of the same machine).
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or contains a non-AMD device.
    pub fn new(specs: impl Into<Arc<[DeviceSpec]>>) -> Self {
        let specs: Arc<[DeviceSpec]> = specs.into();
        assert!(
            specs.iter().all(|s| s.vendor == Vendor::Amd),
            "HipContext requires AMD device specs"
        );
        HipContext {
            engine: Engine::new(specs),
            current: DeviceId(0),
            subscribers: Vec::new(),
            prefetch_plan: None,
            launches_seen: 0,
            uvm_attached: false,
        }
    }

    /// Subscribes to host callbacks (ROCProfiler callback registration).
    pub fn subscribe(&mut self, subscriber: RocSubscriber) {
        self.subscribers.push(subscriber);
    }

    /// Number of subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Installs a device instrumentation probe.
    pub fn install_profiler(&mut self, probe: Box<dyn DeviceProbe>) {
        self.engine.set_probe(probe);
    }

    /// True when a device probe is installed.
    pub fn has_profiler(&self) -> bool {
        self.engine.has_probe()
    }

    /// Attaches a UVM (here: HMM/XNACK-style) manager.
    pub fn attach_uvm(&mut self, uvm: UvmManager) {
        self.engine.set_residency(Box::new(uvm));
        self.uvm_attached = true;
    }

    /// Installs a prefetch plan replayed before each subsequent launch.
    pub fn set_prefetch_plan(&mut self, plan: PrefetchPlan) {
        self.prefetch_plan = Some(plan);
        self.launches_seen = 0;
    }

    /// Host-link bandwidths per device, GB/s.
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

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn emit(&mut self, cb: RocCallback) {
        for s in &mut self.subscribers {
            s(&cb);
        }
    }

    fn emit_api(&mut self, name: &'static str) {
        let (device, at) = (self.current, self.engine.host_now());
        self.emit(RocCallback::ApiEnter { name, device, at });
    }

    fn emit_api_exit(&mut self, name: &'static str) {
        let (device, at) = (self.current, self.engine.host_now());
        self.emit(RocCallback::ApiExit { name, device, at });
    }

    /// Drains the residency model's peer-to-peer coherence log (shared
    /// managed ranges: read duplications, write invalidations).
    fn take_peer_transfers(&mut self) -> Vec<accel_sim::PeerTransfer> {
        self.engine
            .residency_mut()
            .map(|res| res.take_peer_transfers())
            .unwrap_or_default()
    }

    /// Surfaces drained coherence operations as `PeerCopy` callbacks
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
            self.emit(RocCallback::PeerCopy {
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
    }
}

impl DeviceRuntime for HipContext {
    fn vendor(&self) -> Vendor {
        Vendor::Amd
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
        self.emit_api("hipMalloc");
        let alloc = self.engine.malloc_info(self.current, bytes)?;
        let at = self.engine.host_now();
        let (device, addr) = (self.current, alloc.addr);
        self.emit(RocCallback::MemoryDelta {
            device,
            addr,
            delta: bytes as i64,
            managed: false,
            at,
        });
        self.emit_api_exit("hipMalloc");
        Ok(accel_sim::DevicePtr(addr))
    }

    fn malloc_managed(&mut self, bytes: u64) -> Result<accel_sim::DevicePtr, AccelError> {
        self.emit_api("hipMallocManaged");
        let alloc = self.engine.malloc_managed(bytes)?;
        if let Some(res) = self.engine.residency_mut() {
            res.register(alloc.addr, bytes);
        }
        let at = self.engine.host_now();
        let (device, addr) = (self.current, alloc.addr);
        self.emit(RocCallback::MemoryDelta {
            device,
            addr,
            delta: bytes as i64,
            managed: true,
            at,
        });
        self.emit_api_exit("hipMallocManaged");
        Ok(accel_sim::DevicePtr(addr))
    }

    fn free(&mut self, ptr: accel_sim::DevicePtr) -> Result<(), AccelError> {
        self.emit_api("hipFree");
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
        let device = self.current;
        // ROCm convention: a release is a *negative* delta.
        self.emit(RocCallback::MemoryDelta {
            device,
            addr,
            delta: -(alloc.size as i64),
            managed: alloc.managed,
            at,
        });
        self.emit_api_exit("hipFree");
        Ok(())
    }

    fn memcpy(
        &mut self,
        dst: accel_sim::DevicePtr,
        src: accel_sim::DevicePtr,
        bytes: u64,
        dir: CopyDirection,
    ) -> Result<(), AccelError> {
        self.emit_api("hipMemcpy");
        self.engine.memcpy(self.current, dst, src, bytes, dir)?;
        let at = self.engine.host_now();
        let device = self.current;
        self.emit(RocCallback::MemoryCopy {
            device,
            direction: dir,
            bytes,
            at,
        });
        self.emit_api_exit("hipMemcpy");
        Ok(())
    }

    fn memset(&mut self, dst: accel_sim::DevicePtr, bytes: u64) -> Result<(), AccelError> {
        self.emit_api("hipMemset");
        self.engine.memset(self.current, dst, bytes)?;
        let at = self.engine.host_now();
        let (device, addr) = (self.current, dst.addr());
        self.emit(RocCallback::MemorySet {
            device,
            addr,
            bytes,
            at,
        });
        self.emit_api_exit("hipMemset");
        Ok(())
    }

    fn launch_on(
        &mut self,
        stream: StreamId,
        desc: KernelDesc,
    ) -> Result<LaunchRecord, AccelError> {
        self.emit_api("hipLaunchKernel");
        self.run_prefetch_plan(stream);
        let record = self.engine.launch(self.current, stream, &desc)?;
        self.launches_seen += 1;
        self.emit(RocCallback::KernelDispatch {
            launch: record.launch,
            device: record.device,
            stream,
            name: record.name.clone(),
            workgroups: record.grid,
            workgroup_size: record.block,
            start: record.start,
        });
        self.emit(RocCallback::KernelComplete {
            launch: record.launch,
            device: record.device,
            end: record.end,
        });
        // Page-migration activity reports the *faulting* device — the
        // dispatch target (`record.device`), never `self.current`. The
        // sharded hub routes on this field.
        // The dispatch's total UVM stall covers host faulting AND peer
        // coherence; the peer share is reported by the PeerCopy events
        // below, so PageMigrate carries only the host remainder — tools
        // summing both streams must not double-count.
        let transfers = self.take_peer_transfers();
        let peer_stall: u64 = transfers.iter().map(|t| t.stall_ns).sum();
        if record.uvm_faults > 0 || record.uvm_migrated_bytes > 0 || record.uvm_evicted_bytes > 0 {
            let at = self.engine.host_now();
            self.emit(RocCallback::PageMigrate {
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
        self.emit_api_exit("hipLaunchKernel");
        Ok(record)
    }

    fn synchronize(&mut self) {
        self.emit_api("hipDeviceSynchronize");
        self.engine.synchronize(self.current);
        let at = self.engine.host_now();
        let device = self.current;
        self.emit(RocCallback::Synchronize { device, at });
        self.emit_api_exit("hipDeviceSynchronize");
    }

    fn device_capacity(&self) -> u64 {
        self.engine.device(self.current).usable_capacity()
    }

    fn host_time(&self) -> SimTime {
        self.engine.host_now()
    }

    fn mem_prefetch(&mut self, ptr: accel_sim::DevicePtr, bytes: u64) -> Result<(), AccelError> {
        self.emit_api("hipMemPrefetchAsync");
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
        self.emit(RocCallback::BatchMemOp {
            device,
            op: "hipMemPrefetchAsync",
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
        self.emit_api_exit("hipMemPrefetchAsync");
        Ok(())
    }

    fn mem_advise(
        &mut self,
        ptr: accel_sim::DevicePtr,
        bytes: u64,
        advice: MemAdvise,
    ) -> Result<(), AccelError> {
        self.emit_api("hipMemAdvise");
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
        self.emit(RocCallback::BatchMemOp {
            device,
            op: "hipMemAdvise",
            addr: ptr.addr(),
            bytes,
            at,
        });
        self.emit_api_exit("hipMemAdvise");
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
