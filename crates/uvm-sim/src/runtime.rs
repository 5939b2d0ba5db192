//! The simulated vendor runtime, written once.
//!
//! CUDA and HIP differ in *vocabulary* — API names, launch vs dispatch,
//! positive free sizes vs negative deltas — not in behaviour. [`Context`]
//! is the behaviour: an [`Engine`] behind [`DeviceRuntime`] (the surface
//! PASTA intercepts, §IV-A) that tells its subscribers about every call in
//! the [`Vocabulary`] it is instantiated with — `vendor_nv::CudaContext` at
//! `NvCallback`, `vendor_amd::HipContext` at `RocCallback` — monomorphized,
//! so nothing on the emission path is dispatched at run time.

use crate::{PrefetchPlan, UvmManager};
use accel_sim::instrument::{BackendCosts, ProfilerHandle, TraceProfiler};
use accel_sim::runtime::MemAdvise;
use accel_sim::trace::TRACE_RECORD_BYTES;
use accel_sim::{
    AccelError, AnalysisMode, CopyDirection, DeviceId, DevicePtr, DeviceRuntime, DeviceSpec,
    Engine, InstrCoverage, KernelDesc, LaunchId, LaunchRecord, PeerTransfer, ResidencyAdvice,
    ResidencyModel, RuntimeStats, SimTime, StreamId, Symbol, Vendor,
};
use std::sync::Arc;

/// One vendor's way of saying what a [`Context`] did: implemented by the
/// raw callback type itself, one constructor per callback.
pub trait Vocabulary: Sized + 'static {
    /// The devices a context speaking this vocabulary accepts.
    const VENDOR: Vendor;
    /// The context's public name, for `Debug` and panic messages.
    const CONTEXT: &'static str;
    // The runtime API names its enter/exit and batch-op callbacks carry;
    // `PLAN_PREFETCH` labels the batch op of a [`PrefetchPlan`] prefetch.
    const MALLOC: &'static str;
    const MALLOC_MANAGED: &'static str;
    const FREE: &'static str;
    const MEMCPY: &'static str;
    const MEMSET: &'static str;
    const LAUNCH: &'static str;
    const SYNCHRONIZE: &'static str;
    const MEM_PREFETCH: &'static str;
    const PLAN_PREFETCH: &'static str;
    const MEM_ADVISE: &'static str;

    /// A runtime API call was entered.
    fn api_enter(name: &'static str, device: DeviceId, at: SimTime) -> Self;
    /// A runtime API call returned.
    fn api_exit(name: &'static str, device: DeviceId, at: SimTime) -> Self;
    /// `bytes` were allocated at `addr`.
    fn alloc(device: DeviceId, addr: u64, bytes: u64, managed: bool, at: SimTime) -> Self;
    /// The `bytes`-sized allocation at `addr` was released.
    fn free(device: DeviceId, addr: u64, bytes: u64, managed: bool, at: SimTime) -> Self;
    /// An explicit copy completed.
    fn copy(device: DeviceId, direction: CopyDirection, bytes: u64, at: SimTime) -> Self;
    /// A fill completed.
    fn set(device: DeviceId, addr: u64, bytes: u64, at: SimTime) -> Self;
    /// The kernel of `record` is about to run.
    fn launch_begin(record: &LaunchRecord) -> Self;
    /// The kernel of `record` finished.
    fn launch_end(record: &LaunchRecord) -> Self;
    /// The device was synchronized.
    fn sync(device: DeviceId, at: SimTime) -> Self;
    /// A prefetch or advice operation named `op` covered `bytes` at `addr`.
    fn batch_op(device: DeviceId, op: &'static str, addr: u64, bytes: u64, at: SimTime) -> Self;
    /// The launch of `record` faulted managed pages in from the host,
    /// stalling `stall_ns` (the peer share excluded).
    fn fault(record: &LaunchRecord, stall_ns: u64, at: SimTime) -> Self;
    /// A coherence operation between peer devices, attributed to `launch`.
    fn peer(launch: LaunchId, transfer: PeerTransfer, at: SimTime) -> Self;

    /// Which edge of a launch this callback marks, if either.
    fn launch_edge(&self) -> Option<LaunchEdge<'_>>;
}

/// A launch's two callbacks, as a subscriber pairs them.
#[derive(Debug, Clone, Copy)]
pub enum LaunchEdge<'a> {
    /// Launch id, kernel name, start time.
    Begin(LaunchId, &'a Symbol, SimTime),
    /// Launch id, the device it ran on, end time.
    End(LaunchId, DeviceId, SimTime),
}

/// A host-callback subscriber (the vendor crates name theirs).
pub type Subscriber<C> = Box<dyn FnMut(&C) + Send>;

/// The simulated runtime context speaking vocabulary `C`.
pub struct Context<C: Vocabulary> {
    engine: Engine,
    current: DeviceId,
    subscribers: Vec<Subscriber<C>>,
    prefetch_plan: Option<PrefetchPlan>,
    launches_seen: u64,
}

impl<C: Vocabulary> std::fmt::Debug for Context<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(C::CONTEXT)
            .field("engine", &self.engine)
            .field("current", &self.current)
            .field("subscribers", &self.subscribers.len())
            .finish()
    }
}

impl<C: Vocabulary> Context<C> {
    /// Creates a context over `C::VENDOR`'s devices (a `Vec` of specs, or
    /// an `Arc<[DeviceSpec]>` shared with other contexts of the same
    /// machine).
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty or contains another vendor's device.
    pub fn new(specs: impl Into<Arc<[DeviceSpec]>>) -> Self {
        let specs: Arc<[DeviceSpec]> = specs.into();
        assert!(
            specs.iter().all(|s| s.vendor == C::VENDOR),
            "{} requires {} device specs",
            C::CONTEXT,
            C::VENDOR
        );
        Context {
            engine: Engine::new(specs),
            current: DeviceId(0),
            subscribers: Vec::new(),
            prefetch_plan: None,
            launches_seen: 0,
        }
    }

    /// Subscribes to host callbacks (the `sanitizerSubscribe` analogue).
    pub fn subscribe(&mut self, subscriber: Subscriber<C>) {
        self.subscribers.push(subscriber);
    }

    /// Attaches a device-trace backend — the one body behind Compute
    /// Sanitizer, NVBit and ROCProfiler-SDK, which differ only in what
    /// they cover, where they analyze and what that costs: every later
    /// launch is probed by a [`TraceProfiler`] priced over this machine's
    /// host links. The handle wires a sink and reads the overhead back.
    ///
    /// # Errors
    ///
    /// [`AccelError::Config`] when `costs.buffer` holds no record — a
    /// backend's `buffer_bytes` below one record — which would divide the
    /// flush count by zero.
    pub fn attach_profiler(
        &mut self,
        coverage: InstrCoverage,
        mode: AnalysisMode,
        costs: BackendCosts,
    ) -> Result<ProfilerHandle, AccelError> {
        if costs.buffer.capacity_records == 0 {
            return Err(AccelError::Config(format!(
                "trace buffer capacity_records is 0: buffer_bytes must be at least \
                 {TRACE_RECORD_BYTES} (one record)"
            )));
        }
        let specs = self.engine.specs();
        let link_bw = specs.iter().map(|spec| spec.link_bandwidth_gbps).collect();
        let (profiler, handle) = TraceProfiler::new(coverage, mode, costs, link_bw);
        self.engine.set_probe(Box::new(profiler));
        Ok(handle)
    }

    /// True when a device probe is installed.
    pub fn has_profiler(&self) -> bool {
        self.engine.has_probe()
    }

    /// Attaches a UVM manager as the engine's residency model; managed
    /// allocations will fault/migrate through it.
    pub fn attach_uvm(&mut self, uvm: UvmManager) {
        self.engine.set_residency(Box::new(uvm));
    }

    /// Installs a prefetch plan replayed before each subsequent launch.
    pub fn set_prefetch_plan(&mut self, plan: PrefetchPlan) {
        self.prefetch_plan = Some(plan);
        self.launches_seen = 0;
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (capacity limiting, cost calibration).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn emit(&mut self, cb: C) {
        for s in &mut self.subscribers {
            s(&cb);
        }
    }

    fn emit_api(&mut self, name: &'static str) {
        self.emit(C::api_enter(name, self.current, self.engine.host_now()));
    }

    fn emit_api_exit(&mut self, name: &'static str) {
        self.emit(C::api_exit(name, self.current, self.engine.host_now()));
    }

    /// Brackets a fallible API call: the exit callback follows the enter
    /// whether `call` succeeded or not, so a subscriber pairing the two
    /// (an API-latency tool, a call-stack tracker) never holds an open
    /// call after an out-of-memory `malloc` or a rejected launch.
    fn api_call<T>(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut Self) -> Result<T, AccelError>,
    ) -> Result<T, AccelError> {
        self.emit_api(name);
        let outcome = call(self);
        self.emit_api_exit(name);
        outcome
    }

    /// Drains the residency model's peer-to-peer coherence log (shared
    /// managed ranges: read duplications, write invalidations).
    fn take_peer_transfers(&mut self) -> Vec<PeerTransfer> {
        self.engine
            .residency_mut()
            .map(|res| res.take_peer_transfers())
            .unwrap_or_default()
    }

    /// Surfaces drained coherence operations as peer callbacks.
    fn emit_peer_transfers(&mut self, launch: LaunchId, transfers: Vec<PeerTransfer>) {
        let at = self.engine.host_now();
        for t in transfers {
            self.emit(C::peer(launch, t, at));
        }
    }

    /// Replays the prefetch plan entry for the next launch, charging the
    /// non-overlapped stall to the launch stream.
    fn run_prefetch_plan(&mut self, stream: StreamId) {
        let Some(plan) = self.prefetch_plan.as_ref() else {
            return;
        };
        let ranges: Vec<crate::Range> = plan.ranges_for(self.launches_seen as usize).to_vec();
        if ranges.is_empty() {
            return;
        }
        for r in &ranges {
            self.engine.prefetch(self.current, stream, r.base, r.len);
        }
        // Plan prefetches over shared ranges may have read-duplicated
        // pages; drain their transfers here, attributed to the launch
        // being issued, so they never bleed into the launch's own drain
        // (whose stall arithmetic assumes launch-time transfers only).
        let transfers = self.take_peer_transfers();
        self.emit_peer_transfers(LaunchId(self.launches_seen), transfers);
        let (device, at) = (self.current, self.engine.host_now());
        for r in ranges {
            self.emit(C::batch_op(device, C::PLAN_PREFETCH, r.base, r.len, at));
        }
    }
}

impl<C: Vocabulary> DeviceRuntime for Context<C> {
    fn vendor(&self) -> Vendor {
        C::VENDOR
    }

    fn device_count(&self) -> usize {
        self.engine.specs().len()
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

    fn malloc(&mut self, bytes: u64) -> Result<DevicePtr, AccelError> {
        self.api_call(C::MALLOC, |this| {
            let addr = this.engine.malloc_info(this.current, bytes)?.addr;
            let at = this.engine.host_now();
            this.emit(C::alloc(this.current, addr, bytes, false, at));
            Ok(DevicePtr(addr))
        })
    }

    fn malloc_managed(&mut self, bytes: u64) -> Result<DevicePtr, AccelError> {
        self.api_call(C::MALLOC_MANAGED, |this| {
            let addr = this.engine.malloc_managed(bytes)?.addr;
            let at = this.engine.host_now();
            this.emit(C::alloc(this.current, addr, bytes, true, at));
            Ok(DevicePtr(addr))
        })
    }

    fn free(&mut self, ptr: DevicePtr) -> Result<(), AccelError> {
        self.api_call(C::FREE, |this| {
            let addr = ptr.addr();
            let alloc = if Engine::is_managed_addr(addr) {
                this.engine.free_managed(addr)?
            } else {
                this.engine.free(this.current, addr)?
            };
            let at = this.engine.host_now();
            this.emit(C::free(this.current, addr, alloc.size, alloc.managed, at));
            Ok(())
        })
    }

    fn memcpy(
        &mut self,
        dst: DevicePtr,
        src: DevicePtr,
        bytes: u64,
        dir: CopyDirection,
    ) -> Result<(), AccelError> {
        self.api_call(C::MEMCPY, |this| {
            this.engine.memcpy(this.current, dst, src, bytes, dir)?;
            this.emit(C::copy(this.current, dir, bytes, this.engine.host_now()));
            Ok(())
        })
    }

    fn memset(&mut self, dst: DevicePtr, bytes: u64) -> Result<(), AccelError> {
        self.api_call(C::MEMSET, |this| {
            this.engine.memset(this.current, dst, bytes)?;
            let at = this.engine.host_now();
            this.emit(C::set(this.current, dst.addr(), bytes, at));
            Ok(())
        })
    }

    fn launch_on(
        &mut self,
        stream: StreamId,
        desc: KernelDesc,
    ) -> Result<LaunchRecord, AccelError> {
        self.api_call(C::LAUNCH, |this| {
            this.run_prefetch_plan(stream);
            let record = this.engine.launch(this.current, stream, &desc)?;
            this.launches_seen += 1;
            this.emit(C::launch_begin(&record));
            this.emit(C::launch_end(&record));
            // UVM activity reports the *faulting* device — the device the
            // kernel ran on (`record.device`), never `this.current`, which
            // on a shared multi-device context may point elsewhere by the
            // time the fault buffer drains. The sharded hub routes on this
            // field. The launch's total UVM stall covers host faulting AND
            // peer coherence; the peer share is reported by the peer
            // callbacks below, so the fault callback carries only the host
            // remainder — tools summing both streams must not double-count.
            let transfers = this.take_peer_transfers();
            let peer_stall: u64 = transfers.iter().map(|t| t.stall_ns).sum();
            if record.uvm_faults > 0
                || record.uvm_migrated_bytes > 0
                || record.uvm_evicted_bytes > 0
            {
                let stall_ns = record.uvm_stall_ns.saturating_sub(peer_stall);
                this.emit(C::fault(&record, stall_ns, this.engine.host_now()));
            }
            this.emit_peer_transfers(record.launch, transfers);
            Ok(record)
        })
    }

    fn synchronize(&mut self) {
        self.emit_api(C::SYNCHRONIZE);
        self.engine.synchronize(self.current);
        self.emit(C::sync(self.current, self.engine.host_now()));
        self.emit_api_exit(C::SYNCHRONIZE);
    }

    fn device_capacity(&self) -> u64 {
        self.engine.device(self.current).usable_capacity()
    }

    fn host_time(&self) -> SimTime {
        self.engine.host_now()
    }

    fn mem_prefetch(&mut self, ptr: DevicePtr, bytes: u64) -> Result<(), AccelError> {
        let name = C::MEM_PREFETCH;
        self.emit_api(name);
        self.engine.prefetch(self.current, 0, ptr.addr(), bytes);
        let at = self.engine.host_now();
        self.emit(C::batch_op(self.current, name, ptr.addr(), bytes, at));
        // A prefetch of a shared range may have read-duplicated pages.
        // Prefetches front-run the launch that consumes them, so the
        // transfers carry the id of the *upcoming* launch (a forward
        // reference when no further launch is ever issued).
        let transfers = self.take_peer_transfers();
        self.emit_peer_transfers(LaunchId(self.launches_seen), transfers);
        self.emit_api_exit(name);
        Ok(())
    }

    fn mem_advise(
        &mut self,
        ptr: DevicePtr,
        bytes: u64,
        advice: MemAdvise,
    ) -> Result<(), AccelError> {
        let name = C::MEM_ADVISE;
        self.emit_api(name);
        let mapped = match advice {
            MemAdvise::PreferredLocationDevice => ResidencyAdvice::PinOnDevice,
            MemAdvise::PreferredLocationHost => ResidencyAdvice::PreferHost,
            MemAdvise::ReadMostly => ResidencyAdvice::ReadMostly,
            MemAdvise::Unset => ResidencyAdvice::Unset,
        };
        if let Some(res) = self.engine.residency_mut() {
            res.advise(self.current, ptr.addr(), bytes, mapped);
        }
        let at = self.engine.host_now();
        self.emit(C::batch_op(self.current, name, ptr.addr(), bytes, at));
        self.emit_api_exit(name);
        Ok(())
    }

    fn stats(&self, device: DeviceId) -> RuntimeStats {
        self.engine.stats(device)
    }

    fn residency(&self) -> Option<&dyn ResidencyModel> {
        self.engine.residency()
    }

    fn residency_mut(&mut self) -> Option<&mut dyn ResidencyModel> {
        self.engine.residency_mut()
    }
}
