//! The discrete-event simulation engine.
//!
//! [`Engine`] owns the devices, the shared managed-memory space, the host
//! clock, an optional instrumentation [`DeviceProbe`] and an optional
//! [`ResidencyModel`]. Vendor runtime facades (`vendor-nv`, `vendor-amd`)
//! wrap an `Engine` and translate its launch/copy/alloc operations into
//! vendor-flavoured profiling callbacks.

use crate::clock::SimTime;
use crate::cost::CostModel;
use crate::device::{Device, DeviceSpec};
use crate::error::AccelError;
use crate::id::{DeviceId, LaunchId, StreamId};
use crate::instrument::TraceCtx;
use crate::kernel::{KernelDesc, MemSpace};
use crate::mem::{Allocation, DeviceAllocator, DevicePtr};
use crate::probe::{DeviceProbe, ProbeCosts};
use crate::residency::{AccessOutcome, ResidencyModel};
use crate::runtime::{CopyDirection, LaunchRecord, RuntimeStats};
use crate::trace::{AccessBatch, KernelTraceSummary};
use std::sync::{Arc, OnceLock};

/// Base of the shared managed (UVM) address range.
pub const MANAGED_BASE: u64 = 0x4000_0000_0000;
/// Capacity of the managed range: far above any device so oversubscription
/// experiments never exhaust *virtual* space.
pub(crate) const MANAGED_CAPACITY: u64 = 6 << 40;

/// The central simulator.
///
/// See the [crate-level docs](crate) for an end-to-end example.
pub struct Engine {
    /// The machine's devices; contexts over one machine (a session's
    /// parallel lanes) share the list.
    specs: Arc<[DeviceSpec]>,
    /// One cell per spec. A device's mutable state (allocator, streams)
    /// is built when the engine first touches the device: a lane's engine
    /// spans the whole machine and uses one device of it, or two.
    devices: Vec<OnceLock<Device>>,
    managed: DeviceAllocator,
    host_clock: SimTime,
    cost: CostModel,
    probe: Option<Box<dyn DeviceProbe>>,
    residency: Option<Box<dyn ResidencyModel>>,
    next_launch: u64,
    stats: Vec<RuntimeStats>,
    /// The in-flight launch's observed access streams, handed to the probe
    /// in one call; kept between launches so a steady state allocates
    /// nothing.
    batches: Vec<AccessBatch>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("devices", &self.devices.len())
            .field("host_clock", &self.host_clock)
            .field("next_launch", &self.next_launch)
            .field("probe_attached", &self.probe.is_some())
            .field("residency_attached", &self.residency.is_some())
            .finish()
    }
}

impl Engine {
    /// Creates an engine with one [`Device`] per spec (a `Vec` of specs,
    /// or an `Arc<[DeviceSpec]>` shared with other engines).
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty — a machine needs at least one device.
    pub fn new(specs: impl Into<Arc<[DeviceSpec]>>) -> Self {
        let specs: Arc<[DeviceSpec]> = specs.into();
        assert!(!specs.is_empty(), "engine needs at least one device");
        let devices = specs.iter().map(|_| OnceLock::new()).collect();
        let stats = vec![RuntimeStats::default(); specs.len()];
        Engine {
            specs,
            devices,
            managed: DeviceAllocator::new(MANAGED_BASE, MANAGED_CAPACITY),
            host_clock: SimTime::ZERO,
            cost: CostModel::default(),
            probe: None,
            residency: None,
            next_launch: 0,
            stats,
            batches: Vec::new(),
        }
    }

    /// Ids of all devices.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        (0..self.specs.len() as u32).map(DeviceId).collect()
    }

    /// Static specs of all devices, in id order.
    pub fn specs(&self) -> &[DeviceSpec] {
        &self.specs
    }

    /// Immutable device access; the engine's first touch of a device
    /// builds its state.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id; use `Engine::try_device` to probe.
    pub fn device(&self, id: DeviceId) -> &Device {
        let spec = &self.specs[id.index()];
        self.devices[id.index()].get_or_init(|| Device::new(id, spec.clone()))
    }

    /// Fallible device lookup.
    pub(crate) fn try_device(&self, id: DeviceId) -> Option<&Device> {
        (id.index() < self.specs.len()).then(|| self.device(id))
    }

    /// Mutable device access.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        self.device(id);
        // Audited expect: the line above filled the cell.
        #[allow(clippy::expect_used)]
        self.devices[id.index()]
            .get_mut()
            .expect("device built on first touch")
    }

    /// Current host time.
    pub fn host_now(&self) -> SimTime {
        self.host_clock
    }

    /// Attaches an instrumentation probe (replacing any existing one).
    pub fn set_probe(&mut self, probe: Box<dyn DeviceProbe>) {
        self.probe = Some(probe);
    }

    /// True when a probe is attached.
    pub fn has_probe(&self) -> bool {
        self.probe.is_some()
    }

    /// Attaches a managed-memory residency model.
    pub fn set_residency(&mut self, model: Box<dyn ResidencyModel>) {
        self.residency = Some(model);
    }

    /// Detaches and returns the residency model.
    pub fn take_residency(&mut self) -> Option<Box<dyn ResidencyModel>> {
        self.residency.take()
    }

    /// Mutable access to the residency model, if attached.
    pub fn residency_mut(&mut self) -> Option<&mut dyn ResidencyModel> {
        self.residency.as_deref_mut()
    }

    /// Shared access to the residency model, if attached.
    pub fn residency(&self) -> Option<&dyn ResidencyModel> {
        self.residency.as_deref()
    }

    /// Aggregate runtime counters for `device`.
    pub fn stats(&self, device: DeviceId) -> RuntimeStats {
        self.stats[device.index()]
    }

    fn check_device(&self, id: DeviceId) -> Result<(), AccelError> {
        if id.index() < self.specs.len() {
            Ok(())
        } else {
            Err(AccelError::UnknownDevice(id))
        }
    }

    /// Allocates `bytes` of device memory on `device`.
    ///
    /// # Errors
    ///
    /// [`AccelError::UnknownDevice`] or [`AccelError::OutOfMemory`].
    pub fn malloc(&mut self, device: DeviceId, bytes: u64) -> Result<DevicePtr, AccelError> {
        Ok(DevicePtr(self.malloc_info(device, bytes)?.addr))
    }

    /// Like [`Engine::malloc`] but returns full allocation metadata.
    ///
    /// # Errors
    ///
    /// [`AccelError::UnknownDevice`] or [`AccelError::OutOfMemory`].
    pub fn malloc_info(&mut self, device: DeviceId, bytes: u64) -> Result<Allocation, AccelError> {
        self.check_device(device)?;
        self.host_clock += self.cost.host_api_overhead_ns;
        let dev = self.device_mut(device);
        let usable = dev.usable_capacity();
        if dev.allocator().used() + bytes > usable {
            return Err(AccelError::OutOfMemory {
                device,
                requested: bytes,
                free: usable.saturating_sub(dev.allocator().used()),
            });
        }
        let alloc = dev.allocator_mut().alloc(device, bytes, false)?;
        self.stats[device.index()].allocs += 1;
        Ok(alloc)
    }

    /// Allocates `bytes` of managed (UVM) memory, visible to all devices,
    /// and registers the range with the residency model, if one is
    /// attached.
    ///
    /// # Errors
    ///
    /// [`AccelError::OutOfMemory`] when the virtual managed space is gone.
    pub fn malloc_managed(&mut self, bytes: u64) -> Result<Allocation, AccelError> {
        self.host_clock += self.cost.host_api_overhead_ns;
        let alloc = self.managed.alloc(DeviceId(0), bytes, true);
        if let (Ok(alloc), Some(residency)) = (&alloc, self.residency.as_deref_mut()) {
            residency.register(alloc.addr, bytes);
        }
        alloc
    }

    /// Frees device memory at `addr` on `device`, returning its metadata.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidAddress`] on double-free or junk pointers.
    pub fn free(&mut self, device: DeviceId, addr: u64) -> Result<Allocation, AccelError> {
        self.check_device(device)?;
        self.host_clock += self.cost.host_api_overhead_ns;
        let alloc = self.device_mut(device).allocator_mut().free(addr)?;
        self.stats[device.index()].frees += 1;
        Ok(alloc)
    }

    /// Frees managed memory at `addr` and unregisters the range from the
    /// residency model, if one is attached.
    ///
    /// # Errors
    ///
    /// [`AccelError::InvalidAddress`] on double-free or junk pointers.
    pub fn free_managed(&mut self, addr: u64) -> Result<Allocation, AccelError> {
        self.host_clock += self.cost.host_api_overhead_ns;
        let alloc = self.managed.free(addr);
        if let (Ok(_), Some(residency)) = (&alloc, self.residency.as_deref_mut()) {
            residency.unregister(addr);
        }
        alloc
    }

    /// Prefetches the managed range `[addr, addr + bytes)` to `device`
    /// through the residency model, charging the non-overlapped stall to
    /// `stream`. A no-op without a residency model.
    pub fn prefetch(&mut self, device: DeviceId, stream: StreamId, addr: u64, bytes: u64) {
        let Some(residency) = self.residency.as_deref_mut() else {
            return;
        };
        let stall = residency.prefetch(device, addr, bytes);
        if stall > 0 {
            let t = self.device(device).stream_time(stream);
            self.device_mut(device).set_stream_time(stream, t + stall);
        }
    }

    /// True when `addr` lies inside the managed address range.
    pub fn is_managed_addr(addr: u64) -> bool {
        (MANAGED_BASE..MANAGED_BASE + MANAGED_CAPACITY).contains(&addr)
    }

    /// Finds the live allocation (device or managed) containing `addr`.
    pub fn find_allocation(&self, device: DeviceId, addr: u64) -> Option<&Allocation> {
        if Self::is_managed_addr(addr) {
            self.managed.find_containing(addr)
        } else {
            self.try_device(device)
                .and_then(|d| d.allocator().find_containing(addr))
        }
    }

    /// Synchronous memory copy.
    ///
    /// # Errors
    ///
    /// [`AccelError::UnknownDevice`] for a bad device id.
    pub fn memcpy(
        &mut self,
        device: DeviceId,
        _dst: DevicePtr,
        _src: DevicePtr,
        bytes: u64,
        dir: CopyDirection,
    ) -> Result<u64, AccelError> {
        self.check_device(device)?;
        let spec = &self.specs[device.index()];
        let bw = match dir {
            CopyDirection::HostToDevice | CopyDirection::DeviceToHost => spec.link_bandwidth_gbps,
            CopyDirection::DeviceToDevice => spec.p2p_bandwidth_gbps,
            CopyDirection::HostToHost => 40.0, // DRAM-to-DRAM
        };
        let dur = self.cost.copy_duration_ns(bytes, bw);
        self.host_clock += self.cost.host_api_overhead_ns;
        let start = self.device(device).stream_time(0).max(self.host_clock);
        let end = start + dur;
        self.device_mut(device).set_stream_time(0, end);
        // cudaMemcpy is synchronous with respect to the host.
        self.host_clock = self.host_clock.max(end);
        let st = &mut self.stats[device.index()];
        st.copies += 1;
        match dir {
            CopyDirection::HostToDevice => st.bytes_h2d += bytes,
            CopyDirection::DeviceToHost => st.bytes_d2h += bytes,
            _ => {}
        }
        Ok(dur)
    }

    /// Device-side memset; asynchronous like a small kernel.
    ///
    /// # Errors
    ///
    /// [`AccelError::UnknownDevice`] for a bad device id.
    pub fn memset(
        &mut self,
        device: DeviceId,
        _dst: DevicePtr,
        bytes: u64,
    ) -> Result<u64, AccelError> {
        self.check_device(device)?;
        let spec = &self.specs[device.index()];
        let dur =
            (bytes as f64 / spec.mem_bandwidth_gbps) as u64 + self.cost.kernel_fixed_overhead_ns;
        self.host_clock += self.cost.host_api_overhead_ns;
        let start = self.device(device).stream_time(0).max(self.host_clock);
        self.device_mut(device).set_stream_time(0, start + dur);
        Ok(dur)
    }

    /// Blocks the host until `device` is idle (like `cudaDeviceSynchronize`).
    pub fn synchronize(&mut self, device: DeviceId) {
        self.host_clock += self.cost.host_api_overhead_ns;
        // A device the engine never touched has nothing in flight.
        if let Some(d) = self.devices.get(device.index()).and_then(OnceLock::get) {
            self.host_clock = self.host_clock.max(d.busy_until());
        }
        if let Some(st) = self.stats.get_mut(device.index()) {
            st.syncs += 1;
        }
    }

    /// Launches `desc` on `stream` of `device`.
    ///
    /// Runs the full pipeline: validation → cost-model duration → UVM
    /// residency resolution → instrumentation probe callbacks → clock
    /// bookkeeping.
    ///
    /// # Errors
    ///
    /// [`AccelError::EmptyLaunch`] for empty grids/blocks and
    /// [`AccelError::InvalidKernelArg`] for out-of-range access specs.
    pub fn launch(
        &mut self,
        device: DeviceId,
        stream: StreamId,
        desc: &KernelDesc,
    ) -> Result<LaunchRecord, AccelError> {
        self.check_device(device)?;
        if desc.grid.is_empty() || desc.block.is_empty() {
            return Err(AccelError::EmptyLaunch(desc.name.to_string()));
        }
        // Resolved once: an inline-first list picks its storage per deref.
        let (args, accesses): (&[_], &[_]) = (&desc.args, &desc.body.accesses);
        // One walk validates every stream and sums what the cost model,
        // the trace summary and the launch record all read.
        let mut global_bytes = 0;
        for a in accesses {
            if a.arg_index >= args.len() {
                return Err(AccelError::InvalidKernelArg {
                    kernel: desc.name.to_string(),
                    arg_index: a.arg_index,
                });
            }
            if a.space == MemSpace::Global {
                global_bytes += a.bytes;
            }
        }

        let launch = LaunchId(self.next_launch);
        self.next_launch += 1;
        self.host_clock += self.cost.launch_host_overhead_ns;

        let base_duration =
            self.cost
                .kernel_duration_given(&self.specs[device.index()], desc, global_bytes);
        let start = self.device(device).stream_time(stream).max(self.host_clock);

        // --- UVM residency resolution -----------------------------------
        let mut uvm = AccessOutcome::HIT;
        if let Some(residency) = self.residency.as_deref_mut() {
            for a in accesses {
                if a.space != MemSpace::Global {
                    continue;
                }
                // One lookup: the model answers `HIT` for an address
                // outside every managed allocation.
                let arg = args[a.arg_index];
                let base = arg.ptr.addr() + a.offset;
                uvm = uvm.merge(residency.on_kernel_access(device, base, a.len, a.bytes, a.kind));
            }
        }

        // --- Instrumentation probe ---------------------------------------
        let mut instr = ProbeCosts::FREE;
        let mut summary = KernelTraceSummary::default();
        if let Some(probe) = self.probe.as_deref_mut() {
            let ctx = TraceCtx {
                launch,
                device,
                stream,
                name: desc.name,
                grid: desc.grid,
                block: desc.block,
            };
            let config = probe.on_kernel_begin(&ctx);
            if !config.is_disabled() {
                let rate = config.sampling_rate.max(1) as u64;
                // A second walk builds the observed streams' batches in the
                // engine's scratch; the probe hears of them once. A config
                // that observes no access class (coarse tools: block
                // boundaries only) never gives the scratch a heap block.
                let batches = &mut self.batches;
                batches.clear();
                if config.global_accesses || config.shared_accesses {
                    batches.reserve(accesses.len());
                }
                let mut memory_records = 0;
                for (i, a) in accesses.iter().enumerate() {
                    let full = a.record_count();
                    memory_records += full;
                    let shared = matches!(a.space, MemSpace::Shared | MemSpace::RemoteShared);
                    let observe = if shared {
                        config.shared_accesses
                    } else {
                        config.global_accesses
                    };
                    if !observe {
                        continue;
                    }
                    let records = if rate == 1 {
                        full
                    } else {
                        (full / rate).max(u64::from(full > 0))
                    };
                    if shared {
                        summary.shared_records += records;
                    } else {
                        summary.global_records += records;
                    }
                    batches.push(AccessBatch {
                        launch,
                        spec_index: i,
                        base: args[a.arg_index].ptr.addr() + a.offset,
                        len: a.len,
                        records,
                        bytes: a.bytes,
                        elem_size: a.elem_size,
                        kind: a.kind,
                        space: a.space,
                        pattern: a.pattern,
                    });
                }
                if !batches.is_empty() {
                    instr = instr.merge(probe.on_access_batches(&ctx, batches));
                }
                if config.barriers {
                    let n = desc.total_barriers();
                    if n > 0 {
                        summary.barriers = n;
                        instr = instr.merge(probe.on_barriers(&ctx, n));
                    }
                }
                if config.block_boundaries {
                    let n = desc.total_blocks();
                    summary.blocks = n;
                    instr = instr.merge(probe.on_block_boundaries(&ctx, n));
                }
                summary.instructions = desc.body.instructions_given(memory_records);
                summary.global_bytes = global_bytes;
                instr = instr.merge(probe.on_kernel_end(&ctx, &summary));
            }
        }

        let end = start + base_duration + uvm.extra_device_ns + instr.device_ns;
        self.device_mut(device).set_stream_time(stream, end);
        self.host_clock += instr.host_ns;
        self.stats[device.index()].launches += 1;

        Ok(LaunchRecord {
            launch,
            device,
            stream,
            name: desc.name,
            grid: desc.grid,
            block: desc.block,
            start,
            end,
            base_duration_ns: base_duration,
            instr_device_ns: instr.device_ns,
            instr_host_ns: instr.host_ns,
            uvm_stall_ns: uvm.extra_device_ns,
            uvm_faults: uvm.faults,
            uvm_migrated_bytes: uvm.migrated_in_bytes,
            uvm_evicted_bytes: uvm.evicted_bytes,
            uvm_peer_bytes: uvm.peer_in_bytes,
            records_emitted: summary.global_records + summary.shared_records,
            global_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim3;
    use crate::kernel::{AccessSpec, KernelBody};

    fn engine() -> Engine {
        Engine::new(vec![DeviceSpec::a100_80gb()])
    }

    fn simple_kernel(buf: DevicePtr, bytes: u64) -> KernelDesc {
        KernelDesc::new("copy_kernel", Dim3::linear(1024), Dim3::linear(256))
            .arg(buf, bytes)
            .body(KernelBody::streaming(bytes / 2, bytes / 2))
    }

    #[test]
    fn launch_advances_clocks() {
        let mut e = engine();
        let dev = DeviceId(0);
        let buf = e.malloc(dev, 1 << 20).unwrap();
        let before = e.host_now();
        let rec = e.launch(dev, 0, &simple_kernel(buf, 1 << 20)).unwrap();
        assert!(rec.end > rec.start);
        assert!(e.host_now() > before, "launch has host overhead");
        e.synchronize(dev);
        assert!(e.host_now() >= rec.end, "sync waits for the kernel");
    }

    #[test]
    fn launches_on_one_stream_serialize() {
        let mut e = engine();
        let dev = DeviceId(0);
        let buf = e.malloc(dev, 1 << 20).unwrap();
        let k = simple_kernel(buf, 1 << 20);
        let r1 = e.launch(dev, 0, &k).unwrap();
        let r2 = e.launch(dev, 0, &k).unwrap();
        assert!(r2.start >= r1.end, "same-stream kernels may not overlap");
    }

    #[test]
    fn streams_can_overlap() {
        let mut e = engine();
        let dev = DeviceId(0);
        let buf = e.malloc(dev, 1 << 26).unwrap();
        let k = simple_kernel(buf, 1 << 26);
        let r1 = e.launch(dev, 1, &k).unwrap();
        let r2 = e.launch(dev, 2, &k).unwrap();
        assert!(
            r2.start < r1.end,
            "different streams should overlap ({} vs {})",
            r2.start,
            r1.end
        );
    }

    #[test]
    fn empty_launch_rejected() {
        let mut e = engine();
        let dev = DeviceId(0);
        let desc = KernelDesc::new("bad", Dim3::new(0, 1, 1), Dim3::linear(32));
        assert!(matches!(
            e.launch(dev, 0, &desc),
            Err(AccelError::EmptyLaunch(_))
        ));
    }

    #[test]
    fn unbound_arg_rejected() {
        let mut e = engine();
        let dev = DeviceId(0);
        let desc = KernelDesc::new("bad", Dim3::linear(1), Dim3::linear(32))
            .body(KernelBody::default().access(AccessSpec::load(3, 128)));
        assert!(matches!(
            e.launch(dev, 0, &desc),
            Err(AccelError::InvalidKernelArg { arg_index: 3, .. })
        ));
    }

    #[test]
    fn probe_sees_batches_and_barriers() {
        use crate::sync::Mutex;
        use std::sync::Arc;

        #[derive(Default)]
        struct Shared {
            kernels: u64,
            batches: u64,
            records: u64,
            barriers: u64,
        }
        struct SharedProbe(Arc<Mutex<Shared>>);
        impl DeviceProbe for SharedProbe {
            fn on_kernel_begin(&mut self, _ctx: &TraceCtx) -> crate::probe::ProbeConfig {
                self.0.lock().kernels += 1;
                crate::probe::ProbeConfig::all()
            }
            fn on_access_batches(
                &mut self,
                _ctx: &TraceCtx,
                batches: &[AccessBatch],
            ) -> ProbeCosts {
                let mut s = self.0.lock();
                s.batches += batches.len() as u64;
                s.records += batches.iter().map(|b| b.records).sum::<u64>();
                ProbeCosts::FREE
            }
            fn on_barriers(&mut self, _ctx: &TraceCtx, count: u64) -> ProbeCosts {
                self.0.lock().barriers += count;
                ProbeCosts::FREE
            }
        }

        let shared = Arc::new(Mutex::new(Shared::default()));
        let mut e = engine();
        let dev = DeviceId(0);
        let buf = e.malloc(dev, 1 << 20).unwrap();
        e.set_probe(Box::new(SharedProbe(Arc::clone(&shared))));
        let desc = KernelDesc::new("k", Dim3::linear(64), Dim3::linear(128))
            .arg(buf, 1 << 20)
            .body(KernelBody::streaming(1 << 19, 1 << 19).with_barriers(4));
        let rec = e.launch(dev, 0, &desc).unwrap();

        let s = shared.lock();
        assert_eq!(s.kernels, 1);
        assert_eq!(s.batches, 2, "one batch per access stream");
        assert_eq!(s.records, desc.body.memory_records());
        assert_eq!(s.barriers, desc.total_barriers());
        assert_eq!(rec.records_emitted, s.records);
    }

    #[test]
    fn memcpy_is_host_synchronous() {
        let mut e = engine();
        let dev = DeviceId(0);
        let buf = e.malloc(dev, 1 << 20).unwrap();
        let before = e.host_now();
        let dur = e
            .memcpy(
                dev,
                buf,
                DevicePtr(0x1000),
                1 << 20,
                CopyDirection::HostToDevice,
            )
            .unwrap();
        assert!(dur > 0);
        assert!(e.host_now().as_nanos() >= before.as_nanos() + dur);
        assert_eq!(e.stats(dev).bytes_h2d, 1 << 20);
    }

    #[test]
    fn oom_when_capacity_limited() {
        let mut e = engine();
        let dev = DeviceId(0);
        e.device_mut(dev).limit_usable_capacity(1 << 20);
        assert!(e.malloc(dev, 2 << 20).is_err());
        assert!(e.malloc(dev, 1 << 19).is_ok());
    }

    #[test]
    fn managed_alloc_lives_in_managed_range() {
        let mut e = engine();
        let a = e.malloc_managed(1 << 20).unwrap();
        assert!(Engine::is_managed_addr(a.addr));
        assert!(e.find_allocation(DeviceId(0), a.addr + 5).is_some());
        e.free_managed(a.addr).unwrap();
        assert!(e.find_allocation(DeviceId(0), a.addr + 5).is_none());
    }

    #[test]
    fn unknown_device_errors() {
        let mut e = engine();
        assert!(matches!(
            e.malloc(DeviceId(9), 64),
            Err(AccelError::UnknownDevice(DeviceId(9)))
        ));
    }

    #[test]
    fn sampling_reduces_records() {
        struct SamplingProbe {
            records: u64,
        }
        impl DeviceProbe for SamplingProbe {
            fn on_kernel_begin(&mut self, _ctx: &TraceCtx) -> crate::probe::ProbeConfig {
                crate::probe::ProbeConfig::global_only().with_sampling(10)
            }
            fn on_access_batches(
                &mut self,
                _ctx: &TraceCtx,
                batches: &[AccessBatch],
            ) -> ProbeCosts {
                self.records += batches.iter().map(|b| b.records).sum::<u64>();
                ProbeCosts::FREE
            }
        }
        let mut e = engine();
        let dev = DeviceId(0);
        let buf = e.malloc(dev, 1 << 20).unwrap();
        e.set_probe(Box::new(SamplingProbe { records: 0 }));
        let desc = simple_kernel(buf, 1 << 20);
        let rec = e.launch(dev, 0, &desc).unwrap();
        let full = desc.body.memory_records();
        assert!(rec.records_emitted <= full / 10 + 2);
    }

    #[test]
    fn a_launch_that_observes_no_access_class_leaves_the_scratch_unallocated() {
        // Coarse tools ask for block boundaries only. The batch scratch is
        // for observed streams and must not cost such a session a heap
        // block: per `event_flood_gated` op that one block decided whether
        // glibc trimmed and regrew the heap top (`docs/perf-log/ISSUE-17.md`,
        // *Steadiness*).
        struct BlocksOnly;
        impl DeviceProbe for BlocksOnly {
            fn on_kernel_begin(&mut self, _ctx: &TraceCtx) -> crate::probe::ProbeConfig {
                crate::probe::ProbeConfig {
                    block_boundaries: true,
                    ..crate::probe::ProbeConfig::disabled()
                }
            }
            fn on_access_batches(&mut self, _: &TraceCtx, _: &[AccessBatch]) -> ProbeCosts {
                panic!("no access class is observed");
            }
        }
        let mut e = engine();
        let dev = DeviceId(0);
        let buf = e.malloc(dev, 1 << 20).unwrap();
        e.set_probe(Box::new(BlocksOnly));
        let rec = e.launch(dev, 0, &simple_kernel(buf, 1 << 20)).unwrap();
        assert_eq!(rec.records_emitted, 0);
        assert_eq!(e.batches.capacity(), 0);
    }
}
