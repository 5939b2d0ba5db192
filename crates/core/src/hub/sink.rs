//! The launch gate and [`HubSink`], the device-trace sink feeding the hub.

use super::SharedHub;
use crate::event::{Event, EventClass};
use crate::spine::{EventRing, SpineConfig, SpineMode, SpineMsg};
use accel_sim::instrument::{DeviceTraceSink, TraceCtx};
use accel_sim::{AccessBatch, DeviceId, KernelTraceSummary, LaunchId, MemSpace, ProbeConfig};
use std::sync::Arc;

/// Per-launch admission decisions, computed once at kernel begin.
#[derive(Debug, Clone, Copy)]
struct LaunchGate {
    launch: LaunchId,
    /// Device the launch runs on. Per-lane engines number launches
    /// independently, so launch ids alone can collide across devices —
    /// the gate must never answer for another device's launch.
    device: DeviceId,
    /// Probe configuration the shard returned for this launch: the armed
    /// tools' union, so a probe it enables always has a tool reading its
    /// class.
    config: ProbeConfig,
}

/// The device-trace sink that feeds fine-grained events into the hub.
///
/// A sink binds to its launch's device shard at kernel begin; everything
/// it buffers reaches that shard. Per-device profilers (one per parallel
/// lane) therefore emit into disjoint shards and never contend.
///
/// The sink has one body. Every callback rebinds to its launch's device;
/// a launch edge (begin, end, a full spill buffer) goes to `deliver`, the
/// only place the [`SpineMode`] is read, as its spilled batches and then
/// its marker event. [`SpineMode::Inline`] (every sink a session builds)
/// consumes the edge under one shard lock. Under [`SpineMode::Ring`]
/// (only [`HubSink::new`] and [`HubSink::with_spine`] ask for it) the sink
/// owns one SPSC [`EventRing`] per device it has visited and pushes each
/// [`SpineMsg`] onto it, leaving tool dispatch to the next shard lock; a
/// full ring (or an empty buffer pool) triggers the lossless backpressure
/// path — the sink takes the shard lock, which drains every pending ring
/// (its own older messages first), and consumes the overflow there. Both
/// modes therefore cut batches at identical stream offsets and deliver the
/// identical event sequence to the shard's processor, which is what the
/// ring-vs-inline suites pin.
#[derive(Debug)]
pub struct HubSink {
    hub: SharedHub,
    mode: SpineMode,
    config: SpineConfig,
    /// [`EventClass::DeviceAccess`] spill buffer (emission order).
    pub(super) access_buf: Vec<Event>,
    /// [`EventClass::DeviceControl`] spill buffer (emission order).
    pub(super) control_buf: Vec<Event>,
    gate: Option<LaunchGate>,
    /// Device whose shard the buffered events belong to.
    bound: DeviceId,
    /// Ring per visited device (ring mode; lazily created and registered
    /// with the device's shard). Sinks visit at most a handful of
    /// devices, so a linear scan beats a map here.
    rings: Vec<(DeviceId, Arc<EventRing>)>,
}

impl HubSink {
    /// Creates a sink feeding `hub` over the default ring spine.
    pub fn new(hub: SharedHub) -> Self {
        Self::with_spine(hub, SpineMode::Ring, SpineConfig::default())
    }

    /// Creates a sink that delivers under the shard lock on the emission
    /// path: the sink every session context builds, and the reference the
    /// ring-vs-inline tests hold the ring to.
    pub fn inline_spine(hub: SharedHub) -> Self {
        Self::with_spine(hub, SpineMode::Inline, SpineConfig::default())
    }

    /// Creates a sink with an explicit spine mode and ring geometry
    /// (tests shrink the geometry to force wraparound and backpressure).
    pub fn with_spine(hub: SharedHub, mode: SpineMode, config: SpineConfig) -> Self {
        HubSink {
            hub,
            mode,
            config,
            // Each sized by `reserve_spill` at its class's first event: a
            // coarse session never sees an access, so never pays for it.
            access_buf: Vec::new(),
            control_buf: Vec::new(),
            gate: None,
            bound: DeviceId(0),
            rings: Vec::new(),
        }
    }

    /// Events currently buffered (not yet visible to any processor).
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> usize {
        self.access_buf.len() + self.control_buf.len()
    }

    /// Hands the spill buffers to the bound shard: access events first,
    /// control events second, each class as one batch through one
    /// dispatch-row lookup. Over the ring the batches are visible at the
    /// shard's next drain; an inline sink's are processed before this
    /// returns.
    pub fn flush(&mut self) {
        if !(self.access_buf.is_empty() && self.control_buf.is_empty()) {
            self.deliver(None, None);
        }
    }

    fn spill_buf(&mut self, class: EventClass) -> &mut Vec<Event> {
        match class {
            EventClass::DeviceAccess => &mut self.access_buf,
            _ => &mut self.control_buf,
        }
    }

    /// Hands the bound shard one launch edge — the spill buffers as one
    /// batch per class, accesses first, then `marker` — and reads the probe
    /// config of `gate`'s launch: inline under one shard lock; over the ring
    /// by pushing the same messages, then reading under the raw lock, which
    /// suffices because the config depends only on tool interests and
    /// region state, which the host path delivers synchronously.
    fn deliver(&mut self, marker: Option<Event>, gate: Option<LaunchId>) -> Option<ProbeConfig> {
        let classes = [EventClass::DeviceAccess, EventClass::DeviceControl];
        match self.mode {
            SpineMode::Inline => {
                let mut shard = self.hub.lock_device(self.bound);
                let bufs = [&mut self.access_buf, &mut self.control_buf];
                for (class, buf) in classes.into_iter().zip(bufs) {
                    if !buf.is_empty() {
                        shard.process_class_batch(class, buf);
                        buf.clear();
                    }
                }
                if let Some(event) = marker {
                    shard.process(&event);
                }
                gate.map(|launch| shard.probe_config_for(launch))
            }
            SpineMode::Ring => {
                let ring = self.ensure_ring(self.bound);
                for class in classes {
                    if !self.spill_buf(class).is_empty() {
                        let spare = self.take_or_reclaim_buffer(&ring);
                        let full = std::mem::replace(self.spill_buf(class), spare);
                        self.push(&ring, SpineMsg::Batch(class, full));
                    }
                }
                if let Some(event) = marker {
                    self.push(&ring, SpineMsg::One(event));
                }
                let shard = self.hub.shard_for(self.bound);
                gate.map(|launch| shard.lock_raw().probe_config_for(launch))
            }
        }
    }

    /// Pushes `msg` onto `ring`, or, when it is full, consumes it under the
    /// shard lock, whose drain takes this sink's older messages first.
    fn push(&self, ring: &EventRing, msg: SpineMsg) {
        if let Err(msg) = ring.push(msg) {
            let mut processor = self.hub.shard_for(self.bound).lock();
            if let Some(buf) = crate::spine::consume(msg, &mut processor) {
                // Still holding the shard lock: recycling is a
                // consumer-role operation on the free ring.
                ring.recycle(buf);
            }
        }
    }

    /// The ring feeding `device`'s shard, created and registered on
    /// first use.
    fn ensure_ring(&mut self, device: DeviceId) -> Arc<EventRing> {
        if let Some((_, ring)) = self.rings.iter().find(|(d, _)| *d == device) {
            return Arc::clone(ring);
        }
        let ring = Arc::new(EventRing::with_config(&self.config));
        self.hub.shard_for(device).register_ring(Arc::clone(&ring));
        self.rings.push((device, Arc::clone(&ring)));
        ring
    }

    /// A replacement spill buffer: recycled from the free ring when the
    /// consumer returned one; otherwise the pool is dry (the shard has
    /// not drained yet), so self-drain — the lossless backpressure path
    /// recycles every in-flight buffer — and retry. Allocation is the
    /// cold last resort (e.g. shrunken test geometries).
    fn take_or_reclaim_buffer(&self, ring: &EventRing) -> Vec<Event> {
        if let Some(buf) = ring.take_buffer() {
            return buf;
        }
        drop(self.hub.shard_for(self.bound).lock());
        ring.take_buffer()
            .unwrap_or_else(|| Vec::with_capacity(self.config.batch_events.max(1)))
    }

    fn push_control(&mut self, event: Event) {
        reserve_spill(&mut self.control_buf, &self.config);
        self.control_buf.push(event);
        if self.control_buf.len() >= self.config.batch_events.max(1) {
            self.flush();
        }
    }

    /// The gate for `ctx`'s launch, reopened only when a callback arrives
    /// out of band (no preceding `on_kernel_begin`).
    fn gate_for(&mut self, ctx: &TraceCtx) -> LaunchGate {
        match self.gate {
            Some(gate) if gate.launch == ctx.launch && gate.device == ctx.device => gate,
            _ => self.open_gate(ctx, None),
        }
    }

    /// Opens and caches the gate for `ctx`'s launch on its device's shard.
    /// Leftovers from a launch whose end never reached us are delivered
    /// first, then `marker`, preserving cross-launch order.
    fn open_gate(&mut self, ctx: &TraceCtx, marker: Option<Event>) -> LaunchGate {
        self.rebind(ctx.device);
        let gate = LaunchGate {
            launch: ctx.launch,
            device: ctx.device,
            config: self.deliver(marker, Some(ctx.launch)).unwrap_or_default(),
        };
        self.gate = Some(gate);
        gate
    }

    /// Points the sink at `device`'s shard, handing anything buffered to
    /// the previously bound shard first. Events of a launch whose kernel
    /// end never arrived therefore stay attributed to the *old* device's
    /// shard — the device they were emitted on — never silently re-routed
    /// to the new one (pinned by the leftover-drain regression tests).
    fn rebind(&mut self, device: DeviceId) {
        if self.bound != device {
            self.flush();
            self.bound = device;
        }
    }
}

/// Gives a spill buffer that has held nothing yet its one batch of room
/// (every later buffer in that place comes from the ring's pool, sized).
fn reserve_spill(buf: &mut Vec<Event>, config: &SpineConfig) {
    if buf.capacity() == 0 {
        buf.reserve_exact(config.batch_events.max(1));
    }
}

impl Drop for HubSink {
    /// Lossless teardown: partial spill buffers are delivered like any
    /// flush, so harvest-time drains still observe them — the
    /// salvaged-report path for sinks dropped by a panicked lane. During a
    /// panic unwind only lock-free pushes run (taking the shard lock could
    /// execute tool code mid-unwind), so an inline sink, which has no
    /// ring, keeps what it had buffered to itself.
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some((_, ring)) = self.rings.iter().find(|(d, _)| *d == self.bound) {
                for (class, buf) in [
                    (EventClass::DeviceAccess, &mut self.access_buf),
                    (EventClass::DeviceControl, &mut self.control_buf),
                ] {
                    if !buf.is_empty() {
                        let _ = ring.push(SpineMsg::Batch(class, std::mem::take(buf)));
                    }
                }
            }
        } else {
            self.flush();
        }
        for (_, ring) in &self.rings {
            ring.close();
        }
    }
}

impl DeviceTraceSink for HubSink {
    fn on_kernel_begin(&mut self, ctx: &TraceCtx) -> ProbeConfig {
        let begin = Event::KernelLaunchBegin {
            launch: ctx.launch,
            device: ctx.device,
            stream: ctx.stream,
            name: ctx.name,
            grid: ctx.grid,
            block: ctx.block,
        };
        self.open_gate(ctx, Some(begin)).config
    }

    fn on_batch(&mut self, ctx: &TraceCtx, batch: &AccessBatch) {
        self.on_batches(ctx, std::slice::from_ref(batch));
    }

    fn on_batches(&mut self, ctx: &TraceCtx, batches: &[AccessBatch]) {
        let config = self.gate_for(ctx).config;
        if !(config.global_accesses || config.shared_accesses) {
            return; // no lock taken, no event constructed
        }
        let capacity = self.config.batch_events.max(1);
        reserve_spill(&mut self.access_buf, &self.config);
        let mut rest = batches;
        while !rest.is_empty() {
            // Fill the spill buffer to where a push-and-check per event
            // would have flushed it, so every spine geometry cuts the
            // stream at the same offsets whatever the slice lengths.
            let room = capacity.saturating_sub(self.access_buf.len()).max(1);
            let (fill, later) = rest.split_at(room.min(rest.len()));
            self.access_buf
                .extend(fill.iter().map(|batch| match batch.space {
                    MemSpace::Shared | MemSpace::RemoteShared => Event::SharedAccess {
                        launch: ctx.launch,
                        kernel: ctx.name,
                        batch: batch.clone(),
                    },
                    _ => Event::GlobalAccess {
                        launch: ctx.launch,
                        kernel: ctx.name,
                        batch: batch.clone(),
                    },
                }));
            if self.access_buf.len() >= capacity {
                self.flush();
            }
            rest = later;
        }
    }

    fn on_barriers(&mut self, ctx: &TraceCtx, count: u64) {
        if !self.gate_for(ctx).config.barriers {
            return;
        }
        self.push_control(Event::Barrier {
            launch: ctx.launch,
            count,
            cluster: false,
        });
    }

    fn on_blocks(&mut self, ctx: &TraceCtx, count: u64) {
        if !self.gate_for(ctx).config.block_boundaries {
            return;
        }
        self.push_control(Event::BlockBoundary {
            launch: ctx.launch,
            count,
        });
    }

    fn on_instructions(&mut self, ctx: &TraceCtx, count: u64) {
        if !self.gate_for(ctx).config.instructions {
            return;
        }
        self.push_control(Event::Instructions {
            launch: ctx.launch,
            count,
        });
    }

    fn on_kernel_end(&mut self, ctx: &TraceCtx, summary: &KernelTraceSummary) {
        // The launch's buffered events precede its trace summary, which
        // always flows (the knob aggregates feed on it even when no tool
        // subscribed). Inline that is one shard lock; over the ring no lock
        // is taken here at all in the common case.
        self.rebind(ctx.device);
        let trace = Event::KernelTrace {
            launch: ctx.launch,
            kernel: ctx.name,
            summary: summary.clone(),
        };
        self.deliver(Some(trace), None);
        self.gate = None;
    }
}
