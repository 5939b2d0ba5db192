//! The sharded event hub and its device-trace sink.
//!
//! Vendor callbacks arrive from closures, device traces from the
//! profiler's sink, framework events from session subscribers — all on
//! different call paths and, since the parallel workloads went
//! multi-threaded, potentially from several OS threads at once. A single
//! `Mutex<EventProcessor>` would funnel every device through one lock;
//! instead the [`Hub`] is a set of [`DeviceShard`]s — one
//! [`EventProcessor`] (tools + knobs + stacks) per [`DeviceId`], each
//! behind its own lock — so concurrent emission from different devices
//! never contends. A [`MergedReport`] combines per-shard tool state
//! deterministically (launch order within a device, ascending device id
//! across devices) at session end.
//!
//! The fine-grained path through [`HubSink`] is the hottest code in the
//! system (millions of events per profiled run) and is kept cheap by four
//! cooperating mechanisms:
//!
//! 1. **Interest gate** — at kernel begin the sink caches the launch's
//!    [`ProbeConfig`] together with the shard's per-class tool
//!    subscriptions in a `LaunchGate`; `on_batches`/`on_barriers`/
//!    `on_blocks`/`on_instructions` return *before* taking any lock or
//!    constructing an [`Event`] when nothing downstream wants the class.
//! 2. **Interned names** — [`TraceCtx::name`] is a [`Symbol`], so events
//!    carry a `Copy` handle instead of a fresh `String` per event.
//! 3. **Per-class spill buffers** — admitted events accumulate in
//!    sink-local fixed-capacity buffers segregated by [`EventClass`]
//!    (mirroring the simulated device-side trace buffer), so the drain
//!    resolves each class's dispatch row once per flush instead of
//!    matching on the class per event. Within a class events stay in
//!    emission order; across classes a flush drains accesses before
//!    control events — no tool observes a barrier "before" the accesses
//!    of its own flush window.
//! 4. **Batched flushes** — a full buffer (or kernel end) spills the
//!    whole window at once instead of handing off event-by-event.
//! 5. **The lock-free spine** ([`crate::spine`]) — in the default
//!    [`SpineMode::Ring`], a spill *pushes* the batch onto a bounded SPSC
//!    ring instead of running tool dispatch under the shard mutex; the
//!    shard side (a background [`crate::spine::SpineDrainer`], a
//!    backpressured producer, or the next harvest) drains it off the
//!    emission critical path. [`SpineMode::Inline`] keeps the historical
//!    drain-under-lock behaviour as the differential reference. Every
//!    acquisition through [`DeviceShard::lock`] drains pending rings
//!    first, so reports, recorders and resets observe every pushed event
//!    exactly once — [`Hub::quiesce`] is the explicit entry point.
//!
//! [`Symbol`]: accel_sim::Symbol

use crate::event::{Event, EventClass};
use crate::processor::EventProcessor;
use crate::report::{MergedReport, ToolQuarantine, ToolReport};
use crate::spine::{EventRing, ShardSpine, SpineConfig, SpineMode, SpineMsg};
use crate::tool::Tool;
use accel_sim::instrument::{DeviceTraceSink, TraceCtx};
use accel_sim::{AccessBatch, DeviceId, KernelTraceSummary, LaunchId, MemSpace, ProbeConfig};
use dl_framework::pycall::CrossLayerStack;
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

/// One device's slice of the hub: its event processor behind its own
/// lock, plus the spine registry of SPSC rings feeding it.
///
/// Shards sit side by side in the hub's `Vec` and pool workers claim
/// lanes in order, so neighbouring shards are written from different
/// cores at the same time. Aligned (and thereby padded) to 128 bytes —
/// two lines, because the adjacent-line prefetcher pairs them — no shard's
/// lock word, counters or ring count share a line with a neighbour's.
#[derive(Debug)]
#[repr(align(128))]
pub struct DeviceShard {
    device: DeviceId,
    processor: Mutex<EventProcessor>,
    spine: ShardSpine,
}

impl DeviceShard {
    fn new(device: DeviceId, processor: EventProcessor) -> DeviceShard {
        DeviceShard {
            device,
            processor: Mutex::new(processor),
            spine: ShardSpine::default(),
        }
    }

    /// The device this shard serves.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Locks this shard's processor, draining any spine messages queued
    /// by ring-mode sinks first — the guard therefore always observes a
    /// state that includes every event pushed before the acquisition
    /// (the exactly-once contract for reports and recorders).
    pub fn lock(&self) -> MutexGuard<'_, EventProcessor> {
        let mut guard = self.processor.lock();
        self.spine.drain(&mut guard);
        guard
    }

    /// Locks without draining — for reads that depend only on state the
    /// spine cannot carry (probe configs: region events arrive on the
    /// host path, which drains synchronously). Keeps per-launch gate
    /// reads off the drain path.
    pub(crate) fn lock_raw(&self) -> MutexGuard<'_, EventProcessor> {
        self.processor.lock()
    }

    /// Opportunistically drains this shard's rings: a no-op (returning 0)
    /// when someone else holds the processor lock — they will drain.
    /// Returns the number of events drained. The [`crate::spine::SpineDrainer`]
    /// heartbeat.
    pub fn try_drain(&self) -> u64 {
        match self.processor.try_lock() {
            Some(mut guard) => self.spine.drain(&mut guard),
            None => 0,
        }
    }

    /// Registers a sink's ring as feeding this shard.
    pub(crate) fn register_ring(&self, ring: Arc<EventRing>) {
        self.spine.register(ring);
    }
}

/// The hub: per-device [`DeviceShard`]s plus the deterministic merge.
///
/// A hub with one shard (the [`new_shared`] constructor, or any session
/// holding a tool that declines [`Tool::fork`]) routes every device
/// through that shard — the pre-sharding behaviour. A sharded hub routes
/// each device-attributed event to its device's shard and leaves
/// launch-scoped fine events to the [`HubSink`] that is already bound to
/// its shard.
#[derive(Debug)]
pub struct Hub {
    shards: Vec<DeviceShard>,
    /// Worker budget for the session-end merge plan (`0` = available
    /// parallelism); see [`Hub::set_merge_threads`].
    merge_threads: std::sync::atomic::AtomicUsize,
}

/// Shared handle to the hub.
pub type SharedHub = Arc<Hub>;

/// Creates a shared single-shard hub around a processor (every device
/// routes through the one shard).
pub fn new_shared(processor: EventProcessor) -> SharedHub {
    Arc::new(Hub::single(processor))
}

impl Hub {
    /// A single-shard hub serving every device.
    pub fn single(processor: EventProcessor) -> Hub {
        Hub {
            shards: vec![DeviceShard::new(DeviceId(0), processor)],
            merge_threads: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// A sharded hub: one processor per device.
    ///
    /// # Errors
    ///
    /// Rejects an empty shard list and duplicate [`DeviceId`]s — two
    /// shards for one device would split that device's event stream and
    /// make the merge double-count.
    pub fn sharded(shards: Vec<(DeviceId, EventProcessor)>) -> Result<Hub, String> {
        if shards.is_empty() {
            return Err("sharded hub needs at least one device shard".into());
        }
        for (i, (device, _)) in shards.iter().enumerate() {
            if shards[..i].iter().any(|(d, _)| d == device) {
                return Err(format!(
                    "duplicate device {device} in the session device list: \
                     each device gets exactly one shard"
                ));
            }
        }
        let mut shards: Vec<DeviceShard> = shards
            .into_iter()
            .map(|(device, processor)| DeviceShard::new(device, processor))
            .collect();
        shards.sort_by_key(|s| s.device);
        Ok(Hub {
            shards,
            merge_threads: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// Caps the worker threads the session-end merge plan
    /// ([`crate::merge`]) may use for this hub's folds (`0` = available
    /// parallelism). Thread count never changes merged bytes — the tree
    /// shape is a function of shard count alone — so this is purely a
    /// resource knob; `PastaBuilder` stamps it from
    /// `ParallelConfig::max_merge_threads`.
    pub fn set_merge_threads(&self, max_threads: usize) {
        self.merge_threads
            .store(max_threads, std::sync::atomic::Ordering::Release);
    }

    /// The merge plan's worker budget (`0` = available parallelism).
    pub fn merge_threads(&self) -> usize {
        self.merge_threads
            .load(std::sync::atomic::Ordering::Acquire)
    }

    /// True when the hub routes devices to distinct shards.
    pub fn is_sharded(&self) -> bool {
        self.shards.len() > 1
    }

    /// The shards, ascending device id.
    pub fn shards(&self) -> &[DeviceShard] {
        &self.shards
    }

    /// The shard serving `device`. Single-shard hubs (and unknown
    /// devices) fall back to the first shard.
    pub fn shard_for(&self, device: DeviceId) -> &DeviceShard {
        // Builder-made hubs hold devices 0..n in order, so the common case
        // is a direct index; anything else scans.
        let i = device.index();
        if let Some(shard) = self.shards.get(i) {
            if shard.device == device {
                return shard;
            }
        }
        self.shards
            .iter()
            .find(|s| s.device == device)
            .unwrap_or(&self.shards[0])
    }

    /// Locks the shard serving `device`, draining its pending spine
    /// messages first (see [`DeviceShard::lock`]).
    pub fn lock_device(&self, device: DeviceId) -> MutexGuard<'_, EventProcessor> {
        self.shard_for(device).lock()
    }

    /// Locks the primary (lowest-device) shard — where deviceless state
    /// like builder-registered tool instances lives. Drain-first like
    /// every shard lock, so the guard's view is quiescent.
    pub fn primary(&self) -> MutexGuard<'_, EventProcessor> {
        self.shards[0].lock()
    }

    /// Routes one event to its device's shard (events without a device —
    /// launch-scoped fine events arriving out of band — go to the primary
    /// shard) and processes it.
    ///
    /// `pasta.start()`/`pasta.stop()` region annotations additionally
    /// update every *other* shard's range observation: the analysis range
    /// gates the whole session (§III-F1), so a region opened while device
    /// 0 is current must also admit launches on device 1. Only the home
    /// shard dispatches the event to tools, so merges never double-count.
    pub fn process(&self, event: &Event) {
        let home = match event.device() {
            Some(device) => self.shard_for(device),
            None => &self.shards[0],
        };
        home.lock().process(event);
        if self.is_sharded() && matches!(event, Event::RegionStart { .. } | Event::RegionEnd { .. })
        {
            for shard in &self.shards {
                if !std::ptr::eq(shard, home) {
                    shard.lock().observe_range(event);
                }
            }
        }
    }

    /// Drains every shard's pending spine messages into its processor —
    /// the documented quiescent-drain entry point for harvesting and
    /// reset paths. Returns the number of events drained.
    ///
    /// Callers rarely need this explicitly: every shard-lock acquisition
    /// through [`DeviceShard::lock`] (and therefore every report, knob,
    /// stack, recorder and reset path on the hub) drains first, so those
    /// views are quiescent by construction. Call `quiesce` directly when
    /// pending ring-mode events must become visible *without* taking any
    /// further action — e.g. before comparing `events_processed` across
    /// hubs, or after a parallel region whose drainers were stopped.
    ///
    /// Events pushed before this call are processed when it returns;
    /// producers still running may of course push more afterwards.
    pub fn quiesce(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let mut guard = s.processor.lock();
                s.spine.drain(&mut guard)
            })
            .sum()
    }

    /// Attaches one trace recorder per shard: `make` is called once per
    /// shard in ascending device order and the returned recorder observes
    /// every event that shard processes from then on (the capture half of
    /// `pasta-trace`). Replaces any previously attached recorders.
    pub fn attach_recorders(
        &self,
        mut make: impl FnMut(DeviceId) -> Box<dyn crate::processor::EventRecorder>,
    ) {
        for shard in &self.shards {
            let recorder = make(shard.device);
            shard.lock().set_recorder(recorder);
        }
    }

    /// Detaches every shard's trace recorder, returning them in ascending
    /// device order (shards without one are skipped).
    pub fn detach_recorders(&self) -> Vec<(DeviceId, Box<dyn crate::processor::EventRecorder>)> {
        self.shards
            .iter()
            .filter_map(|s| s.lock().take_recorder().map(|r| (s.device, r)))
            .collect()
    }

    /// Events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().events_processed())
            .sum()
    }

    /// Resets every shard's accumulated analysis state.
    pub fn reset_all(&self) {
        for shard in &self.shards {
            shard.lock().reset();
        }
    }

    /// Merged tool reports, registration order. Single-shard hubs report
    /// directly; sharded hubs fold every shard's instance of each tool
    /// into a fresh fork, ascending device id, leaving shard state
    /// untouched (the merge is repeatable).
    pub fn merged_reports(&self) -> Vec<ToolReport> {
        if !self.is_sharded() {
            return self.primary().tools.reports();
        }
        self.merged_tool_reports(&self.lock_all())
    }

    /// Every shard locked (and so drained), ascending device id.
    fn lock_all(&self) -> Vec<MutexGuard<'_, EventProcessor>> {
        self.shards.iter().map(DeviceShard::lock).collect()
    }

    /// The reports of every tool merged across the locked shards.
    fn merged_tool_reports(&self, guards: &[MutexGuard<'_, EventProcessor>]) -> Vec<ToolReport> {
        let procs: Vec<&EventProcessor> = guards.iter().map(|g| &**g).collect();
        merge_all_tools(&procs, self.merge_threads())
            .iter()
            .map(|t| t.report())
            .collect()
    }

    /// The full merged report: merged tools, the per-shard breakdown, and
    /// the total event count — all derived from one pass over the shard
    /// locks, so the snapshot is internally consistent even while
    /// emitters are still running (`sum(per_device) == merged totals`).
    pub fn merged_report(&self) -> MergedReport {
        let guards = self.lock_all();
        let per_device: Vec<(DeviceId, Vec<ToolReport>)> = self
            .shards
            .iter()
            .zip(&guards)
            .map(|(s, g)| (s.device, g.tools.reports()))
            .collect();
        let tools = if let [(_, only)] = per_device.as_slice() {
            // A lone shard's reports *are* the merged ones: render once.
            only.clone()
        } else {
            self.merged_tool_reports(&guards)
        };
        MergedReport {
            tools,
            per_device,
            events_processed: guards.iter().map(|g| g.events_processed()).sum(),
            uvm: None,
            quarantined: collect_quarantines(guards.iter().map(|g| &**g)),
            // The hub tracks no lanes; the session layer overlays its
            // accumulated failures.
            lane_failures: Vec::new(),
        }
    }

    /// Quarantine records across every shard, deduplicated by tool name
    /// (ascending device id, first shard's message wins). Empty on a
    /// healthy run.
    pub fn quarantines(&self) -> Vec<ToolQuarantine> {
        let guards = self.lock_all();
        collect_quarantines(guards.iter().map(|g| &**g))
    }

    /// Runs `f` against the *merged* view of the named tool: every
    /// shard's instance folded into a fresh fork (ascending device id).
    /// On single-shard hubs `f` sees the live instance directly.
    pub fn with_merged_tool<T: Tool + 'static, R>(
        &self,
        name: &str,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        if !self.is_sharded() {
            let mut guard = self.primary();
            return guard.tools.with_tool_mut(name, |t: &mut T| f(t));
        }
        let guards = self.lock_all();
        let procs: Vec<&EventProcessor> = guards.iter().map(|g| &**g).collect();
        let i = (0..procs[0].tools.len())
            .find(|&i| procs[0].tools.tool_at(i).is_some_and(|t| t.name() == name))?;
        let merged = merge_tool_index(&procs, i, self.merge_threads());
        merged.as_any().downcast_ref::<T>().map(f)
    }

    /// Knob aggregates merged across shards (per-kernel sums commute, so
    /// the device-ordered fold is deterministic).
    pub fn merged_knobs(&self) -> crate::knob::KnobSet {
        let mut merged = self.shards[0].lock().knobs.clone();
        for shard in &self.shards[1..] {
            merged.merge_from(&shard.lock().knobs);
        }
        merged
    }

    /// The captured cross-layer stack for `kernel`: shards are consulted
    /// in ascending device order and the first capture wins (one
    /// representative context per kernel, as in the paper).
    pub fn merged_stack_for(&self, kernel: &str) -> Option<CrossLayerStack> {
        self.shards
            .iter()
            .find_map(|s| s.lock().stacks.stack_for(kernel).cloned())
    }
}

/// Quarantine records across `procs` (pass them in ascending device
/// order), deduplicated by tool name — the first shard to quarantine a
/// tool supplies the message.
fn collect_quarantines<'a>(procs: impl Iterator<Item = &'a EventProcessor>) -> Vec<ToolQuarantine> {
    let mut out: Vec<ToolQuarantine> = Vec::new();
    for proc in procs {
        for q in proc.tools.quarantines() {
            if !out.iter().any(|e| e.tool == q.tool) {
                out.push(q.clone());
            }
        }
    }
    out
}

/// Folds every shard's instance of tool `i` into a fresh fork via the
/// shared merge plan ([`crate::merge::tree_reduce`]), ascending device id
/// (the callers pass `procs` in shard order, which is device order).
///
/// Each non-quarantined shard contributes one leaf — a fresh fork of the
/// primary instance with that shard's state merged in — and the leaves
/// tree-reduce pairwise in device order on up to `max_threads` workers.
/// A fork is an identity element for [`Tool::merge`] (empty accumulated
/// state), so the tree's result is byte-identical to the linear
/// `fork ∘ s₀ ∘ s₁ ∘ …` fold this replaces; the tree shape depends only
/// on the shard count, so thread count never changes the bytes (the
/// `tests/concurrency.rs` and `tests/scale_out.rs` suites pin this).
///
/// A shard instance quarantined after a panicking callback is excluded
/// from the fold: its state is memory-safe but potentially inconsistent
/// (the panic interrupted an update), while the surviving shards' state
/// is whole.
// Audited expects: registration lists are uniform across shards by
// construction (every shard is a `fork_all` of one collection), so these
// lookups encode structural invariants, not data-dependent conditions.
#[allow(clippy::expect_used)]
fn merge_tool_index(procs: &[&EventProcessor], i: usize, max_threads: usize) -> Box<dyn Tool> {
    let primary = procs[0].tools.tool_at(i).expect("tool index in range");
    let leaves: Vec<Box<dyn Tool>> = procs
        .iter()
        .filter(|proc| !proc.tools.is_quarantined(i))
        .map(|proc| {
            let mut leaf = primary
                .fork()
                .expect("sharded sessions hold only forkable tools");
            leaf.merge(proc.tools.tool_at(i).expect("same registration"));
            leaf
        })
        .collect();
    crate::merge::tree_reduce(leaves, max_threads, |a, b| a.merge(&*b)).unwrap_or_else(|| {
        // Every shard quarantined this tool: report the empty fork.
        primary
            .fork()
            .expect("sharded sessions hold only forkable tools")
    })
}

/// Merged boxes of every registered tool across `procs` (registration
/// order), scheduled by the shared merge plan. Hubs with more than two
/// shards spend `max_threads` workers (`0` = available parallelism):
/// across tools when there are several ([`crate::merge::reduce_indexed`],
/// each tool's shard tree running whole on one worker), or *within* the
/// shard tree when a single tool spans many shards — the 256-shard,
/// one-tool teardown the scale-out workload produces. Two-shard hubs
/// merge sequentially, exactly as before the pool existed. Either way
/// the bytes match the fully sequential merge — the plan only changes
/// which thread executes a pair, never the pairing order.
fn merge_all_tools(procs: &[&EventProcessor], max_threads: usize) -> Vec<Box<dyn Tool>> {
    let n = procs[0].tools.len();
    let workers = if procs.len() > 2 { max_threads } else { 1 };
    if n == 1 {
        return vec![merge_tool_index(procs, 0, workers)];
    }
    crate::merge::reduce_indexed(n, workers, |i| merge_tool_index(procs, i, 1))
}

/// Drains the sink's per-class spill buffers into a processor whose lock
/// the caller already holds: access events first, control events second,
/// each class through one dispatch-row lookup.
fn drain_buffers(
    access_buf: &mut Vec<Event>,
    control_buf: &mut Vec<Event>,
    processor: &mut EventProcessor,
) {
    if !access_buf.is_empty() {
        processor.process_class_batch(EventClass::DeviceAccess, access_buf);
        access_buf.clear();
    }
    if !control_buf.is_empty() {
        processor.process_class_batch(EventClass::DeviceControl, control_buf);
        control_buf.clear();
    }
}

/// Per-launch admission decisions, computed once at kernel begin.
#[derive(Debug, Clone, Copy)]
struct LaunchGate {
    launch: LaunchId,
    /// Device the launch runs on. Per-lane engines number launches
    /// independently, so launch ids alone can collide across devices —
    /// the gate must never answer for another device's launch.
    device: DeviceId,
    /// Probe configuration the shard returned for this launch.
    config: ProbeConfig,
    /// Some tool subscribed to [`EventClass::DeviceAccess`].
    access_tools: bool,
    /// Some tool subscribed to [`EventClass::DeviceControl`].
    control_tools: bool,
}

impl LaunchGate {
    fn for_launch(ctx: &TraceCtx, config: ProbeConfig, processor: &EventProcessor) -> Self {
        LaunchGate {
            launch: ctx.launch,
            device: ctx.device,
            config,
            access_tools: processor.class_wanted(EventClass::DeviceAccess),
            control_tools: processor.class_wanted(EventClass::DeviceControl),
        }
    }

    fn wants_batches(&self) -> bool {
        self.access_tools && (self.config.global_accesses || self.config.shared_accesses)
    }

    fn wants_barriers(&self) -> bool {
        self.control_tools && self.config.barriers
    }

    fn wants_blocks(&self) -> bool {
        self.control_tools && self.config.block_boundaries
    }

    fn wants_instructions(&self) -> bool {
        self.control_tools
    }
}

/// The device-trace sink that feeds fine-grained events into the hub.
///
/// A sink binds to its launch's device shard at kernel begin; everything
/// it buffers reaches that shard. Per-device profilers (one per parallel
/// lane) therefore emit into disjoint shards and never contend.
///
/// In the default [`SpineMode::Ring`] the sink owns one SPSC
/// [`EventRing`] per device it has visited: spills *push* onto the
/// bound device's ring and return, leaving tool dispatch to the shard
/// side. A full ring (or an empty buffer pool) triggers the lossless
/// backpressure path — the sink takes the shard lock, which drains every
/// pending ring (its own older messages first), and processes the
/// overflow inline. [`SpineMode::Inline`] reproduces the pre-spine
/// behaviour: spills drain under the shard lock on the emission path.
/// Both modes cut batches at identical stream offsets and deliver the
/// identical event sequence to the shard's processor, which is what the
/// ring-vs-inline byte-identity suites pin.
#[derive(Debug)]
pub struct HubSink {
    hub: SharedHub,
    mode: SpineMode,
    config: SpineConfig,
    /// [`EventClass::DeviceAccess`] spill buffer (emission order).
    access_buf: Vec<Event>,
    /// [`EventClass::DeviceControl`] spill buffer (emission order).
    control_buf: Vec<Event>,
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

    /// Creates a sink that drains under the shard lock on the emission
    /// path — the pre-spine reference used by differential tests and the
    /// bench decompositions.
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
    pub fn buffered(&self) -> usize {
        self.access_buf.len() + self.control_buf.len()
    }

    /// Hands the spill buffers to the bound shard: access events first,
    /// control events second, each class through one dispatch-row
    /// lookup. Ring mode pushes the buffers onto the spine (visible at
    /// the shard's next drain); inline mode processes them under the
    /// shard lock before returning.
    pub fn flush(&mut self) {
        if self.access_buf.is_empty() && self.control_buf.is_empty() {
            return;
        }
        match self.mode {
            SpineMode::Ring => {
                self.spill_class(EventClass::DeviceAccess);
                self.spill_class(EventClass::DeviceControl);
            }
            SpineMode::Inline => {
                let mut processor = self.hub.lock_device(self.bound);
                drain_buffers(&mut self.access_buf, &mut self.control_buf, &mut processor);
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

    /// Pushes `msg` onto `ring`, applying lossless backpressure on a full
    /// ring: take the shard lock (the drain-first acquisition empties
    /// every pending ring — this sink's older messages first, so per-ring
    /// FIFO holds) and process the overflow inline as the consumer.
    fn ring_send(&self, ring: &EventRing, msg: SpineMsg) {
        if let Err(msg) = ring.push(msg) {
            let mut processor = self.hub.shard_for(self.bound).lock();
            match msg {
                SpineMsg::One(event) => processor.process(&event),
                SpineMsg::Batch(class, events) => {
                    processor.process_class_batch(class, &events);
                    // Still holding the shard lock: recycling is a
                    // consumer-role operation on the free ring.
                    ring.recycle(events);
                }
            }
        }
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

    /// Ring mode: moves one class's spill buffer onto the bound ring,
    /// installing a recycled buffer in its place.
    fn spill_class(&mut self, class: EventClass) {
        let is_empty = match class {
            EventClass::DeviceAccess => self.access_buf.is_empty(),
            _ => self.control_buf.is_empty(),
        };
        if is_empty {
            return;
        }
        let ring = self.ensure_ring(self.bound);
        let replacement = self.take_or_reclaim_buffer(&ring);
        let full = match class {
            EventClass::DeviceAccess => std::mem::replace(&mut self.access_buf, replacement),
            _ => std::mem::replace(&mut self.control_buf, replacement),
        };
        self.ring_send(&ring, SpineMsg::Batch(class, full));
    }

    /// Ring mode: sends a single out-of-band event (launch markers) on
    /// the bound ring.
    fn send_one(&mut self, event: Event) {
        let ring = self.ensure_ring(self.bound);
        self.ring_send(&ring, SpineMsg::One(event));
    }

    fn push_control(&mut self, event: Event) {
        reserve_spill(&mut self.control_buf, &self.config);
        self.control_buf.push(event);
        if self.control_buf.len() >= self.config.batch_events.max(1) {
            self.flush();
        }
    }

    /// The gate for `ctx`'s launch, recomputed under the shard lock only
    /// when a callback arrives out of band (no preceding
    /// `on_kernel_begin`). The raw (non-draining) lock suffices: probe
    /// configs depend only on tool interests and region state, and
    /// region events arrive on the host path, which drains synchronously.
    fn gate_for(&mut self, ctx: &TraceCtx) -> LaunchGate {
        match self.gate {
            Some(gate) if gate.launch == ctx.launch && gate.device == ctx.device => gate,
            _ => {
                self.rebind(ctx.device);
                let processor = self.hub.shard_for(ctx.device).lock_raw();
                let config = processor.probe_config_for(ctx.launch);
                let gate = LaunchGate::for_launch(ctx, config, &processor);
                drop(processor);
                self.gate = Some(gate);
                gate
            }
        }
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
    /// Lossless teardown: partial spill buffers are handed to the spine
    /// (ring mode) or drained (inline mode) so harvest-time drains still
    /// observe them — the salvaged-report path for sinks dropped by a
    /// panicked lane. During a panic unwind only the lock-free pushes
    /// run: taking the shard lock could execute tool code mid-unwind.
    fn drop(&mut self) {
        match self.mode {
            SpineMode::Ring => {
                if std::thread::panicking() {
                    if let Some((_, ring)) = self.rings.iter().find(|(d, _)| *d == self.bound) {
                        let access = std::mem::take(&mut self.access_buf);
                        if !access.is_empty() {
                            let _ = ring.push(SpineMsg::Batch(EventClass::DeviceAccess, access));
                        }
                        let control = std::mem::take(&mut self.control_buf);
                        if !control.is_empty() {
                            let _ = ring.push(SpineMsg::Batch(EventClass::DeviceControl, control));
                        }
                    }
                } else {
                    self.flush();
                }
                for (_, ring) in &self.rings {
                    ring.close();
                }
            }
            SpineMode::Inline => {
                if !std::thread::panicking() {
                    self.flush();
                }
            }
        }
    }
}

impl DeviceTraceSink for HubSink {
    fn on_kernel_begin(&mut self, ctx: &TraceCtx) -> ProbeConfig {
        self.rebind(ctx.device);
        if self.mode == SpineMode::Ring {
            // Leftovers from a launch whose end never reached us precede
            // this launch's begin on the ring, preserving cross-launch
            // order; the gate then reads through the raw lock (probe
            // configs never depend on spine-carried state).
            self.flush();
            self.send_one(Event::KernelLaunchBegin {
                launch: ctx.launch,
                device: ctx.device,
                stream: ctx.stream,
                name: ctx.name,
                grid: ctx.grid,
                block: ctx.block,
            });
            let processor = self.hub.shard_for(ctx.device).lock_raw();
            let config = processor.probe_config_for(ctx.launch);
            let gate = LaunchGate::for_launch(ctx, config, &processor);
            drop(processor);
            self.gate = Some(gate);
            return config;
        }
        let mut processor = self.hub.lock_device(ctx.device);
        // Leftovers from a launch whose end never reached us drain first so
        // cross-launch ordering is preserved.
        drain_buffers(&mut self.access_buf, &mut self.control_buf, &mut processor);
        let config = processor.probe_config_for(ctx.launch);
        processor.process(&Event::KernelLaunchBegin {
            launch: ctx.launch,
            device: ctx.device,
            stream: ctx.stream,
            name: ctx.name,
            grid: ctx.grid,
            block: ctx.block,
        });
        let gate = LaunchGate::for_launch(ctx, config, &processor);
        drop(processor);
        self.gate = Some(gate);
        config
    }

    fn on_batch(&mut self, ctx: &TraceCtx, batch: &AccessBatch) {
        self.on_batches(ctx, std::slice::from_ref(batch));
    }

    fn on_batches(&mut self, ctx: &TraceCtx, batches: &[AccessBatch]) {
        if !self.gate_for(ctx).wants_batches() {
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
        if !self.gate_for(ctx).wants_barriers() {
            return;
        }
        self.push_control(Event::Barrier {
            launch: ctx.launch,
            count,
            cluster: false,
        });
    }

    fn on_blocks(&mut self, ctx: &TraceCtx, count: u64) {
        if !self.gate_for(ctx).wants_blocks() {
            return;
        }
        self.push_control(Event::BlockBoundary {
            launch: ctx.launch,
            count,
        });
    }

    fn on_instructions(&mut self, ctx: &TraceCtx, count: u64) {
        if !self.gate_for(ctx).wants_instructions() {
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
        // subscribed). Ring mode takes no lock here at all in the common
        // case: spill + push and the emitter is done with the launch.
        self.rebind(ctx.device);
        let trace = Event::KernelTrace {
            launch: ctx.launch,
            kernel: ctx.name,
            summary: summary.clone(),
        };
        if self.mode == SpineMode::Ring {
            self.flush();
            self.send_one(trace);
        } else {
            let mut processor = self.hub.lock_device(ctx.device);
            drain_buffers(&mut self.access_buf, &mut self.control_buf, &mut processor);
            processor.process(&trace);
        }
        self.gate = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{AccessKind, AccessPattern, DeviceId, Dim3, LaunchId, Symbol};

    #[test]
    fn shards_never_share_a_cache_line_pair() {
        assert!(std::mem::align_of::<DeviceShard>() >= 128);
        assert_eq!(std::mem::size_of::<DeviceShard>() % 128, 0);
    }

    fn ctx() -> TraceCtx {
        ctx_on(0)
    }

    fn ctx_on(device: u32) -> TraceCtx {
        TraceCtx {
            launch: LaunchId(7 + u64::from(device)),
            device: DeviceId(device),
            stream: 0,
            name: "gemm".into(),
            grid: Dim3::linear(8),
            block: Dim3::linear(128),
        }
    }

    fn batch(space: MemSpace) -> AccessBatch {
        AccessBatch {
            launch: LaunchId(7),
            spec_index: 0,
            base: 0x1000,
            len: 4096,
            records: 32,
            bytes: 4096,
            elem_size: 4,
            kind: AccessKind::Load,
            space,
            pattern: AccessPattern::Sequential,
        }
    }

    #[derive(Default)]
    struct SpaceCounter {
        global: u64,
        shared: u64,
    }
    impl crate::tool::Tool for SpaceCounter {
        fn name(&self) -> &str {
            "spaces"
        }
        fn interest(&self) -> crate::tool::Interest {
            crate::tool::Interest::all()
        }
        fn on_event(&mut self, event: &Event) {
            match event {
                Event::GlobalAccess { .. } => self.global += 1,
                Event::SharedAccess { .. } => self.shared += 1,
                _ => {}
            }
        }
        fn fork(&self) -> Option<Box<dyn Tool>> {
            Some(Box::<SpaceCounter>::default())
        }
        fn merge(&mut self, other: &dyn Tool) {
            let other = other.as_any().downcast_ref::<SpaceCounter>().unwrap();
            self.global += other.global;
            self.shared += other.shared;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn space_counter_processor() -> EventProcessor {
        let mut processor = EventProcessor::new();
        processor.tools.register(Box::<SpaceCounter>::default());
        processor
    }

    #[test]
    fn sink_routes_batches_by_space() {
        let hub = new_shared(space_counter_processor());
        let mut sink = HubSink::new(Arc::clone(&hub));
        let config = sink.on_kernel_begin(&ctx());
        assert!(config.global_accesses);
        sink.on_batch(&ctx(), &batch(MemSpace::Global));
        sink.on_batch(&ctx(), &batch(MemSpace::Shared));
        sink.on_batch(&ctx(), &batch(MemSpace::RemoteShared));
        sink.on_kernel_end(&ctx(), &KernelTraceSummary::default());
        let (g, s) = hub
            .primary()
            .tools
            .with_tool_mut("spaces", |t: &mut SpaceCounter| (t.global, t.shared))
            .unwrap();
        assert_eq!(g, 1);
        assert_eq!(s, 2);
    }

    #[test]
    fn kernel_begin_emits_event_and_config() {
        let hub = new_shared(EventProcessor::new());
        let mut sink = HubSink::new(Arc::clone(&hub));
        let config = sink.on_kernel_begin(&ctx());
        // No tools registered: nothing to instrument.
        assert!(config.is_disabled());
        assert_eq!(hub.events_processed(), 1);
    }

    #[test]
    fn disabled_config_short_circuits_batches() {
        // Regression (ISSUE 2 satellite): a launch whose ProbeConfig came
        // back disabled must not construct or deliver batch events — the
        // seed cloned `batch` and `ctx.name` before asking anyone.
        let hub = new_shared(EventProcessor::new()); // no tools → disabled
        let mut sink = HubSink::new(Arc::clone(&hub));
        let config = sink.on_kernel_begin(&ctx());
        assert!(config.is_disabled());
        for _ in 0..100 {
            sink.on_batch(&ctx(), &batch(MemSpace::Global));
            sink.on_barriers(&ctx(), 8);
            sink.on_instructions(&ctx(), 1_000);
        }
        assert_eq!(sink.buffered(), 0, "gated events are never buffered");
        // Only the KernelLaunchBegin event reached the processor.
        assert_eq!(hub.events_processed(), 1);
    }

    #[test]
    fn coarse_tools_never_see_device_batches() {
        // Per-class gating: a coarse-interest tool must not cause batch
        // events to be constructed, even though its interest is non-empty.
        let mut processor = EventProcessor::new();
        processor
            .tools
            .register(Box::<crate::tool::LaunchCounter>::default());
        let hub = new_shared(processor);
        let mut sink = HubSink::new(Arc::clone(&hub));
        sink.on_kernel_begin(&ctx());
        sink.on_batch(&ctx(), &batch(MemSpace::Global));
        sink.on_barriers(&ctx(), 8);
        assert_eq!(sink.buffered(), 0);
        sink.on_kernel_end(&ctx(), &KernelTraceSummary::default());
        // KernelLaunchBegin + KernelTrace only.
        assert_eq!(hub.events_processed(), 2);
    }

    #[test]
    fn a_class_that_never_arrives_leaves_its_spill_buffer_unallocated() {
        // A coarse session's heap must stay under glibc's trim threshold
        // (README *Steadiness*): no buffer for a class it never buffers.
        let hub = new_shared(space_counter_processor());
        let mut sink = HubSink::new(Arc::clone(&hub));
        sink.on_kernel_begin(&ctx());
        sink.on_blocks(&ctx(), 8);
        sink.on_kernel_end(&ctx(), &KernelTraceSummary::default());
        assert!(sink.control_buf.capacity() >= SpineConfig::default().batch_events);
        assert_eq!(sink.access_buf.capacity(), 0);
        assert_eq!(hub.events_processed(), 3, "begin, block boundary, trace");
    }

    #[test]
    fn buffered_events_flush_at_kernel_end_in_class_major_order() {
        #[derive(Default)]
        struct OrderProbe {
            classes: Vec<EventClass>,
        }
        impl crate::tool::Tool for OrderProbe {
            fn name(&self) -> &str {
                "order"
            }
            fn interest(&self) -> crate::tool::Interest {
                crate::tool::Interest::all()
            }
            fn on_event(&mut self, event: &Event) {
                self.classes.push(event.class());
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut processor = EventProcessor::new();
        processor.tools.register(Box::<OrderProbe>::default());
        let hub = new_shared(processor);
        let mut sink = HubSink::new(Arc::clone(&hub));
        sink.on_kernel_begin(&ctx());
        sink.on_barriers(&ctx(), 4);
        sink.on_batch(&ctx(), &batch(MemSpace::Global));
        assert!(sink.buffered() > 0, "fine events buffer until a flush");
        assert_eq!(hub.events_processed(), 1, "only KernelLaunchBegin so far");
        sink.on_kernel_end(&ctx(), &KernelTraceSummary::default());
        assert_eq!(sink.buffered(), 0);
        let classes = hub
            .primary()
            .tools
            .with_tool_mut("order", |t: &mut OrderProbe| t.classes.clone())
            .unwrap();
        // The flush drains class-major: every buffered DeviceAccess event
        // of the window, then the DeviceControl events, then KernelTrace —
        // even though the barrier was emitted before the batch.
        assert_eq!(
            classes,
            vec![
                EventClass::Kernel,        // KernelLaunchBegin
                EventClass::DeviceAccess,  // GlobalAccess
                EventClass::DeviceControl, // Barrier
                EventClass::DeviceControl, // KernelTrace
            ]
        );
    }

    #[test]
    fn full_buffer_flushes_mid_launch() {
        // Both spine modes spill at the same stream offset; the buffered
        // tail is invisible to the processor until the next flush point.
        let flush_events = SpineConfig::default().batch_events;
        for mode in [SpineMode::Ring, SpineMode::Inline] {
            let hub = new_shared(space_counter_processor());
            let mut sink = HubSink::with_spine(Arc::clone(&hub), mode, SpineConfig::default());
            sink.on_kernel_begin(&ctx());
            for _ in 0..(flush_events + 10) {
                sink.on_batch(&ctx(), &batch(MemSpace::Global));
            }
            assert_eq!(sink.buffered(), 10, "one full buffer spilled mid-launch");
            assert_eq!(
                hub.events_processed() as usize,
                1 + flush_events,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn event_names_share_one_interned_allocation_per_launch() {
        // The ISSUE-2 acceptance check: zero per-event String allocations —
        // every event of a launch carries the *same* interned string.
        #[derive(Default)]
        struct NameCollector {
            names: Vec<Symbol>,
        }
        impl crate::tool::Tool for NameCollector {
            fn name(&self) -> &str {
                "names"
            }
            fn interest(&self) -> crate::tool::Interest {
                crate::tool::Interest::all()
            }
            fn on_event(&mut self, event: &Event) {
                match event {
                    Event::KernelLaunchBegin { name, .. } => self.names.push(*name),
                    Event::GlobalAccess { kernel, .. }
                    | Event::SharedAccess { kernel, .. }
                    | Event::KernelTrace { kernel, .. } => self.names.push(*kernel),
                    _ => {}
                }
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut processor = EventProcessor::new();
        processor.tools.register(Box::<NameCollector>::default());
        let hub = new_shared(processor);
        let mut sink = HubSink::new(Arc::clone(&hub));
        let ctx = ctx();
        sink.on_kernel_begin(&ctx);
        for _ in 0..8 {
            sink.on_batch(&ctx, &batch(MemSpace::Global));
            sink.on_batch(&ctx, &batch(MemSpace::Shared));
        }
        sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
        let names = hub
            .primary()
            .tools
            .with_tool_mut("names", |t: &mut NameCollector| t.names.clone())
            .unwrap();
        assert_eq!(names.len(), 1 + 16 + 1);
        for n in &names {
            assert!(
                Symbol::ptr_eq(n, &names[0]),
                "every event shares the launch's single interned name"
            );
        }
    }

    fn sharded_hub(n: u32) -> SharedHub {
        let primary = space_counter_processor();
        let shards: Vec<(DeviceId, EventProcessor)> = (0..n)
            .map(|d| {
                let p = if d == 0 {
                    space_counter_processor()
                } else {
                    primary.fork().expect("SpaceCounter forks")
                };
                (DeviceId(d), p)
            })
            .collect();
        Arc::new(Hub::sharded(shards).unwrap())
    }

    #[test]
    fn sharded_hub_rejects_duplicate_devices() {
        let err = Hub::sharded(vec![
            (DeviceId(0), EventProcessor::new()),
            (DeviceId(1), EventProcessor::new()),
            (DeviceId(0), EventProcessor::new()),
        ])
        .unwrap_err();
        assert!(err.contains("duplicate device gpu0"), "unhelpful: {err}");
        assert!(Hub::sharded(vec![]).is_err(), "empty shard list rejected");
    }

    #[test]
    fn events_route_to_their_device_shard() {
        let hub = sharded_hub(2);
        assert!(hub.is_sharded());
        let mut sink = HubSink::new(Arc::clone(&hub));
        // One launch per device through the same sink.
        for d in 0..2 {
            let ctx = ctx_on(d);
            sink.on_kernel_begin(&ctx);
            sink.on_batch(&ctx, &batch(MemSpace::Global));
            if d == 1 {
                sink.on_batch(&ctx, &batch(MemSpace::Shared));
            }
            sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
        }
        let per_shard: Vec<(u64, u64)> = hub
            .shards()
            .iter()
            .map(|s| {
                s.lock()
                    .tools
                    .with_tool_mut("spaces", |t: &mut SpaceCounter| (t.global, t.shared))
                    .unwrap()
            })
            .collect();
        assert_eq!(per_shard, vec![(1, 0), (1, 1)], "disjoint per-device state");
        // Host events with a device route by content.
        hub.process(&Event::KernelLaunchEnd {
            launch: LaunchId(99),
            device: DeviceId(1),
            name: "gemm".into(),
            start: accel_sim::SimTime(0),
            end: accel_sim::SimTime(10),
        });
        // Only device 1's shard saw the timed launch (KernelTrace entries
        // from the sink loop above never bump `calls`).
        assert_eq!(
            hub.shard_for(DeviceId(1))
                .lock()
                .knobs
                .get("gemm")
                .unwrap()
                .calls,
            1
        );
        assert_eq!(
            hub.shard_for(DeviceId(0))
                .lock()
                .knobs
                .get("gemm")
                .unwrap()
                .calls,
            0
        );
    }

    #[test]
    fn rebind_leftovers_attribute_to_old_shard() {
        // Regression (ISSUE 8 satellite): when a launch's kernel-end never
        // arrives (lost trace, crashed lane) and the sink rebinds to a new
        // device, the events still buffered for the orphaned launch must
        // flush to the *old* device's shard — they were observed there.
        // Silently re-routing them to the new shard would corrupt both
        // devices' per-shard state. Pinned for both spine modes.
        for mode in [SpineMode::Ring, SpineMode::Inline] {
            let hub = sharded_hub(2);
            let mut sink = HubSink::with_spine(Arc::clone(&hub), mode, SpineConfig::default());
            let orphan = ctx_on(0);
            sink.on_kernel_begin(&orphan);
            sink.on_batch(&orphan, &batch(MemSpace::Global));
            sink.on_batch(&orphan, &batch(MemSpace::Shared));
            assert!(sink.buffered() > 0, "leftovers pending at rebind time");
            // No on_kernel_end for the orphan: the next launch (device 1)
            // triggers the rebind path's leftover flush.
            let next = ctx_on(1);
            sink.on_kernel_begin(&next);
            sink.on_kernel_end(&next, &KernelTraceSummary::default());
            let per_shard: Vec<(u64, u64)> = hub
                .shards()
                .iter()
                .map(|s| {
                    s.lock()
                        .tools
                        .with_tool_mut("spaces", |t: &mut SpaceCounter| (t.global, t.shared))
                        .unwrap()
                })
                .collect();
            assert_eq!(
                per_shard,
                vec![(1, 1), (0, 0)],
                "{mode:?}: orphaned launch's events belong to gpu0's shard"
            );
        }
    }

    #[test]
    fn merged_report_folds_shards_deterministically_and_repeatably() {
        let hub = sharded_hub(2);
        let mut sink = HubSink::new(Arc::clone(&hub));
        for d in 0..2 {
            let ctx = ctx_on(d);
            sink.on_kernel_begin(&ctx);
            for _ in 0..=d {
                sink.on_batch(&ctx, &batch(MemSpace::Global));
            }
            sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
        }
        let merged = hub.merged_report();
        assert_eq!(merged.per_device.len(), 2);
        assert_eq!(merged.per_device[0].0, DeviceId(0));
        assert_eq!(merged.per_device[1].0, DeviceId(1));
        let total = hub
            .with_merged_tool("spaces", |t: &SpaceCounter| t.global)
            .unwrap();
        assert_eq!(total, 3, "1 batch on gpu0 + 2 on gpu1");
        // The merge is non-destructive: repeating it yields the same bytes.
        assert_eq!(merged, hub.merged_report());
        // Per-shard instances were not consumed by merging.
        assert_eq!(
            hub.shards()[0]
                .lock()
                .tools
                .with_tool_mut("spaces", |t: &mut SpaceCounter| t.global),
            Some(1)
        );
    }

    #[test]
    fn region_annotations_gate_launches_on_every_shard() {
        // Regression (ISSUE 3 review): a `pasta.start()` region opened
        // while device 0 is current must also admit launches on device 1
        // — pre-sharding, one processor observed region events globally.
        let shards: Vec<(DeviceId, EventProcessor)> = (0..2)
            .map(|d| {
                let mut p = space_counter_processor();
                p.range = crate::range::RangeFilter::annotated_regions();
                (DeviceId(d), p)
            })
            .collect();
        let hub = Arc::new(Hub::sharded(shards).unwrap());
        assert!(
            hub.lock_device(DeviceId(1))
                .probe_config_for(LaunchId(0))
                .is_disabled(),
            "outside any region, both shards gate"
        );
        hub.process(&Event::RegionStart {
            label: "train".into(),
            device: DeviceId(0),
        });
        for d in 0..2 {
            assert!(
                !hub.lock_device(DeviceId(d))
                    .probe_config_for(LaunchId(1))
                    .is_disabled(),
                "region opened on gpu0 admits launches on gpu{d}"
            );
        }
        // Only the home shard dispatched the annotation event itself.
        assert_eq!(hub.shards()[0].lock().events_processed(), 1);
        assert_eq!(hub.shards()[1].lock().events_processed(), 0);
        hub.process(&Event::RegionEnd {
            label: "train".into(),
            device: DeviceId(1),
        });
        for d in 0..2 {
            assert!(
                hub.lock_device(DeviceId(d))
                    .probe_config_for(LaunchId(2))
                    .is_disabled(),
                "region closed from gpu1 gates gpu{d} again"
            );
        }
    }

    #[test]
    fn pooled_merge_is_byte_identical_to_sequential() {
        // Sessions with >2 shards run the shared merge plan (tree
        // reduction scheduled across workers). The plan never reorders a
        // fold's device order, so the merged report must be byte-identical
        // to the fully sequential merge.
        let mut shards: Vec<(DeviceId, EventProcessor)> = Vec::new();
        for d in 0..4u32 {
            let mut p = EventProcessor::new();
            // Three tools so the pool actually distributes work (the hub
            // merges by registration index, so names play no role here).
            p.tools.register(Box::<SpaceCounter>::default());
            p.tools
                .register(Box::<crate::tool::LaunchCounter>::default());
            p.tools
                .register(Box::<crate::tool::LaunchCounter>::default());
            (0..=d).for_each(|i| {
                p.process(&Event::KernelLaunchEnd {
                    launch: LaunchId(u64::from(i)),
                    device: DeviceId(d),
                    name: "gemm".into(),
                    start: accel_sim::SimTime(0),
                    end: accel_sim::SimTime(10),
                });
            });
            shards.push((DeviceId(d), p));
        }
        let hub = Arc::new(Hub::sharded(shards).unwrap());
        assert!(hub.shards().len() > 2, "pooled path engages above 2 shards");

        // Sequential reference: the same fold, one tool at a time on this
        // thread.
        let guards: Vec<_> = hub.shards().iter().map(DeviceShard::lock).collect();
        let procs: Vec<&EventProcessor> = guards.iter().map(|g| &**g).collect();
        let sequential: Vec<crate::report::ToolReport> = (0..procs[0].tools.len())
            .map(|i| merge_tool_index(&procs, i, 1).report())
            .collect();
        drop(guards);

        let pooled = hub.merged_report();
        assert_eq!(pooled.tools, sequential, "pool must not change the bytes");
        // Repeatable, and stable across repeated pooled runs.
        assert_eq!(pooled, hub.merged_report());
        assert_eq!(pooled.tools, hub.merged_reports());
    }

    #[test]
    fn merged_knobs_sum_across_shards() {
        let hub = sharded_hub(2);
        for d in 0..2u32 {
            hub.process(&Event::KernelLaunchEnd {
                launch: LaunchId(u64::from(d)),
                device: DeviceId(d),
                name: "gemm".into(),
                start: accel_sim::SimTime(0),
                end: accel_sim::SimTime(100),
            });
        }
        let knobs = hub.merged_knobs();
        assert_eq!(knobs.get("gemm").unwrap().calls, 2);
        assert_eq!(knobs.get("gemm").unwrap().duration_ns, 200);
    }
}
