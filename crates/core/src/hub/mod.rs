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
//! The host path — vendor and framework callbacks through
//! [`crate::handler`] — meets a gate of its own before any of that: each
//! shard publishes which coarse classes its processor reads
//! ([`EventProcessor::host_gate`]: the classes its armed tools subscribe
//! to, kernel launches for the knobs, annotations for the range filter,
//! operator starts while a capture knob is set, everything while a
//! recorder is attached), and a callback of a class nothing reads bumps
//! the shard's tally and returns — no [`Event`], no lock, no dispatch. The
//! tally folds into `events_processed` on every [`DeviceShard::lock`], so
//! every count reads as if the event had been processed. The gate is
//! recomputed when a [`ShardGuard`] is released and stored only if it
//! changed, which covers every way it can: `register`, a quarantine inside
//! `process`, [`Hub::reset_all`], [`Hub::attach_recorders`] /
//! [`Hub::detach_recorders`], a recorder or the capture knob set through
//! the guard directly.
//!
//! The fine-grained path through [`HubSink`] is the hottest code in the
//! system (millions of events per profiled run) and is kept cheap by five
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
//!    emission critical path. [`SpineMode::Inline`] consumes the same
//!    message under the shard lock on the spot — the differential
//!    reference; the sink reads the mode in one function and is otherwise
//!    one body. Every acquisition through [`DeviceShard::lock`] drains
//!    pending rings first, so reports, recorders and resets observe every
//!    pushed event exactly once — [`Hub::quiesce`] is the explicit entry
//!    point.
//!
//! The shards, the host gate, routing, recorders and the merge live in
//! this file; the launch gate and the sink in `sink.rs`.
//!
//! [`Symbol`]: accel_sim::Symbol
//! [`SpineMode::Ring`]: crate::spine::SpineMode::Ring
//! [`SpineMode::Inline`]: crate::spine::SpineMode::Inline
//! [`ProbeConfig`]: accel_sim::ProbeConfig
//! [`TraceCtx::name`]: accel_sim::instrument::TraceCtx
//! [`EventClass`]: crate::event::EventClass

use crate::event::Event;
use crate::processor::{EventProcessor, HostGate};
use crate::report::{MergedReport, ToolQuarantine, ToolReport};
use crate::spine::{EventRing, ShardSpine};
use crate::tool::Tool;
use accel_sim::sync::{Mutex, MutexGuard};
use accel_sim::DeviceId;
use dl_framework::pycall::CrossLayerStack;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;

mod sink;
#[cfg(test)]
mod tests;

pub use sink::HubSink;

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
    /// The processor's [`EventProcessor::host_gate`] as of the last
    /// [`ShardGuard`] released: read by every host callback, written only
    /// when a guard saw it change.
    gate: AtomicU16,
    /// Host callbacks turned away at the gate, ever. Written by the lanes
    /// emitting on this device — one, in a sharded region.
    gated: AtomicU64,
}

/// [`DeviceShard::lock`]'s guard: the shard's processor, and on release
/// the shard's host gate brought up to date with whatever the holder did
/// to it — a tool registered, quarantined or re-armed by a reset, a
/// recorder attached or detached, the capture knob set. Every such change
/// needs this guard, so none can leave the gate closed on a class
/// something now reads.
#[derive(Debug)]
pub struct ShardGuard<'a> {
    processor: MutexGuard<'a, EventProcessor>,
    gate: &'a AtomicU16,
}

impl Deref for ShardGuard<'_> {
    type Target = EventProcessor;

    fn deref(&self) -> &EventProcessor {
        &self.processor
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut EventProcessor {
        &mut self.processor
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        // Relaxed: the word publishes nothing but itself. A lane that
        // reads it stale either processes an event nobody reads any more
        // or counts one whose reader arrived while it was in flight — the
        // same race the lock itself would have decided either way.
        let gate = self.processor.host_gate().0;
        if self.gate.load(Ordering::Relaxed) != gate {
            self.gate.store(gate, Ordering::Relaxed);
        }
    }
}

impl DeviceShard {
    fn new(device: DeviceId, processor: EventProcessor) -> DeviceShard {
        DeviceShard {
            device,
            gate: AtomicU16::new(processor.host_gate().0),
            gated: AtomicU64::new(0),
            processor: Mutex::new(processor),
            spine: ShardSpine::default(),
        }
    }

    /// The device this shard serves.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Locks this shard's processor, draining any spine messages queued
    /// by ring-mode sinks and folding the host gate's tally into
    /// `events_processed` first — the guard therefore always observes a
    /// state that includes every event pushed, and every callback counted,
    /// before the acquisition (the exactly-once contract for reports and
    /// recorders). Releasing the guard republishes the gate
    /// ([`ShardGuard`]).
    pub fn lock(&self) -> ShardGuard<'_> {
        let mut processor = self.processor.lock();
        self.spine.drain(&mut processor);
        processor.count_gated(self.gated.load(Ordering::Relaxed));
        ShardGuard {
            processor,
            gate: &self.gate,
        }
    }

    /// What this shard reads of the host path, as last published.
    pub(crate) fn gate(&self) -> HostGate {
        HostGate(self.gate.load(Ordering::Relaxed))
    }

    /// Counts one host callback the gate turned away. Relaxed: a tally,
    /// read under the shard lock by whoever asks for a count.
    pub(crate) fn count_gated(&self) {
        self.gated.fetch_add(1, Ordering::Relaxed);
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
    pub fn lock_device(&self, device: DeviceId) -> ShardGuard<'_> {
        self.shard_for(device).lock()
    }

    /// Locks the primary (lowest-device) shard — where deviceless state
    /// like builder-registered tool instances lives. Drain-first like
    /// every shard lock, so the guard's view is quiescent.
    pub fn primary(&self) -> ShardGuard<'_> {
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
        self.process_on(home, event);
    }

    /// [`Hub::process`] for a caller that already holds the event's home
    /// shard (the handler looked it up to read its gate).
    pub(crate) fn process_on(&self, home: &DeviceShard, event: &Event) {
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

    /// Of [`Hub::events_processed`], the host and framework callbacks no
    /// tool, recorder or knob read: counted at the gate, never built.
    /// Zeroed by [`Hub::reset_all`].
    pub fn host_events_gated(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().events_gated()).sum()
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
    fn lock_all(&self) -> Vec<ShardGuard<'_>> {
        self.shards.iter().map(DeviceShard::lock).collect()
    }

    /// The reports of every tool merged across the locked shards.
    fn merged_tool_reports(&self, guards: &[ShardGuard<'_>]) -> Vec<ToolReport> {
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
