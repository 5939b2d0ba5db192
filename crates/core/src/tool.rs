//! The tool-collection template.
//!
//! A [`Tool`] is "a customized analysis built by overriding functions in
//! the PASTA tool collection template" (paper §III-B). Every callback has
//! a no-op default; a tool overrides only what it needs and declares its
//! [`Interest`]s so the framework instruments no more than necessary.

use crate::event::{Event, EventClass};
use crate::report::{ToolQuarantine, ToolReport};
use accel_sim::{panic_message, AccessBatch, KernelTraceSummary, LaunchId, ProbeConfig, Symbol};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Event classes a tool wants delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// Global-memory access batches (fine-grained, device-side).
    pub global_accesses: bool,
    /// Shared-memory access batches.
    pub shared_accesses: bool,
    /// Barrier executions.
    pub barriers: bool,
    /// Thread-block boundaries.
    pub block_boundaries: bool,
    /// Dynamic-instruction counts (requires a full-coverage backend).
    pub instructions: bool,
    /// Every coarse host class at once — API calls, kernel launches,
    /// memory operations and syncs. A tool that reads one of them names
    /// that one below instead, so the host gate can turn the rest away.
    pub host_events: bool,
    /// Both DL-framework classes at once — ops/tensors/passes and
    /// annotations.
    pub framework_events: bool,
    /// Driver/runtime API entries alone ([`EventClass::HostApi`]).
    pub api_calls: bool,
    /// Kernel launch begin/end alone ([`EventClass::Kernel`]).
    pub kernel_launches: bool,
    /// Allocations, frees, copies, sets, batch ops and UVM traffic alone
    /// ([`EventClass::Memory`]).
    pub memory_ops: bool,
    /// Synchronization alone ([`EventClass::Sync`]).
    pub syncs: bool,
    /// Operators, tensors and pass boundaries alone
    /// ([`EventClass::Framework`]).
    pub framework_ops: bool,
    /// Layer boundaries and `pasta.start()`/`pasta.stop()` regions alone
    /// ([`EventClass::Annotation`]).
    pub annotations: bool,
}

impl Interest {
    /// Host + framework events only — the cheap default.
    pub fn coarse() -> Self {
        Interest {
            host_events: true,
            framework_events: true,
            ..Interest::default()
        }
    }

    /// Everything, including fine-grained device events.
    pub fn all() -> Self {
        Interest {
            global_accesses: true,
            shared_accesses: true,
            barriers: true,
            block_boundaries: true,
            instructions: true,
            host_events: true,
            framework_events: true,
            api_calls: true,
            kernel_launches: true,
            memory_ops: true,
            syncs: true,
            framework_ops: true,
            annotations: true,
        }
    }

    /// Union of two interest sets.
    pub fn union(self, o: Interest) -> Interest {
        Interest {
            global_accesses: self.global_accesses || o.global_accesses,
            shared_accesses: self.shared_accesses || o.shared_accesses,
            barriers: self.barriers || o.barriers,
            block_boundaries: self.block_boundaries || o.block_boundaries,
            instructions: self.instructions || o.instructions,
            host_events: self.host_events || o.host_events,
            framework_events: self.framework_events || o.framework_events,
            api_calls: self.api_calls || o.api_calls,
            kernel_launches: self.kernel_launches || o.kernel_launches,
            memory_ops: self.memory_ops || o.memory_ops,
            syncs: self.syncs || o.syncs,
            framework_ops: self.framework_ops || o.framework_ops,
            annotations: self.annotations || o.annotations,
        }
    }

    /// Device-side probe configuration implied by this interest set.
    pub fn probe_config(self) -> ProbeConfig {
        let mut c = ProbeConfig::disabled();
        c.global_accesses = self.global_accesses;
        c.shared_accesses = self.shared_accesses;
        c.barriers = self.barriers;
        c.block_boundaries = self.block_boundaries;
        c.instructions = self.instructions;
        c
    }

    /// True when any fine-grained device class is requested.
    pub fn wants_device_events(self) -> bool {
        self.global_accesses
            || self.shared_accesses
            || self.barriers
            || self.block_boundaries
            || self.instructions
    }

    /// Whether events of `class` should be delivered to a tool with this
    /// interest set — the single source of truth behind the dispatch table.
    pub fn wants_class(self, class: EventClass) -> bool {
        match class {
            EventClass::DeviceAccess => self.global_accesses || self.shared_accesses,
            EventClass::DeviceControl => {
                // Kernel trace summaries ride along for access-interested
                // tools (global or shared) even when they never asked for
                // barriers.
                self.barriers
                    || self.block_boundaries
                    || self.instructions
                    || self.global_accesses
                    || self.shared_accesses
            }
            EventClass::HostApi => self.host_events || self.api_calls,
            EventClass::Kernel => self.host_events || self.kernel_launches,
            EventClass::Memory => self.host_events || self.memory_ops,
            EventClass::Sync => self.host_events || self.syncs,
            EventClass::Framework => self.framework_events || self.framework_ops,
            EventClass::Annotation => self.framework_events || self.annotations,
        }
    }
}

/// The analysis-tool template. All handlers default to no-ops.
///
/// `Send + Sync` because tool instances live inside per-device hub
/// shards: `Send` moves them across lane threads, and `Sync` lets the
/// session-end merge stage fold several shards' instances from a small
/// thread pool (tools only ever receive `&mut self` event delivery
/// under their shard's lock, so the bounds cost implementations
/// nothing — plain data structs satisfy both automatically).
pub trait Tool: Send + Sync {
    /// Unique tool name (used for selection, like the paper's
    /// `accelprof -t <tool>` flag).
    fn name(&self) -> &str;

    /// Which event classes to deliver (and therefore instrument). What a
    /// shard's armed tools declare is also what opens its host gate
    /// ([`crate::hub::DeviceShard::lock`]): a host or framework callback of
    /// a class none of them names is counted, not built. The default asks
    /// for every host and framework event.
    fn interest(&self) -> Interest {
        Interest::coarse()
    }

    /// Generic event delivery; the default demultiplexes to the typed
    /// handlers below, so tools can override either granularity.
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::GlobalAccess {
                launch,
                kernel,
                batch,
            } => self.on_global_access(*launch, kernel, batch),
            Event::SharedAccess {
                launch,
                kernel,
                batch,
            } => self.on_shared_access(*launch, kernel, batch),
            Event::KernelTrace {
                launch,
                kernel,
                summary,
            } => self.on_kernel_trace(*launch, kernel, summary),
            _ => {}
        }
    }

    /// One batch of global-memory access records.
    fn on_global_access(&mut self, launch: LaunchId, kernel: &Symbol, batch: &AccessBatch) {
        let _ = (launch, kernel, batch);
    }

    /// One batch of shared-memory access records.
    fn on_shared_access(&mut self, launch: LaunchId, kernel: &Symbol, batch: &AccessBatch) {
        let _ = (launch, kernel, batch);
    }

    /// End-of-kernel trace summary.
    fn on_kernel_trace(&mut self, launch: LaunchId, kernel: &Symbol, summary: &KernelTraceSummary) {
        let _ = (launch, kernel, summary);
    }

    /// Produces the tool's report.
    fn report(&self) -> ToolReport {
        ToolReport::new(self.name())
    }

    /// Clears accumulated state between runs.
    fn reset(&mut self) {}

    /// Creates a fresh, state-empty instance of this tool for another
    /// device shard of the sharded hub.
    ///
    /// Returning `None` (the default) opts the session out of per-device
    /// sharding: the builder falls back to a single shard that every
    /// device shares, which is always correct but serializes concurrent
    /// emission. Tools that want multi-device scalability return a
    /// default-constructed instance and implement [`Tool::merge`].
    fn fork(&self) -> Option<Box<dyn Tool>> {
        None
    }

    /// Folds another instance's accumulated state into `self` — the merge
    /// stage of the sharded hub, invoked at report time in ascending
    /// device-id order (each shard's state is internally launch-ordered,
    /// so the merge is deterministic: launch order within a device, then
    /// device id across devices).
    ///
    /// `other` is always an instance of the same concrete type (produced
    /// by [`Tool::fork`]); implementations downcast it via
    /// [`Tool::as_any`]. The default is a no-op, which is only sound for
    /// tools that never fork.
    fn merge(&mut self, other: &dyn Tool) {
        let _ = other;
    }

    /// Downcasting support (used by
    /// [`crate::PastaSession::with_tool_mut`]).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// An ordered collection of tools sharing one event stream.
///
/// Dispatch is driven by a per-[`EventClass`] table precomputed from each
/// tool's [`Tool::interest`] at registration (and rebuilt on
/// [`ToolCollection::reset`]): delivering an event touches only the tools
/// subscribed to its class, and [`ToolCollection::wants_class`] answers
/// "does anyone care?" in O(1) so the sink can drop uninteresting device
/// events before they are ever constructed. Interests are therefore
/// sampled at registration/reset, not per event.
/// Panic containment: a tool whose callback panics is caught at the
/// dispatch boundary, removed from every dispatch row (the unquarantined
/// hot path pays nothing afterwards) and reported as a
/// [`ToolQuarantine`]; sibling tools and the shard's recorder keep
/// running. The non-panic dispatch path is unchanged — `catch_unwind` is
/// free until a panic actually lands, and no allocation happens unless
/// one does.
#[derive(Default)]
pub struct ToolCollection {
    tools: Vec<Box<dyn Tool>>,
    /// `class_tools[class.index()]` = indices of tools wanting that class.
    class_tools: [Vec<usize>; EventClass::ALL.len()],
    /// Bit `class.index()` is set when that row is not empty.
    wanted: u8,
    /// Tools disarmed after a panicking callback: registration index plus
    /// the first panic message. Cleared (re-armed) by
    /// [`ToolCollection::reset`].
    quarantined: Vec<(usize, ToolQuarantine)>,
}

impl std::fmt::Debug for ToolCollection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToolCollection")
            .field(
                "tools",
                &self
                    .tools
                    .iter()
                    .map(|t| t.name().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl FromIterator<Box<dyn Tool>> for ToolCollection {
    /// Registers `tools` in iteration order.
    fn from_iter<I: IntoIterator<Item = Box<dyn Tool>>>(tools: I) -> Self {
        let mut collection = ToolCollection::new();
        for tool in tools {
            collection.register(tool);
        }
        collection
    }
}

impl ToolCollection {
    /// An empty collection.
    pub fn new() -> Self {
        ToolCollection::default()
    }

    /// Registers a tool and folds its interest into the dispatch table.
    pub fn register(&mut self, tool: Box<dyn Tool>) {
        self.tools.push(tool);
        self.rebuild_dispatch();
    }

    /// Recomputes the per-class dispatch table from current interests.
    /// Quarantined tools are left out of every row, so the hot path never
    /// revisits them.
    fn rebuild_dispatch(&mut self) {
        self.wanted = 0;
        for class in EventClass::ALL {
            let row = &mut self.class_tools[class.index()];
            row.clear();
            let quarantined = &self.quarantined;
            row.extend(
                self.tools
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| {
                        quarantined.iter().all(|&(q, _)| q != *i) && t.interest().wants_class(class)
                    })
                    .map(|(i, _)| i),
            );
            self.wanted |= u8::from(!row.is_empty()) << class.index();
        }
    }

    /// True when at least one armed tool wants events of `class`.
    pub fn wants_class(&self, class: EventClass) -> bool {
        self.wanted & (1 << class.index()) != 0
    }

    /// The classes some armed tool wants, bit [`EventClass::index`] each.
    pub(crate) fn wanted_classes(&self) -> u8 {
        self.wanted
    }

    /// Number of registered tools.
    pub fn len(&self) -> usize {
        self.tools.len()
    }

    /// True when no tools are registered.
    pub fn is_empty(&self) -> bool {
        self.tools.is_empty()
    }

    /// Union of all *armed* tools' interests — a quarantined tool no
    /// longer contributes, so instrumentation it alone requested can be
    /// withdrawn at the next probe reconfiguration.
    pub fn interest(&self) -> Interest {
        self.tools
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.is_quarantined(*i))
            .fold(Interest::default(), |acc, (_, t)| acc.union(t.interest()))
    }

    /// Delivers an event to every tool whose interest covers its class,
    /// via the precomputed dispatch table (uninterested tools are never
    /// touched).
    ///
    /// A panicking callback quarantines its tool (see the type docs);
    /// siblings later in the row still receive this event.
    pub fn dispatch(&mut self, event: &Event) {
        // One unwind guard covers the whole row (not one per tool — the
        // guard cost is per catch_unwind, and this is the hot path);
        // `cursor` names the tool that was live when a panic unwound, so
        // the cold path can attribute it and resume with the tools after
        // it — siblings never miss an event. Nothing here allocates.
        let cursor = std::cell::Cell::new(0);
        let row = &self.class_tools[event.class().index()];
        let tools = &mut self.tools;
        let result = catch_unwind(AssertUnwindSafe(|| {
            for (k, &i) in row.iter().enumerate() {
                cursor.set(k);
                tools[i].on_event(event);
            }
        }));
        if let Err(payload) = result {
            self.dispatch_unwound(event, cursor.get(), payload);
        }
    }

    /// Continuation of [`ToolCollection::dispatch`] after a callback
    /// panicked at row position `k`: quarantines the panicker, finishes
    /// the row (per-tool guards — cheap here, this runs at most once per
    /// quarantined tool per run), and rebuilds the dispatch table.
    #[cold]
    #[inline(never)]
    fn dispatch_unwound(
        &mut self,
        event: &Event,
        k: usize,
        payload: Box<dyn std::any::Any + Send>,
    ) {
        let row = &self.class_tools[event.class().index()];
        let mut panicked = vec![(row[k], panic_message(payload.as_ref()))];
        for &i in &row[k + 1..] {
            let tool = &mut self.tools[i];
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| tool.on_event(event))) {
                panicked.push((i, panic_message(payload.as_ref())));
            }
        }
        self.quarantine_panicked(panicked);
    }

    /// Delivers a slice of same-class events, resolving the dispatch row
    /// once for the whole slice instead of per event — the drain half of
    /// the sink's per-class spill buffers. Events stay in slice (emission)
    /// order for every receiving tool.
    ///
    /// A tool that panics mid-batch is skipped for the remainder of the
    /// batch and quarantined afterwards; siblings see every event.
    pub fn dispatch_class_batch(&mut self, class: EventClass, events: &[Event]) {
        let row = &self.class_tools[class.index()];
        if row.is_empty() {
            return;
        }
        // Tool-major order: each tool still sees the batch in stream
        // order — the only order a tool can observe, since tools never
        // see each other — and the unwind guard costs one landing pad
        // per tool per batch instead of one per event. A panicking tool
        // forfeits the rest of its batch; it is quarantined anyway.
        let mut panicked: Vec<(usize, String)> = Vec::new();
        for &i in row {
            let tool = &mut self.tools[i];
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                for event in events {
                    debug_assert_eq!(event.class(), class);
                    tool.on_event(event);
                }
            })) {
                panicked.push((i, panic_message(payload.as_ref())));
            }
        }
        if !panicked.is_empty() {
            self.quarantine_panicked(panicked);
        }
    }

    /// Disarms each listed tool and records its first panic message. The
    /// dispatch table is rebuilt once, so subsequent events pay nothing
    /// for the quarantined tools.
    fn quarantine_panicked(&mut self, panicked: Vec<(usize, String)>) {
        for (i, message) in panicked {
            self.quarantine(i, message);
        }
        self.rebuild_dispatch();
    }

    /// Records tool `i` as quarantined (first panic message wins). Does
    /// not rebuild the dispatch table — callers batch that.
    fn quarantine(&mut self, i: usize, message: String) {
        if self.quarantined.iter().any(|&(q, _)| q == i) {
            return;
        }
        let tool = self.tools[i].name().to_owned();
        self.quarantined.push((i, ToolQuarantine { tool, message }));
    }

    /// True when the tool at registration index `i` is quarantined.
    pub fn is_quarantined(&self, i: usize) -> bool {
        self.quarantined.iter().any(|&(q, _)| q == i)
    }

    /// The quarantine record for the tool at registration index `i`, if
    /// it is quarantined.
    pub fn quarantine_of(&self, i: usize) -> Option<&ToolQuarantine> {
        self.quarantined
            .iter()
            .find(|&&(q, _)| q == i)
            .map(|(_, q)| q)
    }

    /// All quarantine records, in detection order.
    pub fn quarantines(&self) -> impl Iterator<Item = &ToolQuarantine> {
        self.quarantined.iter().map(|(_, q)| q)
    }

    /// Reports from every tool, in registration order. A quarantined tool
    /// — or one whose `report()` itself panics — contributes a stub
    /// report naming the failure instead of poisoning the whole
    /// collection.
    pub fn reports(&self) -> Vec<ToolReport> {
        self.tools
            .iter()
            .enumerate()
            .map(
                |(i, t)| match catch_unwind(AssertUnwindSafe(|| t.report())) {
                    Ok(report) => report,
                    Err(payload) => {
                        let why = self
                            .quarantine_of(i)
                            .map(|q| q.message.clone())
                            .unwrap_or_else(|| panic_message(payload.as_ref()));
                        ToolReport::new(t.name()).body(format!("<report unavailable: {why}>"))
                    }
                },
            )
            .collect()
    }

    /// The tool at registration index `i`.
    pub fn tool_at(&self, i: usize) -> Option<&dyn Tool> {
        self.tools.get(i).map(|t| &**t)
    }

    /// A fresh collection holding one [`Tool::fork`] of every registered
    /// tool (same registration order, same dispatch table). `None` when
    /// any tool declines to fork — the caller then falls back to a single
    /// shared shard.
    pub fn fork_all(&self) -> Option<ToolCollection> {
        let mut forked = ToolCollection::new();
        for tool in &self.tools {
            forked.tools.push(tool.fork()?);
        }
        forked.rebuild_dispatch();
        Some(forked)
    }

    /// Resets every tool and rebuilds the dispatch table (the one point,
    /// besides registration, where changed interests are picked up).
    ///
    /// Quarantined tools are re-armed: a clean `reset()` clears their
    /// quarantine record. A tool whose `reset()` itself panics goes (or
    /// stays) quarantined instead of unwinding into the session.
    pub fn reset(&mut self) {
        let mut failed: Vec<(usize, String)> = Vec::new();
        for (i, t) in self.tools.iter_mut().enumerate() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| t.reset())) {
                failed.push((i, panic_message(payload.as_ref())));
            }
        }
        self.quarantined.clear();
        for (i, message) in failed {
            self.quarantine(i, message);
        }
        self.rebuild_dispatch();
    }

    /// Runs `f` against the named tool downcast to `T`.
    pub fn with_tool_mut<T: Tool + 'static, R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        self.tools
            .iter_mut()
            .find(|t| t.name() == name)
            .and_then(|t| t.as_any_mut().downcast_mut::<T>())
            .map(f)
    }
}

/// The smallest useful tool: counts kernel launches. Doubles as the
/// doc-example tool and a test fixture.
#[derive(Debug, Default)]
pub struct LaunchCounter {
    /// Kernel launches observed.
    pub launches: u64,
}

impl Tool for LaunchCounter {
    fn name(&self) -> &str {
        "launch-counter"
    }

    fn interest(&self) -> Interest {
        Interest {
            kernel_launches: true,
            ..Interest::default()
        }
    }

    fn on_event(&mut self, event: &Event) {
        if matches!(event, Event::KernelLaunchEnd { .. }) {
            self.launches += 1;
        }
    }

    fn report(&self) -> ToolReport {
        ToolReport::new(self.name()).metric("launches", self.launches as f64)
    }

    fn reset(&mut self) {
        self.launches = 0;
    }

    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::<LaunchCounter>::default())
    }

    fn merge(&mut self, other: &dyn Tool) {
        if let Some(other) = other.as_any().downcast_ref::<LaunchCounter>() {
            self.launches += other.launches;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{DeviceId, SimTime};

    fn launch_end() -> Event {
        Event::KernelLaunchEnd {
            launch: LaunchId(0),
            device: DeviceId(0),
            name: "k".into(),
            start: SimTime(0),
            end: SimTime(10),
        }
    }

    #[test]
    fn interest_union_and_probe_config() {
        let a = Interest {
            global_accesses: true,
            ..Interest::default()
        };
        let b = Interest {
            barriers: true,
            host_events: true,
            ..Interest::default()
        };
        let u = a.union(b);
        assert!(u.global_accesses && u.barriers && u.host_events);
        assert!(u.wants_device_events());
        let pc = u.probe_config();
        assert!(pc.global_accesses && pc.barriers);
        assert!(!pc.shared_accesses);
        assert!(!Interest::coarse().wants_device_events());
    }

    #[test]
    fn interest_union_is_commutative_and_idempotent() {
        let a = Interest {
            shared_accesses: true,
            instructions: true,
            ..Interest::default()
        };
        let b = Interest {
            block_boundaries: true,
            framework_events: true,
            ..Interest::default()
        };
        assert_eq!(a.union(b), b.union(a));
        assert_eq!(a.union(a), a);
        // The empty interest is the identity element.
        assert_eq!(a.union(Interest::default()), a);
        // `all` absorbs everything.
        assert_eq!(a.union(Interest::all()), Interest::all());
    }

    #[test]
    fn coarse_classes_are_named_one_by_one_and_the_umbrellas_keep_their_meaning() {
        use EventClass::*;
        let none = Interest::default();
        let wanted = |interest: Interest| -> Vec<EventClass> {
            EventClass::ALL
                .into_iter()
                .filter(|class| interest.wants_class(*class))
                .collect()
        };
        let host = [HostApi, Kernel, Memory, Sync];
        let coarse = [HostApi, Kernel, Memory, Sync, Framework, Annotation];
        #[rustfmt::skip]
        let table: [(Interest, &[EventClass]); 11] = [
            (none, &[]),
            (Interest { api_calls: true, ..none }, &[HostApi]),
            (Interest { kernel_launches: true, ..none }, &[Kernel]),
            (Interest { memory_ops: true, ..none }, &[Memory]),
            (Interest { syncs: true, ..none }, &[Sync]),
            (Interest { framework_ops: true, ..none }, &[Framework]),
            (Interest { annotations: true, ..none }, &[Annotation]),
            (Interest { host_events: true, ..none }, &host),
            (Interest { framework_events: true, ..none }, &[Framework, Annotation]),
            (Interest::coarse(), &coarse),
            (Interest::all(), &EventClass::ALL),
        ];
        for (interest, classes) in table {
            assert_eq!(wanted(interest), classes, "{interest:?}");
            assert!(
                !interest.wants_device_events() || interest == Interest::all(),
                "a coarse class never enables a probe: {interest:?}"
            );
        }

        // A tool that overrides `on_event` alone declares nothing and is
        // still sent every host and framework event.
        struct OnEventOnly;
        impl Tool for OnEventOnly {
            fn name(&self) -> &str {
                "on-event-only"
            }
            fn on_event(&mut self, _event: &Event) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut c = ToolCollection::new();
        c.register(Box::new(OnEventOnly));
        assert_eq!(wanted(c.interest()), coarse);
        let bits = coarse
            .iter()
            .fold(0, |bits, class| bits | 1 << class.index());
        assert_eq!(c.wanted_classes(), bits);
    }

    #[test]
    fn probe_config_covers_exactly_the_device_access_classes() {
        // Every device class maps through — instruction counts included:
        // a tool that wants nothing else must still get its launches
        // walked — and the host/framework classes never enable a probe.
        assert_eq!(Interest::all().probe_config(), ProbeConfig::all());
        let instructions_only = Interest {
            instructions: true,
            ..Interest::coarse()
        }
        .probe_config();
        assert!(instructions_only.instructions && !instructions_only.is_disabled());
        assert_eq!(
            ProbeConfig {
                instructions: false,
                ..instructions_only
            },
            ProbeConfig::disabled()
        );
        assert_eq!(Interest::coarse().probe_config(), ProbeConfig::disabled());
        assert_eq!(Interest::default().probe_config(), ProbeConfig::disabled());
    }

    #[test]
    fn collection_dispatch_and_downcast() {
        let mut c = ToolCollection::new();
        c.register(Box::<LaunchCounter>::default());
        assert_eq!(c.len(), 1);
        c.dispatch(&launch_end());
        c.dispatch(&launch_end());
        let n = c
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, 2);
        assert!(c
            .with_tool_mut("missing", |t: &mut LaunchCounter| t.launches)
            .is_none());
        let reports = c.reports();
        assert_eq!(reports[0].get("launches"), Some(2.0));
        c.reset();
        let n = c
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn dispatch_respects_interest() {
        #[derive(Default)]
        struct FrameworkOnly {
            framework: u64,
            other: u64,
        }
        impl Tool for FrameworkOnly {
            fn name(&self) -> &str {
                "fw-only"
            }
            fn interest(&self) -> Interest {
                Interest {
                    framework_events: true,
                    ..Interest::default()
                }
            }
            fn on_event(&mut self, event: &Event) {
                match event.class() {
                    crate::event::EventClass::Framework => self.framework += 1,
                    _ => self.other += 1,
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut c = ToolCollection::new();
        c.register(Box::<FrameworkOnly>::default());
        c.dispatch(&launch_end()); // Kernel class — filtered out
        c.dispatch(&Event::PassBoundary {
            pass: dl_framework::callbacks::Pass::Forward,
            device: DeviceId(0),
        });
        let (fw, other) = c
            .with_tool_mut("fw-only", |t: &mut FrameworkOnly| (t.framework, t.other))
            .unwrap();
        assert_eq!(fw, 1);
        assert_eq!(other, 0, "uninterested classes never delivered");
    }

    #[test]
    fn coarse_tool_never_receives_device_access_events() {
        // ISSUE-2 gating contract: `Interest::coarse()` subscribes to host
        // and framework classes only, so DeviceAccess events must not reach
        // the tool even when another registered tool pulls them in.
        #[derive(Default)]
        struct CoarseSpy {
            device_access: u64,
            delivered: u64,
        }
        impl Tool for CoarseSpy {
            fn name(&self) -> &str {
                "coarse-spy"
            }
            fn interest(&self) -> Interest {
                Interest::coarse()
            }
            fn on_event(&mut self, event: &Event) {
                self.delivered += 1;
                if event.class() == EventClass::DeviceAccess {
                    self.device_access += 1;
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        #[derive(Default)]
        struct Hungry {
            device_access: u64,
        }
        impl Tool for Hungry {
            fn name(&self) -> &str {
                "hungry"
            }
            fn interest(&self) -> Interest {
                Interest::all()
            }
            fn on_event(&mut self, event: &Event) {
                if event.class() == EventClass::DeviceAccess {
                    self.device_access += 1;
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut c = ToolCollection::new();
        c.register(Box::<CoarseSpy>::default());
        c.register(Box::<Hungry>::default());
        assert!(c.wants_class(EventClass::DeviceAccess));
        let access = Event::GlobalAccess {
            launch: LaunchId(0),
            kernel: "k".into(),
            batch: AccessBatch {
                launch: LaunchId(0),
                spec_index: 0,
                base: 0,
                len: 128,
                records: 1,
                bytes: 128,
                elem_size: 4,
                kind: accel_sim::AccessKind::Load,
                space: accel_sim::MemSpace::Global,
                pattern: accel_sim::AccessPattern::Sequential,
            },
        };
        c.dispatch(&access);
        c.dispatch(&launch_end());
        let (spy_da, spy_total) = c
            .with_tool_mut("coarse-spy", |t: &mut CoarseSpy| {
                (t.device_access, t.delivered)
            })
            .unwrap();
        assert_eq!(spy_da, 0, "coarse tool must never see DeviceAccess");
        assert_eq!(spy_total, 1, "it still gets the Kernel-class event");
        let hungry_da = c
            .with_tool_mut("hungry", |t: &mut Hungry| t.device_access)
            .unwrap();
        assert_eq!(hungry_da, 1, "the interested tool still gets it");
    }

    #[test]
    fn shared_access_interest_gets_kernel_trace_ride_along() {
        // KernelTrace (DeviceControl class) carries the shared_records
        // totals a shared-accesses tool aggregates — it must ride along
        // exactly as it does for global-accesses tools.
        let shared_only = Interest {
            shared_accesses: true,
            ..Interest::default()
        };
        assert!(shared_only.wants_class(EventClass::DeviceAccess));
        assert!(shared_only.wants_class(EventClass::DeviceControl));
        assert!(!shared_only.wants_class(EventClass::HostApi));
    }

    /// Panics on the `n`th delivered event (0-based); counts deliveries.
    struct PanicOnNth {
        n: u64,
        seen: u64,
    }
    impl Tool for PanicOnNth {
        fn name(&self) -> &str {
            "panic-on-nth"
        }
        fn on_event(&mut self, _event: &Event) {
            if self.seen == self.n {
                panic!("fault-injection: tool blew up");
            }
            self.seen += 1;
        }
        fn reset(&mut self) {
            self.seen = 0;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn panicking_tool_is_quarantined_and_siblings_keep_running() {
        let mut c = ToolCollection::new();
        c.register(Box::<LaunchCounter>::default());
        c.register(Box::new(PanicOnNth { n: 1, seen: 0 }));
        c.dispatch(&launch_end()); // both fine
        c.dispatch(&launch_end()); // panic-on-nth panics here
        assert!(c.is_quarantined(1));
        assert!(!c.is_quarantined(0));
        let q = c.quarantine_of(1).expect("quarantine recorded");
        assert_eq!(q.tool, "panic-on-nth");
        assert!(q.message.contains("fault-injection"), "{}", q.message);
        // Further events reach the survivor and skip the quarantined tool
        // entirely (it is out of every dispatch row).
        c.dispatch(&launch_end());
        let n = c
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, 3, "sibling saw every event");
        let seen = c
            .with_tool_mut("panic-on-nth", |t: &mut PanicOnNth| t.seen)
            .unwrap();
        assert_eq!(seen, 1, "quarantined tool received nothing further");
        // Reports still come back for every tool, in order.
        let reports = c.reports();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].get("launches"), Some(3.0));
    }

    #[test]
    fn batch_dispatch_skips_panicked_tool_for_rest_of_batch() {
        let mut c = ToolCollection::new();
        c.register(Box::new(PanicOnNth { n: 0, seen: 0 }));
        c.register(Box::<LaunchCounter>::default());
        let events = vec![launch_end(), launch_end(), launch_end()];
        c.dispatch_class_batch(EventClass::Kernel, &events);
        assert!(c.is_quarantined(0));
        let n = c
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, 3, "sibling after the panicker saw the whole batch");
    }

    #[test]
    fn quarantined_tool_stops_contributing_interest() {
        struct HungryPanicker;
        impl Tool for HungryPanicker {
            fn name(&self) -> &str {
                "hungry-panicker"
            }
            fn interest(&self) -> Interest {
                Interest::all()
            }
            fn on_event(&mut self, _event: &Event) {
                panic!("fault-injection");
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut c = ToolCollection::new();
        c.register(Box::new(HungryPanicker));
        assert!(c.interest().global_accesses);
        c.dispatch(&launch_end());
        assert!(c.is_quarantined(0));
        assert_eq!(
            c.interest(),
            Interest::default(),
            "quarantined tool's interest withdrawn"
        );
        assert!(!c.wants_class(EventClass::Kernel), "out of every row");
    }

    #[test]
    fn reset_rearms_quarantined_tools() {
        let mut c = ToolCollection::new();
        c.register(Box::new(PanicOnNth { n: 0, seen: 0 }));
        c.dispatch(&launch_end());
        assert!(c.is_quarantined(0));
        assert_eq!(c.quarantines().count(), 1);
        c.reset();
        assert!(!c.is_quarantined(0), "clean reset re-arms the tool");
        assert!(c.wants_class(EventClass::Kernel), "back in the table");
    }

    #[test]
    fn panicking_report_yields_stub_instead_of_unwinding() {
        struct BadReport;
        impl Tool for BadReport {
            fn name(&self) -> &str {
                "bad-report"
            }
            fn report(&self) -> ToolReport {
                panic!("fault-injection: report exploded");
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut c = ToolCollection::new();
        c.register(Box::new(BadReport));
        let reports = c.reports();
        assert_eq!(reports.len(), 1);
        assert!(
            reports[0].text.contains("report unavailable"),
            "{}",
            reports[0].text
        );
        c.reset(); // BadReport's default reset is fine — nothing quarantined
        assert!(!c.is_quarantined(0));
    }

    #[test]
    fn dispatch_table_tracks_registration_and_reset() {
        let mut c = ToolCollection::new();
        assert!(!c.wants_class(EventClass::Kernel));
        c.register(Box::<LaunchCounter>::default());
        assert!(c.wants_class(EventClass::Kernel));
        assert!(
            !c.wants_class(EventClass::HostApi),
            "a launch counter reads launches alone"
        );
        assert!(!c.wants_class(EventClass::DeviceAccess));
        assert!(!c.wants_class(EventClass::DeviceControl));
        c.reset();
        assert!(
            c.wants_class(EventClass::Kernel),
            "reset rebuilds, not clears, the table"
        );
    }
}
