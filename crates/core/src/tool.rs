//! The tool-collection template.
//!
//! A [`Tool`] is "a customized analysis built by overriding functions in
//! the PASTA tool collection template" (paper §III-B). Every callback has
//! a no-op default; a tool overrides only what it needs and declares its
//! [`Interest`] so the framework instruments no more than necessary.

use crate::event::{Event, EventClass};
use crate::report::{ToolQuarantine, ToolReport};
use accel_sim::{panic_message, ProbeConfig};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a tool wants delivered: a bit set built from the leaf asks below
/// with `|`. The low 8 bits are [`EventClass`] bits, bit
/// [`EventClass::index`] each — the classes the dispatch rows and the host
/// gate open — and the 5 bits above them are the device probes to arm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest(u16);

/// The bit of `class` in an [`Interest`].
const fn bit(class: EventClass) -> u16 {
    1 << class.index()
}

/// A device-probe ask: probe bit `probe` (above the class byte) and the
/// classes its events arrive in.
const fn probe(probe: u16, classes: u16) -> Interest {
    Interest(1 << (8 + probe) | classes)
}

/// An access ask's classes: the kernel trace summary
/// ([`EventClass::DeviceControl`]) rides along with the accesses.
const ACCESS: u16 = bit(EventClass::DeviceAccess) | bit(EventClass::DeviceControl);
const CONTROL: u16 = bit(EventClass::DeviceControl);
/// Every probe bit.
const PROBES: u16 = 0x1f << 8;

impl Interest {
    /// Global-memory access batches (fine-grained, device-side).
    pub const GLOBAL_ACCESSES: Interest = probe(0, ACCESS);
    /// Shared-memory access batches.
    pub const SHARED_ACCESSES: Interest = probe(1, ACCESS);
    /// Barrier executions.
    pub const BARRIERS: Interest = probe(2, CONTROL);
    /// Thread-block boundaries.
    pub const BLOCK_BOUNDARIES: Interest = probe(3, CONTROL);
    /// Dynamic-instruction counts (requires a full-coverage backend).
    pub const INSTRUCTIONS: Interest = probe(4, CONTROL);
    /// Driver/runtime API entries ([`EventClass::HostApi`]).
    pub const API_CALLS: Interest = Interest(bit(EventClass::HostApi));
    /// Kernel launch begin/end ([`EventClass::Kernel`]).
    pub const KERNEL_LAUNCHES: Interest = Interest(bit(EventClass::Kernel));
    /// Allocations, frees, copies, sets, batch ops and UVM traffic
    /// ([`EventClass::Memory`]).
    pub const MEMORY_OPS: Interest = Interest(bit(EventClass::Memory));
    /// Synchronization ([`EventClass::Sync`]).
    pub const SYNCS: Interest = Interest(bit(EventClass::Sync));
    /// Operators, tensors and pass boundaries ([`EventClass::Framework`]).
    pub const FRAMEWORK_OPS: Interest = Interest(bit(EventClass::Framework));
    /// Layer boundaries and `pasta.start()`/`pasta.stop()` regions
    /// ([`EventClass::Annotation`]).
    pub const ANNOTATIONS: Interest = Interest(bit(EventClass::Annotation));
    /// Every coarse host class at once. A tool that reads one of them
    /// names that one instead, so the host gate can turn the rest away.
    pub const HOST_EVENTS: Interest =
        Interest(Self::API_CALLS.0 | Self::KERNEL_LAUNCHES.0 | Self::MEMORY_OPS.0 | Self::SYNCS.0);
    /// Both DL-framework classes at once.
    pub const FRAMEWORK_EVENTS: Interest = Interest(Self::FRAMEWORK_OPS.0 | Self::ANNOTATIONS.0);

    /// Host + framework events only — the cheap default.
    pub fn coarse() -> Self {
        Self::HOST_EVENTS | Self::FRAMEWORK_EVENTS
    }

    /// Everything, including fine-grained device events.
    pub fn all() -> Self {
        Interest(u16::from(u8::MAX) | PROBES)
    }

    /// Device-side probe configuration implied by this interest set.
    pub(crate) fn probe_config(self) -> ProbeConfig {
        let on = |ask: Interest| self.0 & ask.0 & PROBES != 0;
        let mut c = ProbeConfig::disabled();
        c.global_accesses = on(Self::GLOBAL_ACCESSES);
        c.shared_accesses = on(Self::SHARED_ACCESSES);
        c.barriers = on(Self::BARRIERS);
        c.block_boundaries = on(Self::BLOCK_BOUNDARIES);
        c.instructions = on(Self::INSTRUCTIONS);
        c
    }

    /// True when any fine-grained device class is requested.
    pub fn wants_device_events(self) -> bool {
        self.0 & PROBES != 0
    }

    /// Whether events of `class` should be delivered to a tool with this
    /// interest set — the single source of truth behind the dispatch
    /// table and the host gate.
    pub(crate) fn wants_class(self, class: EventClass) -> bool {
        self.0 & bit(class) != 0
    }

    /// The classes this set opens, bit [`EventClass::index`] each.
    pub(crate) fn classes(self) -> u8 {
        self.0 as u8
    }
}

/// The union of two interest sets.
impl std::ops::BitOr for Interest {
    type Output = Interest;

    fn bitor(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// The analysis-tool template. All handlers default to no-ops.
///
/// A complete tool that also runs sharded across devices — one instance
/// per device via [`Tool::fork`], folded back together by [`Tool::merge`]:
///
/// ```
/// use dl_framework::models::{ModelZoo, RunKind};
/// use pasta_core::{Event, Interest, ModelWorkload, Pasta, Tool, ToolReport};
///
/// #[derive(Default)]
/// struct Launches(u64);
///
/// impl Tool for Launches {
///     fn name(&self) -> &str {
///         "launches"
///     }
///     fn interest(&self) -> Interest {
///         Interest::KERNEL_LAUNCHES
///     }
///     fn on_event(&mut self, event: &Event) {
///         if matches!(event, Event::KernelLaunchEnd { .. }) {
///             self.0 += 1;
///         }
///     }
///     fn report(&self) -> ToolReport {
///         ToolReport::new(self.name()).metric("launches", self.0 as f64)
///     }
///     fn fork(&self) -> Option<Box<dyn Tool>> {
///         Some(Box::<Launches>::default())
///     }
///     fn merge(&mut self, other: &dyn Tool) {
///         if let Some(other) = other.downcast_ref::<Self>() {
///             self.0 += other.0;
///         }
///     }
/// }
///
/// # fn main() -> Result<(), pasta_core::PastaError> {
/// let mut session = Pasta::builder().a100_x2().tool(Launches::default()).build()?;
/// let mut bert = ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8);
/// let report = session.run(&mut bert)?;
/// let merged = session.with_merged_tool("launches", |t: &Launches| t.0);
/// assert_eq!(merged, Some(report.kernel_launches));
/// # Ok(())
/// # }
/// ```
///
/// `Send + Sync` because tool instances live inside per-device hub
/// shards: `Send` moves them across lane threads, and `Sync` lets the
/// session-end merge stage fold several shards' instances from a small
/// thread pool (tools only ever receive `&mut self` event delivery
/// under their shard's lock, so the bounds cost implementations
/// nothing — plain data structs satisfy both automatically). `Any` lets a
/// `&dyn Tool` be downcast to its concrete type, so a tool writes no
/// downcasting code of its own.
pub trait Tool: Any + Send + Sync {
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

    /// Delivers one event of a class [`Tool::interest`] opens.
    fn on_event(&mut self, event: &Event) {
        let _ = event;
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
    /// by [`Tool::fork`]); implementations reach its state with
    /// `other.downcast_ref::<Self>()`. The default is a no-op, which is
    /// only sound for tools that never fork.
    fn merge(&mut self, other: &dyn Tool) {
        let _ = other;
    }

    /// Not called anywhere: a `&dyn Tool` upcasts to `&dyn Any`, and
    /// `dyn Tool`'s `downcast_ref` / `downcast_mut` do the rest. Kept so
    /// implementations that still override it compile.
    #[doc(hidden)]
    fn as_any(&self) -> &dyn Any
    where
        Self: Sized,
    {
        self
    }

    /// The `&mut` twin of `as_any`; likewise uncalled.
    #[doc(hidden)]
    fn as_any_mut(&mut self) -> &mut dyn Any
    where
        Self: Sized,
    {
        self
    }
}

impl dyn Tool {
    /// This tool as a `T`, when `T` is its concrete type: how
    /// [`Tool::merge`] reaches the other instance's state.
    pub fn downcast_ref<T: Tool>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref()
    }

    /// This tool as a mutable `T`, when `T` is its concrete type.
    pub(crate) fn downcast_mut<T: Tool>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut()
    }
}

/// An ordered collection of tools sharing one event stream.
///
/// Dispatch is driven by a per-[`EventClass`] table precomputed from each
/// tool's [`Tool::interest`] at registration (and rebuilt on
/// [`ToolCollection::reset`]): delivering an event touches only the tools
/// subscribed to its class, and the armed tools' union,
/// [`ToolCollection::interest`], answers "does anyone care?" in O(1), so
/// the gates can drop uninteresting events before they are ever
/// constructed. Interests are therefore sampled at registration/reset, not
/// per event.
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
    /// Union of the armed tools' interests, as sampled by the last
    /// rebuild.
    interest: Interest,
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
        self.interest = Interest::default();
        self.class_tools.iter_mut().for_each(Vec::clear);
        for (i, tool) in self.tools.iter().enumerate() {
            if self.is_quarantined(i) {
                continue;
            }
            let interest = tool.interest();
            self.interest = self.interest | interest;
            for class in EventClass::ALL
                .into_iter()
                .filter(|&c| interest.wants_class(c))
            {
                self.class_tools[class.index()].push(i);
            }
        }
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
    /// withdrawn at the next probe reconfiguration. Sampled when the
    /// dispatch table is built, like the table itself.
    pub fn interest(&self) -> Interest {
        self.interest
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
    pub(crate) fn is_quarantined(&self, i: usize) -> bool {
        self.quarantined.iter().any(|&(q, _)| q == i)
    }

    /// The quarantine record for the tool at registration index `i`, if
    /// it is quarantined.
    pub(crate) fn quarantine_of(&self, i: usize) -> Option<&ToolQuarantine> {
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
    pub(crate) fn tool_at(&self, i: usize) -> Option<&dyn Tool> {
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
    pub fn with_tool_mut<T: Tool, R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        self.tools
            .iter_mut()
            .find(|t| t.name() == name)
            .and_then(|t| t.downcast_mut::<T>())
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
        Interest::KERNEL_LAUNCHES
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
        if let Some(other) = other.downcast_ref::<LaunchCounter>() {
            self.launches += other.launches;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::{AccessBatch, DeviceId, LaunchId, SimTime};

    fn launch_end() -> Event {
        Event::KernelLaunchEnd {
            launch: LaunchId(0),
            device: DeviceId(0),
            name: "k".into(),
            start: SimTime(0),
            end: SimTime(10),
        }
    }

    /// The classes `interest` opens, in [`EventClass::ALL`] order.
    fn opened(interest: Interest) -> Vec<EventClass> {
        EventClass::ALL
            .into_iter()
            .filter(|class| interest.wants_class(*class))
            .collect()
    }

    #[test]
    fn each_leaf_opens_its_classes_and_arms_its_probe() {
        use EventClass::*;
        let off = ProbeConfig::disabled();
        // An access ask opens DeviceControl too: the kernel trace summary
        // rides along with the accesses.
        #[rustfmt::skip]
        let leaves: [(Interest, &[EventClass], ProbeConfig); 11] = [
            (Interest::GLOBAL_ACCESSES, &[DeviceAccess, DeviceControl], ProbeConfig { global_accesses: true, ..off }),
            (Interest::SHARED_ACCESSES, &[DeviceAccess, DeviceControl], ProbeConfig { shared_accesses: true, ..off }),
            (Interest::BARRIERS, &[DeviceControl], ProbeConfig { barriers: true, ..off }),
            (Interest::BLOCK_BOUNDARIES, &[DeviceControl], ProbeConfig { block_boundaries: true, ..off }),
            (Interest::INSTRUCTIONS, &[DeviceControl], ProbeConfig { instructions: true, ..off }),
            (Interest::API_CALLS, &[HostApi], off),
            (Interest::KERNEL_LAUNCHES, &[Kernel], off),
            (Interest::MEMORY_OPS, &[Memory], off),
            (Interest::SYNCS, &[Sync], off),
            (Interest::FRAMEWORK_OPS, &[Framework], off),
            (Interest::ANNOTATIONS, &[Annotation], off),
        ];
        let mut union = Interest::default();
        for (leaf, classes, probes) in leaves {
            assert_eq!(opened(leaf), classes, "{leaf:?}");
            assert_eq!(leaf.probe_config(), probes, "{leaf:?}");
            assert_eq!(leaf.wants_device_events(), !probes.is_disabled());
            // `|` is commutative and idempotent, with the empty set as
            // its identity.
            assert_eq!(union | leaf, leaf | union);
            assert_eq!(leaf | leaf, leaf);
            assert_eq!(leaf | Interest::default(), leaf);
            union = union | leaf;
        }

        // The umbrellas are the OR of their leaves; all 11 together are
        // `all()`, which opens every class and arms every probe.
        let [.., api, launches, memory, syncs, ops, annotations] = leaves.map(|(leaf, ..)| leaf);
        assert_eq!(Interest::HOST_EVENTS, api | launches | memory | syncs);
        assert_eq!(Interest::FRAMEWORK_EVENTS, ops | annotations);
        let coarse = Interest::HOST_EVENTS | Interest::FRAMEWORK_EVENTS;
        assert_eq!(Interest::coarse(), coarse);
        assert_eq!(
            opened(coarse),
            [HostApi, Kernel, Memory, Sync, Framework, Annotation]
        );
        assert_eq!(coarse.probe_config(), off);
        assert!(!coarse.wants_device_events());
        assert_eq!(union, Interest::all());
        assert_eq!(opened(Interest::all()), EventClass::ALL);
        assert_eq!(Interest::all().probe_config(), ProbeConfig::all());
        assert!(opened(Interest::default()).is_empty());
        assert_eq!(Interest::default().probe_config(), off);

        // A tool that overrides `on_event` alone declares nothing and is
        // still sent every host and framework event.
        struct OnEventOnly;
        impl Tool for OnEventOnly {
            fn name(&self) -> &str {
                "on-event-only"
            }
            fn on_event(&mut self, _event: &Event) {}
        }
        let mut c = ToolCollection::new();
        c.register(Box::new(OnEventOnly));
        assert_eq!(c.interest(), coarse);
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
        assert!(
            c.with_tool_mut("launch-counter", |t: &mut PanicOnNth| t.seen)
                .is_none(),
            "right name, wrong type"
        );
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
                Interest::FRAMEWORK_EVENTS
            }
            fn on_event(&mut self, event: &Event) {
                match event.class() {
                    crate::event::EventClass::Framework => self.framework += 1,
                    _ => self.other += 1,
                }
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
        }

        let mut c = ToolCollection::new();
        c.register(Box::<CoarseSpy>::default());
        c.register(Box::<Hungry>::default());
        assert!(c.interest().wants_class(EventClass::DeviceAccess));
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
        }
        let mut c = ToolCollection::new();
        c.register(Box::new(HungryPanicker));
        assert!(c.interest().wants_device_events());
        c.dispatch(&launch_end());
        assert!(c.is_quarantined(0));
        assert_eq!(
            c.interest(),
            Interest::default(),
            "quarantined tool's interest withdrawn"
        );
        assert!(
            !c.interest().wants_class(EventClass::Kernel),
            "out of every row"
        );
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
        assert!(
            c.interest().wants_class(EventClass::Kernel),
            "back in the table"
        );
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
        assert!(!c.interest().wants_class(EventClass::Kernel));
        c.register(Box::<LaunchCounter>::default());
        assert!(c.interest().wants_class(EventClass::Kernel));
        assert!(
            !c.interest().wants_class(EventClass::HostApi),
            "a launch counter reads launches alone"
        );
        assert!(!c.interest().wants_class(EventClass::DeviceAccess));
        assert!(!c.interest().wants_class(EventClass::DeviceControl));
        c.reset();
        assert!(
            c.interest().wants_class(EventClass::Kernel),
            "reset rebuilds, not clears, the table"
        );
    }
}
