//! The event processor: preprocessing, knob accounting, dispatch.
//!
//! Events from the handler (host + framework) and from the device-trace
//! sink (fine-grained) meet here. The processor maintains the range
//! filter, feeds the knob aggregates, triggers cross-layer stack capture
//! for knob-selected kernels, and dispatches to the tool collection —
//! the "dispatch unit" of the paper's Fig. 1.

use crate::callstack::StackCapture;
use crate::event::{Event, EventClass};
use crate::knob::{Knob, KnobSet};
use crate::range::RangeFilter;
use crate::tool::{Interest, ToolCollection};
use accel_sim::{LaunchId, ProbeConfig, Symbol};

/// Observes every event a processor counts, in processing order — the
/// capture hook behind binary trace writers (`pasta-trace`).
///
/// A recorder sees exactly the events that bump
/// [`EventProcessor::events_processed`] while it is attached: everything
/// delivered through [`EventProcessor::process`] and
/// [`EventProcessor::process_class_batch`], and nothing from
/// `EventProcessor::observe_range` (range bookkeeping is not part of the
/// dispatched stream). Replaying a recorded stream through a fresh
/// processor therefore reproduces the tool-visible history of the shard
/// exactly. The host gate's tally (`HostGate`) also counts towards
/// `events_processed`, but an attached recorder holds the gate fully open,
/// so nothing is tallied from the moment the guard that attached it is
/// released until the one that detaches it is.
///
/// `Send + Sync` because processors live inside hub shards shared across
/// lane threads and borrowed by the pooled session-end merge (recording
/// itself only ever happens through `&mut self` under the shard lock, so
/// the bounds cost implementations nothing); `Debug` keeps the processor
/// derivable.
pub trait EventRecorder: Send + Sync + std::fmt::Debug {
    /// Called for each event, before tool dispatch, under the shard lock.
    fn record(&mut self, event: &Event);

    /// Called with a whole same-class batch, in order, where `record`
    /// would have been called once per event. A recorder with per-call
    /// set-up (a lock, a buffer reservation) overrides this to pay it once
    /// per batch.
    fn record_batch(&mut self, events: &[Event]) {
        for event in events {
            self.record(event);
        }
    }
}

/// What of the host path a processor reads: one bit per [`EventClass`]
/// (bit [`EventClass::index`]) and one for operator starts. The handler
/// tests a callback's class against its shard's copy *before* building the
/// event; a callback nothing reads is counted and dropped there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HostGate(pub(crate) u16);

impl HostGate {
    const OP_START: u16 = 1 << EventClass::ALL.len();
    /// Every class: a recorder must see the whole stream.
    const OPEN: HostGate = HostGate(u16::MAX);

    /// True when events of `class` are read by someone.
    pub(crate) fn admits(self, class: EventClass) -> bool {
        self.0 & (1 << class.index()) != 0
    }

    /// True when `OpStart` is read even if the rest of its class is not:
    /// stack capture keeps the operator current at a launch.
    pub(crate) fn admits_op_start(self) -> bool {
        self.0 & HostGate::OP_START != 0
    }
}

/// The dispatch-and-preprocess core shared by handler and sink.
#[derive(Debug, Default)]
pub struct EventProcessor {
    /// Registered analysis tools.
    pub tools: ToolCollection,
    /// Range-specific analysis filter.
    pub range: RangeFilter,
    /// Per-kernel aggregates backing the location knobs.
    pub knobs: KnobSet,
    /// Cross-layer stack capture.
    pub(crate) stacks: StackCapture,
    /// When set, capture stacks for the kernel this knob currently selects.
    pub capture_knob: Option<Knob>,
    /// The session's record-sampling factor (`ACCEL_PROF_ENV_SAMPLE_RATE`),
    /// kept with the analysis range because it travels the same way: out
    /// to the engine in every launch's [`ProbeConfig`], into every lane by
    /// [`EventProcessor::fork`]. 0 samples nothing out, like 1.
    pub(crate) sampling_rate: u32,
    /// Attached trace recorder, if any. With no recorder the event path
    /// pays exactly one `Option` discriminant check.
    recorder: Option<Box<dyn EventRecorder>>,
    events_processed: u64,
    /// Of `events_processed`, how many the host gate counted in place of
    /// processing.
    events_gated: u64,
    /// The shard's gate tally as of the last [`EventProcessor::count_gated`]
    /// — the tally only grows, so the difference is what is new.
    gated_seen: u64,
}

impl EventProcessor {
    /// An empty processor.
    pub fn new() -> Self {
        EventProcessor::default()
    }

    /// Total events processed, those the host gate counted included.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Host and framework callbacks the gate counted without building
    /// their events, since the last reset.
    pub(crate) fn events_gated(&self) -> u64 {
        self.events_gated
    }

    /// What this processor reads of the host path right now: the classes
    /// its armed tools subscribe to, kernel launches for the knobs,
    /// annotations for the range filter, operator starts when a capture
    /// knob may ask for the stack — and everything while a recorder is
    /// attached.
    pub(crate) fn host_gate(&self) -> HostGate {
        if self.recorder.is_some() {
            return HostGate::OPEN;
        }
        let reads = self.tools.interest() | Interest::KERNEL_LAUNCHES | Interest::ANNOTATIONS;
        let mut bits = u16::from(reads.classes());
        if self.capture_knob.is_some() {
            bits |= HostGate::OP_START;
        }
        HostGate(bits)
    }

    /// Folds the shard's gate tally, now at `total`, into the counters.
    pub(crate) fn count_gated(&mut self, total: u64) {
        let fresh = total - self.gated_seen;
        self.gated_seen = total;
        self.events_gated += fresh;
        self.events_processed += fresh;
    }

    /// Probe configuration for an upcoming launch: disabled outside the
    /// analysis range, otherwise the union of tool interests at the
    /// session's sampling rate.
    pub(crate) fn probe_config_for(&self, launch: LaunchId) -> ProbeConfig {
        if !self.range.covers_launch(launch) {
            return ProbeConfig::disabled();
        }
        self.tools
            .interest()
            .probe_config()
            .with_sampling(self.sampling_rate)
    }

    /// Attaches a trace recorder; replaces any previous one.
    pub fn set_recorder(&mut self, recorder: Box<dyn EventRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Detaches and returns the trace recorder, if one was attached.
    pub fn take_recorder(&mut self) -> Option<Box<dyn EventRecorder>> {
        self.recorder.take()
    }

    /// True when a trace recorder is attached.
    pub fn has_recorder(&self) -> bool {
        self.recorder.is_some()
    }

    /// Preprocesses and dispatches one event.
    pub fn process(&mut self, event: &Event) {
        if let Some(recorder) = &mut self.recorder {
            recorder.record(event);
        }
        self.events_processed += 1;
        self.range.observe(event);
        self.stacks.observe(event);
        match event {
            Event::KernelLaunchEnd {
                name, start, end, ..
            } => {
                self.knobs.record_launch(name, *end - *start);
                self.maybe_capture(name);
            }
            Event::KernelTrace {
                kernel, summary, ..
            } => {
                self.knobs.record_trace(
                    kernel,
                    summary.global_records + summary.shared_records,
                    summary.global_bytes,
                    summary.barriers,
                );
                self.maybe_capture(kernel);
            }
            _ => {}
        }
        self.tools.dispatch(event);
    }

    /// Processes a buffered slice of events under one borrow — the drain
    /// half of the sink's batched flush (one hub lock per flush instead of
    /// one per event).
    pub fn process_batch(&mut self, events: &[Event]) {
        for event in events {
            self.process(event);
        }
    }

    /// Drains a slice of *same-class* fine-grained events (the sink's
    /// per-class spill buffers). The buffered classes — access batches,
    /// barriers, block boundaries, instruction counts — never feed the
    /// range filter, the knob aggregates or stack capture (those react to
    /// kernel/framework/annotation events, which flow through
    /// [`EventProcessor::process`] directly), so the drain skips both the
    /// per-event preprocessing and the per-event class match: one
    /// dispatch-row lookup covers the whole slice.
    pub fn process_class_batch(&mut self, class: EventClass, events: &[Event]) {
        debug_assert!(
            matches!(class, EventClass::DeviceAccess | EventClass::DeviceControl),
            "only launch-scoped fine-grained classes may take the fast drain"
        );
        if let Some(recorder) = &mut self.recorder {
            recorder.record_batch(events);
        }
        self.events_processed += events.len() as u64;
        self.tools.dispatch_class_batch(class, events);
    }

    /// Feeds one region annotation into the range filter *without*
    /// dispatching it — how the hub keeps every shard's analysis-range
    /// observation in sync while the event's home shard alone delivers it
    /// to tools.
    pub(crate) fn observe_range(&mut self, event: &Event) {
        self.range.observe(event);
    }

    /// A state-empty processor for another device shard: same registered
    /// tool set (via [`crate::tool::Tool::fork`]), same range
    /// configuration, sampling rate and capture knob, fresh accumulators.
    /// `None` when some tool declines to fork (the session then keeps one
    /// shared shard).
    pub fn fork(&self) -> Option<EventProcessor> {
        // A fork never inherits the recorder: each trace stream belongs to
        // exactly one shard, and capture attachment is the hub's job.
        Some(EventProcessor {
            tools: self.tools.fork_all()?,
            range: self.range.clone(),
            knobs: KnobSet::new(),
            stacks: StackCapture::new(),
            capture_knob: self.capture_knob,
            sampling_rate: self.sampling_rate,
            recorder: None,
            events_processed: 0,
            events_gated: 0,
            gated_seen: 0,
        })
    }

    /// Captures the stack when `kernel` is what the capture knob currently
    /// selects — this is how PASTA avoids "capturing full context
    /// information for all runtime events" (§III-F2).
    fn maybe_capture(&mut self, kernel: &Symbol) {
        let Some(knob) = self.capture_knob else {
            return;
        };
        let selected = self
            .knobs
            .select(knob)
            .is_some_and(|(selected, _)| selected == kernel);
        if selected {
            self.stacks.capture_for_kernel(kernel);
        }
    }

    /// Resets all accumulated state (tools keep their registration).
    ///
    /// The range filter's *configuration* (grid window, annotation gating)
    /// survives — it is session setup, not accumulated state — but its
    /// *observed* region nesting is cleared: a reset mid-region must not
    /// leave the next run looking permanently "inside" a region whose end
    /// event it will never see.
    pub fn reset(&mut self) {
        self.tools.reset();
        self.knobs.reset();
        self.stacks.reset();
        self.range.reset_observation();
        self.events_processed = 0;
        self.events_gated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::LaunchCounter;
    use accel_sim::{DeviceId, SimTime};

    fn launch_end(name: &str, launch: u64) -> Event {
        Event::KernelLaunchEnd {
            launch: LaunchId(launch),
            device: DeviceId(0),
            name: name.into(),
            start: SimTime(0),
            end: SimTime(100),
        }
    }

    #[test]
    fn processing_feeds_knobs_and_tools() {
        let mut p = EventProcessor::new();
        p.tools.register(Box::<LaunchCounter>::default());
        p.process(&launch_end("gemm", 0));
        p.process(&launch_end("gemm", 1));
        p.process(&launch_end("relu", 2));
        assert_eq!(p.events_processed(), 3);
        assert_eq!(p.knobs.select(Knob::MaxCalledKernel).unwrap().0, "gemm");
        let n = p
            .tools
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn capture_knob_snapshots_hot_kernel() {
        let mut p = EventProcessor::new();
        p.capture_knob = Some(Knob::MaxCalledKernel);
        p.process(&launch_end("gemm", 0));
        assert!(p.stacks.stack_for("gemm").is_some());
        p.process(&launch_end("relu", 1));
        // relu ties at 1 call but gemm captured first and stays captured.
        assert!(p.stacks.captured_count() >= 1);
    }

    #[test]
    fn probe_config_respects_range() {
        let mut p = EventProcessor::new();
        struct DeviceHungry;
        impl crate::tool::Tool for DeviceHungry {
            fn name(&self) -> &str {
                "hungry"
            }
            fn interest(&self) -> crate::tool::Interest {
                crate::tool::Interest::all()
            }
        }
        p.tools.register(Box::new(DeviceHungry));
        p.range = RangeFilter::grid_window(10, 20);
        assert!(p.probe_config_for(LaunchId(5)).is_disabled());
        assert!(p.probe_config_for(LaunchId(15)).global_accesses);
        assert_eq!(p.probe_config_for(LaunchId(15)).sampling_rate, 1);
        p.sampling_rate = 4;
        assert_eq!(p.probe_config_for(LaunchId(15)).sampling_rate, 4);
    }

    #[derive(Debug, Default, Clone)]
    struct CountingRecorder {
        seen: std::sync::Arc<accel_sim::sync::Mutex<Vec<Event>>>,
    }
    impl EventRecorder for CountingRecorder {
        fn record(&mut self, event: &Event) {
            self.seen.lock().push(event.clone());
        }
    }

    #[test]
    fn recorder_sees_exactly_the_counted_events() {
        let mut p = EventProcessor::new();
        assert!(!p.has_recorder());
        let recorder = CountingRecorder::default();
        let seen = std::sync::Arc::clone(&recorder.seen);
        p.set_recorder(Box::new(recorder));
        assert!(p.has_recorder());
        p.process(&launch_end("gemm", 0));
        let barriers = [Event::Barrier {
            launch: LaunchId(0),
            count: 4,
            cluster: false,
        }];
        p.process_class_batch(EventClass::DeviceControl, &barriers);
        // Range observation is bookkeeping, not dispatch: never recorded.
        p.observe_range(&Event::RegionStart {
            label: "r".into(),
            device: DeviceId(0),
        });
        assert!(p.take_recorder().is_some());
        assert!(!p.has_recorder());
        let seen = seen.lock();
        assert_eq!(seen.len() as u64, p.events_processed());
        assert_eq!(seen.len(), 2);
        assert!(matches!(seen[1], Event::Barrier { .. }));
    }

    #[test]
    fn fork_never_inherits_the_recorder() {
        let mut p = EventProcessor::new();
        p.set_recorder(Box::<CountingRecorder>::default());
        let forked = p.fork().expect("empty tool set forks");
        assert!(!forked.has_recorder(), "streams belong to one shard each");
        assert!(p.has_recorder(), "the original keeps recording");
    }

    #[test]
    fn reset_clears_state() {
        let mut p = EventProcessor::new();
        p.process(&launch_end("k", 0));
        p.reset();
        assert_eq!(p.events_processed(), 0);
        assert_eq!(p.knobs.kernel_count(), 0);
    }

    #[test]
    fn reset_clears_range_observation_but_keeps_configuration() {
        // Pins the ISSUE-2 satellite decision: `reset` drops the *observed*
        // region nesting (a reset mid-region must not leave the session
        // permanently "inside" a region) while the configured gating mode
        // and grid window — session setup — survive.
        let mut p = EventProcessor::new();
        p.range = RangeFilter::annotated_regions();
        p.process(&Event::RegionStart {
            label: "layer".into(),
            device: DeviceId(0),
        });
        assert!(p.range.in_region());
        assert!(p.probe_config_for(LaunchId(0)).is_disabled() || p.tools.is_empty());
        p.reset();
        assert!(!p.range.in_region(), "observed nesting cleared");
        assert!(
            p.range.annotations_gate,
            "configured gating mode survives reset"
        );
        assert!(
            !p.range.covers_launch(LaunchId(1)),
            "post-reset launches are outside any region again"
        );

        let mut p = EventProcessor::new();
        p.range = RangeFilter::grid_window(10, 20);
        p.process(&launch_end("k", 15));
        p.reset();
        assert!(
            !p.range.covers_launch(LaunchId(5)) && p.range.covers_launch(LaunchId(15)),
            "configured grid window survives reset"
        );
    }
}
