//! Hub and sink unit tests.

use super::*;
use crate::event::EventClass;
use crate::spine::{SpineConfig, SpineMode};
use accel_sim::instrument::{DeviceTraceSink, TraceCtx};
use accel_sim::{
    AccessBatch, AccessKind, AccessPattern, Dim3, KernelTraceSummary, LaunchId, MemSpace, Symbol,
};

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
    // (`docs/perf-log/ISSUE-17.md`, *Steadiness*): no buffer for a class it
    // never buffers.
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

/// The coarse classes `shard`'s published gate admits, in index order,
/// and whether operator starts pass on their own.
fn admitted(shard: &DeviceShard) -> (Vec<EventClass>, bool) {
    let gate = shard.gate();
    let classes = EventClass::ALL
        .into_iter()
        .filter(|class| gate.admits(*class))
        .collect();
    (classes, gate.admits_op_start())
}

#[test]
fn the_host_gate_follows_whatever_a_guard_did_to_the_processor() {
    use EventClass::*;
    /// A default-interest tool that panics on a sync.
    struct PanicsOnSync;
    impl Tool for PanicsOnSync {
        fn name(&self) -> &str {
            "panics-on-sync"
        }
        fn on_event(&mut self, event: &Event) {
            assert!(!matches!(event, Event::Sync { .. }), "fault-injection");
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    #[derive(Debug)]
    struct NullRecorder;
    impl crate::processor::EventRecorder for NullRecorder {
        fn record(&mut self, _event: &Event) {}
    }

    let mut processor = EventProcessor::new();
    processor
        .tools
        .register(Box::<crate::tool::LaunchCounter>::default());
    let hub = new_shared(processor);
    let shard = &hub.shards()[0];
    let own = (vec![Kernel, Annotation], false);
    let coarse = vec![HostApi, Kernel, Memory, Sync, Framework, Annotation];
    assert_eq!(
        admitted(shard),
        own,
        "the knobs, the range filter, a launch counter"
    );

    // register
    hub.primary().tools.register(Box::new(PanicsOnSync));
    assert_eq!(admitted(shard), (coarse.clone(), false));
    // quarantine, from inside `process`
    hub.process(&Event::Sync {
        device: DeviceId(0),
        at: accel_sim::SimTime(1),
    });
    assert_eq!(hub.quarantines().len(), 1);
    assert_eq!(admitted(shard), own, "a quarantined tool reads nothing");
    // reset re-arms
    hub.reset_all();
    assert_eq!(admitted(shard), (coarse, false));
    hub.process(&Event::Sync {
        device: DeviceId(0),
        at: accel_sim::SimTime(2),
    });
    assert_eq!(admitted(shard), own);
    // the capture knob
    hub.primary().capture_knob = Some(crate::knob::Knob::MaxCalledKernel);
    assert_eq!(admitted(shard), (own.0.clone(), true));
    hub.primary().capture_knob = None;
    // a recorder holds every class open, however it got there
    hub.attach_recorders(|_| Box::new(NullRecorder));
    assert_eq!(admitted(shard), (EventClass::ALL.to_vec(), true));
    assert_eq!(hub.detach_recorders().len(), 1);
    assert_eq!(admitted(shard), own);
    shard.lock().set_recorder(Box::new(NullRecorder));
    assert_eq!(admitted(shard), (EventClass::ALL.to_vec(), true));
}

#[test]
fn the_gate_tally_folds_into_its_own_shard_exactly_once() {
    let hub = sharded_hub(2);
    let (near, far) = (&hub.shards()[0], &hub.shards()[1]);
    for _ in 0..3 {
        far.count_gated();
    }
    near.count_gated();
    assert_eq!(far.lock().events_processed(), 3);
    assert_eq!(
        far.lock().events_processed(),
        3,
        "folded once, not per lock"
    );
    assert_eq!(near.lock().events_processed(), 1);
    hub.process(&Event::Sync {
        device: DeviceId(1),
        at: accel_sim::SimTime(1),
    });
    assert_eq!((hub.events_processed(), hub.host_events_gated()), (5, 4));
    assert_eq!(hub.merged_report().events_processed, 5);
    // A reset zeroes what was counted; the tally itself only grows.
    hub.reset_all();
    assert_eq!((hub.events_processed(), hub.host_events_gated()), (0, 0));
    far.count_gated();
    assert_eq!((hub.events_processed(), hub.host_events_gated()), (1, 1));
}
