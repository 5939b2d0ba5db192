//! Zero-cost gating regression for trace capture (ISSUE 6, satellite 4).
//!
//! With no [`TraceWriter`] attached, the event hot path must pay exactly
//! one `Option` check for tracing: no allocation, no buffering, no
//! side table. A counting global allocator pins that — the fine-grained
//! drain over a recorder-free processor performs **zero** heap
//! allocations, attaching a recorder makes the very same drain allocate,
//! and detaching restores zero. The throughput side of the same gate is
//! the benchmark's `event_flood_gated` workload and its
//! `core.hub.gate_reject_ns_per_callback` row.
//!
//! Everything lives in one `#[test]` because the allocation counter is
//! process-global: parallel test threads would attribute each other's
//! allocations to the wrong phase.

mod common;

use common::CountingAlloc;
use pasta::core::hub::{Hub, HubSink};
use pasta::core::spine::{SpineConfig, SpineMode};
use pasta::core::tool::{Interest, Tool};
use pasta::core::{Event, EventClass, EventProcessor, EventRecorder};
use pasta::sim::instrument::{BackendCosts, DeviceTraceSink, TraceCtx, TraceProfiler};
use pasta::sim::{
    AccessBatch, AccessKind, AccessPattern, AccessSpec, AnalysisMode, DeviceId, DeviceSpec, Dim3,
    Engine, InstrCoverage, KernelBody, KernelDesc, KernelTraceSummary, LaunchId, MemSpace,
    SymbolTable,
};
use pasta::trace::{Trace, TraceReader};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

fn allocs() -> u64 {
    GLOBAL.allocs()
}

/// A recorder that buffers events the simplest possible way — enough to
/// prove the gated branch really runs (and allocates) when attached.
#[derive(Debug)]
struct VecRecorder(Vec<Event>);

impl EventRecorder for VecRecorder {
    fn record(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
}

#[test]
fn untraced_event_path_performs_zero_allocations() {
    // Pre-build everything the drain will touch; allocations from setup
    // must not be charged to the hot path.
    let events: Vec<Event> = (0..256)
        .map(|i| Event::Barrier {
            launch: LaunchId(i % 4),
            count: i,
            cluster: false,
        })
        .collect();
    let mut processor = EventProcessor::new();
    assert!(!processor.has_recorder());

    // Phase 1: no recorder attached — the trace gate is one Option check.
    let before = allocs();
    processor.process_class_batch(EventClass::DeviceControl, &events);
    assert_eq!(
        allocs() - before,
        0,
        "the untraced fine-grained drain must not allocate"
    );
    assert_eq!(processor.events_processed(), events.len() as u64);

    // Phase 2: recorder attached — the same drain now buffers, which is
    // observable as allocation. This proves phase 1 exercised a branch
    // that *would* have cost something, not a dead path.
    processor.set_recorder(Box::new(VecRecorder(Vec::new())));
    let before = allocs();
    processor.process_class_batch(EventClass::DeviceControl, &events);
    assert!(
        allocs() - before > 0,
        "an attached recorder buffers the stream"
    );

    // Phase 3: detached again — back to zero.
    let recorder = processor.take_recorder().expect("recorder was attached");
    drop(recorder);
    let before = allocs();
    processor.process_class_batch(EventClass::DeviceControl, &events);
    assert_eq!(
        allocs() - before,
        0,
        "detaching the recorder restores the allocation-free drain"
    );
    assert_eq!(processor.events_processed(), 3 * events.len() as u64);

    // Phase 4 (ISSUE 8): the ring spine in steady state. After warmup —
    // ring registered, batch-buffer pool primed, kernel name interned —
    // whole launches through the SPSC path (emit, spill, push, the
    // producer-side backpressure drain, buffer recycle) must not allocate
    // either: every buffer the cycle touches is preallocated and comes
    // back through the free ring.
    let mut p = EventProcessor::new();
    p.tools.register(Box::<FlatCounter>::default());
    let hub = Arc::new(Hub::sharded(vec![(DeviceId(0), p)]).unwrap());
    let mut sink = HubSink::with_spine(
        Arc::clone(&hub),
        SpineMode::Ring,
        SpineConfig {
            ring_slots: 4,
            pool_buffers: 2,
            batch_events: 64,
        },
    );
    let ctx = TraceCtx {
        launch: LaunchId(1),
        device: DeviceId(0),
        stream: 0,
        name: "ring_kernel".into(),
        grid: Dim3::linear(8),
        block: Dim3::linear(64),
    };
    let access = AccessBatch {
        launch: LaunchId(1),
        spec_index: 0,
        base: 0x1000,
        len: 4096,
        records: 16,
        bytes: 4096,
        elem_size: 4,
        kind: AccessKind::Load,
        space: MemSpace::Global,
        pattern: AccessPattern::Sequential,
    };
    let launch = |sink: &mut HubSink| {
        sink.on_kernel_begin(&ctx);
        for _ in 0..32 {
            sink.on_batch(&ctx, &access);
            sink.on_barriers(&ctx, 2);
        }
        sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
    };
    for _ in 0..3 {
        launch(&mut sink); // warmup: allocate the ring, pool, symbol
    }
    let before = allocs();
    for _ in 0..4 {
        launch(&mut sink);
    }
    assert_eq!(
        allocs() - before,
        0,
        "the untraced ring-spine steady state must not allocate"
    );
    hub.quiesce();
    let n = hub
        .primary()
        .tools
        .with_tool_mut("flat-counter", |t: &mut FlatCounter| t.seen)
        .unwrap();
    assert_eq!(n, 7 * (1 + 64 + 1), "every warmup+measured event arrived");

    // Phase 4b (ISSUE 17): the same steady state from the engine down.
    // `Engine::launch` builds a launch's batches in a scratch it keeps, the
    // profiler charges and forwards them under one lock, the sink cuts
    // them into its spill buffers: a 320-stream launch — the widest the
    // flood makes — allocates nothing once one like it has run, whether
    // or not a narrower launch came in between.
    let (profiler, handle) = TraceProfiler::new(
        InstrCoverage::MemoryAndBarrier,
        AnalysisMode::GpuResident,
        BackendCosts::sanitizer(),
        vec![24.0],
    );
    handle.set_sink(Box::new(sink));
    let mut engine = Engine::new(vec![DeviceSpec::rtx_3060()]);
    let buf = engine.malloc(DeviceId(0), 1 << 24).expect("device buffer");
    engine.set_probe(Box::new(profiler));
    let kernel = |streams: u64| {
        let body = (0..streams).fold(KernelBody::compute(1 << 20), |body, i| {
            body.access(AccessSpec::load(0, 4096).with_range(i * 4096, 4096))
        });
        KernelDesc::new("engine_kernel", Dim3::linear(8), Dim3::linear(64))
            .arg(buf, 1 << 24)
            .body(body.with_barriers(4))
    };
    let (wide, narrow) = (kernel(320), kernel(64));
    for _ in 0..3 {
        engine.launch(DeviceId(0), 0, &wide).expect("warmup launch");
    }
    let before = allocs();
    for desc in [&wide, &narrow, &wide, &wide] {
        let record = engine.launch(DeviceId(0), 0, desc).expect("steady launch");
        assert_eq!(record.records_emitted, 32 * desc.body.accesses.len() as u64);
    }
    assert_eq!(
        allocs() - before,
        0,
        "a steady-state launch through engine, profiler and sink must not allocate"
    );
    hub.quiesce();
    let fine = hub
        .primary()
        .tools
        .with_tool_mut("flat-counter", |t: &mut FlatCounter| t.seen)
        .unwrap()
        - n;
    // Per launch: begin, one event per stream, barriers, blocks, trace.
    assert_eq!(fine, 6 * (320 + 4) + (64 + 4), "every engine event arrived");

    // Phase 5 (ISSUE 12): the read side. Every record here carries a
    // symbol, and looking one up must cost nothing on success — parsing N
    // events allocates for the dictionary and the event vector, not once
    // per record.
    let stream: Vec<Event> = (0..4096)
        .map(|i| Event::GlobalAccess {
            launch: LaunchId(i / 64),
            kernel: ["gemm", "softmax", "layernorm"][i as usize % 3].into(),
            batch: AccessBatch {
                launch: LaunchId(i / 64),
                base: 0x1000 + i * 128,
                ..access
            },
        })
        .collect();
    let trace = Trace::from_shards([(DeviceId(0), stream.as_slice())], None);
    let before = allocs();
    let reader = TraceReader::parse(trace.as_bytes()).expect("a fresh trace parses");
    let parse_allocs = allocs() - before;
    assert_eq!(reader.events_total(), stream.len() as u64);
    assert!(
        parse_allocs < stream.len() as u64 / 4,
        "parsing {} events allocated {parse_allocs} times",
        stream.len()
    );

    // Phase 6 (ISSUE 16): decoded names go into the process-global table
    // and stay there for good, so a parse may only ever add names the
    // table has not seen — a service re-reading one trace grows nothing.
    let small = Trace::from_shards([(DeviceId(0), &stream[..64])], None);
    TraceReader::parse(small.as_bytes()).expect("a fresh trace parses");
    let interned = SymbolTable::global().len();
    for _ in 0..1_000 {
        TraceReader::parse(small.as_bytes()).expect("the same trace parses again");
    }
    assert_eq!(
        SymbolTable::global().len(),
        interned,
        "1,000 parses of one trace interned new names"
    );
}

/// Counts events without touching the heap — safe inside the measured
/// allocation window.
#[derive(Debug, Default)]
struct FlatCounter {
    seen: u64,
}

impl Tool for FlatCounter {
    fn name(&self) -> &str {
        "flat-counter"
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, _event: &Event) {
        self.seen += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
