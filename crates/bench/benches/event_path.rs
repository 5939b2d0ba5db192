//! Event hot-path throughput (ISSUE 2).
//!
//! Measures sink-callback throughput through [`HubSink`] for the three
//! configurations the tentpole optimizes:
//!
//! * `fine/no-tools` — fine-grained stream, empty tool collection: the
//!   interest gate should reject every device callback before locking.
//! * `fine/coarse-tool` — fine-grained stream, one coarse-interest tool:
//!   same gate, but the kernel lifecycle events still dispatch.
//! * `fine/device-tool` — fine-grained stream, one all-interest tool: the
//!   full intern + buffer + batched-flush path.
//! * `coarse/launch-events` — host-path kernel-launch events through the
//!   shared hub, the baseline coarse path.
//!
//! ISSUE 8 adds the spine dimension: `fine/device-tool` now rides the
//! default SPSC ring spine, `fine/device-tool-inline` pins the mutex
//! reference, and the `contended/*` family offers the same
//! fully-subscribed stream from 2–4 emitter threads into the single
//! shard, ring vs. mutex, to price emission under contention.
//!
//! Numbers land in `BENCH_event_path.json`; run with
//! `cargo bench -p pasta-bench --bench event_path`.

use accel_sim::instrument::{DeviceTraceSink, TraceCtx};
use accel_sim::{
    AccessBatch, AccessKind, AccessPattern, DeviceId, Dim3, KernelTraceSummary, LaunchId, MemSpace,
    SimTime,
};
use criterion::{criterion_group, criterion_main, Criterion};
use pasta_core::hub::{new_shared, HubSink};
use pasta_core::processor::EventProcessor;
use pasta_core::spine::{SpineConfig, SpineMode};
use pasta_core::tool::{Interest, LaunchCounter, Tool};
use pasta_core::Event;

/// Access batches per simulated launch (one iteration).
const BATCHES: u64 = 1024;

/// Total sink callbacks one iteration issues: begin + batches + barriers +
/// blocks + instructions + end.
pub const CALLBACKS_PER_ITER: u64 = BATCHES + 5;

fn ctx(launch: u64) -> TraceCtx {
    TraceCtx {
        launch: LaunchId(launch),
        device: DeviceId(0),
        stream: 0,
        name: "ampere_sgemm_128x64_tn".into(),
        grid: Dim3::linear(64),
        block: Dim3::linear(128),
    }
}

fn batch(launch: u64, i: u64) -> AccessBatch {
    AccessBatch {
        launch: LaunchId(launch),
        spec_index: 0,
        base: 0x1000 + i * 4096,
        len: 4096,
        records: 32,
        bytes: 4096,
        elem_size: 4,
        kind: AccessKind::Load,
        space: if i.is_multiple_of(4) {
            MemSpace::Shared
        } else {
            MemSpace::Global
        },
        pattern: AccessPattern::Sequential,
    }
}

/// One simulated launch worth of fine-grained traffic.
fn drive_launch(sink: &mut HubSink, launch: u64) {
    let ctx = ctx(launch);
    sink.on_kernel_begin(&ctx);
    for i in 0..BATCHES {
        sink.on_batch(&ctx, &batch(launch, i));
    }
    sink.on_barriers(&ctx, 512);
    sink.on_blocks(&ctx, 64);
    sink.on_instructions(&ctx, 1 << 20);
    sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
}

/// An all-interest tool that counts every delivered event.
#[derive(Default)]
struct DeviceCounter {
    events: u64,
}

impl Tool for DeviceCounter {
    fn name(&self) -> &str {
        "device-counter"
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, _event: &Event) {
        self.events += 1;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn bench_fine(c: &mut Criterion, label: &str, make: impl Fn() -> EventProcessor) {
    let mut g = c.benchmark_group("fine");
    g.sample_size(200);
    let hub = new_shared(make());
    let mut sink = HubSink::new(std::sync::Arc::clone(&hub));
    let mut launch = 0u64;
    g.bench_function(label, |b| {
        b.iter(|| {
            drive_launch(&mut sink, launch);
            launch += 1;
        })
    });
    g.finish();
}

fn fine_no_tools(c: &mut Criterion) {
    bench_fine(c, "no-tools", EventProcessor::new);
}

fn fine_coarse_tool(c: &mut Criterion) {
    bench_fine(c, "coarse-tool", || {
        let mut p = EventProcessor::new();
        p.tools.register(Box::<LaunchCounter>::default());
        p
    });
}

fn device_tool_processor() -> EventProcessor {
    let mut p = EventProcessor::new();
    p.tools.register(Box::<DeviceCounter>::default());
    p
}

fn fine_device_tool(c: &mut Criterion) {
    bench_fine(c, "device-tool", device_tool_processor);
}

/// The mutex-spine reference for the same fully-subscribed stream:
/// every 256-event flush drains inline under the shard lock.
fn fine_device_tool_inline(c: &mut Criterion) {
    let mut g = c.benchmark_group("fine");
    g.sample_size(200);
    let hub = new_shared(device_tool_processor());
    let mut sink = HubSink::inline_spine(std::sync::Arc::clone(&hub));
    let mut launch = 0u64;
    g.bench_function("device-tool-inline", |b| {
        b.iter(|| {
            drive_launch(&mut sink, launch);
            launch += 1;
        })
    });
    g.finish();
}

/// `emitters` threads, each with its own sink, offering the
/// fully-subscribed stream to the one shard concurrently. On the mutex
/// spine every flush convoys on the shard lock; on the ring spine each
/// sink pushes to its own SPSC ring and only the backpressure fallback
/// touches the lock.
fn bench_contended(c: &mut Criterion, emitters: u32, mode: SpineMode) {
    let mut g = c.benchmark_group("contended");
    g.sample_size(30);
    let hub = new_shared(device_tool_processor());
    let label = format!(
        "{emitters}emit-{}",
        if mode == SpineMode::Ring {
            "ring"
        } else {
            "mutex"
        }
    );
    let mut iter = 0u64;
    g.bench_function(&label, |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for e in 0..emitters {
                    let hub = std::sync::Arc::clone(&hub);
                    let launch = iter * u64::from(emitters) + u64::from(e);
                    scope.spawn(move || {
                        let mut sink = HubSink::with_spine(hub, mode, SpineConfig::default());
                        drive_launch(&mut sink, launch);
                    });
                }
            });
            hub.quiesce();
            iter += 1;
        })
    });
    g.finish();
}

fn contended_two_emitters_ring(c: &mut Criterion) {
    bench_contended(c, 2, SpineMode::Ring);
}

fn contended_two_emitters_mutex(c: &mut Criterion) {
    bench_contended(c, 2, SpineMode::Inline);
}

fn contended_four_emitters_ring(c: &mut Criterion) {
    bench_contended(c, 4, SpineMode::Ring);
}

fn contended_four_emitters_mutex(c: &mut Criterion) {
    bench_contended(c, 4, SpineMode::Inline);
}

fn coarse_launch_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("coarse");
    g.sample_size(200);
    let mut p = EventProcessor::new();
    p.tools.register(Box::<LaunchCounter>::default());
    let hub = new_shared(p);
    let mut launch = 0u64;
    let name: accel_sim::Symbol = "ampere_sgemm_128x64_tn".into();
    g.bench_function("launch-events", |b| {
        b.iter(|| {
            for _ in 0..64 {
                hub.process(&Event::KernelLaunchEnd {
                    launch: LaunchId(launch),
                    device: DeviceId(0),
                    name,
                    start: SimTime(0),
                    end: SimTime(1000),
                });
                launch += 1;
            }
        })
    });
    g.finish();
}

criterion_group!(
    event_path,
    fine_no_tools,
    fine_coarse_tool,
    fine_device_tool,
    fine_device_tool_inline,
    coarse_launch_events,
    contended_two_emitters_ring,
    contended_two_emitters_mutex,
    contended_four_emitters_ring,
    contended_four_emitters_mutex
);
criterion_main!(event_path);
