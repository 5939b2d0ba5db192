//! Multi-device emission throughput (ISSUE 3).
//!
//! A fully-subscribed fine-grained stream (1029 sink callbacks per
//! launch) is analyzed by a representative six-tool suite — kernel
//! frequency, barrier stall, hotness, op→kernel map, memory
//! characteristics, UVM prefetch advisor — so the drain work under the
//! hub lock dominates the per-event construction cost, exactly the
//! regime where one global mutex caps multi-device scaling.
//!
//! Two measurement families:
//!
//! * `multi-device/*` — wall-clock of 2 (and 4) OS threads, one per
//!   device, driving their streams concurrently into a **sharded** hub
//!   (one [`DeviceShard`] per device, disjoint locks) versus the
//!   pre-ISSUE-3 **single-mutex** topology (every device through one
//!   shard). On a multi-core host the sharded numbers pull ahead by the
//!   drain fraction; on a single-CPU container the threads timeslice and
//!   the two tie — which is why the bench also measures the
//!   machine-independent decomposition below.
//! * `per-device/*` — the serialization decomposition: `full-launch`
//!   measures one device's complete per-launch cost `A` (emit + drain),
//!   `drain-under-lock` measures the portion `B` that must hold the
//!   launch's shard lock. With two devices, a single shared mutex bounds
//!   wall time per launch-pair from below by `2B`, while per-device
//!   shards run the pair in `A`; the 2-device throughput ratio is
//!   therefore `max(A, 2B) / A`, from single-threaded, deterministic
//!   measurements. The acceptance gate (≥ 1.5x) reads this ratio.
//!
//! ISSUE 8 adds the spine dimension:
//!
//! * `contended/*` — 2 devices × {2,4} emitter threads per device, ring
//!   spine (with background [`SpineDrainer`]s, as `run_parallel`
//!   schedules them) vs. the mutex spine where every flush drains inline
//!   under the shard lock. Wall-clock; ties on a 1-CPU container.
//! * `per-device/full-launch-ring` — `A_ring`: the complete per-launch
//!   cost through the ring spine with no consumer, so the producer-side
//!   backpressure fallback performs every drain itself. `A_ring − B` is
//!   the emitter's critical-path cost `E` once a consumer takes the
//!   drain: the decomposition the contended acceptance ratio reads.
//! * `spine/ring-hop` vs `spine/mutex-hop` — the raw per-message cost of
//!   the SPSC handoff against a lock round-trip on the same payload.
//!
//! Numbers land in `BENCH_multi_device.json`; run with
//! `cargo bench -p pasta-bench --bench multi_device`.
//!
//! [`DeviceShard`]: pasta_core::hub::DeviceShard

use accel_sim::instrument::{DeviceTraceSink, TraceCtx};
use accel_sim::{
    AccessBatch, AccessKind, AccessPattern, DeviceId, Dim3, KernelTraceSummary, LaunchId, MemSpace,
};
use criterion::{criterion_group, criterion_main, Criterion};
use pasta_core::hub::{new_shared, Hub, HubSink, SharedHub};
use pasta_core::processor::EventProcessor;
use pasta_core::spine::{EventRing, SpineConfig, SpineDrainer, SpineMode, SpineMsg};
use pasta_core::{Event, EventClass};
use pasta_tools::{standard_suite, UvmPrefetchAdvisor};
use std::sync::Arc;

/// Access batches per simulated launch.
const BATCHES: u64 = 1024;

/// Launches each device thread drives per threaded benchmark iteration
/// (amortizes thread spawn over ~8 × 1029 callbacks of real work).
const LAUNCHES_PER_ITER: u64 = 8;

/// Sink callbacks one launch issues: begin + batches + barriers + blocks +
/// instructions + end.
pub const CALLBACKS_PER_LAUNCH: u64 = BATCHES + 5;

fn ctx(device: u32, launch: u64) -> TraceCtx {
    TraceCtx {
        launch: LaunchId(launch),
        device: DeviceId(device),
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
        base: 0x1000 + (i % 512) * 4096,
        len: 4096,
        records: 32,
        bytes: 4096,
        elem_size: 4,
        kind: AccessKind::Load,
        space: MemSpace::Global,
        pattern: AccessPattern::Sequential,
    }
}

/// The representative six-tool analysis suite (all forkable, so the
/// session shards it per device).
fn processor() -> EventProcessor {
    let mut p = EventProcessor::new();
    p.tools = standard_suite().into_iter().collect();
    p.tools.register(Box::new(UvmPrefetchAdvisor::new()));
    p
}

fn sharded_hub(devices: u32) -> SharedHub {
    let shards = (0..devices)
        .map(|d| {
            let p = processor();
            let p = if d == 0 {
                p
            } else {
                p.fork().expect("suite forks")
            };
            (DeviceId(d), p)
        })
        .collect();
    Arc::new(Hub::sharded(shards).unwrap())
}

/// One launch worth of fully-subscribed fine-grained traffic.
fn drive_launch(sink: &mut HubSink, device: u32, launch: u64) {
    let ctx = ctx(device, launch);
    sink.on_kernel_begin(&ctx);
    for i in 0..BATCHES {
        sink.on_batch(&ctx, &batch(launch, i));
    }
    sink.on_barriers(&ctx, 512);
    sink.on_blocks(&ctx, 64);
    sink.on_instructions(&ctx, 1 << 20);
    sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
}

/// One threaded iteration: every device thread drives its launches
/// through its own sink into `hub`, concurrently.
fn drive_concurrent(hub: &SharedHub, devices: u32, iter: u64) {
    std::thread::scope(|scope| {
        for d in 0..devices {
            let hub = Arc::clone(hub);
            scope.spawn(move || {
                let mut sink = HubSink::new(hub);
                for l in 0..LAUNCHES_PER_ITER {
                    // Per-lane engines number launches independently from
                    // zero, so ids collide across devices — replicate that.
                    let launch = iter * LAUNCHES_PER_ITER + l;
                    drive_launch(&mut sink, d, launch);
                }
            });
        }
    });
}

fn bench_topology(c: &mut Criterion, label: &str, hub: SharedHub, devices: u32) {
    let mut g = c.benchmark_group("multi-device");
    g.sample_size(60);
    let mut iter = 0u64;
    g.bench_function(label, |b| {
        b.iter(|| {
            drive_concurrent(&hub, devices, iter);
            iter += 1;
        })
    });
    g.finish();
}

fn two_device_sharded(c: &mut Criterion) {
    bench_topology(c, "2dev-sharded", sharded_hub(2), 2);
}

fn two_device_single_mutex(c: &mut Criterion) {
    bench_topology(c, "2dev-single-mutex", new_shared(processor()), 2);
}

fn four_device_sharded(c: &mut Criterion) {
    bench_topology(c, "4dev-sharded", sharded_hub(4), 4);
}

fn four_device_single_mutex(c: &mut Criterion) {
    bench_topology(c, "4dev-single-mutex", new_shared(processor()), 4);
}

/// `A`: one device's complete per-launch cost through the real sink on
/// the mutex spine (event construction + buffering outside the lock,
/// batched drain under it).
fn per_device_full_launch(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-device");
    g.sample_size(200);
    let hub = sharded_hub(1);
    let mut sink = HubSink::inline_spine(Arc::clone(&hub));
    let mut launch = 0u64;
    g.bench_function("full-launch", |b| {
        b.iter(|| {
            drive_launch(&mut sink, 0, launch);
            launch += 1;
        })
    });
    g.finish();
}

/// `A_ring`: the same launch through the ring spine with nobody
/// draining, so the producer-side backpressure fallback performs every
/// drain itself. Total work matches `A`; the difference is pure spine
/// overhead, and `A_ring − B` is the emitter's critical path `E` once a
/// consumer owns the drain.
fn per_device_full_launch_ring(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-device");
    g.sample_size(200);
    let hub = sharded_hub(1);
    let mut sink = HubSink::with_spine(Arc::clone(&hub), SpineMode::Ring, SpineConfig::default());
    let mut launch = 0u64;
    g.bench_function("full-launch-ring", |b| {
        b.iter(|| {
            drive_launch(&mut sink, 0, launch);
            launch += 1;
        })
    });
    g.finish();
}

/// The raw SPSC handoff: push one realistic control message and pop it
/// back, same thread. Prices the spine hop with no processing attached.
fn spine_ring_hop(c: &mut Criterion) {
    let mut g = c.benchmark_group("spine");
    g.sample_size(200);
    let ring = EventRing::with_config(&SpineConfig::default());
    g.bench_function("ring-hop", |b| {
        b.iter(|| {
            for i in 0..1024u64 {
                let msg = SpineMsg::One(Event::Barrier {
                    launch: LaunchId(0),
                    count: i,
                    cluster: false,
                });
                assert!(ring.push(msg).is_ok());
                assert!(ring.pop().is_some());
            }
        })
    });
    g.finish();
}

/// The same payload through a mutex round-trip — what the
/// inline spine pays per flush before any processing happens.
fn spine_mutex_hop(c: &mut Criterion) {
    let mut g = c.benchmark_group("spine");
    g.sample_size(200);
    let slot = accel_sim::sync::Mutex::new(Vec::with_capacity(1));
    g.bench_function("mutex-hop", |b| {
        b.iter(|| {
            for i in 0..1024u64 {
                let msg = SpineMsg::One(Event::Barrier {
                    launch: LaunchId(0),
                    count: i,
                    cluster: false,
                });
                slot.lock().push(msg);
                assert!(slot.lock().pop().is_some());
            }
        })
    });
    g.finish();
}

/// 2 devices × `emitters` threads per device: more sinks than shards, the
/// regime the ring spine targets. Ring configs run the same background
/// drainers `run_parallel` schedules; the final quiesce (inside the
/// timed region, for losslessness) drains whatever the drainers missed.
fn bench_contended(c: &mut Criterion, emitters: u32, mode: SpineMode) {
    let mut g = c.benchmark_group("contended");
    g.sample_size(20);
    let devices = 2u32;
    let hub = sharded_hub(devices);
    let device_ids: Vec<DeviceId> = (0..devices).map(DeviceId).collect();
    let label = format!(
        "2dev-{emitters}emit-{}",
        if mode == SpineMode::Ring {
            "ring"
        } else {
            "mutex"
        }
    );
    let mut iter = 0u64;
    g.bench_function(&label, |b| {
        b.iter(|| {
            let drainer = (mode == SpineMode::Ring).then(|| {
                SpineDrainer::start_bounded(Arc::clone(&hub), &device_ids, device_ids.len())
            });
            std::thread::scope(|scope| {
                for d in 0..devices {
                    for e in 0..emitters {
                        let hub = Arc::clone(&hub);
                        let launch = (iter * u64::from(devices * emitters)
                            + u64::from(d * emitters + e))
                            * LAUNCHES_PER_ITER;
                        scope.spawn(move || {
                            let mut sink = HubSink::with_spine(hub, mode, SpineConfig::default());
                            for l in 0..LAUNCHES_PER_ITER {
                                drive_launch(&mut sink, d, launch + l);
                            }
                        });
                    }
                }
            });
            if let Some(drainer) = drainer {
                drainer.stop();
            }
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

/// `B`: the under-lock portion of the same launch — exactly the calls
/// [`HubSink`] makes while holding its shard's lock, on pre-built events
/// (the emit side is excluded). With a single shared mutex, two devices'
/// `B`s serialize; with per-device shards they do not.
fn per_device_drain_under_lock(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-device");
    g.sample_size(200);
    let hub = sharded_hub(1);
    let tctx = ctx(0, 0);
    let access_events: Vec<Event> = (0..BATCHES)
        .map(|i| Event::GlobalAccess {
            launch: LaunchId(0),
            kernel: tctx.name,
            batch: batch(0, i),
        })
        .collect();
    let control_events = vec![
        Event::Barrier {
            launch: LaunchId(0),
            count: 512,
            cluster: false,
        },
        Event::BlockBoundary {
            launch: LaunchId(0),
            count: 64,
        },
        Event::Instructions {
            launch: LaunchId(0),
            count: 1 << 20,
        },
    ];
    let mut launch = 0u64;
    g.bench_function("drain-under-lock", |b| {
        b.iter(|| {
            let mut p = hub.lock_device(DeviceId(0));
            p.process(&Event::KernelLaunchBegin {
                launch: LaunchId(launch),
                device: DeviceId(0),
                stream: 0,
                name: tctx.name,
                grid: tctx.grid,
                block: tctx.block,
            });
            // The sink flushes every 256 buffered events: same chunking.
            for chunk in access_events.chunks(256) {
                p.process_class_batch(EventClass::DeviceAccess, chunk);
            }
            p.process_class_batch(EventClass::DeviceControl, &control_events);
            p.process(&Event::KernelTrace {
                launch: LaunchId(launch),
                kernel: tctx.name,
                summary: KernelTraceSummary::default(),
            });
            launch += 1;
        })
    });
    g.finish();
}

criterion_group!(
    multi_device,
    two_device_sharded,
    two_device_single_mutex,
    four_device_sharded,
    four_device_single_mutex,
    per_device_full_launch,
    per_device_full_launch_ring,
    per_device_drain_under_lock,
    spine_ring_hop,
    spine_mutex_hop,
    contended_two_emitters_ring,
    contended_two_emitters_mutex,
    contended_four_emitters_ring,
    contended_four_emitters_mutex
);
criterion_main!(multi_device);
