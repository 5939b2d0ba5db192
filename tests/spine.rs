//! Lock-free event spine stress suite (ISSUE 8).
//!
//! The SPSC rings between `HubSink`s and `DeviceShard`s are exercised
//! here end to end, under geometries small enough that every launch hits
//! wraparound and full-ring backpressure many times over. The oracle
//! throughout is the mutex-spine (`SpineMode::Inline`) reference: same
//! input stream, byte-identical merged reports, and — for the recorder
//! tests — the *exact same event sequence* delivered to each shard's
//! processor, each event exactly once. Sessions never build a ring sink
//! (every lane delivers inline), so the rings are driven through
//! `HubSink::with_spine` directly; the last test holds a session's two
//! lane schedules to each other.
//!
//! Run with `--test-threads=1` in CI: the stress tests spawn their own
//! emitter threads and time-share poorly with sibling tests.

mod common;

use common::{sharded_hub, FineAggregator};
use pasta::core::hub::{Hub, HubSink, SharedHub};
use pasta::core::processor::{EventProcessor, EventRecorder};
use pasta::core::report::MergedReport;
use pasta::core::spine::{SpineConfig, SpineMode};
use pasta::core::tool::{Interest, Tool};
use pasta::core::{Event, Pasta, PastaSession};
use pasta::dl::parallel::DeviceLane;
use pasta::prelude::*;
use pasta::sim::instrument::{DeviceTraceSink, TraceCtx};
use pasta::sim::{
    AccelError, AccessBatch, AccessKind, AccessPattern, DeviceId, KernelTraceSummary, LaunchId,
    MemSpace,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A geometry so small every test launch wraps the ring and exhausts the
/// buffer pool repeatedly — wraparound and backpressure on every path.
fn tiny() -> SpineConfig {
    SpineConfig {
        ring_slots: 2,
        pool_buffers: 1,
        batch_events: 3,
    }
}

fn ctx(device: u32, launch: u64) -> TraceCtx {
    TraceCtx {
        launch: LaunchId(launch),
        device: DeviceId(device),
        stream: 0,
        name: "spine_kernel".into(),
        grid: Dim3::linear(16),
        block: Dim3::linear(64),
    }
}

fn batch(launch: u64, i: u64) -> AccessBatch {
    AccessBatch {
        launch: LaunchId(launch),
        spec_index: 0,
        base: 0x2000 + i * 4096,
        len: 4096,
        records: 16,
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

/// One device's deterministic stream through a sink with the given spine.
fn drive_device(hub: &SharedHub, mode: SpineMode, config: SpineConfig, device: u32, launches: u64) {
    let mut sink = HubSink::with_spine(Arc::clone(hub), mode, config);
    for l in 0..launches {
        let launch = u64::from(device) * 10_000 + l;
        let ctx = ctx(device, launch);
        sink.on_kernel_begin(&ctx);
        for i in 0..200 {
            sink.on_batch(&ctx, &batch(launch, i));
            if i % 25 == 0 {
                sink.on_barriers(&ctx, 2);
            }
        }
        sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
    }
}

fn merged_after(
    devices: u32,
    launches: u64,
    mode: SpineMode,
    config: SpineConfig,
    concurrent: bool,
) -> MergedReport {
    let hub = sharded_hub(devices);
    if concurrent {
        std::thread::scope(|scope| {
            for d in 0..devices {
                let hub = &hub;
                scope.spawn(move || drive_device(hub, mode, config, d, launches));
            }
        });
    } else {
        for d in 0..devices {
            drive_device(&hub, mode, config, d, launches);
        }
    }
    hub.quiesce();
    hub.merged_report()
}

/// Full-ring backpressure + pool exhaustion under racing emitters, with
/// nobody else draining: producers must fall back to draining their own
/// shard (lossless, never dropping) and still match the inline reference.
#[test]
fn tiny_ring_wraparound_matches_inline_reference() {
    let reference = merged_after(2, 12, SpineMode::Inline, SpineConfig::default(), false);
    for _ in 0..3 {
        let ringed = merged_after(2, 12, SpineMode::Ring, tiny(), true);
        assert_eq!(
            ringed, reference,
            "ring spine under wraparound/backpressure must merge byte-identically"
        );
    }
}

/// Single-threaded producer with nobody draining: every ring-full push
/// takes the producer-side drain fallback. Exact event accounting.
#[test]
fn producer_drain_fallback_is_lossless() {
    let hub = sharded_hub(1);
    drive_device(&hub, SpineMode::Ring, tiny(), 0, 5);
    hub.quiesce();
    let report = hub.merged_report();
    let agg = &report.tools[0];
    assert_eq!(agg.get("launches"), Some(5.0));
    assert_eq!(agg.get("batches"), Some(5.0 * 200.0));
    assert_eq!(agg.get("records"), Some(5.0 * 200.0 * 16.0));
    assert_eq!(agg.get("barriers"), Some(5.0 * 8.0 * 2.0));
}

/// A sink dropped mid-launch (kernel-end never arrives) must surface its
/// buffered events after a quiesce — nothing is stranded in the ring.
#[test]
fn drop_mid_stream_events_surface_after_quiesce() {
    let hub = sharded_hub(1);
    {
        let mut sink = HubSink::with_spine(Arc::clone(&hub), SpineMode::Ring, tiny());
        let ctx = ctx(0, 42);
        sink.on_kernel_begin(&ctx);
        for i in 0..7 {
            sink.on_batch(&ctx, &batch(42, i));
        }
        // Dropped here: partial buffers spill to the ring and it closes.
    }
    hub.quiesce();
    let report = hub.merged_report();
    let agg = &report.tools[0];
    assert_eq!(agg.get("launches"), Some(1.0));
    assert_eq!(agg.get("batches"), Some(7.0), "no event lost at drop");
    // The closed, drained ring is pruned; later harvests see a quiet hub.
    assert_eq!(hub.quiesce(), 0, "nothing left after the first quiesce");
}

/// Records every event a shard's processor observes, in order.
#[derive(Debug, Default)]
struct CollectingRecorder {
    seen: Arc<Mutex<Vec<Event>>>,
}

impl EventRecorder for CollectingRecorder {
    fn record(&mut self, event: &Event) {
        self.seen.lock().unwrap().push(event.clone());
    }
}

fn recording_hub() -> (SharedHub, Arc<Mutex<Vec<Event>>>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut p = EventProcessor::new();
    p.tools.register(Box::<FineAggregator>::default());
    p.set_recorder(Box::new(CollectingRecorder {
        seen: Arc::clone(&seen),
    }));
    let hub = Arc::new(Hub::sharded(vec![(DeviceId(0), p)]).unwrap());
    (hub, seen)
}

/// Trace recorders observe the exact same event sequence — each event
/// exactly once, same order — whether the spine is the ring or the mutex.
/// Sequential emission with a shared batch size makes the streams
/// comparable event for event.
#[test]
fn recorder_sees_identical_stream_on_both_spines() {
    let mut streams = Vec::new();
    for mode in [SpineMode::Ring, SpineMode::Inline] {
        let (hub, seen) = recording_hub();
        // Ring uses the default batch_events so flush points line up with
        // the inline reference; slots/pool stay tiny to force wraparound.
        let config = SpineConfig {
            ring_slots: 2,
            pool_buffers: 1,
            ..SpineConfig::default()
        };
        drive_device(&hub, mode, config, 0, 4);
        hub.quiesce();
        let events = seen.lock().unwrap().clone();
        assert!(!events.is_empty());
        streams.push(events);
    }
    assert_eq!(
        streams[0], streams[1],
        "ring spine must deliver the identical event sequence"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random launch/batch/barrier scripts replayed on both spines under
    /// the tiny geometry: merged reports stay byte-identical, so no
    /// interleaving of wraparound, backpressure and flush points can
    /// lose, duplicate or reroute an event.
    #[test]
    fn random_scripts_merge_identically_on_both_spines(
        script in prop::collection::vec(
            (0u32..2, 1u64..12, prop::collection::vec(any::<bool>(), 0..20)),
            1..8,
        )
    ) {
        let mut reports = Vec::new();
        for mode in [SpineMode::Ring, SpineMode::Inline] {
            let hub = sharded_hub(2);
            let config = if mode == SpineMode::Ring { tiny() } else { SpineConfig::default() };
            let mut sink = HubSink::with_spine(Arc::clone(&hub), mode, config);
            for (li, (device, _, ops)) in script.iter().enumerate() {
                let launch = u64::from(*device) * 10_000 + li as u64;
                let c = ctx(*device, launch);
                sink.on_kernel_begin(&c);
                for (i, is_batch) in ops.iter().enumerate() {
                    if *is_batch {
                        sink.on_batch(&c, &batch(launch, i as u64));
                    } else {
                        sink.on_barriers(&c, 1 + i as u64 % 3);
                    }
                }
                // Odd launch counts leave some launches without an end —
                // the drop/rebind path has to account for their events.
                if script[li].1 % 2 == 0 {
                    sink.on_kernel_end(&c, &KernelTraceSummary::default());
                }
            }
            drop(sink);
            hub.quiesce();
            reports.push(hub.merged_report());
        }
        prop_assert_eq!(&reports[0], &reports[1]);
    }
}

/// How one launch's access batches reach the sink.
#[derive(Debug, Clone, Copy)]
enum Delivery {
    /// One `on_batch` per stream — what the engine did before it
    /// delivered per launch, and what out-of-tree sinks' callers still do.
    OneByOne,
    /// One `on_batches` per launch — what the profiler does.
    PerLaunch,
    /// `on_batches` over slices of the launch's chunk lengths (empty ones
    /// included), then the rest: where the spill buffer is cut may not
    /// depend on slice boundaries.
    Chunked,
}

/// A generated launch: per stream whether it is shared-memory, the
/// chunk lengths [`Delivery::Chunked`] slices it by, and a small number
/// that shapes its control events.
type Launch = (Vec<bool>, Vec<usize>, u64);

/// Everything the shard's recorder saw, and the merged report, after
/// `launches` went through a sink of this geometry.
fn delivered(
    launches: &[Launch],
    mode: SpineMode,
    batch_events: usize,
    delivery: Delivery,
) -> (Vec<Event>, MergedReport) {
    let (hub, seen) = recording_hub();
    let config = SpineConfig {
        ring_slots: 2,
        pool_buffers: 1,
        batch_events,
    };
    let mut sink = HubSink::with_spine(Arc::clone(&hub), mode, config);
    for (l, (shared, chunks, shape)) in launches.iter().enumerate() {
        let c = ctx(0, l as u64);
        let batches: Vec<AccessBatch> = shared
            .iter()
            .enumerate()
            .map(|(i, &shared)| AccessBatch {
                spec_index: i,
                space: if shared {
                    MemSpace::Shared
                } else {
                    MemSpace::Global
                },
                ..batch(l as u64, i as u64)
            })
            .collect();
        sink.on_kernel_begin(&c);
        // A control event ahead of the accesses: the first cut of the
        // access buffer takes it along.
        sink.on_barriers(&c, 1 + shape % 3);
        match delivery {
            Delivery::OneByOne => batches.iter().for_each(|b| sink.on_batch(&c, b)),
            Delivery::PerLaunch => sink.on_batches(&c, &batches),
            Delivery::Chunked => {
                let mut rest = batches.as_slice();
                for &n in chunks {
                    let (chunk, later) = rest.split_at(n.min(rest.len()));
                    sink.on_batches(&c, chunk);
                    rest = later;
                }
                sink.on_batches(&c, rest);
            }
        }
        sink.on_blocks(&c, 16);
        // A launch whose end never arrives leaves its tail to the next
        // launch's begin, or to the drop.
        if shape % 4 != 0 {
            sink.on_kernel_end(&c, &KernelTraceSummary::default());
        }
    }
    drop(sink);
    hub.quiesce();
    let events = seen.lock().unwrap().clone();
    (events, hub.merged_report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The launch-granular sink body against the per-stream entry it
    /// replaced: the same events in the same order reach the recorder —
    /// so a trace is the same bytes — and the same report comes out, at
    /// every flush threshold, over the ring and under the lock.
    #[test]
    fn per_launch_delivery_matches_one_batch_at_a_time(
        launches in prop::collection::vec(
            (
                prop::collection::vec(any::<bool>(), 1..601),
                prop::collection::vec(0usize..9, 0..80),
                0u64..12,
            ),
            1..4,
        )
    ) {
        let accesses: usize = launches.iter().map(|l| l.0.len()).sum();
        for batch_events in [1, 2, 3, 7, 256] {
            let reference =
                delivered(&launches, SpineMode::Inline, batch_events, Delivery::OneByOne);
            let fine = |e: &&Event| {
                matches!(e, Event::GlobalAccess { .. } | Event::SharedAccess { .. })
            };
            prop_assert_eq!(reference.0.iter().filter(fine).count(), accesses);
            for mode in [SpineMode::Ring, SpineMode::Inline] {
                for delivery in [Delivery::OneByOne, Delivery::PerLaunch, Delivery::Chunked] {
                    let got = delivered(&launches, mode, batch_events, delivery);
                    // Thousands of events a side: name where they part
                    // rather than print both.
                    let parts_at = got.0.iter().zip(&reference.0).position(|(a, b)| a != b);
                    prop_assert_eq!(
                        (parts_at, got.0.len(), &got.1), (None, reference.0.len(), &reference.1),
                        "{:?} {:?} batch_events={}", mode, delivery, batch_events
                    );
                }
            }
        }
    }
}

/// A tool that wants exactly the classes it is told to and does nothing
/// with them: the launch gate's input, nothing else.
#[derive(Debug, Clone, Copy)]
struct Wants(Interest);

impl Tool for Wants {
    fn name(&self) -> &str {
        "wants"
    }
    fn interest(&self) -> Interest {
        self.0
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(*self))
    }
}

/// The interest sets the generated sequences run under: everything;
/// accesses and instruction counts (barriers and blocks turned away);
/// control events only (accesses turned away); nothing from the device.
fn interest_variant(i: u8) -> Interest {
    match i {
        0 => Interest::all(),
        1 => {
            Interest::coarse()
                | Interest::GLOBAL_ACCESSES
                | Interest::SHARED_ACCESSES
                | Interest::INSTRUCTIONS
        }
        2 => {
            Interest::coarse()
                | Interest::BARRIERS
                | Interest::BLOCK_BOUNDARIES
                | Interest::INSTRUCTIONS
        }
        _ => Interest::coarse(),
    }
}

/// One generated sink call: what to call, on which device, and a number
/// that sizes it.
type SinkCall = (u8, u32, u64);

/// Drives `calls` through one sink over a two-shard hub and drops the sink
/// wherever the sequence stops — launches still open included. Returns
/// each shard's recorded stream and `events_processed`, and how many
/// events the gate should have let through.
fn drive_calls(
    calls: &[SinkCall],
    interest: Interest,
    mode: SpineMode,
    config: SpineConfig,
) -> (Vec<(Vec<Event>, u64)>, u64) {
    const SPACES: [MemSpace; 4] = [
        MemSpace::Global,
        MemSpace::Shared,
        MemSpace::RemoteShared,
        MemSpace::Local,
    ];
    let streams: Vec<Arc<Mutex<Vec<Event>>>> = (0..2).map(|_| Arc::default()).collect();
    let shards = streams
        .iter()
        .zip(0u32..)
        .map(|(seen, d)| {
            let mut p = EventProcessor::new();
            p.tools.register(Box::new(Wants(interest)));
            p.set_recorder(Box::new(CollectingRecorder {
                seen: Arc::clone(seen),
            }));
            (DeviceId(d), p)
        })
        .collect();
    let hub: SharedHub = Arc::new(Hub::sharded(shards).unwrap());
    let mut sink = HubSink::with_spine(Arc::clone(&hub), mode, config);

    // The launch a device has open, if any. A call on a device with none
    // open goes out under a launch id that never had a begin; a begin on a
    // device with one open orphans it (its end never arrives).
    let mut open: [Option<u64>; 2] = [None, None];
    let mut next_launch = 0u64;
    let mut admitted = 0u64;
    let asks = |leaf: Interest| interest | leaf == interest;
    for &(kind, device, n) in calls {
        let slot = device as usize;
        let launch = match open[slot] {
            Some(launch) if kind != 0 => launch,
            _ => {
                next_launch += 1;
                u64::from(device) * 10_000 + next_launch
            }
        };
        let c = ctx(device, launch);
        match kind {
            0 => {
                sink.on_kernel_begin(&c);
                open[slot] = Some(launch);
                admitted += 1;
            }
            1 => {
                let batches: Vec<AccessBatch> = (0..n)
                    .map(|i| AccessBatch {
                        space: SPACES[((n + i) % 4) as usize],
                        ..batch(launch, i)
                    })
                    .collect();
                sink.on_batches(&c, &batches);
                if asks(Interest::GLOBAL_ACCESSES) || asks(Interest::SHARED_ACCESSES) {
                    admitted += n;
                }
            }
            2 => {
                sink.on_barriers(&c, 1 + n);
                admitted += u64::from(asks(Interest::BARRIERS));
            }
            3 => {
                sink.on_blocks(&c, 1 + n);
                admitted += u64::from(asks(Interest::BLOCK_BOUNDARIES));
            }
            4 => {
                sink.on_instructions(&c, 1_000 + n);
                admitted += u64::from(asks(Interest::INSTRUCTIONS));
            }
            5 => sink.flush(),
            _ => {
                sink.on_kernel_end(&c, &KernelTraceSummary::default());
                open[slot] = None;
                admitted += 1;
            }
        }
    }
    drop(sink);
    hub.quiesce();
    let per_shard = streams
        .iter()
        .zip(hub.shards())
        .map(|(seen, shard)| {
            (
                seen.lock().unwrap().clone(),
                shard.lock().events_processed(),
            )
        })
        .collect();
    (per_shard, admitted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The oracle for a sink with one body: any sequence of sink calls —
    /// begins, batches of mixed memory spaces, barriers, blocks,
    /// instruction counts, explicit flushes, ends; launches whose end
    /// never arrives, calls under a launch that never began, the other
    /// device's calls arriving mid-buffer — reaches each shard as the same
    /// events in the same order over the ring and under the lock, at every
    /// flush threshold and ring size, and a sink dropped mid-launch leaves
    /// nothing behind.
    #[test]
    fn random_call_sequences_deliver_identically_on_both_spines(
        calls in prop::collection::vec((0u8..7, 0u32..2, 0u64..9), 1..60),
        interest in 0u8..4,
    ) {
        let interest = interest_variant(interest);
        for (ring_slots, pool_buffers) in [(2, 1), (64, 8)] {
            for batch_events in [1, 3, 256] {
                let config = SpineConfig { ring_slots, pool_buffers, batch_events };
                let (inline, admitted) = drive_calls(&calls, interest, SpineMode::Inline, config);
                let (ring, _) = drive_calls(&calls, interest, SpineMode::Ring, config);
                prop_assert_eq!(&ring, &inline, "{:?} {:?}", config, interest);
                let seen: u64 = ring.iter().map(|(events, _)| events.len() as u64).sum();
                let counted: u64 = ring.iter().map(|(_, processed)| processed).sum();
                prop_assert_eq!(
                    (seen, counted), (admitted, admitted),
                    "{:?} {:?}", config, interest
                );
            }
        }
    }
}

fn parallel_session() -> PastaSession {
    Pasta::builder()
        .a100_x2()
        .tool(FineAggregator::default())
        .build()
        .expect("session builds")
}

/// Lane `i`'s share of a region: `2 + i` streaming launches over a
/// tensor of its own, so every lane's sink carries global accesses.
fn lane_work(i: usize, lane: &mut DeviceLane<'_>) -> Result<(), AccelError> {
    let s = &mut lane.session;
    let t = s.alloc_tensor(&[1 << 16], pasta::dl::dtype::DType::F32)?;
    for _ in 0..(2 + i) {
        let desc = KernelDesc::new("spine_lane", Dim3::linear(8), Dim3::linear(64))
            .arg(t.ptr, t.bytes)
            .body(KernelBody::streaming(t.bytes / 2, t.bytes / 2));
        s.launch(desc)?;
    }
    s.free_tensor(&t);
    Ok(())
}

/// The merged report of one two-lane region: on the lane pool, or one
/// thread per lane under `run_parallel`.
fn run_lanes(session: &mut PastaSession, pooled: bool) -> MergedReport {
    let devices = [DeviceId(0), DeviceId(1)];
    let run = if pooled {
        session.run_parallel_each(&devices, lane_work)
    } else {
        session.run_parallel(&devices, |lanes| {
            std::thread::scope(|scope| {
                let threads: Vec<_> = (lanes.iter_mut().enumerate())
                    .map(|(i, lane)| scope.spawn(move || lane_work(i, lane)))
                    .collect();
                threads
                    .into_iter()
                    .try_for_each(|t| t.join().expect("a lane thread"))
            })
        })
    };
    run.expect("parallel run succeeds");
    session.merged_report()
}

/// The lanes' oracle: `run_parallel` driving each lane from a thread of
/// its own merges byte-identically to `run_parallel_each` on the lane
/// pool, and the access events the lanes delivered reached the tool.
#[test]
fn threaded_run_parallel_matches_pooled_run_parallel_each() {
    let threaded = run_lanes(&mut parallel_session(), false);
    let pooled = run_lanes(&mut parallel_session(), true);
    assert_eq!(threaded, pooled);
    let batches = pooled.tools[0].get("batches").expect("a batch count");
    assert!(batches > 0.0, "no access reached the tool");
}
