//! The read path against its oracles (ISSUE 21).
//!
//! * **Differential.** [`ShardDecoder::decode_batch`] against
//!   `codec::reference` — the per-byte cursor and by-value decoder it
//!   replaced — event for event over generated streams (every `Event`
//!   variant, non-monotone clocks, ten-byte varints, multi-frame Python
//!   stacks), and error for error (variant and offset) over every
//!   truncation and every single-bit flip of two traces, under a cap on
//!   the largest allocation.
//! * **Identity.** Fused [`replay`](crate::replay) at batch sizes 1, 7 and
//!   past the shard == `parse` + `replay_decoded` == the live session's
//!   `merged_report()`, byte for byte; a tool that panics mid-stream gives
//!   the same health section by all three routes.
//! * **Memory.** Fused replay's peak heap does not grow with the trace.
//!
//! These live inside the crate because the reference decoder and the
//! batch-size entry are not public. The meters of the allocator below are
//! per thread, so tests running side by side do not read each other's
//! requests.
//!
//! [`ShardDecoder::decode_batch`]: crate::codec::ShardDecoder::decode_batch

use crate::codec::reference;
use crate::reader::Framed;
use crate::replay::replay_batched;
use crate::{replay, replay_decoded, Trace, TraceError, TraceReader, TraceWriter};
use accel_sim::{
    AccessBatch, AccessKind, AccessPattern, AccessSpec, CopyDirection, DeviceId, Dim3, KernelBody,
    KernelDesc, KernelTraceSummary, LaunchId, MemSpace, SimTime, Symbol,
};
use dl_framework::callbacks::Pass;
use dl_framework::dtype::DType;
use dl_framework::parallel::{self, Parallelism};
use dl_framework::pycall::PyFrame;
use dl_framework::tensor::TensorId;
use pasta_core::report::UvmReport;
use pasta_core::tool::{Interest, LaunchCounter};
use pasta_core::{
    Event, FnWorkload, MergedReport, Pasta, PastaBuilder, PastaError, PastaSession, Tool,
    ToolCollection, WorkloadStats,
};
use pasta_tools::{HotnessTool, MemoryCharacteristicsTool, MemoryTimelineTool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use uvm_sim::UvmStats;

// ---------------------------------------------------------------------------
// A metering allocator
// ---------------------------------------------------------------------------

/// The system allocator, metering the calling thread's requests: the
/// largest one, the bytes live, and the most that were live at once.
struct Metered;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn meter_alloc(size: usize) {
    // `try_with`: a thread's last frees come after its meters are gone.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    let live = LIVE.try_with(|live| {
        live.set(live.get() + size);
        live.get()
    });
    if let Ok(live) = live {
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live)));
    }
}

fn meter_free(size: usize) {
    // Saturating: a block may be freed on a thread that did not allocate it.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the meters are plain thread-local cells
// with no destructor and allocate nothing.
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        meter_alloc(layout.size());
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        meter_free(layout.size());
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        meter_free(layout.size());
        meter_alloc(new_size);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Metered = Metered;

/// The most bytes `f` had live at once on this thread, over what was live
/// when it started.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

fn suite() -> Vec<Box<dyn Tool>> {
    let mut tools = pasta_tools::standard_suite();
    tools.push(Box::new(MemoryTimelineTool::new()));
    tools
}

fn collection(tools: Vec<Box<dyn Tool>>) -> ToolCollection {
    tools.into_iter().collect()
}

fn session(builder: PastaBuilder, tools: Vec<Box<dyn Tool>>) -> PastaSession {
    builder.tools(tools).build().expect("session builds")
}

/// A seeded word stream (splitmix64).
struct Words(u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A word of any width: as often one varint byte as ten.
    fn wide(&mut self) -> u64 {
        let bits = self.below(65);
        if bits == 64 {
            return u64::MAX;
        }
        self.next() & ((1 << bits) - 1)
    }
}

/// The benchmark's `event_flood` in miniature: `kernels` launches over one
/// tensor, each with `accesses` seeded global and shared access streams and
/// four barriers a block, `rounds` times over, under the six-tool suite.
fn flood(kernels: usize, accesses: usize, rounds: usize) -> (Trace, MergedReport) {
    flood_under(suite(), kernels, accesses, rounds)
}

/// [`flood`] under a session holding `tools`.
fn flood_under(
    tools: Vec<Box<dyn Tool>>,
    kernels: usize,
    accesses: usize,
    rounds: usize,
) -> (Trace, MergedReport) {
    const TENSOR_BYTES: u64 = 1 << 20;
    const NAMES: [&str; 3] = ["flood_gemm", "flood_softmax", "flood_gather"];
    let mut words = Words(7);
    let descs: Vec<KernelDesc> = (0..kernels)
        .map(|k| {
            let mut body = KernelBody::compute(1 << 16).with_barriers(4);
            for i in 0..accesses {
                let len = (1 + words.below(8)) * 4096;
                let offset = words.below((TENSOR_BYTES - len) / 128) * 128;
                let spec = if words.below(10) < 6 {
                    AccessSpec::load(0, len)
                } else {
                    AccessSpec::store(0, len)
                }
                .with_range(offset, len);
                body = body.access(if i % 4 == 3 {
                    spec.in_space(MemSpace::Shared)
                } else {
                    spec
                });
            }
            KernelDesc::new(NAMES[k % NAMES.len()], Dim3::linear(16), Dim3::linear(128)).body(body)
        })
        .collect();
    let mut session = session(Pasta::builder().rtx_3060(), tools);
    let writer = TraceWriter::attach(&session);
    let mut workload = FnWorkload::new("flood", |cx| {
        let s = cx.session();
        let t = s.alloc_tensor(&[(TENSOR_BYTES / 4) as usize], DType::F32)?;
        for _ in 0..rounds {
            for k in &descs {
                s.launch(k.clone().arg(t.ptr, t.bytes))?;
            }
        }
        s.free_tensor(&t);
        Ok(WorkloadStats::new((rounds * descs.len()) as u64))
    });
    session.run(&mut workload).expect("flood runs");
    let trace = writer.finish(&session);
    (trace, session.merged_report())
}

/// `tests/trace_errors.rs`'s fixture: two shards, symbols, deltas, a UVM
/// footer.
fn errors_fixture() -> Trace {
    let shard0 = [
        Event::KernelLaunchBegin {
            launch: LaunchId(0),
            device: DeviceId(0),
            stream: 1,
            name: "ampere_sgemm".into(),
            grid: Dim3::linear(64),
            block: Dim3::linear(128),
        },
        Event::Barrier {
            launch: LaunchId(0),
            count: 512,
            cluster: false,
        },
        Event::KernelLaunchEnd {
            launch: LaunchId(0),
            device: DeviceId(0),
            name: "ampere_sgemm".into(),
            start: SimTime(1_000),
            end: SimTime(9_000),
        },
    ];
    let shard1 = [
        Event::UvmFault {
            launch: LaunchId(1),
            device: DeviceId(1),
            groups: 3,
            migrated_bytes: 1 << 20,
            evicted_bytes: 0,
            stall_ns: 700,
            at: SimTime(2_000),
        },
        Event::Sync {
            device: DeviceId(1),
            at: SimTime(2_500),
        },
    ];
    let uvm = UvmReport {
        stats: UvmStats {
            fault_groups: 3,
            demand_pages_in: 256,
            fault_stall_ns: 700,
            ..UvmStats::default()
        },
        per_device: vec![(DeviceId(1), UvmStats::default())],
        peer_bytes: vec![((DeviceId(0), DeviceId(1)), 4096)],
    };
    Trace::from_shards(
        [
            (DeviceId(0), shard0.as_slice()),
            (DeviceId(1), shard1.as_slice()),
        ],
        Some(&uvm),
    )
}

// ---------------------------------------------------------------------------
// Differential: new decoder == reference decoder
// ---------------------------------------------------------------------------

/// `TraceReader::parse` with the reference decoder under the same framing
/// walk: every shard's events.
fn reference_parse(bytes: &[u8]) -> Result<Vec<Vec<Event>>, TraceError> {
    let framed = Framed::read(bytes)?;
    let mut shards = Vec::new();
    for (shard, names) in framed.dictionaries() {
        let mut cur = reference::Cursor::new(bytes);
        cur.take(shard.payload.start).expect("the framing held");
        let mut decoder = reference::ShardDecoder::new(names);
        let mut events = Vec::new();
        for _ in 0..shard.records {
            events.push(decoder.decode(&mut cur)?);
        }
        if cur.pos() != shard.payload.end {
            return Err(TraceError::Corrupt {
                offset: cur.pos(),
                what: "shard payload length mismatch".into(),
            });
        }
        shards.push(events);
    }
    Ok(shards)
}

/// What two readers must agree on for damaged input: the error's variant
/// and the offset it names.
fn failure(e: &TraceError) -> (&'static str, usize) {
    match e {
        TraceError::BadMagic { .. } => ("bad-magic", 0),
        TraceError::UnsupportedVersion { found, .. } => ("version", *found as usize),
        TraceError::Truncated { offset } => ("truncated", *offset),
        TraceError::Corrupt { offset, .. } => ("corrupt", *offset),
        TraceError::UnforkableTools => ("unforkable", 0),
        TraceError::Io(_) => ("io", 0),
    }
}

/// Parses `bytes` with both decoders and holds them to one answer.
fn assert_decoders_agree(bytes: &[u8], case: &dyn Fn() -> String) {
    let new = TraceReader::parse(bytes);
    let old = reference_parse(bytes);
    match (&new, &old) {
        (Ok(new), Ok(old)) => {
            let new: Vec<&Vec<Event>> = new.shards().iter().map(|s| &s.events).collect();
            let old: Vec<&Vec<Event>> = old.iter().collect();
            assert_eq!(new, old, "{}: events differ", case());
        }
        (Err(new), Err(old)) => assert_eq!(failure(new), failure(old), "{}", case()),
        _ => panic!(
            "{}: decode_batch says {:?}, the reference {:?}",
            case(),
            new.as_ref().map(|_| "ok"),
            old.as_ref().map(|_| "ok")
        ),
    }
}

const NAMES: [&str; 7] = [
    "",
    "gemm",
    "ampere_sgemm_128x64_tn",
    "αβγ_kernel·∇",
    "layer/0/attention",
    "mem_prefetch",
    "a",
];

/// Number of `Event` variants [`any_event`] covers.
const VARIANTS: u64 = 31;

fn any_batch(w: &mut Words) -> AccessBatch {
    AccessBatch {
        launch: LaunchId(w.wide()),
        spec_index: w.wide() as usize,
        base: w.wide(),
        len: w.wide(),
        records: w.wide(),
        bytes: w.wide(),
        elem_size: w.wide() as u32,
        kind: [AccessKind::Load, AccessKind::Store, AccessKind::Atomic][w.below(3) as usize],
        space: [
            MemSpace::Global,
            MemSpace::Shared,
            MemSpace::RemoteShared,
            MemSpace::Local,
        ][w.below(4) as usize],
        pattern: match w.below(3) {
            0 => AccessPattern::Sequential,
            1 => AccessPattern::Strided { stride: w.wide() },
            _ => AccessPattern::Random,
        },
    }
}

/// One event of variant `variant`, every field drawn from `w`: ids and
/// clocks are raw words, so a stream of these is non-monotone throughout.
fn any_event(variant: u64, w: &mut Words) -> Event {
    let name = |w: &mut Words| -> Symbol { NAMES[w.below(NAMES.len() as u64) as usize].into() };
    let dev = |w: &mut Words| DeviceId(w.wide() as u32);
    let launch = |w: &mut Words| LaunchId(w.wide());
    let at = |w: &mut Words| SimTime(w.wide());
    let dim = |w: &mut Words| Dim3::new(w.wide() as u32, w.wide() as u32, w.wide() as u32);
    match variant {
        0 => Event::DriverApi {
            name: name(w),
            device: dev(w),
            at: at(w),
        },
        1 => Event::RuntimeApi {
            name: name(w),
            device: dev(w),
            at: at(w),
        },
        2 => Event::Sync {
            device: dev(w),
            at: at(w),
        },
        3 => Event::KernelLaunchBegin {
            launch: launch(w),
            device: dev(w),
            stream: w.wide() as u32,
            name: name(w),
            grid: dim(w),
            block: dim(w),
        },
        4 => Event::KernelLaunchEnd {
            launch: launch(w),
            device: dev(w),
            name: name(w),
            start: at(w),
            end: at(w),
        },
        5 => Event::MemCopy {
            device: dev(w),
            direction: [
                CopyDirection::HostToDevice,
                CopyDirection::DeviceToHost,
                CopyDirection::DeviceToDevice,
                CopyDirection::HostToHost,
            ][w.below(4) as usize],
            bytes: w.wide(),
            at: at(w),
        },
        6 => Event::MemSet {
            device: dev(w),
            addr: w.wide(),
            bytes: w.wide(),
            at: at(w),
        },
        7 => Event::ResourceAlloc {
            device: dev(w),
            addr: w.wide(),
            bytes: w.wide(),
            managed: w.below(2) == 1,
            at: at(w),
        },
        8 => Event::ResourceFree {
            device: dev(w),
            addr: w.wide(),
            bytes: w.wide(),
            at: at(w),
        },
        9 => Event::BatchMemOp {
            device: dev(w),
            op: name(w),
            addr: w.wide(),
            bytes: w.wide(),
            at: at(w),
        },
        10 => Event::UvmFault {
            launch: launch(w),
            device: dev(w),
            groups: w.wide(),
            migrated_bytes: w.wide(),
            evicted_bytes: w.wide(),
            stall_ns: w.wide(),
            at: at(w),
        },
        11 => Event::UvmPeerMigrate {
            launch: launch(w),
            src: dev(w),
            dst: dev(w),
            duplicated_pages: w.wide(),
            invalidated_pages: w.wide(),
            bytes: w.wide(),
            stall_ns: w.wide(),
            at: at(w),
        },
        12 => Event::BlockBoundary {
            launch: launch(w),
            count: w.wide(),
        },
        13 => Event::GlobalAccess {
            launch: launch(w),
            kernel: name(w),
            batch: any_batch(w),
        },
        14 => Event::SharedAccess {
            launch: launch(w),
            kernel: name(w),
            batch: any_batch(w),
        },
        15 => Event::Barrier {
            launch: launch(w),
            count: w.wide(),
            cluster: w.below(2) == 1,
        },
        16 => Event::DeviceFuncCall {
            launch: launch(w),
            count: w.wide(),
        },
        17 => Event::DeviceMalloc {
            launch: launch(w),
            bytes: w.wide(),
        },
        18 => Event::DeviceFree {
            launch: launch(w),
            bytes: w.wide(),
        },
        19 => Event::GlobalToSharedCopy {
            launch: launch(w),
            bytes: w.wide(),
        },
        20 => Event::PipelineOp {
            launch: launch(w),
            count: w.wide(),
        },
        21 => Event::Instructions {
            launch: launch(w),
            count: w.wide(),
        },
        22 => Event::KernelTrace {
            launch: launch(w),
            kernel: name(w),
            summary: KernelTraceSummary {
                global_records: w.wide(),
                shared_records: w.wide(),
                barriers: w.wide(),
                blocks: w.wide(),
                instructions: w.wide(),
                global_bytes: w.wide(),
            },
        },
        23 => Event::OpStart {
            seq: w.wide(),
            name: name(w),
            device: dev(w),
            py_stack: (0..w.below(5))
                .map(|_| {
                    let file = NAMES[w.below(NAMES.len() as u64) as usize];
                    let func = NAMES[w.below(NAMES.len() as u64) as usize];
                    PyFrame::new(file, w.wide() as u32, func)
                })
                .collect(),
        },
        24 => Event::OpEnd {
            seq: w.wide(),
            name: name(w),
            device: dev(w),
        },
        25 => Event::TensorAlloc {
            tensor: TensorId(w.wide()),
            addr: w.wide(),
            bytes: w.wide(),
            allocated_total: w.wide(),
            reserved_total: w.wide(),
            device: dev(w),
        },
        26 => Event::TensorFree {
            tensor: TensorId(w.wide()),
            addr: w.wide(),
            bytes: w.wide(),
            allocated_total: w.wide(),
            reserved_total: w.wide(),
            device: dev(w),
        },
        27 => Event::LayerBoundary {
            name: name(w),
            index: w.wide() as usize,
            device: dev(w),
        },
        28 => Event::PassBoundary {
            pass: [Pass::Forward, Pass::Backward, Pass::Optimizer][w.below(3) as usize],
            device: dev(w),
        },
        29 => Event::RegionStart {
            label: name(w),
            device: dev(w),
        },
        30 => Event::RegionEnd {
            label: name(w),
            device: dev(w),
        },
        _ => unreachable!("variant selector out of range"),
    }
}

#[test]
fn decode_batch_matches_the_reference_event_for_event() {
    for seed in 0..96 {
        let mut w = Words(seed);
        let nshards = 1 + w.below(3) as usize;
        let mut shards: Vec<Vec<Event>> = vec![Vec::new(); nshards];
        // The first 31 events are one of each variant; the rest are drawn.
        let len = VARIANTS + w.below(120);
        for i in 0..len {
            let variant = if i < VARIANTS { i } else { w.below(VARIANTS) };
            let event = any_event(variant, &mut w);
            shards[i as usize % nshards].push(event);
        }
        let trace = Trace::from_shards(
            shards
                .iter()
                .enumerate()
                .map(|(d, events)| (DeviceId(d as u32), events.as_slice())),
            None,
        );
        let new = TraceReader::parse(trace.as_bytes()).expect("own encoding parses");
        let old = reference_parse(trace.as_bytes()).expect("the reference reads it too");
        for (d, events) in shards.iter().enumerate() {
            assert_eq!(&new.shards()[d].events, events, "seed {seed} shard {d}");
            assert_eq!(&old[d], events, "seed {seed} shard {d}: the reference");
        }
        // Batch boundaries change nothing: the fused replay's decoder
        // state carries over them.
        let framed = Framed::read(trace.as_bytes()).expect("frames");
        for (mut records, events) in framed.shards().zip(&shards) {
            let mut out = Vec::new();
            while records.decode(&mut out, 7).expect("decodes") {}
            assert_eq!(&out, events, "seed {seed}: in batches of 7");
        }
    }
}

/// Every strict prefix and every single-bit flip of `bytes`.
fn for_each_damage(bytes: &[u8], mut check: impl FnMut(&[u8], &dyn Fn() -> String)) {
    for cut in 0..bytes.len() {
        check(&bytes[..cut], &|| format!("cut at {cut}"));
    }
    let mut flipped = bytes.to_vec();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            flipped[at] ^= 1 << bit;
            check(&flipped, &|| format!("bit {bit} of byte {at} flipped"));
            flipped[at] ^= 1 << bit;
        }
    }
}

#[test]
fn damaged_traces_fail_alike_under_both_decoders_and_size_nothing() {
    let fixture = errors_fixture();
    let (shard, _) = flood(2, 16, 1);
    assert!(
        TraceReader::parse(shard.as_bytes())
            .expect("parses")
            .events_total()
            > 30,
        "the flood shard holds access, barrier and boundary records"
    );
    LARGEST.with(|largest| largest.set(0));
    for trace in [&fixture, &shard] {
        for_each_damage(trace.as_bytes(), |bytes, case| {
            assert_decoders_agree(bytes, case);
            // The header walk meets framing damage exactly as `parse`
            // does, and damage it cannot see is damage to a record.
            match (TraceReader::scan(bytes), TraceReader::parse(bytes)) {
                (Err(scan), Err(parse)) => {
                    assert_eq!(failure(&scan), failure(&parse), "{}", case())
                }
                (Ok(_), _) => {}
                (Err(scan), Ok(_)) => panic!("{}: scan refuses ({scan}) what parses", case()),
            }
        });
    }
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest < 1 << 20,
        "a {largest}-byte allocation was requested"
    );
}

#[test]
fn a_lying_shard_count_reserves_for_the_bytes_present() {
    let mut bytes = errors_fixture().into_bytes();
    bytes[12..16].copy_from_slice(&(1u32 << 16).to_le_bytes());
    LARGEST.with(|largest| largest.set(0));
    assert!(matches!(
        TraceReader::scan(&bytes),
        Err(TraceError::Truncated { .. } | TraceError::Corrupt { .. })
    ));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest < 16 << 10,
        "a {largest}-byte allocation for a {}-byte trace",
        bytes.len()
    );
}

// ---------------------------------------------------------------------------
// Identity: fused == decoded == live
// ---------------------------------------------------------------------------

/// Replays `trace` through fresh `tools()` by every route and batch size
/// and returns the one report they all gave.
fn replayed_every_way(trace: &Trace, tools: &dyn Fn() -> ToolCollection) -> MergedReport {
    let reader = TraceReader::parse(trace.as_bytes()).expect("parses");
    let mut decoded_tools = tools();
    let decoded = replay_decoded(&reader, &mut decoded_tools).expect("replays decoded");
    let longest = reader.shards().iter().map(|s| s.events.len()).max();
    let past_the_shard = longest.expect("a trace has shards") + 1;
    for batch in [1, 7, past_the_shard] {
        let mut fused_tools = tools();
        let fused = replay_batched(trace.as_bytes(), &mut fused_tools, batch).expect("replays");
        assert_eq!(fused, decoded, "fused at batch {batch} != parse + replay");
        assert_eq!(
            fused.to_string(),
            decoded.to_string(),
            "rendered, batch {batch}"
        );
        assert_eq!(
            fused_tools.reports(),
            decoded_tools.reports(),
            "the collection handed back, batch {batch}"
        );
    }
    let mut public_tools = tools();
    assert_eq!(
        replay(trace, &mut public_tools).expect("replays"),
        decoded,
        "the public entry"
    );
    decoded
}

#[test]
fn fused_replay_of_the_flood_is_the_decoded_replay_is_the_live_report() {
    let (trace, live) = flood(6, 40, 1);
    let replayed = replayed_every_way(&trace, &|| collection(suite()));
    assert_eq!(replayed, live);
    assert_eq!(replayed.to_string(), live.to_string());
}

#[test]
fn fused_replay_of_a_two_lane_data_parallel_trace_is_the_live_report() {
    let mut session = session(Pasta::builder().a100_x2(), suite());
    let writer = TraceWriter::attach(&session);
    session
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            parallel::train_iter(lanes, Parallelism::Data, 1).map(|_| ())
        })
        .expect("parallel run succeeds");
    let trace = writer.finish(&session);
    let live = session.merged_report();
    assert_eq!(live.per_device.len(), 2, "two shards merged live");
    let replayed = replayed_every_way(&trace, &|| collection(suite()));
    assert_eq!(replayed, live);
    assert_eq!(replayed.to_string(), live.to_string());
}

#[test]
fn fused_replay_of_a_salvaged_trace_is_the_decoded_replay() {
    quiet_injected_panics();
    let mut session = session(
        Pasta::builder().rtx_3060(),
        vec![Box::<LaunchCounter>::default()],
    );
    let writer = TraceWriter::attach(&session);
    let mut doomed = FnWorkload::new("doomed", |cx| {
        for _ in 0..4 {
            cx.launch_kernel(
                KernelDesc::new("pre_crash", Dim3::linear(4), Dim3::linear(64))
                    .body(KernelBody::compute(1 << 16)),
            )?;
        }
        panic!("fault-injection: workload dies mid-run");
    });
    let err = session.run(&mut doomed).expect_err("the workload panicked");
    assert!(matches!(err, PastaError::Salvaged(_)), "{err:?}");
    let trace = writer.abort();
    let counter = || collection(vec![Box::<LaunchCounter>::default()]);
    let replayed = replayed_every_way(&trace, &counter);
    assert!(replayed.uvm.is_none(), "abort writes no UVM footer");
    assert_eq!(replayed.tools, session.merged_report().tools);
    assert_eq!(replayed.tools[0].get("launches"), Some(4.0));
}

/// Panics on its `n`th global access; silent before and after.
struct DiesOnAccess {
    n: u64,
    seen: u64,
}

impl Tool for DiesOnAccess {
    fn name(&self) -> &str {
        "dies-on-access"
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, event: &Event) {
        if let Event::GlobalAccess { .. } = event {
            self.seen += 1;
            if self.seen == self.n {
                panic!("fault-injection: access {} kills the tool", self.n);
            }
        }
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(DiesOnAccess { n: self.n, seen: 0 }))
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Keeps the injected panics of this file off the test output.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !message.is_some_and(|m| m.contains("fault-injection")) {
                default(info);
            }
        }));
    });
}

#[test]
fn a_tool_that_panics_mid_stream_reads_the_same_live_decoded_and_fused() {
    quiet_injected_panics();
    let tools = || -> Vec<Box<dyn Tool>> {
        vec![
            Box::new(HotnessTool::new(64)),
            Box::new(DiesOnAccess { n: 50, seen: 0 }),
            Box::new(MemoryCharacteristicsTool::new()),
        ]
    };
    let (trace, live) = flood_under(tools(), 4, 40, 1);
    assert_eq!(live.quarantined.len(), 1, "the tool was quarantined live");
    assert!(live.quarantined[0].message.contains("access 50 kills"));

    let replayed = replayed_every_way(&trace, &|| collection(tools()));
    assert_eq!(replayed.quarantined, live.quarantined);
    let health = |report: &MergedReport| {
        let rendered = report.to_string();
        let at = rendered.find("== health ==").expect("a health section");
        rendered[at..].to_owned()
    };
    assert_eq!(health(&replayed), health(&live));
    assert_eq!(replayed, live, "and the siblings' reports with it");
}

#[test]
fn a_corrupt_record_hands_back_the_analysed_prefix() {
    // Nine launches, then a three-byte record (tag, pass, device) whose tag
    // gets smashed: the framing still holds, and every event before the
    // bad record is sound.
    let mut events: Vec<Event> = (0..9)
        .map(|launch| Event::KernelLaunchEnd {
            launch: LaunchId(launch),
            device: DeviceId(0),
            name: "k".into(),
            start: SimTime(launch * 100),
            end: SimTime(launch * 100 + 80),
        })
        .collect();
    events.push(Event::PassBoundary {
        pass: Pass::Forward,
        device: DeviceId(0),
    });
    let trace = Trace::from_shards([(DeviceId(0), events.as_slice())], None);
    let payload = TraceReader::scan(trace.as_bytes()).expect("scans").shards[0]
        .payload
        .clone();
    let mut bytes = trace.as_bytes().to_vec();
    bytes[payload.end - 3] = 0xee;
    let parse_error = TraceReader::parse(&bytes).expect_err("the record is corrupt");
    assert_eq!(failure(&parse_error), ("corrupt", payload.end - 2));

    let counter = || collection(vec![Box::<LaunchCounter>::default()]);
    for batch in [1, 7, events.len() + 1] {
        let mut tools = counter();
        let err = replay_batched(&bytes, &mut tools, batch).expect_err("the record is corrupt");
        assert_eq!(failure(&err), failure(&parse_error), "batch {batch}");
        assert_eq!(
            tools.reports()[0].get("launches"),
            Some(9.0),
            "batch {batch}: every event before the bad record was analysed"
        );
    }
    // Damage the framing can see is refused before any tool runs.
    let mut tools = counter();
    let cut = &trace.as_bytes()[..trace.len() - 1];
    assert!(matches!(
        replay_batched(cut, &mut tools, 7),
        Err(TraceError::Truncated { .. })
    ));
    assert_eq!(tools.reports()[0].get("launches"), Some(0.0));
}

// ---------------------------------------------------------------------------
// Memory: replay allocates O(batch), not O(trace)
// ---------------------------------------------------------------------------

#[test]
fn fused_replay_peaks_at_one_batch_however_long_the_trace() {
    let counter = || collection(vec![Box::<LaunchCounter>::default()]);
    let (short, _) = flood(6, 40, 1);
    let (long, _) = flood(6, 40, 16);
    let events = |trace: &Trace| {
        TraceReader::scan(trace.as_bytes())
            .expect("scans")
            .events_total()
    };
    assert!(events(&long) > 15 * events(&short), "sixteen rounds of it");

    let fused = |trace: &Trace| {
        let mut tools = counter();
        let (report, peak) = peak_heap_of(|| replay(trace, &mut tools));
        report.expect("replays");
        peak
    };
    let (short_peak, long_peak) = (fused(&short), fused(&long));
    let one_batch = 256 * std::mem::size_of::<Event>();
    assert!(
        long_peak.abs_diff(short_peak) <= one_batch,
        "16x the events moved the peak from {short_peak} to {long_peak} bytes"
    );

    // The meter does see a trace held decoded.
    let (_, decoded_peak) = peak_heap_of(|| {
        let reader = TraceReader::parse(long.as_bytes()).expect("parses");
        replay_decoded(&reader, &mut counter()).expect("replays")
    });
    assert!(
        decoded_peak > 8 * long_peak,
        "decoded {decoded_peak} vs fused {long_peak}"
    );

    // And the header walk allocates for the shards alone.
    let (_, scan_peak) = peak_heap_of(|| TraceReader::scan(long.as_bytes()).expect("scans"));
    assert!(scan_peak < 1 << 10, "scan held {scan_peak} bytes");
}
