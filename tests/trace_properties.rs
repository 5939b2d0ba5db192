//! Property suite for the trace codec (ISSUE 6, satellite 3).
//!
//! `encode → decode` must be lossless over *arbitrary* event streams:
//! every [`Event`] variant, arbitrary symbols (empty, unicode, shared,
//! distinct), arbitrary `u64` payloads, and timestamps that are not
//! monotone — neither within a shard nor across shards, exactly what a
//! multi-lane capture interleaves.
//!
//! Encoder and decoder are generated from one event table, each record
//! its row's tag and then its fields as their types encode, so a variant
//! cannot reach [`Event`] without a codec. What that leaves to pin here:
//! [`every_variant_round_trips`] drives one of each through the full
//! pipeline, and [`trace_bytes_match_the_wire_golden`] pins the bytes
//! themselves, which a round trip through a drifted encoder and its
//! equally drifted decoder would not notice.

mod common;

use pasta::core::Event;
use pasta::dl::callbacks::Pass;
use pasta::dl::pycall::PyFrame;
use pasta::dl::tensor::TensorId;
use pasta::sim::{
    AccessBatch, AccessKind, AccessPattern, DeviceId, Dim3, KernelTraceSummary, LaunchId, MemSpace,
    SimTime, Symbol,
};
use pasta::trace::{Trace, TraceReader, TraceWriter};
use proptest::prelude::*;

/// Number of [`Event`] variants the generator below covers.
const VARIANTS: usize = 31;

/// Symbol palette: empty, ascii, unicode, and collision-prone names.
const NAMES: [&str; 7] = [
    "",
    "gemm",
    "ampere_sgemm_128x64_tn",
    "αβγ_kernel·∇",
    "layer/0/attention",
    "mem_prefetch",
    "a",
];

fn name(a: u64) -> &'static str {
    NAMES[(a % NAMES.len() as u64) as usize]
}

fn dev(a: u64) -> DeviceId {
    DeviceId((a % 8) as u32)
}

fn batch(a: u64, b: u64, c: u64) -> AccessBatch {
    AccessBatch {
        launch: LaunchId(b),
        spec_index: (a % 7) as usize,
        base: a,
        len: b,
        records: c,
        bytes: a ^ b,
        elem_size: (c % 16) as u32,
        kind: match a % 3 {
            0 => AccessKind::Load,
            1 => AccessKind::Store,
            _ => AccessKind::Atomic,
        },
        space: match b % 4 {
            0 => MemSpace::Global,
            1 => MemSpace::Shared,
            2 => MemSpace::RemoteShared,
            _ => MemSpace::Local,
        },
        pattern: match c % 3 {
            0 => AccessPattern::Sequential,
            1 => AccessPattern::Strided { stride: a ^ c },
            _ => AccessPattern::Random,
        },
    }
}

/// Deterministically builds one event of the selected variant from three
/// arbitrary words — timestamps and ids are raw `u64`s, so streams are
/// wildly non-monotone by construction.
fn make_event(variant: usize, a: u64, b: u64, c: u64) -> Event {
    match variant {
        0 => Event::DriverApi {
            name: name(a).into(),
            device: dev(b),
            at: SimTime(c),
        },
        1 => Event::RuntimeApi {
            name: name(a).into(),
            device: dev(b),
            at: SimTime(c),
        },
        2 => Event::Sync {
            device: dev(a),
            at: SimTime(c),
        },
        3 => Event::KernelLaunchBegin {
            launch: LaunchId(a),
            device: dev(b),
            stream: (b % 17) as u32,
            name: name(c).into(),
            grid: Dim3::new((a % 65_536) as u32, (b % 64) as u32, (c % 8) as u32),
            block: Dim3::linear((c % 1_024) as u32),
        },
        4 => Event::KernelLaunchEnd {
            launch: LaunchId(a),
            device: dev(b),
            name: name(a).into(),
            start: SimTime(b),
            end: SimTime(c),
        },
        5 => Event::MemCopy {
            device: dev(a),
            direction: match a % 4 {
                0 => pasta::sim::CopyDirection::HostToDevice,
                1 => pasta::sim::CopyDirection::DeviceToHost,
                2 => pasta::sim::CopyDirection::DeviceToDevice,
                _ => pasta::sim::CopyDirection::HostToHost,
            },
            bytes: b,
            at: SimTime(c),
        },
        6 => Event::MemSet {
            device: dev(a),
            addr: b,
            bytes: c,
            at: SimTime(a ^ b),
        },
        7 => Event::ResourceAlloc {
            device: dev(a),
            addr: b,
            bytes: c,
            managed: a & 1 == 1,
            at: SimTime(c),
        },
        8 => Event::ResourceFree {
            device: dev(a),
            addr: b,
            bytes: c,
            at: SimTime(b ^ c),
        },
        9 => Event::BatchMemOp {
            device: dev(a),
            op: name(b).into(),
            addr: b,
            bytes: c,
            at: SimTime(a),
        },
        10 => Event::UvmFault {
            launch: LaunchId(a),
            device: dev(b),
            groups: a % 1_000,
            migrated_bytes: b,
            evicted_bytes: c,
            stall_ns: a ^ c,
            at: SimTime(c),
        },
        11 => Event::UvmPeerMigrate {
            launch: LaunchId(a),
            src: dev(b),
            dst: dev(c),
            duplicated_pages: a,
            invalidated_pages: b,
            bytes: c,
            stall_ns: b ^ c,
            at: SimTime(a),
        },
        12 => Event::BlockBoundary {
            launch: LaunchId(a),
            count: b,
        },
        13 => Event::GlobalAccess {
            launch: LaunchId(a),
            kernel: name(b).into(),
            batch: batch(a, b, c),
        },
        14 => Event::SharedAccess {
            launch: LaunchId(a),
            kernel: name(c).into(),
            batch: batch(c, a, b),
        },
        15 => Event::Barrier {
            launch: LaunchId(a),
            count: b,
            cluster: c & 1 == 1,
        },
        16 => Event::DeviceFuncCall {
            launch: LaunchId(a),
            count: b,
        },
        17 => Event::DeviceMalloc {
            launch: LaunchId(a),
            bytes: b,
        },
        18 => Event::DeviceFree {
            launch: LaunchId(a),
            bytes: b,
        },
        19 => Event::GlobalToSharedCopy {
            launch: LaunchId(a),
            bytes: b,
        },
        20 => Event::PipelineOp {
            launch: LaunchId(a),
            count: b,
        },
        21 => Event::Instructions {
            launch: LaunchId(a),
            count: b,
        },
        22 => Event::KernelTrace {
            launch: LaunchId(a),
            kernel: name(b).into(),
            summary: KernelTraceSummary {
                global_records: a,
                shared_records: b,
                barriers: c,
                blocks: a ^ b,
                instructions: b ^ c,
                global_bytes: a ^ c,
            },
        },
        23 => Event::OpStart {
            seq: a,
            name: name(b).into(),
            device: dev(c),
            py_stack: (0..(a % 4))
                .map(|i| PyFrame::new(name(b + i), ((c + i) % 100_000) as u32, name(a + i)))
                .collect(),
        },
        24 => Event::OpEnd {
            seq: a,
            name: name(b).into(),
            device: dev(c),
        },
        25 => Event::TensorAlloc {
            tensor: TensorId(a),
            addr: b,
            bytes: c,
            allocated_total: a ^ b,
            reserved_total: b ^ c,
            device: dev(a),
        },
        26 => Event::TensorFree {
            tensor: TensorId(a),
            addr: b,
            bytes: c,
            allocated_total: a ^ b,
            reserved_total: b ^ c,
            device: dev(c),
        },
        27 => Event::LayerBoundary {
            name: name(a).into(),
            index: b as usize,
            device: dev(c),
        },
        28 => Event::PassBoundary {
            pass: match a % 3 {
                0 => Pass::Forward,
                1 => Pass::Backward,
                _ => Pass::Optimizer,
            },
            device: dev(b),
        },
        29 => Event::RegionStart {
            label: name(a).into(),
            device: dev(b),
        },
        30 => Event::RegionEnd {
            label: name(a).into(),
            device: dev(b),
        },
        _ => unreachable!("variant selector out of range"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_lossless_over_arbitrary_streams(
        specs in prop::collection::vec(
            (0usize..VARIANTS, any::<u64>(), any::<u64>(), any::<u64>()),
            1..120,
        ),
        nshards in 1usize..4,
    ) {
        // Deal events round-robin across shards: each shard's stream is
        // non-monotone in time on its own, and shard-to-shard timestamps
        // interleave arbitrarily.
        let mut shards: Vec<Vec<Event>> = vec![Vec::new(); nshards];
        for (i, &(variant, a, b, c)) in specs.iter().enumerate() {
            shards[i % nshards].push(make_event(variant, a, b, c));
        }
        let trace = Trace::from_shards(
            shards
                .iter()
                .enumerate()
                .map(|(d, events)| (DeviceId(d as u32), events.as_slice())),
            None,
        );
        let reader = TraceReader::parse(trace.as_bytes()).expect("own encoding parses");
        prop_assert_eq!(reader.shards().len(), nshards);
        for (d, events) in shards.iter().enumerate() {
            prop_assert_eq!(reader.shards()[d].device, DeviceId(d as u32));
            prop_assert_eq!(
                &reader.shards()[d].events,
                events,
                "shard {} diverged after the round trip",
                d
            );
        }
    }
}

/// One of each variant through the full pipeline: if the generator above
/// and the codec disagree about the variant universe, this fails.
#[test]
fn every_variant_round_trips() {
    let events: Vec<Event> = (0..VARIANTS)
        .map(|v| make_event(v, 0xDEAD_BEEF_0BAD_F00D, 7, u64::MAX))
        .collect();
    let trace = Trace::from_shards([(DeviceId(0), events.as_slice())], None);
    let reader = TraceReader::parse(trace.as_bytes()).expect("parses");
    assert_eq!(reader.shards()[0].events, events);
    assert_eq!(reader.events_total() as usize, VARIANTS);
}

/// Symbols decoded from a trace are the process-global table's — the
/// very allocation a live session's events carry — not content-equal
/// copies in a table of the reader's own.
#[test]
fn replayed_symbols_are_the_live_interned_ones() {
    let original = make_event(4, 1, 2, 3); // KernelLaunchEnd carries a Symbol
    let events = [original.clone()];
    let trace = Trace::from_shards([(DeviceId(0), events.as_slice())], None);
    let reader = TraceReader::parse(trace.as_bytes()).expect("parses");
    assert_eq!(reader.symbol_count(), 1, "one distinct dictionary name");
    assert_eq!(reader.shards()[0].events[0], original);
    let Event::KernelLaunchEnd { name: decoded, .. } = &reader.shards()[0].events[0] else {
        panic!("variant 4 is KernelLaunchEnd");
    };
    assert!(Symbol::ptr_eq(decoded, &Symbol::intern(name(1))));
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The wire golden: trace *bytes*, not just a round trip an encoder and
/// decoder could agree on while both drift. The digests were taken before
/// the codec was generated from the event table; a change to any tag,
/// field order or field encoding moves one of them.
#[test]
fn trace_bytes_match_the_wire_golden() {
    // Every variant twice, with words that step times and launch ids both
    // up and down.
    let words = [(0xDEAD_BEEF_0BAD_F00D, 7, u64::MAX), (3, 1 << 40, 5)];
    let events: Vec<Event> = words
        .iter()
        .flat_map(|&(a, b, c)| (0..VARIANTS).map(move |v| make_event(v, a, b, c)))
        .collect();
    let synthetic = Trace::from_shards([(DeviceId(0), events.as_slice())], None);

    let mut session = common::uvm_session();
    let writer = TraceWriter::attach(&session);
    common::tensor_parallel_iteration(&mut session);
    let live = writer.finish(&session);
    let reader = TraceReader::parse(live.as_bytes()).expect("parses");
    let live_events = || reader.shards().iter().flat_map(|s| &s.events);
    assert!(
        live_events().any(|e| matches!(e, Event::OpStart { py_stack, .. } if !py_stack.is_empty()))
    );
    assert!(live_events().any(|e| matches!(e, Event::UvmFault { .. })));
    assert!(live_events().any(|e| matches!(e, Event::UvmPeerMigrate { .. })));

    assert_eq!(
        (fnv1a64(synthetic.as_bytes()), fnv1a64(live.as_bytes())),
        (0x5131_973e_a9ae_ad0a, 0x2af3_af64_1853_d618),
        "trace bytes moved"
    );
}
