//! Malformed-trace regression suite (ISSUE 6, satellite 1).
//!
//! Readers treat trace bytes as untrusted input: wrong magic, a format
//! version other than this build's (a v1 trace included), truncation at
//! *any* byte offset, a smashed end marker, trailing garbage, a bad tag,
//! enum code or symbol id, a record its payload cuts short — each yields
//! a typed [`TraceError`], never a panic. The truncation loop cuts a
//! valid trace at every single byte offset, which subsumes "several
//! offsets" and pins every mid-record and mid-header cut at once. Format
//! v2's records are fixed-width, so the damage cases below find their
//! bytes by arithmetic from [`TraceReader::scan`]'s payload ranges.

use pasta::core::report::UvmReport;
use pasta::core::{Event, ToolCollection};
use pasta::dl::callbacks::Pass;
use pasta::sim::{
    AccessBatch, AccessKind, AccessPattern, DeviceId, Dim3, LaunchId, MemSpace, SimTime,
};
use pasta::tools::{standard_suite, MemoryTimelineTool};
use pasta::trace::{replay, Trace, TraceError, TraceReader, FORMAT_VERSION};
use pasta::uvm::UvmStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, remembering the largest single request: how
/// the inflated-count case shows that a lying length sized nothing.
/// Every trace in this file is a few hundred bytes, so whichever tests
/// share the process, the mark stays small unless a parse over-allocates.
struct LargestRequest;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed counter.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

/// A small but representative trace: two shards, symbols, clocks, a UVM
/// footer.
fn valid_trace() -> Trace {
    let shard0 = vec![
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
    let shard1 = vec![
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

#[test]
fn the_fixture_itself_parses() {
    let reader = TraceReader::parse(valid_trace().as_bytes()).expect("valid trace parses");
    assert_eq!(reader.shards().len(), 2);
    assert_eq!(reader.events_total(), 5);
    assert!(reader.uvm().is_some());
}

#[test]
fn truncation_at_every_byte_offset_is_a_typed_error_never_a_panic() {
    let bytes = valid_trace().into_bytes();
    for cut in 0..bytes.len() {
        match TraceReader::parse(&bytes[..cut]) {
            Ok(_) => panic!("truncated at byte {cut}: a strict prefix must never parse"),
            // Cuts inside the magic are Truncated; anywhere later they are
            // Truncated or (when a length field now disagrees with the
            // remaining bytes) Corrupt. Never an Io error, never a panic.
            Err(TraceError::Truncated { .. } | TraceError::Corrupt { .. }) => {}
            Err(other) => panic!("truncated at byte {cut}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_reported_with_the_found_bytes() {
    let mut bytes = valid_trace().into_bytes();
    bytes[0] = b'X';
    match TraceReader::parse(&bytes) {
        Err(TraceError::BadMagic { found }) => assert_eq!(found[0], b'X'),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn future_format_version_is_rejected() {
    let mut bytes = valid_trace().into_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    match TraceReader::parse(&bytes) {
        Err(TraceError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 99);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// Where shard `shard`'s records lie in `bytes`.
fn payload(bytes: &[u8], shard: usize) -> std::ops::Range<usize> {
    let summary = TraceReader::scan(bytes).expect("the fixture scans");
    summary.shards[shard].payload.clone()
}

/// `bytes` with the first shard's record count replaced by `records`; also
/// returns where its payload starts. The count and the payload length are
/// the two `u64`s just ahead of the payload.
fn with_record_count(bytes: &[u8], records: u64) -> (Vec<u8>, usize) {
    let start = payload(bytes, 0).start;
    let mut out = bytes.to_vec();
    out[start - 16..start - 8].copy_from_slice(&records.to_le_bytes());
    (out, start)
}

#[test]
fn inflated_record_count_is_corruption_and_sizes_nothing() {
    let bytes = valid_trace().into_bytes();
    let (same, _) = with_record_count(&bytes, 3);
    assert_eq!(same, bytes, "shard 0 of the fixture holds three records");
    let payload_len = payload(&bytes, 0).len() as u64;
    // From one record too many for the payload to hold — no record is
    // shorter than six bytes (`PassBoundary`: tag, pass, device) — up to
    // counts whose reservation alone would abort the process.
    for records in [
        payload_len / 6 + 1,
        payload_len,
        payload_len + 1,
        1 << 40,
        u64::MAX,
    ] {
        let (lying, payload_start) = with_record_count(&bytes, records);
        match TraceReader::parse(&lying) {
            Err(TraceError::Corrupt { offset, what }) => {
                assert_eq!(offset, payload_start, "{what}");
                assert!(what.contains(&format!("{records} records")), "{what}");
            }
            other => panic!("{records} records: expected Corrupt, got {other:?}"),
        }
    }
    let largest = LARGEST_REQUEST.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 20,
        "a {largest}-byte allocation was requested"
    );
}

/// A format-1 trace — the version field set back to 1 — is refused by
/// every reader before it reads anything else, with the typed error that
/// names both versions.
#[test]
fn a_version_1_trace_is_refused_by_every_reader() {
    let mut bytes = valid_trace().into_bytes();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let refused = |e: TraceError| match e {
        TraceError::UnsupportedVersion {
            found: 1,
            supported,
        } => {
            assert_eq!(supported, FORMAT_VERSION);
            assert_eq!(supported, 2);
            e.to_string()
        }
        other => panic!("expected UnsupportedVersion {{ found: 1 }}, got {other:?}"),
    };
    let parse = refused(TraceReader::parse(&bytes).expect_err("v1 is refused"));
    let scan = refused(TraceReader::scan(&bytes).expect_err("v1 is refused"));
    let loaded = Trace::from_bytes(bytes);
    let mut tools: ToolCollection = standard_suite().into_iter().collect();
    let replayed = refused(replay(&loaded, &mut tools).expect_err("v1 is refused"));
    for message in [parse, scan, replayed] {
        assert!(message.contains("version 1"), "{message}");
    }
}

/// The fixture's first record, `KernelLaunchBegin` (tag 3): a tag no
/// variant has, and the full-form flag on a variant with no full form,
/// are corrupt at the tag's own byte.
#[test]
fn a_bad_tag_is_corruption_at_the_tag() {
    let bytes = valid_trace().into_bytes();
    let at = payload(&bytes, 0).start;
    assert_eq!(bytes[at], 3);
    for tag in [31, 0x7f, 3 | 0x80, 0xff] {
        let mut bad = bytes.clone();
        bad[at] = tag;
        match TraceReader::parse(&bad) {
            Err(TraceError::Corrupt { offset, what }) => {
                assert_eq!(offset, at, "{what}");
                assert!(what.contains(&format!("unknown event tag {tag}")), "{what}");
            }
            other => panic!("tag {tag}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A code byte past its enum's codes, and a bool byte past 1, are corrupt
/// at that byte.
#[test]
fn a_bad_enum_code_is_corruption_at_its_byte() {
    let events = [Event::PassBoundary {
        pass: Pass::Backward,
        device: DeviceId(0),
    }];
    let trace = Trace::from_shards([(DeviceId(0), &events[..])], None);
    let mut bytes = trace.into_bytes();
    let pass_at = payload(&bytes, 0).start + 1;
    assert_eq!(bytes[pass_at], 1, "Backward");
    bytes[pass_at] = 3;
    match TraceReader::parse(&bytes) {
        Err(TraceError::Corrupt { offset, what }) => {
            assert_eq!(offset, pass_at);
            assert!(what.contains("bad Pass code 3"), "{what}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // The fixture's `Barrier` (tag, launch, count, then `cluster`) follows
    // the 45-byte `KernelLaunchBegin`.
    let mut bytes = valid_trace().into_bytes();
    let cluster_at = payload(&bytes, 0).start + 45 + 17;
    assert_eq!(bytes[cluster_at], 0, "cluster: false");
    bytes[cluster_at] = 2;
    match TraceReader::parse(&bytes) {
        Err(TraceError::Corrupt { offset, what }) => {
            assert_eq!(offset, cluster_at);
            assert!(what.contains("bad bool byte 2"), "{what}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// `KernelLaunchBegin`'s name id (after tag, launch, device and stream)
/// pointing one past shard 0's one-name dictionary is corrupt at the id.
#[test]
fn a_symbol_id_past_the_dictionary_is_corruption_at_the_id() {
    let mut bytes = valid_trace().into_bytes();
    let at = payload(&bytes, 0).start + 1 + 8 + 4 + 4;
    assert_eq!(bytes[at..at + 4], 0u32.to_le_bytes());
    bytes[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    assert!(TraceReader::scan(&bytes).is_ok(), "the framing still holds");
    match TraceReader::parse(&bytes) {
        Err(TraceError::Corrupt { offset, what }) => {
            assert_eq!(offset, at);
            assert!(what.contains("symbol id 1 past 1 names"), "{what}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Shard 0's payload shortened by three bytes, and its length field with
/// it: the framing holds, and the last record — `KernelLaunchEnd`, cut
/// inside its `end` field — is truncated where the payload now ends, by
/// `parse` and by the fused `replay` alike.
#[test]
fn a_record_cut_mid_field_is_truncated_at_its_payload_end() {
    let bytes = valid_trace().into_bytes();
    let shard0 = payload(&bytes, 0);
    let mut cut = bytes[..shard0.end - 3].to_vec();
    cut.extend_from_slice(&bytes[shard0.end..]);
    let len = shard0.len() as u64 - 3;
    cut[shard0.start - 8..shard0.start].copy_from_slice(&len.to_le_bytes());
    let end = shard0.end - 3;
    assert_eq!(payload(&cut, 0), shard0.start..end, "the framing holds");
    assert!(matches!(
        TraceReader::parse(&cut),
        Err(TraceError::Truncated { offset }) if offset == end
    ));
    let trace = Trace::from_bytes(cut);
    let mut tools: ToolCollection = standard_suite().into_iter().collect();
    assert!(matches!(
        replay(&trace, &mut tools),
        Err(TraceError::Truncated { offset }) if offset == end
    ));
}

#[test]
fn smashed_end_marker_is_corruption() {
    let mut bytes = valid_trace().into_bytes();
    let last = bytes.len() - 1;
    bytes[last] = 0xff;
    assert!(matches!(
        TraceReader::parse(&bytes),
        Err(TraceError::Corrupt { .. })
    ));
}

#[test]
fn trailing_garbage_is_corruption() {
    let mut bytes = valid_trace().into_bytes();
    bytes.push(0);
    assert!(matches!(
        TraceReader::parse(&bytes),
        Err(TraceError::Corrupt { .. })
    ));
}

#[test]
fn empty_input_is_truncated_not_bad_magic() {
    assert!(matches!(
        TraceReader::parse(&[]),
        Err(TraceError::Truncated { .. })
    ));
}

/// A well-formed record can still carry a hostile range: one ending past
/// `u64::MAX` decodes (the codec reads plain `u64`s), and the tools that
/// measure ranges — memchar's working set and hotness — clamp its end at
/// the top of the address space instead of overflowing. Unclamped, a
/// debug build panicked (the tool was quarantined) and a release build
/// wrapped the end below the start and aborted asking for 211 TB. A range
/// that stays inside the address space but spans 2^39 blocks
/// (`len = 1 << 60`) is one hotness cell, not one per block: when hotness
/// kept a cell per block, the replay aborted on that allocation.
#[test]
fn a_range_past_the_address_space_replays_through_the_suite() {
    let access = |launch: u64, base: u64, len: u64| Event::GlobalAccess {
        launch: LaunchId(launch),
        kernel: "hostile".into(),
        batch: AccessBatch {
            launch: LaunchId(launch),
            spec_index: 0,
            base,
            len,
            records: 5,
            bytes: len,
            elem_size: 4,
            kind: AccessKind::Load,
            space: MemSpace::Global,
            pattern: AccessPattern::Sequential,
        },
    };
    let replay_suite = |events: &[Event]| {
        let trace = Trace::from_shards([(DeviceId(0), events)], None);
        let mut tools: ToolCollection = standard_suite().into_iter().collect();
        tools.register(Box::new(MemoryTimelineTool::new()));
        let report = replay(&trace, &mut tools).expect("a well-formed trace replays");
        assert_eq!(tools.quarantines().count(), 0, "no tool panicked");
        let tool = |name: &str| {
            report
                .tools
                .iter()
                .find(|r| r.tool == name)
                .cloned()
                .unwrap_or_else(|| panic!("{name} reports"))
        };
        (tool("memory-characteristics"), tool("hotness"))
    };
    // One hostile event alone, then among 40 ranges of a launch: both
    // sides of memchar's radix cutoff.
    let mut events = vec![access(0, u64::MAX - 10, 100)];
    events.extend((0..40).map(|i| access(1, u64::MAX - 4096 * i, 1 << 20)));
    let (memchar, hotness) = replay_suite(&events);
    assert_eq!(memchar.get("kernel_count"), Some(2.0));
    assert_eq!(memchar.get("min_ws_bytes"), Some(10.0));
    assert_eq!(hotness.get("blocks"), Some(1.0));

    let (memchar, hotness) = replay_suite(&[access(0, 0, 1 << 60)]);
    assert_eq!(memchar.get("min_ws_bytes"), Some((1u64 << 60) as f64));
    assert_eq!(hotness.get("blocks"), Some((1u64 << 39) as f64));
}

#[test]
fn errors_render_human_readable_messages() {
    let display = TraceError::UnsupportedVersion {
        found: 1,
        supported: 2,
    }
    .to_string();
    assert!(display.contains("version 1"), "{display}");
    let display = TraceError::Truncated { offset: 42 }.to_string();
    assert!(display.contains("42"), "{display}");
}
