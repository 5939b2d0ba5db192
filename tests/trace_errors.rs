//! Malformed-trace regression suite (ISSUE 6, satellite 1).
//!
//! Readers treat trace bytes as untrusted input: wrong magic, a future
//! format version, truncation at *any* byte offset, a smashed end
//! marker, trailing garbage — each yields a typed [`TraceError`], never
//! a panic. The truncation loop cuts a valid trace at every single byte
//! offset, which subsumes "several offsets" and pins every mid-record
//! and mid-header cut at once.

use pasta::core::report::UvmReport;
use pasta::core::{Event, ToolCollection};
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

/// A small but representative trace: two shards, symbols, deltas, a UVM
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

/// `bytes` with the first shard's record count (one varint byte in the
/// fixture) replaced by `records`; also returns where its payload starts.
fn with_record_count(bytes: &[u8], records: u64) -> (Vec<u8>, usize) {
    // magic, version, shard count, device id; then the dictionary, every
    // count and length in it a single varint byte.
    let mut at = 8 + 4 + 4 + 4;
    let symbols = bytes[at];
    at += 1;
    for _ in 0..symbols {
        assert!(bytes[at] < 0x80, "fixture symbols are short");
        at += 1 + bytes[at] as usize;
    }
    assert_eq!(bytes[at], 3, "shard 0 of the fixture holds three records");
    assert!(bytes[at + 1] < 0x80, "and a payload under 128 bytes");
    let mut out = bytes[..at].to_vec();
    let mut v = records;
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    let payload_start = out.len() + 1;
    out.extend_from_slice(&bytes[at + 1..]);
    (out, payload_start)
}

#[test]
fn inflated_record_count_is_corruption_and_sizes_nothing() {
    let bytes = valid_trace().into_bytes();
    let (same, payload_start) = with_record_count(&bytes, 3);
    assert_eq!(same, bytes, "the helper rewrites the right byte");
    let payload_len = u64::from(bytes[payload_start - 1]);
    // From one record too many for the payload to hold — no record is
    // shorter than three bytes — up to counts whose reservation alone
    // would abort the process.
    for records in [
        payload_len / 3 + 1,
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
/// `u64::MAX` decodes (the codec reads plain varints), and the tools that
/// measure ranges — memchar's working set and hotness — clamp its end at
/// the top of the address space instead of overflowing. Unclamped, a
/// debug build panicked (the tool was quarantined) and a release build
/// wrapped the end below the start and aborted asking for 211 TB.
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
    // One hostile event alone, then among 40 ranges of a launch: both
    // sides of memchar's radix cutoff.
    let mut events = vec![access(0, u64::MAX - 10, 100)];
    events.extend((0..40).map(|i| access(1, u64::MAX - 4096 * i, 1 << 20)));
    let trace = Trace::from_shards([(DeviceId(0), events.as_slice())], None);
    let mut tools: ToolCollection = standard_suite().into_iter().collect();
    tools.register(Box::new(MemoryTimelineTool::new()));
    let report = replay(&trace, &mut tools).expect("a well-formed trace replays");
    assert_eq!(tools.quarantines().count(), 0, "no tool panicked");
    let memchar = report
        .tools
        .iter()
        .find(|r| r.tool == "memory-characteristics")
        .expect("memchar reports");
    assert_eq!(memchar.get("kernel_count"), Some(2.0));
    assert_eq!(memchar.get("min_ws_bytes"), Some(10.0));
    let hotness = report.tools.iter().find(|r| r.tool == "hotness");
    assert_eq!(hotness.and_then(|r| r.get("blocks")), Some(1.0));
}

#[test]
fn errors_render_human_readable_messages() {
    let display = TraceError::UnsupportedVersion {
        found: 2,
        supported: 1,
    }
    .to_string();
    assert!(display.contains("version 2"), "{display}");
    let display = TraceError::Truncated { offset: 42 }.to_string();
    assert!(display.contains("42"), "{display}");
}
