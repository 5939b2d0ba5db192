//! Byte-identity round trips for trace capture + replay (ISSUE 6).
//!
//! The acceptance gate of the trace subsystem: a [`MergedReport`]
//! replayed offline from a captured trace must equal the live session's
//! report *byte for byte* — merged tool reports, per-device breakdown,
//! event counts, and the UVM slice — for all three workload shapes:
//!
//! * a sequential single-device run,
//! * a 2-device `run_parallel` Megatron tensor-parallel training
//!   iteration (one stream per shard, stitched under a shared header),
//! * a UVM run whose stream carries `UvmFault` and `UvmPeerMigrate`
//!   events and whose footer carries the manager overlay.
//!
//! Run with `--test-threads=1` in CI next to the concurrency suites.
//!
//! [`MergedReport`]: pasta::core::report::MergedReport

mod common;

use pasta::core::{Event, Pasta, PastaSession, ToolCollection};
use pasta::prelude::*;
use pasta::tools::{standard_suite, suite};
use pasta::trace::{replay, Trace, TraceReader, TraceWriter};

fn suite_session(builder: PastaBuilder) -> PastaSession {
    builder
        .tools(standard_suite())
        .build()
        .expect("session builds")
}

/// A fresh, empty instance of the named suite to replay into.
fn fresh_tools(name: &str) -> ToolCollection {
    suite(name).expect("a listed suite").into_iter().collect()
}

#[test]
fn sequential_run_replays_byte_identically() {
    let mut session = suite_session(Pasta::builder().rtx_3060());
    let writer = TraceWriter::attach(&session);
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8))
        .expect("profiled run succeeds");
    let captured = writer.events_captured();
    let trace = writer.finish(&session);
    let live = session.merged_report();
    assert!(captured > 0, "capture saw the run");
    assert_eq!(
        captured, live.events_processed,
        "the recorder sees exactly the counted events"
    );

    let mut tools = fresh_tools("standard");
    let replayed = replay(&trace, &mut tools).expect("replay succeeds");
    assert_eq!(live, replayed, "offline replay must match live to the byte");

    // The returned collection holds the analyzed state: its reports are
    // the merged reports of the single-shard run.
    assert_eq!(tools.reports(), live.tools);
}

#[test]
fn trace_survives_a_disk_round_trip() {
    let mut session = suite_session(Pasta::builder().rtx_3060());
    let writer = TraceWriter::attach(&session);
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(4))
        .expect("profiled run succeeds");
    let trace = writer.finish(&session);
    let live = session.merged_report();

    let path = std::env::temp_dir().join(format!(
        "pasta_trace_roundtrip_{}.trace",
        std::process::id()
    ));
    trace.save(&path).expect("save succeeds");
    let loaded = Trace::load(&path).expect("load succeeds");
    std::fs::remove_file(&path).ok();
    assert_eq!(trace, loaded, "bytes identical after the disk round trip");

    let mut tools = fresh_tools("standard");
    assert_eq!(live, replay(&loaded, &mut tools).expect("replay succeeds"));
}

#[test]
fn two_device_megatron_run_replays_byte_identically() {
    let mut session = suite_session(Pasta::builder().a100_x2());
    let writer = TraceWriter::attach(&session);
    common::tensor_parallel_iteration(&mut session);
    let trace = writer.finish(&session);
    let live = session.merged_report();
    assert_eq!(live.per_device.len(), 2, "two shards merged live");

    // Two streams under one header, one per device shard, both non-empty.
    let reader = TraceReader::parse(trace.as_bytes()).expect("parses");
    assert_eq!(reader.shards().len(), 2);
    assert_eq!(reader.shards()[0].device, DeviceId(0));
    assert_eq!(reader.shards()[1].device, DeviceId(1));
    for shard in reader.shards() {
        assert!(
            !shard.events.is_empty(),
            "{:?} captured its lane's stream",
            shard.device
        );
    }

    let mut tools = fresh_tools("standard");
    let replayed = replay(&trace, &mut tools).expect("replay succeeds");
    assert_eq!(
        live, replayed,
        "2-device Megatron TP replay must match live to the byte"
    );
}

#[test]
fn uvm_run_replays_byte_identically_with_the_footer_overlay() {
    let mut session = common::uvm_session();
    let writer = TraceWriter::attach(&session);
    common::tensor_parallel_iteration(&mut session);
    let trace = writer.finish(&session);
    let live = session.merged_report();
    let live_uvm = live.uvm.as_ref().expect("uvm attached");
    assert!(live_uvm.stats.pages_in() > 0, "the run faulted pages in");
    assert!(
        live_uvm.stats.peer_pages_in > 0,
        "TP lanes shared a managed range over the peer link"
    );

    // The stream itself carries the managed-memory events...
    let reader = TraceReader::parse(trace.as_bytes()).expect("parses");
    let events: Vec<&Event> = reader.shards().iter().flat_map(|s| &s.events).collect();
    assert!(
        events.iter().any(|e| matches!(e, Event::UvmFault { .. })),
        "trace carries UvmFault events"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::UvmPeerMigrate { .. })),
        "trace carries UvmPeerMigrate events"
    );
    // ...while the manager overlay rides in the footer.
    assert_eq!(reader.uvm(), Some(live_uvm));

    let mut tools = fresh_tools("uvm");
    let replayed = replay(&trace, &mut tools).expect("replay succeeds");
    assert_eq!(
        live, replayed,
        "UVM replay must match live to the byte, footer overlay included"
    );
}

#[test]
fn detach_stops_capture_mid_session() {
    let mut session = suite_session(Pasta::builder().rtx_3060());
    let writer = TraceWriter::attach(&session);
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(4))
        .expect("first run succeeds");
    let trace = writer.finish(&session);
    let after_first = session.merged_report().events_processed;

    // A second run after finish() must not grow the trace.
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(4))
        .expect("second run succeeds");
    assert!(
        session.merged_report().events_processed > after_first,
        "the session kept processing"
    );
    let reader = TraceReader::parse(trace.as_bytes()).expect("parses");
    assert_eq!(
        reader.events_total(),
        after_first,
        "capture stopped at finish(): the trace covers only the first run"
    );
}
