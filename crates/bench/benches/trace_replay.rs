//! Trace capture + offline replay throughput (ISSUE 6).
//!
//! A representative five-tool suite profiles one scaled BERT inference
//! batch on the simulated RTX 3060 with full fine-grained subscription;
//! the session's normalized event stream is captured once with
//! [`TraceWriter`]. Three measurement families then quantify the
//! capture/analysis decoupling:
//!
//! * `capture/encode` — serializing the captured stream into trace bytes
//!   (events/s through the shard encoder; the hot-path cost a live
//!   capture adds per event).
//! * `replay/parse+replay` and `replay/decoded` — full offline analysis
//!   from bytes (parse + replay) and from a pre-parsed reader (replay
//!   only), both driving a fresh tool suite to a merged report.
//! * `live/dispatch` — the same events through the same fresh suite via
//!   direct processor dispatch: the analysis cost a live run pays while
//!   the workload waits. Replay at or above this rate means analysis
//!   cost moved entirely off the profiled run.
//!
//! The startup banner prints the stream size and bytes/event on disk.
//! Numbers land in `BENCH_trace_replay.json`; run with
//! `cargo bench -p pasta-bench --bench trace_replay`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::processor::EventProcessor;
use pasta_core::tool::ToolCollection;
use pasta_core::{Event, ModelWorkload, Pasta, PastaSession};
use pasta_tools::standard_suite;
use pasta_trace::{replay, replay_decoded, Trace, TraceReader, TraceWriter};

fn session() -> PastaSession {
    Pasta::builder()
        .rtx_3060()
        .tools(standard_suite())
        .build()
        .expect("session builds")
}

/// Captures one profiled run and returns the trace plus the decoded
/// per-shard streams (for the encode and live-dispatch legs).
fn captured() -> (Trace, Vec<(accel_sim::DeviceId, Vec<Event>)>) {
    let mut session = session();
    let writer = TraceWriter::attach(&session);
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8))
        .expect("profiled run succeeds");
    let trace = writer.finish(&session);
    let reader = TraceReader::parse(trace.as_bytes()).expect("own trace parses");
    let shards = reader
        .shards()
        .iter()
        .map(|s| (s.device, s.events.clone()))
        .collect();
    (trace, shards)
}

fn fresh_tools() -> ToolCollection {
    standard_suite().into_iter().collect()
}

fn bench_all(c: &mut Criterion) {
    let (trace, shards) = captured();
    let events: u64 = shards.iter().map(|(_, e)| e.len() as u64).sum();
    println!(
        "trace_replay: {} events, {} bytes on disk, {:.2} bytes/event",
        events,
        trace.len(),
        trace.len() as f64 / events as f64
    );

    let mut g = c.benchmark_group("capture");
    g.sample_size(30);
    g.bench_function("encode", |b| {
        b.iter(|| {
            let borrowed: Vec<_> = shards.iter().map(|(d, e)| (*d, e.as_slice())).collect();
            black_box(Trace::from_shards(borrowed, None))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("replay");
    g.sample_size(30);
    g.bench_function("parse+replay", |b| {
        b.iter(|| {
            let mut tools = fresh_tools();
            black_box(replay(&trace, &mut tools).expect("replay succeeds"))
        })
    });
    let reader = TraceReader::parse(trace.as_bytes()).expect("parses");
    g.bench_function("decoded", |b| {
        b.iter(|| {
            let mut tools = fresh_tools();
            black_box(replay_decoded(&reader, &mut tools).expect("replay succeeds"))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("live");
    g.sample_size(30);
    g.bench_function("dispatch", |b| {
        b.iter(|| {
            let mut p = EventProcessor::new();
            p.tools = fresh_tools();
            for (_, events) in &shards {
                for event in events {
                    p.process(event);
                }
            }
            black_box(p.events_processed())
        })
    });
    g.finish();
}

criterion_group!(trace_replay, bench_all);
criterion_main!(trace_replay);
