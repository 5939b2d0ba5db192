//! Trace capture + offline replay: profile once, analyze later.
//!
//! Captures one scaled BERT inference run into a binary `.pastatrace`
//! file, then — as an "offline" consumer that never touches the
//! simulator — loads it back and replays the stream through a fresh tool
//! suite. The replayed [`MergedReport`] is asserted equal to the live
//! one, byte for byte.
//!
//! ```sh
//! cargo run --example trace_replay
//! ```
//!
//! [`MergedReport`]: pasta::core::report::MergedReport

use pasta::core::{Pasta, ToolCollection};
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::prelude::*;
use pasta::tools::standard_suite;
use pasta::trace::{replay, Trace, TraceWriter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ── Capture ─────────────────────────────────────────────────────────
    let mut session = Pasta::builder()
        .rtx_3060()
        .tools(standard_suite())
        .build()?;
    let writer = TraceWriter::attach(&session);
    session.run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8))?;
    let trace = writer.finish(&session);
    let live = session.merged_report();

    let path = std::env::temp_dir().join("pasta_example.pastatrace");
    trace.save(&path)?;
    println!(
        "captured {} events into {} ({} bytes, {:.2} bytes/event)",
        live.events_processed,
        path.display(),
        trace.len(),
        trace.len() as f64 / live.events_processed as f64
    );

    // ── Replay (no simulator, no workload — just the trace bytes) ──────
    let loaded = Trace::load(&path)?;
    std::fs::remove_file(&path).ok();

    let mut tools: ToolCollection = standard_suite().into_iter().collect();
    let replayed = replay(&loaded, &mut tools)?;

    assert_eq!(live, replayed, "offline replay matches the live report");
    println!(
        "replayed {} events — reports identical\n",
        replayed.events_processed
    );
    println!("{replayed}");
    Ok(())
}
