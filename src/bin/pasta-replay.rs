//! `pasta-replay` — capture, inspect, and replay binary PASTA traces.
//!
//! ```text
//! pasta-replay capture <out.pastatrace> [--steps N]
//!     Profile a scaled BERT inference run on the simulated RTX 3060 and
//!     write its normalized event stream as a binary trace.
//!
//! pasta-replay info <trace.pastatrace>
//!     Print the header, per-shard stream sizes and the UVM footer flag
//!     from the shard headers alone: no record is decoded.
//!
//! pasta-replay run <trace.pastatrace> [--suite NAME]
//!     Replay the trace through a tool suite and print the merged report.
//!     Analysis happens entirely offline: no simulator, no workload. The
//!     trace is decoded a batch at a time, never held decoded whole.
//! ```
//!
//! `NAME` is one of [`SUITE_NAMES`] (default `standard`); the usage line
//! and the unknown-suite error are built from that table.
//!
//! Argument parsing is hand-rolled: the workspace builds offline and the
//! two-flag surface does not justify a dependency.

use std::process::ExitCode;

use pasta::core::{Pasta, ToolCollection};
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::prelude::*;
use pasta::tools::{standard_suite, suite, SUITE_NAMES};
use pasta::trace::{replay, Trace, TraceReader, TraceWriter, FORMAT_VERSION};

fn usage() -> String {
    format!(
        "usage:
  pasta-replay capture <out.pastatrace> [--steps N]
  pasta-replay info <trace.pastatrace>
  pasta-replay run <trace.pastatrace> [--suite {SUITE_NAMES}]"
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("capture") => capture(&args[1..]),
        Some("info") => info(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{}", usage());
            Ok(())
        }
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pasta-replay: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls `--flag value` out of `args`, returning the remaining
/// positionals and the flag's value (if present).
fn split_flag<'a>(
    args: &'a [String],
    flag: &str,
) -> Result<(Vec<&'a str>, Option<&'a str>), String> {
    let mut positional = Vec::new();
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            value = Some(
                args.get(i + 1)
                    .ok_or_else(|| format!("{flag} expects a value"))?
                    .as_str(),
            );
            i += 2;
        } else if let Some(stripped) = args[i].strip_prefix(&format!("{flag}=")) {
            value = Some(stripped);
            i += 1;
        } else if args[i].starts_with("--") {
            return Err(format!("unknown flag {}", args[i]));
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, value))
}

fn capture(args: &[String]) -> Result<(), String> {
    let (positional, steps) = split_flag(args, "--steps")?;
    let [out] = positional[..] else {
        return Err(usage());
    };
    let steps: usize = steps
        .map(|s| s.parse().map_err(|_| format!("bad --steps value '{s}'")))
        .transpose()?
        .unwrap_or(1);

    let mut session = Pasta::builder()
        .rtx_3060()
        .tools(standard_suite())
        .build()
        .map_err(|e| e.to_string())?;
    let writer = TraceWriter::attach(&session);
    session
        .run(
            &mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
                .steps(steps)
                .batch_divisor(8),
        )
        .map_err(|e| e.to_string())?;
    let events = writer.events_captured();
    let trace = writer.finish(&session);
    trace.save(out).map_err(|e| e.to_string())?;
    println!(
        "captured {events} events over {steps} step(s) into {out} ({} bytes, {:.2} bytes/event)",
        trace.len(),
        trace.len() as f64 / events as f64
    );
    Ok(())
}

fn load(path: &str) -> Result<(Trace, usize), String> {
    let trace = Trace::load(path).map_err(|e| format!("{path}: {e}"))?;
    let len = trace.len();
    Ok((trace, len))
}

fn info(args: &[String]) -> Result<(), String> {
    let [path] = args.iter().map(String::as_str).collect::<Vec<_>>()[..] else {
        return Err(usage());
    };
    let (trace, len) = load(path)?;
    let summary = TraceReader::scan(trace.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: pasta trace v{FORMAT_VERSION}, {len} bytes");
    println!(
        "  {} shard(s), {} events, uvm footer: {}",
        summary.shards.len(),
        summary.events_total(),
        if summary.uvm.is_some() { "yes" } else { "no" }
    );
    for shard in &summary.shards {
        println!(
            "  {:?}: {} events in {} bytes, {} symbols",
            shard.device,
            shard.records,
            shard.payload.len(),
            shard.symbols
        );
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let (positional, suite_name) = split_flag(args, "--suite")?;
    let [path] = positional[..] else {
        return Err(usage());
    };
    let name = suite_name.unwrap_or("standard");
    let mut tools: ToolCollection = suite(name)
        .ok_or_else(|| format!("unknown suite '{name}' ({SUITE_NAMES})"))?
        .into_iter()
        .collect();
    let (trace, _) = load(path)?;
    let report = replay(&trace, &mut tools).map_err(|e| format!("{path}: {e}"))?;
    println!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_suite_is_refused_naming_every_suite_before_the_trace_is_read() {
        let args = ["x", "--suite", "nope"].map(String::from);
        let message = run(&args).unwrap_err();
        for name in SUITE_NAMES.split('|') {
            assert!(message.contains(name), "`{name}` missing from: {message}");
        }
    }
}
