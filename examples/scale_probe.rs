//! Does the lane pool beat the sequential schedule on this box?
//!
//! Runs the 64-lane tiny expert-parallel MoE iteration — the benchmark's
//! `scale_out_moe` op: build the session, run the region, merge and
//! render — under ONE schedule per process, lane-at-a-time on one thread
//! (`seq`) or on the bounded pool (`pool`), and prints that schedule's
//! median wall. Interleaving the two in one process made the
//! single-threaded ops decide what the second core was doing when the
//! pooled ones started, and a 5 ms op is too short to hide that (ROADMAP,
//! standing perf guard), so the speed-up — what ROADMAP item 3 is judged
//! by and no benchmark metric reports (`docs/perf-log/ISSUE-16.md`) — is two
//! invocations divided by hand:
//!
//! ```sh
//! cargo run --release --example scale_probe -- seq          # width 1, 21 rounds
//! cargo run --release --example scale_probe -- pool 2       # pool of 2, 21 rounds
//! cargo run --release --example scale_probe -- pool 2 51    # more rounds
//! ```

use pasta::core::tool::LaunchCounter;
use pasta::dl::parallel::{self, MoeConfig};
use pasta::prelude::*;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const LANES: u32 = 64;
const USAGE: &str = "usage: scale_probe <seq|pool> [width] [rounds]";

/// One whole op under `width` lane and merge workers; `pooled: false` is
/// the lane-at-a-time reference schedule. Returns its wall and the events
/// the merged report counted.
fn op(pooled: bool, width: usize) -> Result<(Duration, u64), Box<dyn std::error::Error>> {
    let devices: Vec<DeviceId> = (0..LANES).map(DeviceId).collect();
    let moe = MoeConfig::tiny();
    let started = Instant::now();
    let mut session = Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); LANES as usize])
        .tool(LaunchCounter::default())
        .parallel(ParallelConfig {
            max_lane_threads: width,
            max_merge_threads: width,
            max_drain_threads: 1,
        })
        .build()?;
    session.run_parallel(&devices, |lanes| {
        if pooled {
            parallel::train_iter_expert_parallel_with(lanes, 1, &moe)
        } else {
            parallel::train_iter_expert_sequential_reference_with(lanes, 1, &moe)
        }
    })?;
    let merged = session.merged_report();
    let rendered = merged.to_string();
    std::hint::black_box(rendered);
    Ok((started.elapsed(), merged.events_processed))
}

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut args = std::env::args().skip(1);
    let (pooled, default_width) = match args.next().as_deref() {
        Some("seq") => (false, 1),
        Some("pool") => (true, cores),
        _ => {
            eprintln!("{USAGE}");
            return Ok(ExitCode::from(2));
        }
    };
    let mut number = |default: usize| match args.next() {
        Some(arg) => arg.parse::<usize>().map(|n| n.max(1)),
        None => Ok(default),
    };
    let (width, rounds) = (number(default_width)?, number(21)?);

    let mut walls = Vec::with_capacity(rounds);
    let mut events = 0;
    // Round 0 warms the symbol table, the allocator and the page cache.
    for round in 0..=rounds {
        let (wall, counted) = op(pooled, width)?;
        if round > 0 {
            walls.push(wall);
        }
        events = counted;
    }
    walls.sort_unstable();

    let schedule = if pooled { "pool" } else { "sequential" };
    println!(
        "{LANES}-lane tiny MoE, {events} events per op, {schedule} width {width}, {rounds} \
         rounds, available_parallelism {cores}: median {:.1} us",
        walls[walls.len() / 2].as_secs_f64() * 1e6
    );
    if pooled && cores < 2 {
        println!("  one core: this wall says nothing about parallel speed-up");
    }
    Ok(ExitCode::SUCCESS)
}
