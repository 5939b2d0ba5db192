//! Does the lane pool beat the sequential schedule on this box?
//!
//! Runs the 64-lane tiny expert-parallel MoE iteration — the benchmark's
//! `scale_out_moe` op: build the session, run the region, merge and
//! render — lane-at-a-time on one thread and on the bounded pool at
//! widths 1, 2 and `available_parallelism`, interleaved round by round so
//! the box's drift lands on every schedule alike, and prints each
//! schedule's median wall and its speed-up over the sequential one. That
//! ratio is what ROADMAP item 3 is judged by and no benchmark metric
//! reports (README, "Why two workers were no faster than one").
//!
//! ```sh
//! cargo run --release --example scale_probe            # 21 rounds
//! cargo run --release --example scale_probe -- 51      # more rounds
//! ```

use pasta::core::tool::LaunchCounter;
use pasta::dl::parallel::{self, MoeConfig};
use pasta::prelude::*;
use std::time::{Duration, Instant};

const LANES: u32 = 64;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse::<usize>()?.max(1),
        None => 21,
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut schedules = vec![("sequential".to_owned(), false, 1)];
    let mut widths = vec![1, 2, cores];
    widths.dedup();
    for width in widths {
        schedules.push((format!("pool width {width}"), true, width));
    }

    let mut walls: Vec<Vec<Duration>> = vec![Vec::with_capacity(rounds); schedules.len()];
    let mut events = 0;
    // Round 0 warms the symbol table, the allocator and the page cache.
    for round in 0..=rounds {
        for (i, (_, pooled, width)) in schedules.iter().enumerate() {
            let (wall, counted) = op(*pooled, *width)?;
            if round > 0 {
                walls[i].push(wall);
            }
            events = counted;
        }
    }

    println!(
        "{LANES}-lane tiny MoE, {events} events per op, {rounds} interleaved rounds, \
         available_parallelism {cores}"
    );
    let medians: Vec<Duration> = walls
        .iter_mut()
        .map(|w| {
            w.sort_unstable();
            w[w.len() / 2]
        })
        .collect();
    for ((label, _, _), median) in schedules.iter().zip(&medians) {
        println!(
            "  {label:<14} median {:>9.1} us   {:.2}x the sequential schedule",
            median.as_secs_f64() * 1e6,
            medians[0].as_secs_f64() / median.as_secs_f64()
        );
    }
    if cores < 2 {
        println!("  one core: the ratios above say nothing about parallel speed-up");
    }
    Ok(())
}
