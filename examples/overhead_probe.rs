//! How much of a profiled op is not PASTA at all?
//!
//! Runs each workload twice — bare (the dl-framework over a CUDA context,
//! nothing attached) and profiled (the benchmark's op: build the session,
//! run, merge, render) — interleaved round by round, and prints both
//! medians, both heap-allocation counts (a counting global allocator, so
//! build without one of your own) and the share of the profiled op the
//! bare run already accounts for. A workload whose substrate share is
//! high cannot get much faster, or allocate much less, from `pasta-core`
//! (ROADMAP item 3; `docs/perf-log/ISSUE-17.md`). Each row ends with the
//! profiled op's host gate: `gated G / processed P` — of the P events its
//! session counted, the G host and framework callbacks nothing read, which
//! were never built (`docs/perf-log/ISSUE-24.md`). Rows: the
//! 64-lane tiny expert-parallel MoE region (`scale_out_moe`, pool width
//! 2) and one inference batch of each `profile_fine` model under the
//! six-tool suite.
//!
//! ```sh
//! cargo run --release --example overhead_probe            # 21 rounds
//! cargo run --release --example overhead_probe -- 51      # more rounds
//! ```

mod common;

use common::{
    model_bare, model_profiled, moe_bare, moe_profiled, EventCounts, OpOutcome, Outcome,
    FINE_MODELS, LANES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes to `System` with the arguments it came with;
// the counter is the only thing added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Wall, heap allocations and event counts of one call.
fn measured(
    op: &dyn Fn() -> OpOutcome,
) -> Result<(Duration, u64, EventCounts), Box<dyn std::error::Error>> {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let started = Instant::now();
    let events = op()?;
    let wall = started.elapsed();
    Ok((wall, ALLOCS.load(Ordering::Relaxed) - allocs, events))
}

fn main() -> Outcome {
    let rounds: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse::<usize>()?.max(1),
        None => 21,
    };
    type Op = Box<dyn Fn() -> OpOutcome>;
    let mut rows: Vec<(String, Op, Op)> = vec![(
        format!("{LANES}-lane tiny MoE"),
        Box::new(moe_bare),
        Box::new(moe_profiled),
    )];
    for model in FINE_MODELS {
        rows.push((
            format!("{model:?} inference"),
            Box::new(move || model_bare(model)),
            Box::new(move || model_profiled(model)),
        ));
    }

    println!(
        "bare vs profiled, {rounds} interleaved rounds, available_parallelism {}",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "  {:<22} {:>10} {:>8}   {:>10} {:>8}   substrate share",
        "", "bare us", "allocs", "prof. us", "allocs"
    );
    for (label, bare, profiled) in &rows {
        let mut walls = [Vec::with_capacity(rounds), Vec::with_capacity(rounds)];
        let mut allocs = [0, 0];
        let mut events = EventCounts::default();
        // Round 0 warms the symbol table, the allocator and the page cache.
        for round in 0..=rounds {
            for (side, op) in [bare, profiled].into_iter().enumerate() {
                let (wall, count, counted) = measured(op)?;
                if round > 0 {
                    walls[side].push(wall);
                }
                allocs[side] = count;
                events = counted;
            }
        }
        let [bare_us, profiled_us] = walls.map(|mut w| {
            w.sort_unstable();
            w[w.len() / 2].as_secs_f64() * 1e6
        });
        println!(
            "  {label:<22} {bare_us:>10.1} {:>8}   {profiled_us:>10.1} {:>8}   \
             {:.0} % of the wall, {:.0} % of the allocations; gated {} / processed {}",
            allocs[0],
            allocs[1],
            100.0 * bare_us / profiled_us,
            100.0 * allocs[0] as f64 / allocs[1] as f64,
            events.gated,
            events.processed,
        );
    }
    Ok(())
}
