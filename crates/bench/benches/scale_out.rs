//! Scale-out executor benchmarks (ISSUE 9).
//!
//! Two costs gate a 256-device session: the session-end **merge** of
//! per-shard analysis state, and the **lane executor** that drives the
//! shards in the first place.
//!
//! * `merge/*` — the session-end fold of N populated hotness trackers,
//!   linear (the pre-ISSUE-9 chain, critical path `(N-1)·M` for a pair
//!   merge costing `M`) versus the pairwise tree reduction
//!   (`tree_reduce`, critical path `⌈N/W⌉·M + ⌈log₂N⌉·M` on `W`
//!   workers). On a multi-core host the tree pulls ahead once `N` is
//!   large; on a single-CPU container the rounds timeslice and the tree
//!   pays thread spawns on top — which is why the bench also measures
//!   `merge/pair` (`M` itself), from which the machine-independent
//!   critical-path ratio is computed (see `BENCH_scale_out.json`).
//! * `pool/*` — driving N independent lane tasks of fixed CPU work
//!   through the bounded pool (`run_pool`, W workers) versus the
//!   pre-ISSUE-9 thread-per-lane scope (N spawns). The pool's win is
//!   visible even single-core: N−W fewer thread spawn/join round trips
//!   per region. `pool/spawn-join` prices one such round trip.
//!
//! Numbers land in `BENCH_scale_out.json`; run with
//! `cargo bench -p pasta-bench --bench scale_out`.

use accel_sim::{AccelError, DeviceId};
use criterion::{criterion_group, criterion_main, Criterion};
use dl_framework::lane_exec::{self, PoolTask};
use pasta_core::merge::tree_reduce;
use uvm_sim::BlockHotness;

/// Access records per shard tracker — enough distinct (block, bin)
/// cells that a pair merge costs real map-union work, sized like a
/// fine-grained lane's worth of hotness state.
const RECORDS_PER_SHARD: u64 = 512;

/// Builds one populated per-shard hotness tracker. Shards overlap on
/// half their blocks (shared parameters) and own the other half
/// (activations), so merges exercise both the hit and miss paths of the
/// count-map union.
fn shard_tracker(shard: u64) -> BlockHotness {
    let mut t = BlockHotness::new(8);
    for i in 0..RECORDS_PER_SHARD {
        let block = if i % 2 == 0 {
            i
        } else {
            shard * RECORDS_PER_SHARD + i
        };
        t.record(block * (2 << 20), 1 << 16, 32);
    }
    t
}

fn shard_trackers(n: u64) -> Vec<BlockHotness> {
    (0..n).map(shard_tracker).collect()
}

/// `M`: one pair merge — the unit cost both critical-path formulas are
/// denominated in.
fn merge_pair(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge");
    g.sample_size(200);
    let a = shard_tracker(0);
    let b = shard_tracker(1);
    g.bench_function("pair", |bch| {
        bch.iter(|| {
            let mut acc = a.clone();
            acc.merge_from(&b);
            criterion::black_box(acc.events_seen())
        })
    });
    g.finish();
}

fn bench_merge(c: &mut Criterion, shards: u64) {
    let mut g = c.benchmark_group("merge");
    g.sample_size(30);
    let items = shard_trackers(shards);

    g.bench_function(format!("linear-{shards}"), |b| {
        b.iter(|| {
            let merged = items
                .iter()
                .cloned()
                .reduce(|mut acc, next| {
                    acc.merge_from(&next);
                    acc
                })
                .expect("non-empty");
            criterion::black_box(merged.events_seen())
        })
    });

    for workers in [4usize, 8] {
        g.bench_function(format!("tree-{shards}-w{workers}"), |b| {
            b.iter(|| {
                let merged = tree_reduce(items.clone(), workers, |acc: &mut BlockHotness, next| {
                    acc.merge_from(&next);
                })
                .expect("non-empty");
                criterion::black_box(merged.events_seen())
            })
        });
    }
    g.finish();
}

fn merge_8(c: &mut Criterion) {
    bench_merge(c, 8);
}

fn merge_64(c: &mut Criterion) {
    bench_merge(c, 64);
}

fn merge_256(c: &mut Criterion) {
    bench_merge(c, 256);
}

/// Fixed per-lane CPU work standing in for a lane's emission stream —
/// deterministic, allocation-free, long enough (~10k mults) that the
/// scheduler granularity does not swamp it.
fn lane_work(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..10_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    x
}

fn pool_tasks<'a>(lanes: u32) -> Vec<PoolTask<'a, u64>> {
    (0..lanes)
        .map(|d| PoolTask {
            device: DeviceId(d),
            run: Box::new(move || Ok::<u64, AccelError>(lane_work(u64::from(d)))),
        })
        .collect()
}

fn bench_pool(c: &mut Criterion, lanes: u32) {
    let mut g = c.benchmark_group("pool");
    g.sample_size(30);

    // Pre-ISSUE-9 shape: one OS thread per lane.
    g.bench_function(format!("thread-per-lane-{lanes}"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..lanes)
                    .map(|d| scope.spawn(move || lane_work(u64::from(d))))
                    .collect();
                for h in handles {
                    acc = acc.wrapping_add(h.join().expect("lane thread"));
                }
            });
            criterion::black_box(acc)
        })
    });

    for workers in [1usize, 2, 4, 8] {
        g.bench_function(format!("pooled-{lanes}-w{workers}"), |b| {
            b.iter(|| {
                let results = lane_exec::run_pool(workers, pool_tasks(lanes), None).results;
                let acc = results
                    .into_iter()
                    .map(|r| r.expect("lane ok"))
                    .fold(0u64, u64::wrapping_add);
                criterion::black_box(acc)
            })
        });
    }
    g.finish();
}

fn pool_64(c: &mut Criterion) {
    bench_pool(c, 64);
}

fn pool_256(c: &mut Criterion) {
    bench_pool(c, 256);
}

/// One thread spawn + join round trip with no work: the fixed per-lane
/// overhead the pool amortizes (thread-per-lane pays it N times, the
/// pool W times).
fn spawn_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("pool");
    g.sample_size(200);
    g.bench_function("spawn-join", |b| {
        b.iter(|| {
            std::thread::Builder::new()
                .name("spawn-probe".into())
                .spawn(|| criterion::black_box(0u64))
                .expect("spawn")
                .join()
                .expect("join")
        })
    });
    g.finish();
}

criterion_group!(benches, merge_pair, merge_8, merge_64, merge_256, pool_64, pool_256, spawn_join);
criterion_main!(benches);
