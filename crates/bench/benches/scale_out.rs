//! Lane-executor benchmark (ISSUE 9): the one scale-out cut no
//! `BENCHMARK.json` metric produces yet.
//!
//! `pool/*` drives N independent lane tasks of fixed CPU work through
//! the bounded pool (`run_pool`, W workers) versus the pre-ISSUE-9
//! thread-per-lane scope (N spawns). The pool's win is visible even
//! single-core: N−W fewer thread spawn/join round trips per region.
//! `pool/spawn-join` prices one such round trip.
//!
//! Numbers land in `BENCH_scale_out.json`; run with
//! `cargo bench -p pasta-bench --bench scale_out`. The session-end tree
//! merge this file also timed is `core.merge.tree_reduce_us_64` in the
//! benchmark (`docs/perf-log/ISSUE-23.md`).

use accel_sim::{AccelError, DeviceId};
use criterion::{criterion_group, criterion_main, Criterion};
use dl_framework::lane_exec::{self, PoolTask};

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

criterion_group!(benches, pool_64, pool_256, spawn_join);
criterion_main!(benches);
