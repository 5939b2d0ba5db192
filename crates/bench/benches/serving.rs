//! Inference-serving throughput (ISSUE 10).
//!
//! Prices the continuous-batching serving scenario end to end — the
//! seeded request stream, paged managed KV caches (one registration /
//! teardown per conversation), the shared peer-duplicated weight range,
//! and the per-step prefill/decode kernel stream — on the bounded lane
//! pool versus the lane-at-a-time sequential reference, with the budget
//! both unconstrained and oversubscribed:
//!
//! * `serve/seq-L{N}` — sequential reference, N lanes, no budget: the
//!   scheduler + kernel-stream cost with the UVM machinery quiet.
//! * `serve/pooled-L{N}-w2` — same stream on the 2-worker pool. On the
//!   1-CPU build container lanes timeslice, so this prices pool
//!   dispatch overhead, not parallel speedup; on a multi-core host the
//!   lanes overlap.
//! * `serve/oversub-L{N}` — sequential, budget at half the weight
//!   range: every step pays demand faults, evictions and peer
//!   re-duplication, pricing the full eviction machinery under KV
//!   churn.
//!
//! Numbers land in `BENCH_serving.json`; run with
//! `cargo bench -p pasta-bench --bench serving`. The managed-page
//! register + teardown unit cost this file also timed is
//! `vendor_nv.cuda.managed_churn_ns` in the benchmark
//! (`docs/perf-log/ISSUE-23.md`).

use accel_sim::{DeviceId, DeviceSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use dl_framework::serving::{serve, serve_sequential_reference, ServingConfig};
use dl_framework::DType;
use pasta_core::{ParallelConfig, Pasta, PastaSession, UvmSetup};

fn session(lanes: usize, budget: Option<u64>) -> PastaSession {
    Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); lanes])
        .parallel(ParallelConfig {
            max_lane_threads: 2,
            ..ParallelConfig::default()
        })
        .uvm(UvmSetup {
            budget_bytes: budget,
            ..UvmSetup::default()
        })
        .build()
        .expect("session builds")
}

fn devices(n: usize) -> Vec<DeviceId> {
    (0..n as u32).map(DeviceId).collect()
}

fn serve_once(lanes: usize, budget: Option<u64>, pooled: bool) -> u64 {
    let cfg = ServingConfig::tiny();
    let mut s = session(lanes, budget);
    let run = s
        .run_parallel(&devices(lanes), |ls| {
            if pooled {
                serve(ls, &cfg)
            } else {
                serve_sequential_reference(ls, &cfg)
            }
        })
        .expect("serving completes");
    run.completed()
}

fn bench_serve(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    for lanes in [1usize, 4] {
        g.bench_function(format!("seq-L{lanes}"), |b| {
            b.iter(|| serve_once(lanes, None, false));
        });
        g.bench_function(format!("pooled-L{lanes}-w2"), |b| {
            b.iter(|| serve_once(lanes, None, true));
        });
        // Half the weight bytes: weights + live KV thrash the budget.
        let budget = ServingConfig::tiny().dims.param_bytes(DType::F32) / 2;
        g.bench_function(format!("oversub-L{lanes}"), |b| {
            b.iter(|| serve_once(lanes, Some(budget), false));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
