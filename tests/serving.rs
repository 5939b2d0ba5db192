//! Inference-serving suite (ISSUE 10).
//!
//! Three properties of the continuous-batching scenario must hold:
//!
//! * **Seeded replay is byte-identical.** The same `ServingConfig`
//!   through the same lane assignment produces the same `ServingRun`
//!   *and* the same session `MergedReport` whether the lanes ran on the
//!   bounded pool or one at a time on the calling thread — the serving
//!   extension of the scale-out scheduling-independence gate.
//! * **KV growth prices cold conversations.** With `budget_bytes` below
//!   the weights + live-KV footprint, the run must show demand faults,
//!   evictions *and* peer traffic (evicted shared-weight duplicates
//!   re-travel the peer link) — the serving analogue of the
//!   Fig. 12 oversubscription curves.
//! * **The cache actually churns.** Every retired conversation frees its
//!   managed pages (registration → teardown per request), and the pool
//!   high-water mark stays within the lane-thread budget.
//!
//! CI runs this suite `--test-threads=1` alongside the other lane-pool
//! suites so per-session UVM totals aren't perturbed by sibling tests'
//! allocator pressure on the shared build machine.

use pasta::core::{ParallelConfig, Pasta, PastaSession, UvmSetup};
use pasta::dl::serving::{self, RequestTrace, ServingConfig, ServingRun};
use pasta::dl::DType;
use pasta::prelude::*;
use pasta::tools::ServingReport;

fn session(devices: usize, lane_threads: usize, budget: Option<u64>) -> PastaSession {
    Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); devices])
        .parallel(ParallelConfig {
            max_lane_threads: lane_threads,
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

fn serve_on(
    devices_n: usize,
    lane_threads: usize,
    budget: Option<u64>,
    pooled: bool,
) -> (ServingRun, PastaSession) {
    serve_config_on(
        &ServingConfig::tiny(),
        devices_n,
        lane_threads,
        budget,
        pooled,
    )
}

fn serve_config_on(
    cfg: &ServingConfig,
    devices_n: usize,
    lane_threads: usize,
    budget: Option<u64>,
    pooled: bool,
) -> (ServingRun, PastaSession) {
    let (run, s) = try_serve_config_on(cfg, devices_n, lane_threads, budget, pooled);
    (run.expect("serving completes"), s)
}

fn try_serve_config_on(
    cfg: &ServingConfig,
    devices_n: usize,
    lane_threads: usize,
    budget: Option<u64>,
    pooled: bool,
) -> (Result<ServingRun, PastaError>, PastaSession) {
    let mut s = session(devices_n, lane_threads, budget);
    let run = s.run_parallel(&devices(devices_n), |lanes| {
        if pooled {
            serving::serve(lanes, cfg)
        } else {
            serving::serve_sequential_reference(lanes, cfg)
        }
    });
    (run, s)
}

/// The replay gate: pooled serving (3 workers multiplexing 4 lanes)
/// against the lane-at-a-time reference, under an oversubscribed budget
/// so the comparison covers the eviction and peer paths too. Both the
/// scheduler's own output and the profiling session's merged report must
/// match byte for byte.
#[test]
fn pooled_serving_is_byte_identical_to_sequential_reference() {
    let budget = Some(256 * 1024);
    let (pooled_run, pooled) = serve_on(4, 3, budget, true);
    let (reference_run, reference) = serve_on(4, 1, budget, false);

    assert_eq!(
        pooled_run, reference_run,
        "pooled serving run diverged from the sequential reference"
    );
    assert_eq!(
        pooled.merged_report(),
        reference.merged_report(),
        "pooled merged report diverged from the sequential reference"
    );

    let high = pooled.pool_high_water();
    assert!(
        (1..=3).contains(&high),
        "pool high water {high} must stay within max_lane_threads = 3"
    );
}

/// The replay gate where the benchmark runs it: `ServingConfig::small()`
/// at one arrival per step, the budget at 9/8 of the weights — the shared
/// weights fit, weights plus live KV do not, so every lane keeps evicting
/// weight duplicates and re-fetching them over the peer link while its
/// siblings claim and drop holders of the same range directory. Whatever
/// the pool width, the scheduler's output, the merged report and the
/// `UvmReport` (per-lane statistics and the peer-traffic matrix included)
/// equal the lane-at-a-time reference byte for byte.
#[test]
fn pooled_serving_is_byte_identical_at_every_pool_width_while_duplicates_churn() {
    let cfg = ServingConfig {
        mean_interarrival_steps: 1,
        ..ServingConfig::small()
    };
    let weights = cfg.dims.param_bytes(DType::F32);
    let budget = Some(weights * 9 / 8);
    let (reference_run, reference) = serve_config_on(&cfg, 4, 1, budget, false);
    let reference_uvm = reference.uvm_report().expect("uvm attached");
    assert!(reference_uvm.stats.pages_evicted > 0, "the budget binds");
    let cold_duplicates = 3 * weights.div_ceil(pasta::uvm::PAGE_SIZE);
    assert!(
        reference_uvm.stats.peer_pages_in > cold_duplicates,
        "evicted duplicates travel the peer link again ({} pages in, {cold_duplicates} cold)",
        reference_uvm.stats.peer_pages_in
    );

    for width in [1, 2, 4] {
        let (run, pooled) = serve_config_on(&cfg, 4, width, budget, true);
        assert_eq!(run, reference_run, "serving run at pool width {width}");
        assert_eq!(
            format!("{:?}", pooled.uvm_report().expect("uvm attached")),
            format!("{reference_uvm:?}"),
            "UVM report at pool width {width}"
        );
        assert_eq!(
            pooled.merged_report(),
            reference.merged_report(),
            "merged report at pool width {width}"
        );
    }
}

/// Re-serving the same config in a fresh session replays byte-for-byte:
/// the trace is a pure function of the seed and the lanes are a pure
/// function of the trace.
#[test]
fn reserving_the_same_seed_replays_byte_identically() {
    let (a, _) = serve_on(2, 2, Some(256 * 1024), true);
    let (b, _) = serve_on(2, 2, Some(256 * 1024), true);
    assert_eq!(a, b, "same seed, same lanes, same run");

    let cfg = ServingConfig::tiny();
    let trace = RequestTrace::generate(&cfg);
    let lane0: Vec<u64> = trace.lane_requests(0, 2).iter().map(|r| r.id).collect();
    assert!(
        lane0.iter().all(|id| id % 2 == 0),
        "lane 0 serves the even ids under 2-lane static assignment"
    );
}

/// The oversubscription gate: with the budget pinned far below the
/// weights + KV footprint, serving must show nonzero demand faults,
/// evictions and peer traffic, and every completed conversation's pages
/// must have been torn down (cache churn, not cache leak).
#[test]
fn kv_growth_oversubscribes_the_budget() {
    let cfg = ServingConfig::tiny();
    // tiny weights ≈ 384 KiB alone exceed a 256 KiB device budget, and
    // each lane's live KV (up to max_batch pages) piles on top.
    let (run, session) = serve_on(4, 3, Some(256 * 1024), true);

    assert_eq!(run.completed(), cfg.requests as u64, "every request served");
    let uvm = session.uvm_report().expect("uvm attached");
    assert!(
        uvm.stats.demand_pages_in > 0,
        "oversubscribed serving must demand-fault"
    );
    assert!(
        uvm.stats.pages_evicted > 0,
        "KV growth past the budget must evict"
    );
    assert!(
        uvm.stats.peer_pages_in > 0,
        "sibling lanes must read-duplicate the shared weights"
    );

    let pages: u64 = run.lanes.iter().map(|l| l.kv_pages_allocated).sum();
    assert!(
        pages >= cfg.requests as u64,
        "every request allocates at least one KV page ({pages} pages for {} requests)",
        cfg.requests
    );
    assert!(
        run.lanes.iter().all(|l| !l.ttft_ns.is_empty()),
        "every lane produced TTFT samples"
    );

    let report = ServingReport::from_run(&run, session.uvm_report().as_ref());
    assert_eq!(report.completed, cfg.requests as u64);
    assert!(report.ttft_p99_ns >= report.ttft_p50_ns, "tails ordered");
    assert!(
        report.pages_evicted > 0,
        "report carries the eviction curve"
    );
    assert!(
        report.ttft_p50_ns.is_some() && report.decode_p99_ns.is_some(),
        "latency columns populated"
    );
}

/// Relieving the budget must shrink the fault/eviction bill — the
/// serving curve bends the same way as the training sweeps in
/// `examples/uvm_oversubscription.rs`.
#[test]
fn bigger_budget_means_less_uvm_traffic() {
    let (_, tight) = serve_on(2, 2, Some(256 * 1024), true);
    let (_, roomy) = serve_on(2, 2, None, true);
    let tight = tight.uvm_report().expect("uvm attached").stats;
    let roomy = roomy.uvm_report().expect("uvm attached").stats;
    assert!(
        roomy.pages_evicted == 0,
        "an unconstrained budget never evicts (got {})",
        roomy.pages_evicted
    );
    assert!(
        tight.demand_pages_in > roomy.demand_pages_in,
        "oversubscription must re-fault evicted pages ({} vs {})",
        tight.demand_pages_in,
        roomy.demand_pages_in
    );
}

/// `ServingConfig`'s fields are all `pub`; the values the scheduler cannot
/// run — a KV page that never fills, a batch that admits nothing, a token
/// range with no sample — are typed config errors from the top of the
/// dispatch on either schedule, not a hang, a silently empty run or a
/// salvaged lane panic. An empty request stream is a valid, empty run.
#[test]
fn hostile_configs_are_config_errors_and_an_empty_stream_is_an_empty_run() {
    use pasta::sim::AccelError;
    let tiny = ServingConfig::tiny();
    let hostile = [
        (
            "kv_page_tokens = 0",
            ServingConfig {
                kv_page_tokens: 0,
                ..tiny.clone()
            },
        ),
        (
            "max_batch = 0",
            ServingConfig {
                max_batch: 0,
                ..tiny.clone()
            },
        ),
        (
            "prompt_tokens = (32, 8)",
            ServingConfig {
                prompt_tokens: (32, 8),
                ..tiny.clone()
            },
        ),
        (
            "decode_tokens = (0, 16)",
            ServingConfig {
                decode_tokens: (0, 16),
                ..tiny.clone()
            },
        ),
    ];
    for (named, cfg) in &hostile {
        for pooled in [true, false] {
            let (result, session) = try_serve_config_on(cfg, 2, 2, None, pooled);
            let Err(PastaError::Accel(AccelError::Config(message))) = result else {
                panic!("{named} (pooled={pooled}) must be a config error, got {result:?}");
            };
            assert!(message.contains(named), "unhelpful message: {message}");
            assert!(session.lane_failures().is_empty(), "no lane ever ran");
        }
    }

    let empty = ServingConfig {
        requests: 0,
        ..tiny
    };
    for pooled in [true, false] {
        let (run, _) = serve_config_on(&empty, 2, 2, None, pooled);
        assert_eq!(run.lanes.len(), 2, "one entry per lane");
        assert_eq!(run.completed(), 0);
        assert!(run.ttft_sorted().is_empty() && run.decode_sorted().is_empty());
    }
}
