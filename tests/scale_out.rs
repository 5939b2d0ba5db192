//! Scale-out executor suite (ISSUE 9).
//!
//! Three properties of the bounded executor must hold at any scale:
//!
//! * **Tree merges are byte-identical to linear folds.** The session-end
//!   merge of shards, UVM managers, and hotness trackers was rewritten as
//!   a pairwise tree reduction; the proptests here pit `tree_reduce`
//!   against the sequential fold over 2–64 shards and 1–8 worker threads.
//! * **Lane concurrency is bounded by the pool, not the device count.**
//!   A 256-device run must complete with at most `max_lane_threads` lane
//!   workers live at any instant — pinned on the *per-session*
//!   `PastaSession::pool_high_water` (ISSUE 10), which other sessions'
//!   pools cannot contaminate, so the pins hold at any test parallelism —
//!   with the MoE expert-parallel workload driving real all-to-all
//!   traffic.
//! * **Fault containment survives the pool.** A panicking lane runs on a
//!   *pooled* worker now, so the salvage path — and the `lane-dev{N}`
//!   thread name the panic hook observes — is pinned here.
//!
//! CI runs this suite `--test-threads=1` for the panic-hook test, which
//! must not interleave with other tests' lanes; the high-water pins no
//! longer need the serialization.

use std::sync::Mutex;

use pasta::core::merge::tree_reduce;
use pasta::core::tool::LaunchCounter;
use pasta::core::{LaneFailure, Pasta, PastaError, PastaSession};
use pasta::dl::lane_exec::{self, LaneSchedule};
use pasta::dl::parallel::{self, DeviceLane, MoeConfig, Parallelism};
use pasta::prelude::*;
use pasta::uvm::{BlockHotness, UvmStats};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Tree reduction vs. linear fold: the byte-identity oracle.
// ---------------------------------------------------------------------------

/// Builds a fully-populated `UvmStats` from four random words so every
/// field participates in the merge (merge is per-field saturating-free
/// addition; any dropped or double-counted field shows up immediately).
fn stats_from(seed: (u64, u64, u64, u64)) -> UvmStats {
    let (a, b, c, d) = seed;
    UvmStats {
        fault_groups: a,
        demand_pages_in: b,
        prefetch_pages_in: c,
        pages_evicted: d,
        fault_stall_ns: a ^ b,
        prefetch_stall_ns: b.wrapping_mul(3),
        evict_stall_ns: c | d,
        prefetch_noops: a % 7,
        peer_pages_in: d / 2,
        peer_stall_ns: c % 11,
        duplicates_invalidated: a & d,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `tree_reduce` over UVM statistics equals the sequential fold for
    /// every shard count in 2..=64 and every pool width in 1..=8 — the
    /// shard-merge half of the ISSUE 9 byte-identity gate.
    #[test]
    fn uvm_stats_tree_merge_matches_linear_fold(
        raw in prop::collection::vec(
            (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
            2..65,
        ),
        threads in 1usize..9,
    ) {
        let items: Vec<UvmStats> = raw.iter().copied().map(stats_from).collect();
        let linear = items
            .iter()
            .copied()
            .reduce(|mut acc, next| {
                acc.merge_from(&next);
                acc
            })
            .expect("non-empty");
        let tree = tree_reduce(items, threads, |acc: &mut UvmStats, next| {
            acc.merge_from(&next);
        })
        .expect("non-empty");
        prop_assert_eq!(linear, tree);
    }

    /// Hotness trackers — `HotnessTool`'s per-shard state — merge
    /// through `merge_from`, summing cells on each shard's own clock:
    /// reducing the shards as a tree and folding the result into a fresh
    /// tracker must reproduce the shard-at-a-time linear merge exactly,
    /// bin for bin.
    #[test]
    fn hotness_tree_merge_matches_linear_merge(
        records in prop::collection::vec((0u64..1_000_000, 1u64..5000, 1u64..64), 8..64),
        lanes in 2usize..9,
        threads in 1usize..9,
    ) {
        let make_shards = || -> Vec<BlockHotness> {
            let mut shards = vec![BlockHotness::new(4); lanes];
            for (i, &(base, len, n)) in records.iter().enumerate() {
                shards[i % lanes].record(base, len, n);
            }
            shards
        };

        let mut linear = BlockHotness::new(4);
        for shard in &make_shards() {
            linear.merge_from(shard);
        }

        let combined = tree_reduce(make_shards(), threads, |acc: &mut BlockHotness, next| {
            acc.merge_from(&next);
        })
        .expect("non-empty");
        let mut tree = BlockHotness::new(4);
        tree.merge_from(&combined);

        prop_assert_eq!(linear.series(), tree.series());
    }
}

// ---------------------------------------------------------------------------
// Bounded pool at 256 devices.
// ---------------------------------------------------------------------------

fn devices(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

fn scale_session(n: usize, cfg: ParallelConfig) -> PastaSession {
    Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); n])
        .tool(LaunchCounter::default())
        .parallel(cfg)
        .build()
        .expect("session builds")
}

/// 256 lanes of per-device kernel work through `run_parallel_each` on a
/// 4-worker pool, not a thread per device: the high-water mark proves at
/// most `max_lane_threads` lanes ran at once, and the merged report still
/// covers all 256 shards.
#[test]
fn run_parallel_each_bounds_workers_at_256_devices() {
    let cfg = ParallelConfig {
        max_lane_threads: 4,
        max_merge_threads: 4,
        ..ParallelConfig::default()
    };
    let mut session = scale_session(256, cfg);
    session
        .run_parallel_each(&devices(256), |_i, lane| {
            let s = &mut lane.session;
            let t = s.alloc_tensor(&[4096], pasta::dl::dtype::DType::F32)?;
            s.launch(
                KernelDesc::new("scale_out_probe", Dim3::linear(4), Dim3::linear(128))
                    .arg(t.ptr, t.bytes)
                    .body(KernelBody::streaming(t.bytes, 0)),
            )?;
            s.free_tensor(&t);
            Ok(())
        })
        .expect("256-lane run completes");

    let high = session.pool_high_water();
    assert!(
        (1..=4).contains(&high),
        "pool high water {high} must stay within max_lane_threads = 4"
    );

    let report = session.merged_report();
    assert_eq!(report.per_device.len(), 256, "every shard merged");
    let launches = report
        .tools
        .iter()
        .find(|r| r.tool == "launch-counter")
        .and_then(|r| r.get("launches"))
        .expect("counter merged");
    assert_eq!(launches, 256.0, "one launch per lane survived the merge");
}

/// The ISSUE 9 acceptance workload: a 256-lane expert-parallel MoE
/// iteration through `run_parallel` completes on a bounded pool, with
/// the all-to-all routing visible as device-to-device copies on every
/// lane.
#[test]
fn moe_256_lanes_complete_on_bounded_pool() {
    let cfg = ParallelConfig {
        max_lane_threads: 4,
        max_merge_threads: 4,
        ..ParallelConfig::default()
    };
    let mut session = scale_session(256, cfg);
    let moe = MoeConfig::tiny();
    let report = session
        .run_parallel(&devices(256), |lanes| {
            parallel::train_iter_expert_parallel_with(lanes, 1, &moe)
        })
        .expect("256-lane MoE completes");

    let high = session.pool_high_water();
    assert!(
        (1..=4).contains(&high),
        "pool high water {high} must stay within max_lane_threads = 4"
    );
    assert_eq!(report.strategy, Parallelism::Expert);
    assert_eq!(report.launches.len(), 256, "one launch count per lane");
    assert!(report.launches.iter().all(|&n| n > 0));
}

/// Pooled expert-parallel MoE (3 workers multiplexing 8 lanes) is
/// byte-identical to the lane-at-a-time sequential reference — the
/// scheduling-independence gate for the new workload.
#[test]
fn moe_pooled_run_matches_sequential_reference() {
    let moe = MoeConfig::tiny();
    let cfg = |lane_threads| ParallelConfig {
        max_lane_threads: lane_threads,
        ..ParallelConfig::default()
    };

    let mut pooled = scale_session(8, cfg(3));
    pooled
        .run_parallel(&devices(8), |lanes| {
            parallel::train_iter_expert_parallel_with(lanes, 1, &moe).map(|_| ())
        })
        .expect("pooled MoE completes");

    let mut reference = scale_session(8, cfg(1));
    reference
        .run_parallel(&devices(8), |lanes| {
            parallel::train_iter_expert_sequential_reference_with(lanes, 1, &moe).map(|_| ())
        })
        .expect("sequential reference completes");

    assert_eq!(
        pooled.merged_report(),
        reference.merged_report(),
        "pooled MoE diverged from the sequential reference"
    );
}

// ---------------------------------------------------------------------------
// Fault containment on a pooled worker.
// ---------------------------------------------------------------------------

/// Thread name observed by the panic hook for the injected lane panic.
static PANIC_THREAD: Mutex<Option<String>> = Mutex::new(None);

/// Installs a hook that records the panicking thread's name for
/// `fault-injection` payloads (suppressing their backtrace noise) and
/// forwards everything else to the default hook.
fn record_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("fault-injection"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("fault-injection"))
                })
                .unwrap_or(false);
            if injected {
                *PANIC_THREAD.lock().unwrap() = std::thread::current().name().map(str::to_owned);
            } else {
                default(info);
            }
        }));
    });
}

/// A lane panicking on a *pooled* worker is still contained at the lane
/// boundary — and the worker carries the `lane-dev{N}` name of the lane
/// it was seeded with, so crash logs attribute the panic to a device.
///
/// `max_lane_threads` is explicit: the auto width on a 1-CPU runner is a
/// single worker — the calling thread — which would run lane 1 after
/// finishing lane 0. Two workers pin the seeded name.
#[test]
fn pooled_lane_panic_is_salvaged_and_names_its_worker() {
    record_injected_panics();
    *PANIC_THREAD.lock().unwrap() = None;

    let cfg = ParallelConfig {
        max_lane_threads: 2,
        ..ParallelConfig::default()
    };
    let mut session = scale_session(2, cfg);
    let err = session
        .run_parallel_each(&devices(2), |_i, lane| {
            if lane.device() == DeviceId(1) {
                panic!("fault-injection: pooled lane 1 dies");
            }
            let s = &mut lane.session;
            let t = s.alloc_tensor(&[1024], pasta::dl::dtype::DType::F32)?;
            s.launch(
                KernelDesc::new("survivor", Dim3::linear(2), Dim3::linear(64))
                    .arg(t.ptr, t.bytes)
                    .body(KernelBody::streaming(t.bytes, 0)),
            )?;
            s.free_tensor(&t);
            Ok(())
        })
        .expect_err("a panicking lane must fail the run");

    let PastaError::Salvaged(salvaged) = &err else {
        panic!("expected PastaError::Salvaged, got {err:?}");
    };
    assert_eq!(
        salvaged.failures,
        vec![LaneFailure {
            device: Some(DeviceId(1)),
            payload: "fault-injection: pooled lane 1 dies".into(),
        }]
    );
    assert_eq!(
        PANIC_THREAD.lock().unwrap().as_deref(),
        Some("lane-dev1"),
        "the pooled worker seeded with lane 1 carries its name"
    );
    // The survivor's work still merged.
    let launches = salvaged
        .report
        .tools
        .iter()
        .find(|r| r.tool == "launch-counter")
        .and_then(|r| r.get("launches"))
        .expect("survivor merged");
    assert_eq!(launches, 1.0);
}

// ---------------------------------------------------------------------------
// One worker pool: lanes and the session-end merge keep to their budgets.
// ---------------------------------------------------------------------------

/// Where and how concurrently a [`MergeWatch`] family ran its code.
#[derive(Default)]
struct WatchProbe {
    merging: std::sync::atomic::AtomicUsize,
    merge_peak: std::sync::atomic::AtomicUsize,
    threads: Mutex<std::collections::BTreeSet<String>>,
}

impl WatchProbe {
    fn saw(&self, thread: &str) {
        self.threads.lock().unwrap().insert(thread.to_owned());
    }
}

/// A forkable launch counter whose instances share one probe: every
/// thread that runs its code, and how many of its merges run at once
/// (each merge sleeps, so merges the pool could overlap do overlap). With
/// `device` set it also reads barriers, so its lanes attach a profiler
/// whose sink delivers the launch begins and barriers.
struct MergeWatch {
    launches: u64,
    device: bool,
    probe: std::sync::Arc<WatchProbe>,
}

impl Tool for MergeWatch {
    fn name(&self) -> &str {
        "merge-watch"
    }
    fn interest(&self) -> Interest {
        match self.device {
            true => Interest::KERNEL_LAUNCHES | Interest::BARRIERS,
            false => Interest::KERNEL_LAUNCHES,
        }
    }
    fn on_event(&mut self, event: &pasta::core::Event) {
        if matches!(event, pasta::core::Event::KernelLaunchEnd { .. }) {
            self.launches += 1;
        }
        self.probe
            .saw(std::thread::current().name().unwrap_or("unnamed"));
    }
    fn report(&self) -> ToolReport {
        ToolReport::new(self.name()).metric("launches", self.launches as f64)
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(MergeWatch {
            launches: 0,
            device: self.device,
            probe: std::sync::Arc::clone(&self.probe),
        }))
    }
    fn merge(&mut self, other: &dyn Tool) {
        use std::sync::atomic::Ordering::SeqCst;
        let probe = &self.probe;
        let now = probe.merging.fetch_add(1, SeqCst) + 1;
        probe.merge_peak.fetch_max(now, SeqCst);
        probe.saw(std::thread::current().name().unwrap_or("unnamed"));
        std::thread::sleep(std::time::Duration::from_micros(100));
        if let Some(other) = other.downcast_ref::<Self>() {
            self.launches += other.launches;
        }
        probe.merging.fetch_sub(1, SeqCst);
    }
}

/// Every thread a 64-device session runs tool code on is a worker of the
/// one pool — `lane-dev{N}` for the lanes, `merge-{k}` for the
/// session-end merge — or the caller; at most `max_lane_threads` lanes
/// and `max_merge_threads` merges run at once; and the merged report is
/// the same at every merge budget. The last region reads device events
/// under `run_parallel`: its lanes' sinks deliver on the lane workers too.
#[test]
fn lanes_and_the_merge_run_on_the_pool_within_their_budgets() {
    let launch = |lane: &mut DeviceLane<'_>| {
        lane.session.launch(
            KernelDesc::new("budget_probe", Dim3::linear(2), Dim3::linear(64))
                .body(KernelBody::compute(1 << 10).with_barriers(2)),
        )?;
        Ok(())
    };
    let mut reports = Vec::new();
    for (merge_threads, device) in [(1, false), (2, false), (4, false), (2, true)] {
        let probe = std::sync::Arc::new(WatchProbe::default());
        let mut session = Pasta::builder()
            .devices(vec![DeviceSpec::a100_80gb(); 64])
            .tool(MergeWatch {
                launches: 0,
                device,
                probe: std::sync::Arc::clone(&probe),
            })
            .parallel(ParallelConfig {
                max_lane_threads: 3,
                max_merge_threads: merge_threads,
                ..ParallelConfig::default()
            })
            .build()
            .expect("session builds");
        let run = match device {
            true => session.run_parallel(&devices(64), |lanes| {
                lane_exec::drive_lanes(lanes, LaneSchedule::Threaded, |_i, lane| launch(lane))
                    .map(drop)
            }),
            false => session.run_parallel_each(&devices(64), |_i, lane| launch(lane)),
        };
        run.expect("64-lane run completes");
        let report = session.merged_report();

        let lanes = session.pool_high_water();
        assert!((1..=3).contains(&lanes), "{lanes} lanes at once, budget 3");
        let merges = probe.merge_peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            (1..=merge_threads).contains(&merges),
            "{merges} merges at once, budget {merge_threads}"
        );
        let caller = std::thread::current()
            .name()
            .unwrap_or("unnamed")
            .to_owned();
        for thread in probe.threads.lock().unwrap().iter() {
            assert!(
                thread.starts_with("lane-dev") || thread.starts_with("merge-") || *thread == caller,
                "tool code ran on `{thread}`, outside the pool \
                 (budget {merge_threads}, device events {device})"
            );
        }
        let launches = (report.tools.iter())
            .find(|r| r.tool == "merge-watch")
            .and_then(|r| r.get("launches"));
        assert_eq!(
            launches,
            Some(64.0),
            "one launch per lane survived the merge (device events {device})"
        );
        if !device {
            reports.push(report);
        }
    }
    assert!(
        reports.windows(2).all(|w| w[0] == w[1]),
        "the merge budget moved the merged report"
    );
}
