//! Allocation, lock and index-write pin for the UVM serving op.
//!
//! Warm `serve_oversub` ops (seed 1, slot 0), as the benchmark runs
//! them: 4 lanes on the 2-worker pool, the UVM budget at 9/8 of the
//! weights. Each must take, in a debug build, exactly 3707 lock
//! acquisitions:
//!
//! * 3219 lie outside the UVM directory: the lanes' hub shards and the
//!   session's own locks;
//! * 488 are `RangeDirectory::claim_read`, one per weights read that
//!   claims pages, the only range-lock acquisitions left on the path.
//!
//! The same op took 3715 while `run_parallel` drained lane rings after
//! each region: two quiesce sweeps, each locking the four shards.
//!
//! It took 11535 before evicting lanes dropped their holder bits
//! with no lock: 2803 `RangeDirectory::set_holder` calls that only
//! dropped an evicted weights page from the lane's own bits, and 5017 in
//! `deregister_evicted`'s debug-only `is_holder` sweep, now lock-free
//! reads too.
//!
//! Each must also write the residency index exactly 8893 times for
//! arriving pages and 4363 times for pages whose run split or joined,
//! and never for an evicted or removed page: a slot counts only while its
//! run holds the page. Before, the same op wrote 12091 slots on eviction,
//! 312 on removal and 4839 on relabels, among them cuts of the tail run
//! that a join undid at once.
//!
//! Each of three ops must make at most 717 allocations. Every lane
//! registers the shared weights range before any lane runs, so the
//! range's directory lives for the whole op; an allocation added to the
//! op's path shows in every op. One `#[test]`, because the counters are
//! process-global.

mod common;

use common::CountingAlloc;
use pasta::scenarios::Scenario;
use pasta::sim::sync::{counted, Site};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The most a warm op may allocate: the 717 it makes under the test
/// harness's output capture, which the op's pool threads inherit at 4
/// allocations an op (713 with `--nocapture`), so one more allocation on
/// the op's path fails here.
const ALLOCS_MAX: u64 = 717;
/// What a warm op does at each counted site (debug builds count them):
/// one more on the op's path, or one fewer left unrecorded, fails here.
const COUNTS: [(Site, u64); 5] = [
    (Site::Lock, 3707),
    (Site::IndexArrival, 8893),
    (Site::IndexRelabel, 4363),
    (Site::IndexEviction, 0),
    (Site::IndexRemoval, 0),
];

#[test]
fn a_warm_serve_oversub_op_makes_717_allocs_3707_locks_no_eviction_writes() {
    let scenario = Scenario::setup("serve_oversub", 1).expect("set-up");
    // Two ops warm the symbol table, the allocator and the lanes' pools.
    for _ in 0..2 {
        scenario.op(0).expect("a warm-up op");
    }
    let counted: Vec<(u64, [Option<u64>; 5])> = (0..3)
        .map(|_| {
            let (before, counts_before) = (GLOBAL.allocs(), COUNTS.map(|c| counted(c.0)));
            let out = scenario.op(0).expect("a counted op");
            let allocs = GLOBAL.allocs() - before;
            let counts = COUNTS.map(|c| counted(c.0));
            let counts = std::array::from_fn(|k| Some(counts[k]? - counts_before[k]?));
            out.checks().expect("the op's own checks");
            (allocs, counts)
        })
        .collect();
    for (allocs, counts) in &counted {
        assert!(
            *allocs <= ALLOCS_MAX,
            "{allocs} allocations, above {ALLOCS_MAX}: {counted:?}"
        );
        for ((site, want), got) in COUNTS.iter().zip(counts) {
            if let Some(got) = *got {
                assert_eq!(got, *want, "{} of a warm op: {counted:?}", site.name());
            }
        }
    }
}
