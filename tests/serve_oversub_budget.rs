//! Allocation and lock pin for the UVM serving op.
//!
//! Warm `serve_oversub` ops (seed 1, slot 0), as the benchmark runs
//! them: 4 lanes on the 2-worker pool, the UVM budget at 9/8 of the
//! weights. Each must take, in a debug build, exactly 3715 lock
//! acquisitions:
//!
//! * 3227 lie outside the UVM directory: the lanes' hub shards and the
//!   session's own locks;
//! * 488 are `RangeDirectory::claim_read`, one per weights read that
//!   claims pages, the only range-lock acquisitions left on the path.
//!
//! The same op took 11535 before evicting lanes dropped their holder bits
//! with no lock: 2803 `RangeDirectory::set_holder` calls that only
//! dropped an evicted weights page from the lane's own bits, and 5017 in
//! `deregister_evicted`'s debug-only `is_holder` sweep, now lock-free
//! reads too.
//!
//! The fewest allocations of three ops must be at most 720. An op's count
//! is not fixed: now and then one makes 722 (1 op of 36 over twelve
//! processes), while an allocation added to the op's path shows in every
//! op. One `#[test]`, because the counters are process-global.

mod common;

use common::CountingAlloc;
use pasta::scenarios::Scenario;
use pasta::sim::sync::acquisitions;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The most the leanest of three warm ops may allocate: the 720 one
/// makes under the test harness's output capture, which the op's pool
/// threads inherit at 4 allocations an op (716 with `--nocapture`), so
/// one more allocation on the op's path fails here.
const ALLOCS_MAX: u64 = 720;
/// The lock acquisitions a warm op makes (debug builds count them): one
/// more on the op's path, or one fewer left unrecorded, fails here.
const LOCKS: u64 = 3715;

#[test]
fn a_warm_serve_oversub_op_makes_720_allocs_3715_locks() {
    let scenario = Scenario::setup("serve_oversub", 1).expect("set-up");
    // Two ops warm the symbol table, the allocator and the lanes' pools.
    for _ in 0..2 {
        scenario.op(0).expect("a warm-up op");
    }
    let counted: Vec<(u64, Option<u64>)> = (0..3)
        .map(|_| {
            let (before, locks_before) = (GLOBAL.allocs(), acquisitions());
            let out = scenario.op(0).expect("a counted op");
            let allocs = GLOBAL.allocs() - before;
            let locks = acquisitions().zip(locks_before).map(|(a, b)| a - b);
            out.checks().expect("the op's own checks");
            (allocs, locks)
        })
        .collect();
    let fewest = counted.iter().map(|c| c.0).min().expect("three ops");
    assert!(
        fewest <= ALLOCS_MAX,
        "{fewest} allocations at fewest, above {ALLOCS_MAX}: {counted:?}"
    );
    for (_, locks) in &counted {
        if let Some(locks) = *locks {
            assert_eq!(locks, LOCKS, "lock acquisitions of a warm op: {counted:?}");
        }
    }
}
