//! Allocation and lock pin for the canonical suite's op.
//!
//! One warm `profile_fine` op — the six-tool suite over BERT, GPT-2 and
//! ResNet-18, as the benchmark runs it — must make no single request
//! above 64 KiB, at most 542 allocations in all and, in a debug build,
//! exactly 4349 lock acquisitions. The suite's state grows with events,
//! not with the bytes an access spans: when hotness kept one cell per
//! (bin, 2 MiB block), its cells grew through realloc chains to 227 KB
//! and 113 KB per op, the op's only requests above 64 KiB. One `#[test]`,
//! because the counters are process-global.

mod common;

use common::CountingAlloc;
use pasta::scenarios::Scenario;
use pasta::sim::sync::{counted, Site};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The most a warm op may allocate: the 542 it makes, in debug and release
/// builds alike, so one more allocation on the op's path fails here.
const ALLOCS_MAX: u64 = 542;
/// The largest single request a warm op may make.
const REQUEST_MAX: usize = 64 << 10;
/// The lock acquisitions a warm op makes (debug builds count them): one
/// more on the op's path, or one fewer left unrecorded, fails here.
const LOCKS: u64 = 4349;

#[test]
fn a_warm_profile_fine_op_has_no_large_request_542_allocs_4349_locks() {
    let scenario = Scenario::setup("profile_fine", 1).expect("set-up");
    // Two ops warm the symbol table, the allocator and the tools' buffers.
    for _ in 0..2 {
        scenario.op(0).expect("a warm-up op");
    }
    GLOBAL.take_largest();
    let (before, locks_before) = (GLOBAL.allocs(), counted(Site::Lock));
    let out = scenario.op(0).expect("the counted op");
    let allocs = GLOBAL.allocs() - before;
    let locks = counted(Site::Lock).zip(locks_before).map(|(a, b)| a - b);
    let largest = GLOBAL.take_largest();
    out.checks().expect("the op's own checks");
    assert!(
        largest <= REQUEST_MAX,
        "a request of {largest} bytes, above {REQUEST_MAX}"
    );
    assert!(
        allocs <= ALLOCS_MAX,
        "{allocs} allocations, above {ALLOCS_MAX}"
    );
    if let Some(locks) = locks {
        assert_eq!(locks, LOCKS, "lock acquisitions of a warm op");
    }
}
