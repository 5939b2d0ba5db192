//! Allocation pin for the canonical suite's op.
//!
//! One warm `profile_fine` op — the six-tool suite over BERT, GPT-2 and
//! ResNet-18, as the benchmark runs it — must make no single request
//! above 64 KiB and at most 549 allocations in all. The suite's state
//! grows with events, not with the bytes an access spans: when hotness
//! kept one cell per (bin, 2 MiB block), its cells grew through realloc
//! chains to 227 KB and 113 KB per op, the op's only requests above
//! 64 KiB. One `#[test]`, because the counters are process-global.

mod common;

use common::CountingAlloc;
use pasta::scenarios::Scenario;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The most a warm op may allocate: the 549 it makes, in debug and release
/// builds alike, so one more allocation on the op's path fails here.
const ALLOCS_MAX: u64 = 549;
/// The largest single request a warm op may make.
const REQUEST_MAX: usize = 64 << 10;

#[test]
fn a_warm_profile_fine_op_makes_no_large_request_and_at_most_549_allocations() {
    let scenario = Scenario::setup("profile_fine", 1).expect("set-up");
    // Two ops warm the symbol table, the allocator and the tools' buffers.
    for _ in 0..2 {
        scenario.op(0).expect("a warm-up op");
    }
    GLOBAL.take_largest();
    let before = GLOBAL.allocs();
    let out = scenario.op(0).expect("the counted op");
    let allocs = GLOBAL.allocs() - before;
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
}
