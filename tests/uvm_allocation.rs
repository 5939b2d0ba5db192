//! Steady-state allocation pin for the UVM access path.
//!
//! Once a managed range is resident, resolving an access to it walks the
//! LRU list in place: no segment list, no missing-page set, no counter
//! that grows with the number of accesses. That holds on the session's
//! manager and on a lane forked from it, which keeps nothing per access
//! for the merge either. A counting allocator pins both. One `#[test]`,
//! because the counter is process-global.

mod common;

use common::CountingAlloc;
use pasta::sim::{AccessKind, DeviceId, ResidencyModel};
use pasta::uvm::{UvmConfig, UvmManager, PAGE_SIZE};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

const BASE: u64 = 0x4000_0000_0000;
const PAGES: u64 = 32;
const ACCESSES: u64 = 4096;

/// The `i`-th access: a window of 1–8 pages sliding over the range, at a
/// sub-page offset, so successive accesses start and end on different
/// pages.
fn access(m: &mut UvmManager, device: DeviceId, i: u64) -> u64 {
    let page = i * 5 % (PAGES - 8);
    let len = (1 + i % 8) * PAGE_SIZE - 256;
    let base = BASE + page * PAGE_SIZE + 128;
    m.on_kernel_access(device, base, len, len, AccessKind::Load)
        .faults
}

#[test]
fn resident_managed_accesses_allocate_nothing_on_a_session_manager_or_a_lane() {
    let mut session = UvmManager::new(UvmConfig);
    for _ in 0..2 {
        session.add_device(2 * PAGES * PAGE_SIZE, 24.0, 25_000);
    }
    session.register(BASE, PAGES * PAGE_SIZE);
    let mut lane = session.fork(DeviceId(1));

    for (name, m, device) in [
        ("session manager", &mut session, DeviceId(0)),
        ("forked lane", &mut lane, DeviceId(1)),
    ] {
        // Warm: fault the whole range in, then run the loop once so
        // whatever an access grows has grown.
        let cold = m.on_kernel_access(device, BASE, PAGES * PAGE_SIZE, 1, AccessKind::Load);
        assert!(cold.faults > 0, "{name}: the range starts cold");
        for i in 0..ACCESSES {
            access(m, device, i);
        }
        let before = GLOBAL.allocs();
        let faults: u64 = (0..ACCESSES).map(|i| access(m, device, i)).sum();
        let allocated = GLOBAL.allocs() - before;
        assert_eq!(faults, 0, "{name}: every access hits");
        assert_eq!(
            allocated, 0,
            "{name}: {ACCESSES} resident managed accesses allocated"
        );
    }

    // The lane still folds back: its cold faults reach the session.
    let lane_faults = lane.stats().fault_groups;
    let session_faults = session.stats().fault_groups;
    session.merge(&lane);
    assert_eq!(
        session.stats().fault_groups,
        session_faults + lane_faults,
        "the merge sums the lane's counters"
    );
}
