//! Steady-state allocation pins for the UVM access path.
//!
//! Once a managed range is resident, resolving an access to it walks the
//! LRU list in place: no segment list, no missing-page set, no counter
//! that grows with the number of accesses. Under oversubscription, where
//! every access faults pages in and evicts others, the runs, the page
//! index and the scratch lists reach their high water and stay there.
//! Both hold on the session's manager and on a lane forked from it, which
//! keeps nothing per access for the merge either. The page index is
//! windows of run slots over the chunks where pages landed, never over
//! the managed window: two pages at the ends of a 6 TiB registration
//! open two small windows. A counting allocator pins all three. One
//! `#[test]`, because its counters are process-global.

mod common;

use common::CountingAlloc;
use pasta::sim::{AccessKind, DeviceId, ResidencyModel};
use pasta::uvm::{UvmConfig, UvmManager, PAGE_SIZE};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The engine's managed window: its base and its 6 TiB capacity.
const BASE: u64 = 0x4000_0000_0000;
const MANAGED_CAPACITY: u64 = 6 << 40;
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
fn managed_accesses_allocate_nothing_once_warm_and_the_page_index_stays_small() {
    resident_accesses_on_a_session_manager_and_a_lane();
    oversubscribed_fault_and_evict_cycles();
    the_page_index_grows_with_resident_pages_not_the_managed_window();
}

fn resident_accesses_on_a_session_manager_and_a_lane() {
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

/// One sweep of the benchmark's thrash shape over a range of `2 * PAGES`
/// pages: eight windows of a quarter of the budget each. With the budget
/// at half the range, every window faults in and evicts.
fn sweep(m: &mut UvmManager, device: DeviceId, base: u64) -> u64 {
    let window = PAGES / 4 * PAGE_SIZE;
    (0..8)
        .map(|w| {
            let at = base + w * window;
            m.on_kernel_access(device, at, window, window, AccessKind::Load)
                .faults
        })
        .sum()
}

fn oversubscribed_fault_and_evict_cycles() {
    // Budgets of half the working set; one private range, and one shared
    // range per device that device owns (a non-owner's duplications go to
    // the peer log, which grows until the engine drains it).
    let mut session = UvmManager::new(UvmConfig);
    for _ in 0..2 {
        session.add_device(PAGES * PAGE_SIZE, 24.0, 25_000);
    }
    let len = 2 * PAGES * PAGE_SIZE;
    let (private, shared) = (BASE, [BASE + (1 << 30), BASE + (2 << 30)]);
    for base in [private, shared[0], shared[1]] {
        session.register(base, len);
    }
    session.register_shared(shared[0], len, DeviceId(0));
    session.register_shared(shared[1], len, DeviceId(1));
    let mut lane = session.fork(DeviceId(1));

    for (name, m, device) in [
        ("session manager", &mut session, DeviceId(0)),
        ("forked lane", &mut lane, DeviceId(1)),
    ] {
        for (range, base) in [("private", private), ("shared", shared[device.index()])] {
            for _ in 0..3 {
                sweep(m, device, base);
            }
            let evicted = m.stats().pages_evicted;
            let before = GLOBAL.allocs();
            let faults: u64 = (0..16).map(|_| sweep(m, device, base)).sum();
            let allocated = GLOBAL.allocs() - before;
            assert!(faults > 0, "{name}, {range} range: every sweep faults");
            assert!(
                m.stats().pages_evicted > evicted,
                "{name}, {range} range: and evicts"
            );
            assert_eq!(
                allocated, 0,
                "{name}, {range} range: 16 warm fault-and-evict sweeps allocated"
            );
        }
    }
}

fn the_page_index_grows_with_resident_pages_not_the_managed_window() {
    GLOBAL.take_largest();
    let mut m = UvmManager::new(UvmConfig);
    m.add_device(4 * PAGE_SIZE, 24.0, 25_000);
    m.register(BASE, MANAGED_CAPACITY);
    let last = BASE + MANAGED_CAPACITY - PAGE_SIZE;
    for at in [BASE, last] {
        let out = m.on_kernel_access(DeviceId(0), at, PAGE_SIZE, PAGE_SIZE, AccessKind::Load);
        assert!(out.faults > 0, "the page at {at:#x} starts cold");
    }
    assert!(m.page_resident(DeviceId(0), BASE) && m.page_resident(DeviceId(0), last));
    assert_eq!(m.resident_bytes(DeviceId(0)), 2 * PAGE_SIZE);
    let largest = GLOBAL.take_largest();
    assert!(
        largest <= 64 << 10,
        "one allocation of {largest} bytes for two pages of a 6 TiB window"
    );
}
