//! The coherence directory's census equals residency.
//!
//! Whatever shared reads, shared writes, private evictions, advice and
//! re-registrations a run performs, the devices a range directory lists
//! as holders of a page are exactly the devices the page is resident on —
//! a phantom holder makes a later write count and log an invalidation of
//! a copy that is gone, a missing one lets a stale copy survive it.
//!
//! The shared range here never starts on a page boundary (allocations
//! are 256-byte aligned, so real ones need not either): its first page's
//! start address lies below its base, which is where resolving a page's
//! range by address rather than by page span went wrong. The private
//! allocation ends on a page boundary just below it, so the range's page
//! span is its own — a page split between a shared range and a private
//! neighbour is resolved by whichever path touches it and sits outside
//! this contract.

use accel_sim::{AccessKind, DeviceId, ResidencyAdvice, ResidencyModel};
use proptest::prelude::*;
use uvm_sim::{page_range, UvmConfig, UvmManager, PAGE_SIZE};

const BASE: u64 = 0x4000_0000_0000;
const PRIVATE_PAGES: u64 = 32;
const SHARED_PAGES: u64 = 24;

/// (kind, device, page offset, pages) — see `apply`.
type Op = (u8, u32, u64, u64);

struct Layout {
    shared_base: u64,
    shared_len: u64,
}

impl Layout {
    /// `skew` 256-byte units push the shared range off the page boundary
    /// at both ends.
    fn new(skew: u64) -> Self {
        Layout {
            shared_base: BASE + PRIVATE_PAGES * PAGE_SIZE + skew * 256,
            shared_len: SHARED_PAGES * PAGE_SIZE - 256,
        }
    }

    fn register(&self, m: &mut UvmManager) {
        m.register(self.shared_base, self.shared_len);
        m.register_shared(self.shared_base, self.shared_len, DeviceId(0));
    }

    /// The byte range `pages` pages long starting `page` pages into the
    /// shared range, clamped to it.
    fn shared_slice(&self, page: u64, pages: u64) -> (u64, u64) {
        let offset = (page % SHARED_PAGES) * PAGE_SIZE;
        let len = (pages * PAGE_SIZE).min(self.shared_len - offset);
        (self.shared_base + offset, len)
    }
}

fn manager(devices: u32, budget_pages: u64, layout: &Layout) -> UvmManager {
    let mut m = UvmManager::new(UvmConfig::default());
    for _ in 0..devices {
        m.add_device(budget_pages * PAGE_SIZE, 24.0, 25_000);
    }
    m.register(BASE, PRIVATE_PAGES * PAGE_SIZE);
    layout.register(&mut m);
    m
}

/// One operation of the generated mix on `m`, acting as `device`.
/// Re-registration (kind 6) is the caller's, since forked lanes must do
/// it in step.
fn apply(m: &mut UvmManager, layout: &Layout, device: DeviceId, op: Op) {
    let (kind, _, page, pages) = op;
    let flag = pages % 2 == 0;
    let (base, len) = layout.shared_slice(page, pages);
    match kind {
        0 | 1 => drop(m.on_kernel_access(device, base, len, len, AccessKind::Load)),
        2 => drop(m.on_kernel_access(device, base, len, len, AccessKind::Store)),
        3 => {
            // Private traffic: evicts whatever the budget cannot keep.
            let offset = (page % PRIVATE_PAGES) * PAGE_SIZE;
            let len = (pages * PAGE_SIZE).min(PRIVATE_PAGES * PAGE_SIZE - offset);
            m.on_kernel_access(device, BASE + offset, len, len, AccessKind::Load);
        }
        4 => {
            let advice = if flag {
                ResidencyAdvice::PinOnDevice
            } else {
                ResidencyAdvice::PreferHost
            };
            m.advise(device, base, len, advice);
        }
        _ => {
            let advice = if flag {
                ResidencyAdvice::ReadMostly
            } else {
                ResidencyAdvice::Unset
            };
            m.advise(device, base, len, advice);
        }
    }
}

/// Asserts that the directory lists `device` for exactly the pages of the
/// shared range resident on it in `m`.
fn assert_census(m: &UvmManager, layout: &Layout, device: DeviceId) {
    let dir = m
        .directory()
        .range_containing(layout.shared_base)
        .expect("the shared range is registered");
    let span = page_range(layout.shared_base, layout.shared_len);
    prop_assert_eq!(dir.pages(), span);
    let resident: Vec<u64> = span
        .iter()
        .filter(|&p| m.page_resident(device, p * PAGE_SIZE))
        .collect();
    prop_assert_eq!(
        dir.pages_held_by(device),
        resident,
        "census of {:?} differs from its residency",
        device
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One manager owning every device: invalidation is eager, so the
    /// census holds after every single operation.
    #[test]
    fn census_equals_residency_on_one_manager(
        devices in 1u32..5,
        budget_pages in 2u64..40,
        skew in 1u64..256,
        ops in prop::collection::vec(
            (0u8..7, 0u32..4, 0u64..32, 1u64..28), 1..48)
    ) {
        let layout = Layout::new(skew);
        let mut m = manager(devices, budget_pages, &layout);
        for &op in &ops {
            if op.0 == 6 {
                m.unregister(layout.shared_base);
                layout.register(&mut m);
            } else {
                apply(&mut m, &layout, DeviceId(op.1 % devices), op);
            }
            for d in 0..devices {
                assert_census(&m, &layout, DeviceId(d));
            }
        }
    }

    /// One forked manager per device: a lane cannot reach a sibling's
    /// residency, so a victim keeps its invalidated copy until its next
    /// shared access drains the pending list — the census holds for a
    /// lane from that access on.
    #[test]
    fn census_equals_residency_on_forked_lanes_after_their_next_shared_access(
        devices in 1u32..5,
        budget_pages in 2u64..40,
        skew in 1u64..256,
        ops in prop::collection::vec(
            (0u8..7, 0u32..4, 0u64..32, 1u64..28), 1..48)
    ) {
        let layout = Layout::new(skew);
        let parent = manager(devices, budget_pages, &layout);
        let mut lanes: Vec<UvmManager> = (0..devices).map(|d| parent.fork(DeviceId(d))).collect();
        for &op in &ops {
            if op.0 == 6 {
                // The address range is reused: every lane lets go of it
                // before any lane registers it again.
                for lane in &mut lanes {
                    lane.unregister(layout.shared_base);
                }
                for lane in &mut lanes {
                    layout.register(lane);
                }
            } else {
                let d = op.1 % devices;
                apply(&mut lanes[d as usize], &layout, DeviceId(d), op);
            }
        }
        for (d, lane) in lanes.iter_mut().enumerate() {
            let device = DeviceId(d as u32);
            lane.on_kernel_access(device, layout.shared_base, 1, 1, AccessKind::Load);
            assert_census(lane, &layout, device);
        }
    }
}
