//! Property tests for the shard-aware UVM subsystem (ISSUE 4).
//!
//! The contract under test: `UvmManager::fork` + `merge` over *any*
//! interleaving of per-lane page accesses equals the sequential
//! single-manager reference — the one manager that processes each lane's
//! stream device-at-a-time, in ascending device order. Statistics and
//! peer traffic both.
//!
//! Two structural facts make the property meaningful rather than
//! circular: (1) each forked manager only ever observes its own lane's
//! stream in program order, so the *interleaving* of lanes can influence
//! the result only if fork/merge leak cross-lane state — the test drives
//! a genuinely shuffled global schedule to prove they don't; (2) the
//! reference is a plain, never-forked `UvmManager`, so the equality pins
//! fork+merge to the semantics a single-threaded run always had.
//!
//! Run with `--test-threads=1` in CI alongside the concurrency suite, so
//! shard-ordering nondeterminism cannot hide behind scheduler luck.

use pasta::sim::{AccessKind, DeviceId, ResidencyModel};
use pasta::uvm::{UvmConfig, UvmManager, UvmStats, PAGE_SIZE};
use proptest::prelude::*;

const BASE: u64 = 0x4000_0000_0000;

/// One lane's access stream: (page offset, page count) pairs, each
/// becoming an `on_kernel_access` over that page range.
type LaneStream = Vec<(u64, u64)>;

fn manager(lanes: usize, budget_pages: u64) -> UvmManager {
    let mut m = UvmManager::new(UvmConfig);
    for _ in 0..lanes {
        m.add_device(budget_pages * PAGE_SIZE, 24.0, 25_000);
    }
    m.register(BASE, 512 * PAGE_SIZE);
    m
}

fn drive(m: &mut UvmManager, device: DeviceId, stream: &[(u64, u64)]) {
    for &(page, pages) in stream {
        let base = BASE + page * PAGE_SIZE;
        let len = pages * PAGE_SIZE;
        m.on_kernel_access(device, base, len, len, AccessKind::Load);
    }
}

/// Folds lane managers into `parent` in ascending device order — the
/// deterministic merge `run_parallel` performs at session end.
fn merge_lanes(parent: &mut UvmManager, lanes: Vec<(DeviceId, UvmManager)>) {
    let mut lanes = lanes;
    lanes.sort_by_key(|&(d, _)| d);
    for (_, lane) in &lanes {
        parent.merge(lane);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stats: forked lanes merged in device order equal the sequential
    /// single-manager reference, for any per-lane streams and any
    /// interleaving (the schedule below round-robins with a generated
    /// skew, standing in for an arbitrary thread schedule).
    #[test]
    fn fork_merge_stats_equal_sequential_reference(
        stream0 in prop::collection::vec((0u64..400, 1u64..64), 1..12),
        stream1 in prop::collection::vec((0u64..400, 1u64..64), 1..12),
        budget_pages in 16u64..256,
        skew in 1usize..4
    ) {
        let streams: [LaneStream; 2] = [stream0, stream1];

        // Reference: one never-forked manager, lanes device-at-a-time.
        let mut reference = manager(2, budget_pages);
        for (i, stream) in streams.iter().enumerate() {
            drive(&mut reference, DeviceId(i as u32), stream);
        }

        // Forked lanes, driven through an interleaved global schedule:
        // lane 0 advances `skew` accesses per lane-1 access. Each lane
        // only sees its own sub-sequence, in order — as on real threads.
        let parent = manager(2, budget_pages);
        let mut lanes: Vec<(DeviceId, UvmManager)> = (0..2)
            .map(|i| (DeviceId(i), parent.fork(DeviceId(i))))
            .collect();
        let mut cursors = [0usize; 2];
        while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
            for (i, &(stream, steps)) in
                [(&streams[0], skew), (&streams[1], 1)].iter().enumerate()
            {
                for _ in 0..steps {
                    if cursors[i] < stream.len() {
                        let access = [stream[cursors[i]]];
                        drive(&mut lanes[i].1, DeviceId(i as u32), &access);
                        cursors[i] += 1;
                    }
                }
            }
        }
        let mut merged = manager(2, budget_pages);
        merge_lanes(&mut merged, lanes);

        prop_assert_eq!(merged.stats(), reference.stats());
        // Residency stays lane-private: the merged parent holds no pages.
        prop_assert_eq!(merged.resident_bytes(DeviceId(0)), 0);
        prop_assert_eq!(merged.resident_bytes(DeviceId(1)), 0);
    }

    /// Stats again, with three lanes — one possibly idle — collected in
    /// another order than they merge: the merge sorts by device id, so
    /// the collection order cannot reach the counters.
    #[test]
    fn fork_merge_stats_equal_reference_in_any_collection_order(
        stream0 in prop::collection::vec((0u64..400, 1u64..32), 1..10),
        stream1 in prop::collection::vec((0u64..400, 1u64..32), 1..10),
        stream2 in prop::collection::vec((0u64..400, 1u64..32), 0..10)
    ) {
        let streams: [LaneStream; 3] = [stream0, stream1, stream2];

        let mut reference = manager(3, 512);
        for (i, stream) in streams.iter().enumerate() {
            drive(&mut reference, DeviceId(i as u32), stream);
        }

        let parent = manager(3, 512);
        // Merge order is ascending device id even when lanes finish (and
        // are collected) in another order — emulate that with a rotation.
        let mut lanes: Vec<(DeviceId, UvmManager)> = [2u32, 0, 1]
            .into_iter()
            .map(|i| {
                let mut lane = parent.fork(DeviceId(i));
                drive(&mut lane, DeviceId(i), &streams[i as usize]);
                (DeviceId(i), lane)
            })
            .collect();
        lanes.sort_by_key(|&(d, _)| d);
        let mut merged = manager(3, 512);
        merge_lanes(&mut merged, lanes);

        prop_assert_eq!(merged.stats(), reference.stats());
    }

    /// Fork after prior activity: the session manager already counted
    /// accesses, its own and peer reads of a shared range, when the
    /// parallel region starts. Lanes of any length merged onto it equal
    /// the sequential reference that ran the same prior accesses and
    /// then each lane's stream device-at-a-time. The prior pages lie
    /// past every lane page, so the reference's warm residency cannot
    /// turn a lane's cold fault into a hit.
    #[test]
    fn fork_merge_after_prior_activity_equals_sequential_reference(
        stream0 in prop::collection::vec((0u64..400, 1u64..32), 1..10),
        stream1 in prop::collection::vec((0u64..400, 1u64..32), 1..10),
        prior in 0usize..5
    ) {
        let streams: [LaneStream; 2] = [stream0, stream1];
        let mut reference = manager(2, 512);
        let mut parent = manager(2, 512);
        for m in [&mut reference, &mut parent] {
            m.register_shared(BASE, 512 * PAGE_SIZE, DeviceId(0));
            for i in 0..prior {
                let access = [(500 + i as u64, 1u64)];
                drive(m, DeviceId(i as u32 % 2), &access);
            }
        }
        for (i, stream) in streams.iter().enumerate() {
            drive(&mut reference, DeviceId(i as u32), stream);
        }
        let mut lanes: Vec<(DeviceId, UvmManager)> = (0..2)
            .map(|i| {
                let mut lane = parent.fork(DeviceId(i));
                drive(&mut lane, DeviceId(i), &streams[i as usize]);
                (DeviceId(i), lane)
            })
            .collect();
        lanes.sort_by_key(|&(d, _)| d);
        for (_, lane) in &lanes {
            parent.merge(lane);
        }
        prop_assert_eq!(parent.stats(), reference.stats());
        prop_assert_eq!(parent.peer_matrix(), reference.peer_matrix());
    }

    /// Shared blocks conserve bytes under arbitrary read/write
    /// interleavings, against the never-forked single-manager oracle:
    /// every page ever brought in (host demand + peer duplication) is
    /// either still resident somewhere, was evicted, or was invalidated —
    /// and immediately after a write, no page of the written range is
    /// resident on two devices (the writer holds the only copy).
    #[test]
    fn shared_duplicates_and_invalidations_conserve_bytes(
        ops in prop::collection::vec(
            (0u32..3, 0u64..96, 1u64..32, any::<bool>()), 1..24),
        budget_pages in 24u64..256
    ) {
        let shared_pages = 96u64;
        let mut m = manager(3, budget_pages);
        m.register_shared(BASE, shared_pages * PAGE_SIZE, DeviceId(0));
        for &(device, page, pages, write) in &ops {
            let device = DeviceId(device);
            let page = page.min(shared_pages - 1);
            let pages = pages.min(shared_pages - page);
            let base = BASE + page * PAGE_SIZE;
            let len = pages * PAGE_SIZE;
            let kind = if write { AccessKind::Store } else { AccessKind::Load };
            m.on_kernel_access(device, base, len, len, kind);
            if write {
                // Exclusivity: after a write, no device but the writer
                // holds a written page — no block double-counted
                // resident. (The writer itself may have lost the page
                // again if the written range exceeded its own budget and
                // the access's LRU thrash evicted it.)
                for p in page..page + pages {
                    let addr = BASE + p * PAGE_SIZE;
                    let holders = (0..3u32)
                        .filter(|&d| m.page_resident(DeviceId(d), addr))
                        .collect::<Vec<_>>();
                    prop_assert!(
                        holders.is_empty() || holders == vec![device.0],
                        "page {} resident on {:?} after a write by {:?}",
                        p, holders, device
                    );
                }
            }
        }
        // Flow balance: pages in == pages still resident + pages evicted
        // + duplicates invalidated (every shared access in this test, so
        // all resident pages are shared pages).
        let s = m.stats();
        let resident: u64 = (0..3u32)
            .map(|d| m.resident_bytes(DeviceId(d)) / PAGE_SIZE)
            .sum();
        prop_assert_eq!(
            s.demand_pages_in + s.peer_pages_in,
            resident + s.pages_evicted + s.duplicates_invalidated,
            "shared bytes leaked or double-counted"
        );
        // The directory's holder census agrees with actual residency.
        let dir = m.directory().range_containing(BASE).unwrap();
        prop_assert_eq!(dir.holder_entries(), resident);
    }

    /// Read-only shared streams through forked lanes equal the oracle
    /// byte-for-byte — statistics and peer traffic — for any
    /// per-lane streams, any interleaving and any budget. This is the
    /// determinism contract the `uvm_p2p` differential suite rests on:
    /// remote-read classification is static (owner vs. not), so the
    /// schedule cannot reach the counters.
    #[test]
    fn forked_shared_reads_equal_never_forked_oracle(
        stream0 in prop::collection::vec((0u64..96, 1u64..32), 1..10),
        stream1 in prop::collection::vec((0u64..96, 1u64..32), 1..10),
        stream2 in prop::collection::vec((0u64..96, 1u64..32), 0..10),
        budget_pages in 16u64..256,
        skew in 1usize..4
    ) {
        let shared_pages = 96u64;
        let clamp = |s: &LaneStream| -> LaneStream {
            s.iter()
                .map(|&(p, n)| {
                    let p = p.min(shared_pages - 1);
                    (p, n.min(shared_pages - p))
                })
                .collect()
        };
        let streams: [LaneStream; 3] =
            [clamp(&stream0), clamp(&stream1), clamp(&stream2)];

        let mut oracle = manager(3, budget_pages);
        oracle.register_shared(BASE, shared_pages * PAGE_SIZE, DeviceId(0));
        for (i, stream) in streams.iter().enumerate() {
            drive(&mut oracle, DeviceId(i as u32), stream);
        }

        let mut parent = manager(3, budget_pages);
        parent.register_shared(BASE, shared_pages * PAGE_SIZE, DeviceId(0));
        let mut lanes: Vec<(DeviceId, UvmManager)> = (0..3)
            .map(|i| (DeviceId(i), parent.fork(DeviceId(i))))
            .collect();
        // Interleave: lane 0 advances `skew` accesses per single access
        // of lanes 1 and 2 — standing in for an arbitrary schedule.
        let mut cursors = [0usize; 3];
        while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
            for (i, steps) in [(0usize, skew), (1, 1), (2, 1)] {
                for _ in 0..steps {
                    if cursors[i] < streams[i].len() {
                        let access = [streams[i][cursors[i]]];
                        drive(&mut lanes[i].1, DeviceId(i as u32), &access);
                        cursors[i] += 1;
                    }
                }
            }
        }
        lanes.sort_by_key(|&(d, _)| d);
        for (_, lane) in &lanes {
            parent.merge(lane);
        }
        prop_assert_eq!(parent.stats(), oracle.stats());
        prop_assert_eq!(parent.peer_matrix(), oracle.peer_matrix());
    }

    /// Merging lane stats is interleaving-independent by construction,
    /// and equals the plain sum of per-lane stats.
    #[test]
    fn merged_stats_are_the_sum_of_lane_stats(
        stream0 in prop::collection::vec((0u64..400, 1u64..64), 0..10),
        stream1 in prop::collection::vec((0u64..400, 1u64..64), 0..10)
    ) {
        let parent = manager(2, 64);
        let mut lane0 = parent.fork(DeviceId(0));
        let mut lane1 = parent.fork(DeviceId(1));
        drive(&mut lane0, DeviceId(0), &stream0);
        drive(&mut lane1, DeviceId(1), &stream1);
        let mut expected = UvmStats::default();
        expected.merge_from(&lane0.stats());
        expected.merge_from(&lane1.stats());
        let mut merged = manager(2, 64);
        merge_lanes(&mut merged, vec![(DeviceId(0), lane0), (DeviceId(1), lane1)]);
        prop_assert_eq!(merged.stats(), expected);
    }
}
