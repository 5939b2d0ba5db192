//! Shared managed ranges across lanes (ISSUE 5).
//!
//! The differential suite for peer-to-peer UVM: a *concurrent* 2-lane
//! tensor-parallel run whose lanes share a managed range (the replicated
//! Megatron parameters, owner = rank 0) must produce a merged
//! [`UvmReport`] — and a full merged report — byte-identical to the
//! sequential single-device-at-a-time reference
//! (`train_iter_sequential_reference`). The coherence model classifies
//! remote reads statically (owner demand-faults from the host, every
//! other rank read-duplicates over the peer link), so each lane's peer
//! traffic depends only on its own stream and the schedule cannot leak
//! into the counters.
//!
//! Alongside it: the write-invalidation regression — a write to a shared
//! range must never leave a stale duplicate counted as resident, on the
//! unforked (eager) manager and across forked lanes (lazy drain) alike.
//!
//! Run with `--test-threads=1` in CI next to the concurrency suites.
//!
//! [`UvmReport`]: pasta::core::report::UvmReport

use pasta::core::{Pasta, UvmSetup};
use pasta::dl::parallel::{self, Parallelism};
use pasta::prelude::*;
use pasta::sim::{AccessKind, DeviceId, ResidencyModel};
use pasta::tools::{
    MemoryCharacteristicsTool, MemoryTimelineTool, PeerTraffic, UvmPrefetchAdvisor,
};
use pasta::uvm::{UvmConfig, UvmManager, PAGE_SIZE};

fn uvm_session() -> PastaSession {
    Pasta::builder()
        .a100_x2()
        .uvm(UvmSetup::default())
        .tool(UvmPrefetchAdvisor::new())
        .tool(MemoryTimelineTool::new())
        .tool(MemoryCharacteristicsTool::new())
        .build()
        .unwrap()
}

/// The acceptance gate: concurrent TP over a shared managed range is
/// byte-identical to the sequential single-manager reference — UVM
/// statistics, per-lane breakdown, peer-traffic matrix, tool reports,
/// event counts, everything in the merged report.
#[test]
fn concurrent_tp_shared_ranges_match_sequential_reference_byte_identically() {
    let mut concurrent = uvm_session();
    concurrent
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            parallel::train_iter(lanes, Parallelism::Tensor, 1).map(|_| ())
        })
        .unwrap();

    let mut sequential = uvm_session();
    sequential
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            parallel::train_iter_sequential_reference(lanes, Parallelism::Tensor, 1).map(|_| ())
        })
        .unwrap();

    let a = concurrent.uvm_report().expect("uvm attached");
    let b = sequential.uvm_report().expect("uvm attached");
    assert_eq!(
        a, b,
        "concurrent UvmReport diverged from the sequential reference"
    );
    assert_eq!(
        concurrent.merged_report(),
        sequential.merged_report(),
        "the full merged report must agree to the byte"
    );

    // The run genuinely exercised sharing: rank 1 read-duplicated the
    // replicated parameters from rank 0 over the peer link...
    assert!(a.stats.peer_pages_in > 0, "TP lanes shared a managed range");
    assert_eq!(a.peer_bytes.len(), 1, "one (src, dst) pair");
    let ((src, dst), bytes) = a.peer_bytes[0];
    assert_eq!((src, dst), (DeviceId(0), DeviceId(1)));
    assert_eq!(bytes, a.stats.peer_pages_in * PAGE_SIZE);
    // ...and never wrote it, so no duplicate was invalidated.
    assert_eq!(a.stats.duplicates_invalidated, 0);

    // Peer traffic landed in the *destination* lane's statistics and in
    // the destination shard's tools.
    let by_device: std::collections::BTreeMap<_, _> = a.per_device.iter().copied().collect();
    assert_eq!(by_device[&DeviceId(0)].peer_pages_in, 0, "rank 0 owns");
    assert_eq!(
        by_device[&DeviceId(1)].peer_pages_in,
        a.stats.peer_pages_in,
        "rank 1 duplicated"
    );
    let (matrix_a, matrix_b) = (
        concurrent
            .with_merged_tool("uvm-prefetch-advisor", UvmPrefetchAdvisor::peer_matrix)
            .unwrap(),
        sequential
            .with_merged_tool("uvm-prefetch-advisor", UvmPrefetchAdvisor::peer_matrix)
            .unwrap(),
    );
    assert_eq!(matrix_a, matrix_b);
    assert_eq!(matrix_a.len(), 1);
    assert_eq!(matrix_a[0].0, (DeviceId(0), DeviceId(1)));
    assert_eq!(matrix_a[0].1.bytes, bytes);
}

/// Data parallelism registers nothing shared — its merged reports must
/// stay byte-identical too, with zero peer traffic (the shared-range
/// machinery must not perturb fully private runs).
#[test]
fn concurrent_dp_stays_reference_identical_with_zero_peer_traffic() {
    let mut concurrent = uvm_session();
    concurrent
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            parallel::train_iter(lanes, Parallelism::Data, 1).map(|_| ())
        })
        .unwrap();
    let mut sequential = uvm_session();
    sequential
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            parallel::train_iter_sequential_reference(lanes, Parallelism::Data, 1).map(|_| ())
        })
        .unwrap();
    assert_eq!(concurrent.merged_report(), sequential.merged_report());
    let uvm = concurrent.uvm_report().unwrap();
    assert_eq!(uvm.stats.peer_pages_in, 0);
    assert!(uvm.peer_bytes.is_empty());
}

/// Review regression (round 4): the TP replica owner is the lowest-id
/// lane *in the run*, not a hardcoded device 0 — a lane set that skips
/// device 0 must still have a real owner demand-faulting the home copy
/// and peer traffic sourced from a participating device.
#[test]
fn tp_owner_derives_from_the_lane_set() {
    let mut session = Pasta::builder()
        .devices(vec![pasta::sim::DeviceSpec::a100_80gb(); 3])
        .uvm(UvmSetup::default())
        .build()
        .unwrap();
    session
        .run_parallel(&[DeviceId(1), DeviceId(2)], |lanes| {
            parallel::train_iter(lanes, Parallelism::Tensor, 1).map(|_| ())
        })
        .unwrap();
    let uvm = session.uvm_report().unwrap();
    assert_eq!(
        uvm.peer_bytes
            .iter()
            .map(|&(pair, _)| pair)
            .collect::<Vec<_>>(),
        vec![(DeviceId(1), DeviceId(2))],
        "the home copy lives on the lowest participating lane"
    );
    let by_device: std::collections::BTreeMap<_, _> = uvm.per_device.iter().copied().collect();
    assert_eq!(by_device[&DeviceId(1)].peer_pages_in, 0, "gpu1 owns");
    assert!(by_device[&DeviceId(2)].peer_pages_in > 0, "gpu2 duplicates");
    assert!(
        !uvm.per_device.iter().any(|&(d, _)| d == DeviceId(0)),
        "device 0 never participated"
    );
}

const BASE: u64 = 0x4000_0000_0000;

fn two_device_manager() -> UvmManager {
    let mut m = UvmManager::new(UvmConfig);
    m.add_device(512 << 20, 24.0, 25_000);
    m.add_device(512 << 20, 24.0, 25_000);
    m.register(BASE, 2 << 20);
    m.register_shared(BASE, 2 << 20, DeviceId(0));
    m
}

/// Regression: write-invalidation never leaves a stale duplicate counted
/// as resident. Unforked manager — the invalidation is eager.
#[test]
fn write_invalidation_leaves_no_stale_resident_duplicate_eager() {
    let mut m = two_device_manager();
    let len = 2 << 20;
    m.on_kernel_access(DeviceId(1), BASE, len, len, AccessKind::Load);
    assert!(m.page_resident(DeviceId(1), BASE), "duplicate resident");
    assert_eq!(m.resident_bytes(DeviceId(1)), len);

    m.on_kernel_access(DeviceId(0), BASE, len, len, AccessKind::Store);
    assert_eq!(
        m.resident_bytes(DeviceId(1)),
        0,
        "stale duplicate still counted as resident after the write"
    );
    assert!(!m.page_resident(DeviceId(1), BASE));
    let dir = m.directory().range_containing(BASE).unwrap();
    assert_eq!(dir.holders(BASE / PAGE_SIZE), vec![DeviceId(0)]);
    assert_eq!(m.stats().duplicates_invalidated, len / PAGE_SIZE);
}

/// Regression, forked-lane flavor: the writer cannot reach the victim
/// lane's residency, but (a) the directory drops the holder at write
/// time — the stale copy is never *served* — and (b) the victim's next
/// touch of the range drains the pending invalidations, drops the pages
/// and refaults them over the peer link.
#[test]
fn write_invalidation_leaves_no_stale_resident_duplicate_across_lanes() {
    let parent = two_device_manager();
    let mut lane0 = parent.fork(DeviceId(0));
    let mut lane1 = parent.fork(DeviceId(1));
    let len = 2 << 20;

    lane1.on_kernel_access(DeviceId(1), BASE, len, len, AccessKind::Load);
    lane0.on_kernel_access(DeviceId(0), BASE, len, len, AccessKind::Store);

    let dir = parent.directory().range_containing(BASE).unwrap();
    assert_eq!(
        dir.holders(BASE / PAGE_SIZE),
        vec![DeviceId(0)],
        "the directory never lists the stale duplicate as a holder"
    );
    // The victim's next access settles its private residency: the stale
    // pages drop first, then refault as fresh peer duplicates — they can
    // never satisfy the access as if still valid.
    let before = lane1.stats().peer_pages_in;
    let out = lane1.on_kernel_access(DeviceId(1), BASE, len, len, AccessKind::Load);
    assert_eq!(out.peer_in_bytes, len, "every stale page refaulted");
    assert_eq!(lane1.stats().peer_pages_in, before + len / PAGE_SIZE);
    assert_eq!(lane1.resident_bytes(DeviceId(1)), len);
    assert_eq!(
        dir.holders(BASE / PAGE_SIZE),
        vec![DeviceId(0), DeviceId(1)],
        "re-duplication re-registers the holder"
    );
}

/// Peer traffic surfaces end to end through events: the destination
/// shard's tools see the duplication, the source shard sees nothing.
#[test]
fn peer_migrate_events_land_in_the_destination_shard() {
    let mut session = uvm_session();
    session
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            std::thread::scope(|scope| {
                for lane in lanes.iter_mut() {
                    scope.spawn(move || {
                        let device = lane.device();
                        let s = &mut lane.session;
                        let t = s
                            .alloc_tensor(&[1 << 20], pasta::dl::dtype::DType::F32)
                            .unwrap();
                        if let Some(res) = s.runtime_mut().residency_mut() {
                            res.register_shared(t.ptr.addr(), t.bytes, DeviceId(0));
                        }
                        let desc = KernelDesc::new(
                            "shared_read_kernel",
                            Dim3::linear(64),
                            Dim3::linear(128),
                        )
                        .arg(t.ptr, t.bytes)
                        .body(
                            KernelBody::default().access(pasta::sim::AccessSpec::load(0, t.bytes)),
                        );
                        let rec = s.launch(desc).unwrap();
                        if device == DeviceId(0) {
                            assert!(rec.uvm_faults > 0, "owner demand-faults");
                            assert_eq!(rec.uvm_peer_bytes, 0);
                        } else {
                            assert_eq!(rec.uvm_faults, 0);
                            assert_eq!(rec.uvm_peer_bytes, t.bytes, "remote duplicates");
                        }
                        s.free_tensor(&t);
                    });
                }
            });
            Ok(())
        })
        .unwrap();

    // Shard 0 (the primary) holds only the owner's host faults; the peer
    // duplication event routed to shard 1 by its destination device.
    let shard0 = session
        .with_tool_mut("uvm-prefetch-advisor", |t: &mut UvmPrefetchAdvisor| {
            t.peer_matrix()
        })
        .unwrap();
    assert!(shard0.is_empty(), "no peer traffic in the source shard");
    let merged = session
        .with_merged_tool("uvm-prefetch-advisor", UvmPrefetchAdvisor::peer_matrix)
        .unwrap();
    assert_eq!(merged.len(), 1);
    let ((src, dst), traffic) = merged[0];
    assert_eq!((src, dst), (DeviceId(0), DeviceId(1)));
    assert_eq!(traffic.bytes, 4 << 20);
    assert_eq!(
        traffic,
        PeerTraffic {
            duplicated_pages: (4 << 20) / PAGE_SIZE,
            invalidated_pages: 0,
            bytes: 4 << 20,
            stall_ns: traffic.stall_ns,
        }
    );
    assert!(traffic.stall_ns > 0);
    // The timeline overlay attributes the same bytes to the destination.
    let peer_in = session
        .with_merged_tool("memory-timeline", |t: &MemoryTimelineTool| {
            [
                t.uvm_for(DeviceId(0)).peer_in_bytes,
                t.uvm_for(DeviceId(1)).peer_in_bytes,
            ]
        })
        .unwrap();
    assert_eq!(peer_in, [0, 4 << 20]);
    // And the session report carries the matrix.
    let uvm = session.uvm_report().unwrap();
    assert_eq!(uvm.peer_bytes, vec![((DeviceId(0), DeviceId(1)), 4 << 20)]);
}
