//! Oversubscription conformance (ISSUE 5) — the Fig. 12 regime.
//!
//! The paper's multi-GPU oversubscription analysis shrinks the managed
//! budget below the working set and watches faults and evictions climb.
//! These tests pin the monotonicity that analysis rests on, end to end
//! through `UvmSetup::budget_bytes` and `run_parallel`:
//!
//! * at 100% of the working set the run reports **zero evictions**;
//! * evicted bytes and fault counts are **monotonically non-decreasing**
//!   as the budget shrinks (100% → 75% → 50%);
//! * the same holds per lane on multi-GPU runs, and for peer traffic
//!   when the lanes share a managed range.
//!
//! Run with `--test-threads=1` in CI next to the other UVM suites.

use pasta::core::{Pasta, UvmSetup};
use pasta::prelude::*;
use pasta::sim::{AccessKind, DeviceId, ResidencyModel};
use pasta::uvm::{UvmConfig, UvmManager, UvmStats, PAGE_SIZE};

/// Per-lane working set: 32 MiB, streamed twice in 4 MiB windows.
const WS: u64 = 32 << 20;
const WINDOW: u64 = 4 << 20;

/// Streams the lane's working set twice in windows — pass two rereads
/// the pages pass one faulted in, so any budget below 100% must evict
/// and refault.
fn stream_working_set(lane: &mut pasta::dl::parallel::DeviceLane<'_>) {
    let s = &mut lane.session;
    let t = s
        .alloc_tensor(&[(WS / 4) as usize], pasta::dl::dtype::DType::F32)
        .unwrap();
    assert_eq!(t.bytes, WS);
    for pass in 0..2 {
        for w in 0..WS / WINDOW {
            let desc = KernelDesc::new("oversub_stream", Dim3::linear(64), Dim3::linear(128))
                .arg(t.ptr, t.bytes)
                .body(KernelBody::default().access(
                    pasta::sim::AccessSpec::load(0, WINDOW).with_range(w * WINDOW, WINDOW),
                ));
            let rec = s.launch(desc).unwrap();
            let _ = pass;
            let _ = rec;
        }
    }
    s.free_tensor(&t);
}

/// Runs the 2-device streaming workload with the given managed budget
/// and returns the merged UVM statistics.
fn run_with_budget(budget: u64) -> UvmStats {
    let mut session = Pasta::builder()
        .a100_x2()
        .uvm(UvmSetup {
            budget_bytes: Some(budget),
            ..UvmSetup::default()
        })
        .build()
        .unwrap();
    session
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            std::thread::scope(|scope| {
                for lane in lanes.iter_mut() {
                    scope.spawn(move || stream_working_set(lane));
                }
            });
            Ok(())
        })
        .unwrap();
    session.uvm_report().expect("uvm attached").stats
}

#[test]
fn budget_at_full_working_set_reports_zero_evictions() {
    let s = run_with_budget(WS);
    assert_eq!(s.pages_evicted, 0, "100% budget must never evict");
    assert_eq!(
        s.demand_pages_in,
        2 * WS / PAGE_SIZE,
        "each lane faults its working set exactly once"
    );
    assert_eq!(s.evict_stall_ns, 0);
}

#[test]
fn faults_and_evictions_grow_monotonically_as_budget_shrinks() {
    let full = run_with_budget(WS);
    let three_quarters = run_with_budget(WS * 3 / 4);
    let half = run_with_budget(WS / 2);

    assert_eq!(full.pages_evicted, 0);
    for (tighter, looser, label) in [
        (&three_quarters, &full, "75% vs 100%"),
        (&half, &three_quarters, "50% vs 75%"),
    ] {
        assert!(
            tighter.pages_evicted >= looser.pages_evicted,
            "{label}: evicted pages decreased under a smaller budget \
             ({} < {})",
            tighter.pages_evicted,
            looser.pages_evicted
        );
        assert!(
            tighter.fault_groups >= looser.fault_groups,
            "{label}: fault groups decreased under a smaller budget \
             ({} < {})",
            tighter.fault_groups,
            looser.fault_groups
        );
        assert!(
            tighter.demand_pages_in >= looser.demand_pages_in,
            "{label}: demand pages decreased under a smaller budget"
        );
    }
    // Oversubscription genuinely bites: the 50% run must actually evict
    // and refault, not merely tie.
    assert!(half.pages_evicted > 0, "50% budget must evict");
    assert!(
        half.demand_pages_in > full.demand_pages_in,
        "refaults under pressure"
    );
}

/// The same monotonicity at the manager level across 4 devices — the
/// Fig. 12 sweep shape the example drives — plus peer traffic when the
/// ranges are shared: an oversubscribed non-owner evicts duplicates and
/// re-duplicates them, so peer pages climb as the budget shrinks too.
#[test]
fn four_device_shared_sweep_is_monotone_in_peer_traffic() {
    const BASE: u64 = 0x4000_0000_0000;
    let run = |budget: u64| -> UvmStats {
        let mut m = UvmManager::new(UvmConfig);
        for _ in 0..4 {
            m.add_device_p2p(budget, 24.0, 300.0, 25_000);
        }
        m.register(BASE, WS);
        m.register_shared(BASE, WS, DeviceId(0));
        for _pass in 0..2 {
            for w in 0..WS / WINDOW {
                for d in 0..4u32 {
                    m.on_kernel_access(
                        DeviceId(d),
                        BASE + w * WINDOW,
                        WINDOW,
                        WINDOW,
                        AccessKind::Load,
                    );
                }
            }
        }
        m.stats()
    };
    let full = run(WS);
    let three_quarters = run(WS * 3 / 4);
    let half = run(WS / 2);

    assert_eq!(full.pages_evicted, 0, "everything fits at 100%");
    assert_eq!(
        full.peer_pages_in,
        3 * WS / PAGE_SIZE,
        "three non-owners duplicate the set once each"
    );
    for (tighter, looser) in [(&three_quarters, &full), (&half, &three_quarters)] {
        assert!(tighter.pages_evicted >= looser.pages_evicted);
        assert!(tighter.fault_groups >= looser.fault_groups);
        assert!(
            tighter.peer_pages_in >= looser.peer_pages_in,
            "evicted duplicates must re-duplicate over the peer link"
        );
    }
    assert!(half.peer_pages_in > full.peer_pages_in);
    assert!(half.pages_evicted > 0);
}
