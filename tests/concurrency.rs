//! Concurrent-emission stress tests for the sharded hub (ISSUE 3).
//!
//! Loom-free by construction: correctness never depends on the
//! interleaving, because threads emitting for different devices touch
//! disjoint shards. The tests hammer the hub from several OS threads and
//! assert that the *merged* report is byte-identical to a sequential
//! reference run — the determinism the merge stage (launch order within a
//! device, ascending device id across devices) guarantees.

mod common;

use common::sharded_hub;
use pasta::core::hub::{HubSink, SharedHub};
use pasta::core::report::MergedReport;
use pasta::sim::instrument::{DeviceTraceSink, TraceCtx};
use pasta::sim::{
    AccessBatch, AccessKind, AccessPattern, DeviceId, Dim3, KernelTraceSummary, LaunchId, MemSpace,
};
use std::sync::Arc;

fn ctx(device: u32, launch: u64) -> TraceCtx {
    TraceCtx {
        launch: LaunchId(launch),
        device: DeviceId(device),
        stream: 0,
        name: "stress_kernel".into(),
        grid: Dim3::linear(32),
        block: Dim3::linear(128),
    }
}

fn batch(launch: u64, i: u64) -> AccessBatch {
    AccessBatch {
        launch: LaunchId(launch),
        spec_index: 0,
        base: 0x1000 + i * 4096,
        len: 4096,
        records: 32,
        bytes: 4096,
        elem_size: 4,
        kind: AccessKind::Load,
        space: if i.is_multiple_of(3) {
            MemSpace::Shared
        } else {
            MemSpace::Global
        },
        pattern: AccessPattern::Sequential,
    }
}

/// One device's deterministic fine-grained stream: `launches` kernels of
/// interleaved batches and barriers through a sink bound to that device.
fn drive_device(hub: &SharedHub, device: u32, launches: u64) {
    let mut sink = HubSink::new(Arc::clone(hub));
    for l in 0..launches {
        // Distinct launch-id spaces per device, as per-lane engines have.
        let launch = u64::from(device) * 10_000 + l;
        let ctx = ctx(device, launch);
        sink.on_kernel_begin(&ctx);
        for i in 0..300 {
            sink.on_batch(&ctx, &batch(launch, i));
            if i % 50 == 0 {
                sink.on_barriers(&ctx, 4);
            }
        }
        sink.on_kernel_end(&ctx, &KernelTraceSummary::default());
    }
}

fn merged_after(devices: u32, launches: u64, concurrent: bool) -> MergedReport {
    let hub = sharded_hub(devices);
    if concurrent {
        std::thread::scope(|scope| {
            for d in 0..devices {
                let hub = &hub;
                scope.spawn(move || drive_device(hub, d, launches));
            }
        });
    } else {
        for d in 0..devices {
            drive_device(&hub, d, launches);
        }
    }
    hub.merged_report()
}

#[test]
fn concurrent_emission_matches_sequential_reference() {
    let sequential = merged_after(2, 20, false);
    let concurrent = merged_after(2, 20, true);
    assert_eq!(
        concurrent, sequential,
        "merged report must not depend on thread interleaving"
    );
    // Sanity: the streams really flowed.
    let agg = &sequential.tools[0];
    assert_eq!(agg.get("launches"), Some(40.0));
    assert_eq!(agg.get("batches"), Some(2.0 * 20.0 * 300.0));
}

#[test]
fn four_threads_interleaving_stays_deterministic() {
    let reference = merged_after(4, 8, false);
    for _ in 0..3 {
        assert_eq!(merged_after(4, 8, true), reference);
    }
}

#[test]
fn per_shard_breakdown_is_disjoint_under_concurrency() {
    let merged = merged_after(3, 10, true);
    assert_eq!(merged.per_device.len(), 3);
    for (device, reports) in &merged.per_device {
        assert_eq!(
            reports[0].get("launches"),
            Some(10.0),
            "{device} got exactly its own launches"
        );
    }
    let total: f64 = merged
        .per_device
        .iter()
        .map(|(_, r)| r[0].get("batches").unwrap())
        .sum();
    assert_eq!(Some(total), merged.tools[0].get("batches"));
}
