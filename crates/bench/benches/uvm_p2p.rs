//! Shared-range (peer-to-peer) UVM cost and the private-path regression
//! guard (ISSUE 5).
//!
//! The coherence directory behind shared managed ranges is `Arc`-held
//! with one lock per range — and the acceptance criterion is that the
//! **private**-range residency hot path stays lock-free and unregressed.
//! Three per-launch configs measure exactly that:
//!
//! * `per-launch/private-no-shared` — the ISSUE 4 hot path, byte for
//!   byte: a lane-forked manager resolving an oversubscribed private
//!   window per launch. Must match `per-launch/full-forked` in
//!   `BENCH_uvm_parallel.json` within noise.
//! * `per-launch/private-shared-present` — the same private launch while
//!   an *unrelated* shared range is registered: prices the only code the
//!   private path gains (a map probe plus victim-identity tracking on
//!   eviction), still without touching any lock.
//! * `per-launch/peer-duplicate` — the shared path at full tilt: a
//!   non-owner lane whose every launch read-duplicates an oversubscribed
//!   window over the peer link (directory lock, holder registration,
//!   eviction deregistration included).
//!
//! Numbers land in `BENCH_uvm_p2p.json`; run with
//! `cargo bench -p pasta-bench --bench uvm_p2p`.

use accel_sim::{AccessSpec, DeviceId, DeviceRuntime, DeviceSpec, Dim3, KernelBody, KernelDesc};
use criterion::{criterion_group, criterion_main, Criterion};
use pasta_core::handler::attach_nv;
use pasta_core::hub::{Hub, SharedHub};
use pasta_core::processor::EventProcessor;
use pasta_tools::{MemoryCharacteristicsTool, MemoryTimelineTool, UvmPrefetchAdvisor};
use std::sync::Arc;
use uvm_sim::{UvmConfig, UvmManager};
use vendor_nv::CudaContext;

/// Managed region each lane allocates.
const REGION: u64 = 64 << 20;
/// Window one launch streams.
const WINDOW: u64 = 8 << 20;
/// Managed budget per device — 2x oversubscribed, so rotation evicts.
const BUDGET: u64 = 32 << 20;

fn processor() -> EventProcessor {
    let mut p = EventProcessor::new();
    p.tools.register(Box::new(UvmPrefetchAdvisor::new()));
    p.tools.register(Box::new(MemoryTimelineTool::new()));
    p.tools.register(Box::new(MemoryCharacteristicsTool::new()));
    p
}

fn sharded_hub(devices: u32) -> SharedHub {
    let shards = (0..devices)
        .map(|d| {
            let p = processor();
            let p = if d == 0 {
                p
            } else {
                p.fork().expect("suite forks")
            };
            (DeviceId(d), p)
        })
        .collect();
    Arc::new(Hub::sharded(shards).unwrap())
}

fn parent_manager() -> UvmManager {
    let mut m = UvmManager::new(UvmConfig);
    // NVLink-class peer link, as the session builder configures from the
    // A100 spec.
    m.add_device_p2p(BUDGET, 24.0, 300.0, 25_000);
    m.add_device_p2p(BUDGET, 24.0, 300.0, 25_000);
    m
}

/// A lane context pinned to `device`, wired into `hub`, with a forked
/// manager attached and a `REGION`-byte managed buffer allocated.
fn lane_context(
    device: u32,
    hub: &SharedHub,
    parent: &UvmManager,
) -> (CudaContext, accel_sim::DevicePtr) {
    let mut ctx = CudaContext::new(vec![DeviceSpec::a100_80gb(), DeviceSpec::a100_80gb()]);
    ctx.set_device(DeviceId(device)).unwrap();
    attach_nv(&mut ctx, Arc::clone(hub));
    ctx.attach_uvm(parent.fork(DeviceId(device)));
    let buf = ctx.malloc_managed(REGION).unwrap();
    (ctx, buf)
}

/// One UVM-instrumented launch streaming the `i`-th window of `buf`.
fn drive_launch(ctx: &mut CudaContext, buf: accel_sim::DevicePtr, i: u64) {
    let offset = (i % (REGION / WINDOW)) * WINDOW;
    let desc = KernelDesc::new("uvm_stream_kernel", Dim3::linear(64), Dim3::linear(128))
        .arg(buf, REGION)
        .body(KernelBody::default().access(AccessSpec::load(0, WINDOW).with_range(offset, WINDOW)));
    ctx.launch(desc).unwrap();
}

/// Marks the lane's managed region shared with `owner` through the
/// lane's attached manager.
fn share_region(ctx: &mut CudaContext, buf: accel_sim::DevicePtr, owner: DeviceId) {
    let res = ctx.engine_mut().residency_mut().expect("uvm attached");
    res.register_shared(buf.addr(), REGION, owner);
}

/// `per-launch/private-no-shared`: the pre-existing private hot path on
/// a lane-forked manager — the regression guard against
/// `BENCH_uvm_parallel.json`'s `full-forked`.
fn per_launch_private_no_shared(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-launch");
    g.sample_size(120);
    let parent = parent_manager();
    let hub = sharded_hub(1);
    let (mut ctx, buf) = lane_context(0, &hub, &parent);
    let mut i = 0u64;
    g.bench_function("private-no-shared", |b| {
        b.iter(|| {
            drive_launch(&mut ctx, buf, i);
            i += 1;
        })
    });
    g.finish();
}

/// `per-launch/private-shared-present`: the same private launch with an
/// unrelated shared range registered — the shared map probe plus
/// eviction victim tracking, no lock.
fn per_launch_private_shared_present(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-launch");
    g.sample_size(120);
    let parent = parent_manager();
    let hub = sharded_hub(1);
    let (mut ctx, buf) = lane_context(0, &hub, &parent);
    // A second managed region, marked shared; the benchmarked launches
    // never touch it.
    let other = ctx.malloc_managed(REGION).unwrap();
    share_region(&mut ctx, other, DeviceId(0));
    let mut i = 0u64;
    g.bench_function("private-shared-present", |b| {
        b.iter(|| {
            drive_launch(&mut ctx, buf, i);
            i += 1;
        })
    });
    g.finish();
}

/// `per-launch/peer-duplicate`: a non-owner lane whose every launch
/// read-duplicates an oversubscribed window — the full shared path with
/// directory traffic.
fn per_launch_peer_duplicate(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-launch");
    g.sample_size(120);
    let parent = parent_manager();
    let hub = sharded_hub(2);
    let (mut ctx, buf) = lane_context(1, &hub, &parent);
    share_region(&mut ctx, buf, DeviceId(0));
    let mut i = 0u64;
    g.bench_function("peer-duplicate", |b| {
        b.iter(|| {
            drive_launch(&mut ctx, buf, i);
            i += 1;
        })
    });
    g.finish();
}

criterion_group!(
    uvm_p2p,
    per_launch_private_no_shared,
    per_launch_private_shared_present,
    per_launch_peer_duplicate
);
criterion_main!(uvm_p2p);
