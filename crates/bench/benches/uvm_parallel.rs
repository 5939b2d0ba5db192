//! One device's UVM-instrumented launch and its under-lock slice
//! (ISSUE 4).
//!
//! Every launch streams an 8 MiB window of a 64 MiB managed region
//! against a 32 MiB device budget, so the UVM model does real work per
//! launch — demand faults, migrations and LRU evictions with write-back
//! — and every launch emits a `UvmFault` event analyzed by the three
//! UVM-consuming tools (uvm-prefetch-advisor, memory-timeline,
//! memory-characteristics).
//!
//! Each device lane owns a [`UvmManager`] forked from one parent
//! ([`UvmManager::fork`]), resolving residency with no shared lock; the
//! alternative it replaced is one manager behind a mutex serving every
//! device. The serialization decomposition prices the difference
//! without racing threads: `A` = one device's complete UVM-instrumented
//! launch (`per-launch/full-forked`), `B` = the residency resolution
//! that would have to hold the shared manager's lock
//! (`per-launch/resolve-under-lock`). With ≥ 2 cores a shared mutex
//! bounds a 2-device launch pair from below by `2B`; forked managers
//! run the pair in `A`. Throughput ratio = `max(A, 2B) / A`.
//!
//! Numbers land in `BENCH_uvm_parallel.json`; run with
//! `cargo bench -p pasta-bench --bench uvm_parallel`.

use accel_sim::sync::Mutex;
use accel_sim::{
    AccessKind, AccessSpec, DeviceId, DeviceRuntime, DeviceSpec, Dim3, KernelBody, KernelDesc,
    ResidencyModel,
};
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

/// The three UVM-consuming tools, as the session registers them.
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
    let mut m = UvmManager::new(UvmConfig::default());
    m.add_device(BUDGET, 24.0, 25_000);
    m.add_device(BUDGET, 24.0, 25_000);
    m
}

/// A lane context pinned to `device`, wired into `hub`, with a manager
/// forked from `parent` attached and a `REGION`-byte managed buffer
/// allocated (registering it with the model).
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

/// One UVM-instrumented launch streaming the `i`-th window.
fn drive_launch(ctx: &mut CudaContext, buf: accel_sim::DevicePtr, i: u64) {
    let offset = (i % (REGION / WINDOW)) * WINDOW;
    let desc = KernelDesc::new("uvm_stream_kernel", Dim3::linear(64), Dim3::linear(128))
        .arg(buf, REGION)
        .body(KernelBody::default().access(AccessSpec::load(0, WINDOW).with_range(offset, WINDOW)));
    ctx.launch(desc).unwrap();
}

/// `A`: one device's complete UVM-instrumented launch — engine cost
/// model, lane-local residency resolution (fault + migrate + evict),
/// host callbacks, hub dispatch to the three tools.
fn per_launch_full_forked(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-launch");
    g.sample_size(120);
    let parent = parent_manager();
    let hub = sharded_hub(1);
    let (mut ctx, buf) = lane_context(0, &hub, &parent);
    let mut i = 0u64;
    g.bench_function("full-forked", |b| {
        b.iter(|| {
            drive_launch(&mut ctx, buf, i);
            i += 1;
        })
    });
    g.finish();
}

/// `B`: the slice of the same launch that must hold the shared
/// manager's lock — exactly the `on_kernel_access` resolution the
/// engine performs for the launch's managed access stream. With one
/// shared manager, two devices' `B`s serialize; with per-lane forks
/// they overlap.
fn per_launch_resolve_under_lock(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-launch");
    g.sample_size(120);
    let shared = Arc::new(Mutex::new(parent_manager()));
    let base = 0x4000_0000_0000u64; // MANAGED_BASE: first engine allocation
    shared.lock().register(base, REGION);
    let mut i = 0u64;
    g.bench_function("resolve-under-lock", |b| {
        b.iter(|| {
            let offset = (i % (REGION / WINDOW)) * WINDOW;
            let mut manager = shared.lock();
            manager.on_kernel_access(DeviceId(0), base + offset, WINDOW, WINDOW, AccessKind::Load);
            i += 1;
        })
    });
    g.finish();
}

criterion_group!(
    uvm_parallel,
    per_launch_full_forked,
    per_launch_resolve_under_lock
);
criterion_main!(uvm_parallel);
