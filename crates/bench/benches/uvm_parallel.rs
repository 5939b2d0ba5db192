//! Multi-device UVM-instrumented emission throughput (ISSUE 4).
//!
//! Every launch streams an 8 MiB window of a 64 MiB managed region
//! against a 32 MiB device budget, so the UVM model does real work per
//! launch — demand faults, migrations and LRU evictions with write-back
//! — and every launch emits a `UvmFault` event analyzed by the three
//! UVM-consuming tools (uvm-prefetch-advisor, memory-timeline,
//! memory-characteristics).
//!
//! Two topologies face off:
//!
//! * **forked** — the shard model this PR introduces: each device lane
//!   owns a [`UvmManager`] forked from one parent
//!   ([`UvmManager::fork`]), resolving residency with no shared lock,
//!   and emits into its own hub shard. Lane state merges back
//!   deterministically at session end ([`UvmManager::merge`]).
//! * **shared-mutex** — the pre-refactor alternative: one `UvmManager`
//!   behind a mutex serves every device (lanes previously skipped UVM
//!   entirely; a shared locked manager is the only way a single-manager
//!   session could have covered them), and all events funnel into one
//!   hub shard.
//!
//! As with `multi_device.rs`, the build container exposes one CPU, so
//! the threaded `uvm-parallel/*` configs timeslice and tie; the
//! machine-independent serialization decomposition carries the
//! acceptance ratio: `A` = one device's complete UVM-instrumented
//! launch (`per-launch/full-forked`), `B` = the residency resolution
//! that must hold the shared manager's lock
//! (`per-launch/resolve-under-lock`). With ≥ 2 cores a shared mutex
//! bounds a 2-device launch pair from below by `2B`; forked managers
//! run the pair in `A`. Throughput ratio = `max(A, 2B) / A`.
//!
//! Numbers land in `BENCH_uvm_parallel.json`; run with
//! `cargo bench -p pasta-bench --bench uvm_parallel`.

use accel_sim::sync::Mutex;
use accel_sim::{
    AccessKind, AccessOutcome, AccessSpec, DeviceId, DeviceRuntime, DeviceSpec, Dim3, KernelBody,
    KernelDesc, ResidencyAdvice, ResidencyModel,
};
use criterion::{criterion_group, criterion_main, Criterion};
use pasta_core::handler::attach_nv;
use pasta_core::hub::{new_shared, Hub, SharedHub};
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
/// Launches per device thread per threaded iteration.
const LAUNCHES_PER_ITER: u64 = 8;

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

/// One `UvmManager` behind a lock serving every lane — the
/// shared-manager baseline topology.
struct SharedResidency(Arc<Mutex<UvmManager>>);

impl ResidencyModel for SharedResidency {
    fn is_managed(&self, addr: u64) -> bool {
        self.0.lock().is_managed(addr)
    }
    fn on_kernel_access(
        &mut self,
        device: DeviceId,
        base: u64,
        len: u64,
        bytes: u64,
        kind: AccessKind,
    ) -> AccessOutcome {
        self.0
            .lock()
            .on_kernel_access(device, base, len, bytes, kind)
    }
    fn register(&mut self, base: u64, len: u64) {
        self.0.lock().register(base, len);
    }
    fn unregister(&mut self, base: u64) {
        self.0.lock().unregister(base);
    }
    fn prefetch(&mut self, device: DeviceId, base: u64, len: u64) -> u64 {
        self.0.lock().prefetch(device, base, len)
    }
    fn advise(&mut self, device: DeviceId, base: u64, len: u64, advice: ResidencyAdvice) {
        self.0.lock().advise(device, base, len, advice);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any + Send> {
        self
    }
}

/// A lane context pinned to `device`, wired into `hub`, with its
/// residency model already attached and a `REGION`-byte managed buffer
/// allocated (registering it with the model).
fn lane_context(
    device: u32,
    hub: &SharedHub,
    shared: Option<Arc<Mutex<UvmManager>>>,
    parent: &UvmManager,
) -> (CudaContext, accel_sim::DevicePtr) {
    let mut ctx = CudaContext::new(vec![DeviceSpec::a100_80gb(), DeviceSpec::a100_80gb()]);
    ctx.set_device(DeviceId(device)).unwrap();
    attach_nv(&mut ctx, Arc::clone(hub));
    match shared {
        Some(manager) => ctx
            .engine_mut()
            .set_residency(Box::new(SharedResidency(manager))),
        None => ctx.attach_uvm(parent.fork(DeviceId(device))),
    }
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

/// One threaded iteration: each device thread drives its launches
/// through its own context (and residency topology) into `hub`.
fn drive_concurrent(contexts: &mut [(CudaContext, accel_sim::DevicePtr)], iter: u64) {
    std::thread::scope(|scope| {
        for (ctx, buf) in contexts.iter_mut() {
            let buf = *buf;
            scope.spawn(move || {
                for l in 0..LAUNCHES_PER_ITER {
                    drive_launch(ctx, buf, iter * LAUNCHES_PER_ITER + l);
                }
            });
        }
    });
}

fn bench_topology(c: &mut Criterion, label: &str, shared: bool) {
    let mut g = c.benchmark_group("uvm-parallel");
    g.sample_size(40);
    let parent = parent_manager();
    let (hub, shared_manager) = if shared {
        (
            new_shared(processor()),
            Some(Arc::new(Mutex::new(parent_manager()))),
        )
    } else {
        (sharded_hub(2), None)
    };
    let mut contexts: Vec<_> = (0..2)
        .map(|d| lane_context(d, &hub, shared_manager.clone(), &parent))
        .collect();
    let mut iter = 0u64;
    g.bench_function(label, |b| {
        b.iter(|| {
            drive_concurrent(&mut contexts, iter);
            iter += 1;
        })
    });
    g.finish();
}

fn two_device_forked(c: &mut Criterion) {
    bench_topology(c, "2dev-forked", false);
}

fn two_device_shared_mutex(c: &mut Criterion) {
    bench_topology(c, "2dev-shared-mutex", true);
}

/// `A`: one device's complete UVM-instrumented launch — engine cost
/// model, lane-local residency resolution (fault + migrate + evict),
/// host callbacks, hub dispatch to the three tools.
fn per_launch_full_forked(c: &mut Criterion) {
    let mut g = c.benchmark_group("per-launch");
    g.sample_size(120);
    let parent = parent_manager();
    let hub = sharded_hub(1);
    let (mut ctx, buf) = lane_context(0, &hub, None, &parent);
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
    two_device_forked,
    two_device_shared_mutex,
    per_launch_full_forked,
    per_launch_resolve_under_lock
);
criterion_main!(uvm_parallel);
