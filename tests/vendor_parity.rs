//! Vendor parity (ISSUE 15): one simulated runtime, two vocabularies.
//!
//! `CudaContext` and `HipContext` are one `Context` body speaking
//! `NvCallback` and `RocCallback`. These tests drive the same scripted
//! workload through both and pin the two halves of that claim: the *raw*
//! streams keep their deliberately different conventions, and the
//! *unified* streams the event handler normalizes them into agree variant
//! by variant and byte count by byte count. Two things are excepted, by
//! name, in [`untimed`]: simulated times (the devices' cost models differ)
//! and the `DriverApi`-vs-`RuntimeApi` split (`cuLaunchKernel` is a driver
//! entry point, `hipLaunchKernel` a runtime one).

use pasta::amd::{HipContext, RocCallback};
use pasta::core::handler::{attach_nv, attach_roc};
use pasta::core::hub::new_shared;
use pasta::core::tool::{Interest, LaunchCounter, Tool};
use pasta::core::{
    Event, EventProcessor, FnWorkload, ModelWorkload, Pasta, PastaBuilder, ToolReport, UvmSetup,
    WorkloadStats,
};
use pasta::dl::dtype::DType;
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::dl::parallel::{self, DeviceLane, Parallelism};
use pasta::nv::{CudaContext, NvCallback};
use pasta::sim::runtime::MemAdvise;
use pasta::sim::{
    AccelError, AccessSpec, CopyDirection, DeviceId, DevicePtr, DeviceRuntime, DeviceSpec, Dim3,
    KernelBody, KernelDesc, SimTime,
};
use pasta::tools::{HotnessTool, MemoryTimelineTool, TransferTool};
use pasta::uvm::runtime::{Context, Vocabulary};
use pasta::uvm::{PrefetchPlan, Range, UvmConfig, UvmManager};
use std::sync::{Arc, Mutex};

const MIB: u64 = 1 << 20;
/// Per-device managed budget: smaller than the private managed buffer, so
/// the faulting launch also evicts.
const BUDGET: u64 = 6 * MIB;
const PRIVATE_LEN: u64 = 8 * MIB;
const SHARED_LEN: u64 = 2 * MIB;
const DEVICE_LEN: u64 = MIB;

/// Records every unified event it is offered.
#[derive(Debug, Default)]
struct EventLog(Vec<Event>);

impl Tool for EventLog {
    fn name(&self) -> &str {
        "event-log"
    }
    fn interest(&self) -> Interest {
        Interest::coarse()
    }
    fn on_event(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
    fn report(&self) -> ToolReport {
        ToolReport::new(self.name())
    }
}

/// The residency model both vendors get: same budgets, links and fault
/// latency, so UVM byte counts and stalls cannot differ by device spec.
fn undersized_uvm() -> UvmManager {
    let mut uvm = UvmManager::new(UvmConfig);
    uvm.add_device_p2p(BUDGET, 12.0, 50.0, 30_000);
    uvm.add_device_p2p(BUDGET, 12.0, 50.0, 30_000);
    uvm
}

struct Buffers {
    device: DevicePtr,
    private: DevicePtr,
    shared: DevicePtr,
}

/// First half of the script: plain and managed allocations, the second
/// managed one shared with device 0 as its owner.
fn allocate(rt: &mut dyn DeviceRuntime) -> Buffers {
    rt.set_device(DeviceId(1)).unwrap();
    let device = rt.malloc(DEVICE_LEN).unwrap();
    let private = rt.malloc_managed(PRIVATE_LEN).unwrap();
    let shared = rt.malloc_managed(SHARED_LEN).unwrap();
    rt.residency_mut().expect("uvm attached").register_shared(
        shared.addr(),
        SHARED_LEN,
        DeviceId(0),
    );
    Buffers {
        device,
        private,
        shared,
    }
}

/// Two plan ranges, replayed before the third launch.
fn plan_for(b: &Buffers) -> PrefetchPlan {
    let mut plan = PrefetchPlan::default();
    plan.add(2, Range::new(b.private.addr(), MIB));
    plan.add(2, Range::new(b.private.addr() + 4 * MIB, MIB));
    plan
}

fn kernel(name: &str, ptr: DevicePtr, len: u64) -> KernelDesc {
    KernelDesc::new(name, Dim3::linear(64), Dim3::linear(128))
        .arg(ptr, len)
        .body(KernelBody::default().access(AccessSpec::load(0, len)))
}

/// Second half of the script: copies each way, a fill, three launches (a
/// resident one, one faulting over the under-budgeted private range, one
/// reading the shared range from a non-owner), prefetch, every advice,
/// synchronize, frees of both kinds.
fn exercise(rt: &mut dyn DeviceRuntime, b: &Buffers) {
    let host = DevicePtr(0x1000);
    for (dst, src, dir) in [
        (b.device, host, CopyDirection::HostToDevice),
        (host, b.device, CopyDirection::DeviceToHost),
        (b.device, b.device, CopyDirection::DeviceToDevice),
    ] {
        rt.memcpy(dst, src, DEVICE_LEN, dir).unwrap();
    }
    rt.memset(b.device, DEVICE_LEN).unwrap();

    let resident = rt.launch(kernel("resident", b.device, DEVICE_LEN)).unwrap();
    assert_eq!(resident.uvm_faults, 0);
    let faulting = rt
        .launch(kernel("faulting", b.private, PRIVATE_LEN))
        .unwrap();
    assert!(faulting.uvm_faults > 0 && faulting.uvm_evicted_bytes > 0);
    let peer = rt.launch(kernel("peer", b.shared, SHARED_LEN)).unwrap();
    assert!(peer.uvm_peer_bytes > 0, "non-owner read duplicates");

    rt.mem_prefetch(b.private, 2 * MIB).unwrap();
    for advice in [
        MemAdvise::PreferredLocationDevice,
        MemAdvise::PreferredLocationHost,
        MemAdvise::ReadMostly,
        MemAdvise::Unset,
    ] {
        rt.mem_advise(b.private, MIB, advice).unwrap();
    }
    rt.synchronize();
    rt.free(b.shared).unwrap();
    rt.free(b.private).unwrap();
    rt.free(b.device).unwrap();
}

/// Runs the script on a two-device `$Context` wired through `$attach`,
/// returning `(raw callbacks, unified events)`.
macro_rules! drive {
    ($Context:ty, $attach:ident, $spec:expr) => {{
        let mut ctx = <$Context>::new(vec![$spec, $spec]);
        ctx.attach_uvm(undersized_uvm());
        let raw = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&raw);
        ctx.subscribe(Box::new(move |cb| sink.lock().unwrap().push(cb.clone())));
        let mut processor = EventProcessor::new();
        processor.tools.register(Box::<EventLog>::default());
        let hub = new_shared(processor);
        $attach(&mut ctx, Arc::clone(&hub));

        let buffers = allocate(&mut ctx);
        ctx.set_prefetch_plan(plan_for(&buffers));
        exercise(&mut ctx, &buffers);

        let unified = hub
            .primary()
            .tools
            .with_tool_mut("event-log", |log: &mut EventLog| std::mem::take(&mut log.0))
            .unwrap();
        let raw = std::mem::take(&mut *raw.lock().unwrap());
        (raw, unified)
    }};
}

/// `event` with the two named exceptions removed: every simulated time
/// zeroed, and driver-level API calls folded into runtime-level ones.
fn untimed(event: &Event) -> Event {
    let zero = SimTime(0);
    let mut event = event.clone();
    match &mut event {
        Event::DriverApi { name, device, .. } => {
            return Event::RuntimeApi {
                name: *name,
                device: *device,
                at: zero,
            }
        }
        Event::KernelLaunchEnd { start, end, .. } => (*start, *end) = (zero, zero),
        Event::RuntimeApi { at, .. }
        | Event::Sync { at, .. }
        | Event::MemCopy { at, .. }
        | Event::MemSet { at, .. }
        | Event::ResourceAlloc { at, .. }
        | Event::ResourceFree { at, .. }
        | Event::BatchMemOp { at, .. }
        | Event::UvmFault { at, .. }
        | Event::UvmPeerMigrate { at, .. } => *at = zero,
        other => panic!("the host path emitted a non-host event: {other:?}"),
    }
    event
}

#[test]
fn unified_streams_agree_and_raw_streams_keep_their_conventions() {
    let (nv_raw, nv) = drive!(CudaContext, attach_nv, DeviceSpec::rtx_3060());
    let (roc_raw, roc) = drive!(HipContext, attach_roc, DeviceSpec::mi300x());

    // Unified: the same events in the same order, bytes and all.
    assert_eq!(nv.len(), roc.len());
    for (i, (a, b)) in nv.iter().zip(&roc).enumerate() {
        assert_eq!(untimed(a), untimed(b), "unified event {i}");
    }
    let count =
        |events: &[Event], pick: fn(&Event) -> bool| events.iter().filter(|e| pick(e)).count();
    for events in [&nv, &roc] {
        assert_eq!(
            count(events, |e| matches!(e, Event::KernelLaunchEnd { .. })),
            3
        );
        assert_eq!(
            count(events, |e| matches!(e, Event::BatchMemOp { .. })),
            1 + 4 + 2,
            "one prefetch, four advices, two planned ranges"
        );
        assert!(count(events, |e| matches!(e, Event::UvmFault { .. })) >= 1);
        assert!(count(events, |e| matches!(e, Event::UvmPeerMigrate { .. })) >= 1);
    }
    // The one place the exception bites: NVIDIA's launch is a driver call.
    assert_eq!(
        count(&nv, |e| matches!(e, Event::DriverApi { .. })),
        3,
        "cuLaunchKernel"
    );
    assert_eq!(count(&roc, |e| matches!(e, Event::DriverApi { .. })), 0);

    // Raw NVIDIA: launches, positive free sizes, UVM fault / peer migrate.
    let nv_frees: Vec<u64> = nv_raw
        .iter()
        .filter_map(|cb| match cb {
            NvCallback::MemoryFree { bytes, .. } => Some(*bytes),
            _ => None,
        })
        .collect();
    assert_eq!(nv_frees, [SHARED_LEN, PRIVATE_LEN, DEVICE_LEN]);
    let nv_has = |pick: fn(&NvCallback) -> bool| nv_raw.iter().any(pick);
    assert!(nv_has(|cb| matches!(cb, NvCallback::LaunchBegin { .. })));
    assert!(nv_has(|cb| matches!(cb, NvCallback::LaunchEnd { .. })));
    assert!(nv_has(|cb| matches!(cb, NvCallback::UvmFault { .. })));
    assert!(nv_has(|cb| matches!(cb, NvCallback::PeerMigrate { .. })));
    assert!(nv_has(|cb| matches!(
        cb,
        NvCallback::ApiEnter {
            name: "cuLaunchKernel",
            ..
        }
    )));

    // Raw AMD: dispatches, releases as negative deltas that say whether
    // the memory was managed, page migrate / peer copy.
    let roc_releases: Vec<(i64, bool)> = roc_raw
        .iter()
        .filter_map(|cb| match cb {
            RocCallback::MemoryDelta { delta, managed, .. } if *delta < 0 => {
                Some((*delta, *managed))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        roc_releases,
        [
            (-(SHARED_LEN as i64), true),
            (-(PRIVATE_LEN as i64), true),
            (-(DEVICE_LEN as i64), false)
        ]
    );
    let roc_has = |pick: fn(&RocCallback) -> bool| roc_raw.iter().any(pick);
    assert!(roc_has(|cb| matches!(
        cb,
        RocCallback::KernelDispatch { .. }
    )));
    assert!(roc_has(|cb| matches!(
        cb,
        RocCallback::KernelComplete { .. }
    )));
    assert!(roc_has(|cb| matches!(cb, RocCallback::PageMigrate { .. })));
    assert!(roc_has(|cb| matches!(cb, RocCallback::PeerCopy { .. })));
    assert!(roc_has(|cb| matches!(
        cb,
        RocCallback::ApiEnter {
            name: "hipLaunchKernel",
            ..
        }
    )));
    assert_eq!(nv_raw.len(), roc_raw.len(), "callback for callback");
}

/// A `malloc` past the device's usable capacity, then one that fits — what
/// the caching allocator's flush-and-retry does — as `C` tells it: every
/// callback built by the vocabulary's own constructors, so the assertion
/// is the same for both vendors.
fn failed_malloc_then_retry<C>(spec: DeviceSpec)
where
    C: Vocabulary + Clone + PartialEq + std::fmt::Debug + Send,
{
    let mut ctx = Context::<C>::new(vec![spec]);
    ctx.engine_mut()
        .device_mut(DeviceId(0))
        .limit_usable_capacity(4 * MIB);
    let raw = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&raw);
    ctx.subscribe(Box::new(move |cb: &C| {
        sink.lock().unwrap().push(cb.clone())
    }));

    let device = DeviceId(0);
    let entered = ctx.host_time();
    let refused = ctx.malloc(8 * MIB);
    assert!(matches!(refused, Err(AccelError::OutOfMemory { .. })));
    let returned = ctx.host_time();
    let ptr = ctx.malloc(MIB).expect("the retry fits");
    let done = ctx.host_time();
    assert_eq!(
        *raw.lock().unwrap(),
        [
            C::api_enter(C::MALLOC, device, entered),
            C::api_exit(C::MALLOC, device, returned),
            C::api_enter(C::MALLOC, device, returned),
            C::alloc(device, ptr.addr(), MIB, false, done),
            C::api_exit(C::MALLOC, device, done),
        ],
        "{}: a refused call still returns",
        C::CONTEXT
    );

    // The other refusals close the same way: a free of a pointer nobody
    // allocated, a launch with an empty grid.
    for name in [C::FREE, C::LAUNCH] {
        raw.lock().unwrap().clear();
        let entered = ctx.host_time();
        if name == C::FREE {
            assert!(ctx.free(DevicePtr(ptr.addr() + 1)).is_err());
        } else {
            let empty = KernelDesc::new("empty", Dim3::linear(0), Dim3::linear(32));
            assert!(ctx.launch(empty).is_err());
        }
        assert_eq!(
            *raw.lock().unwrap(),
            [
                C::api_enter(name, device, entered),
                C::api_exit(name, device, ctx.host_time()),
            ],
            "{}: {name}",
            C::CONTEXT
        );
    }
}

#[test]
fn a_failed_api_call_still_exits_on_both_vendors() {
    failed_malloc_then_retry::<NvCallback>(DeviceSpec::rtx_3060());
    failed_malloc_then_retry::<RocCallback>(DeviceSpec::mi300x());
}

/// `TransferTool`'s `uvm_batch_ops` after one managed launch under a
/// two-range [`PrefetchPlan`].
fn planned_batch_ops(builder: PastaBuilder) -> f64 {
    let mut session = builder
        .tool(TransferTool::new())
        .uvm(UvmSetup {
            managed_allocator: false,
            ..UvmSetup::default()
        })
        .build()
        .unwrap();
    // The workload's allocation is the session's first managed one, so it
    // lands where a fresh context's first managed allocation does.
    let base = CudaContext::new(vec![DeviceSpec::rtx_3060()])
        .malloc_managed(PRIVATE_LEN)
        .unwrap()
        .addr();
    let mut plan = PrefetchPlan::default();
    plan.add(0, Range::new(base, MIB));
    plan.add(0, Range::new(base + 4 * MIB, MIB));
    session.set_prefetch_plan(plan);
    session
        .run(&mut FnWorkload::new("planned-launch", |cx| {
            let ptr = cx.session().runtime_mut().malloc_managed(PRIVATE_LEN)?;
            assert_eq!(ptr.addr(), base);
            cx.launch_kernel(kernel("planned", ptr, PRIVATE_LEN))?;
            cx.session().runtime_mut().free(ptr)?;
            Ok(WorkloadStats::new(1))
        }))
        .unwrap();
    session
        .with_tool_mut("transfer-analysis", |t: &mut TransferTool| t.report())
        .unwrap()
        .get("uvm_batch_ops")
        .unwrap()
}

/// Regression: `HipContext::run_prefetch_plan` used to drop the per-range
/// `BatchMemOp` that `CudaContext::run_prefetch_plan` emits, so an AMD
/// session under a plan under-reported by the number of planned ranges.
#[test]
fn plan_prefetches_count_as_batch_ops_on_both_vendors() {
    let nv = planned_batch_ops(Pasta::builder().rtx_3060());
    let amd = planned_batch_ops(Pasta::builder().mi300x());
    assert_eq!(nv, 2.0, "one batch op per planned range");
    assert_eq!(amd, nv);
}

/// What two lanes of `spec` merge to after `step` drove them: launches as
/// the tools saw them (vendor callbacks → handler → hub shards → merge),
/// launches as the lanes' engines counted them, and tensor alloc+free
/// events per device (framework callbacks → same shards).
struct LaneCounts {
    tool_launches: u64,
    engine_launches: u64,
    tensor_events: [usize; 2],
}

fn lane_counts(
    spec: DeviceSpec,
    step: fn(&mut [DeviceLane<'_>]) -> Result<(), AccelError>,
) -> LaneCounts {
    let mut session = Pasta::builder()
        .devices(vec![spec.clone(), spec])
        .tool(LaunchCounter::default())
        .tool(MemoryTimelineTool::new())
        .build()
        .unwrap();
    let engine_launches = session
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            step(lanes)?;
            Ok(lanes
                .iter()
                .map(|lane| lane.session.runtime().stats(lane.device()).launches)
                .sum())
        })
        .unwrap();
    LaneCounts {
        tool_launches: session
            .with_merged_tool("launch-counter", |t: &LaunchCounter| t.launches)
            .unwrap(),
        engine_launches,
        tensor_events: session
            .with_merged_tool("memory-timeline", |t: &MemoryTimelineTool| {
                [t.events_for(DeviceId(0)), t.events_for(DeviceId(1))]
            })
            .unwrap(),
    }
}

/// A step that spells the same on every backend: raw kernels over one
/// tensor per lane, no framework operator for a backend to decompose.
fn backend_neutral_step(lanes: &mut [DeviceLane<'_>]) -> Result<(), AccelError> {
    for lane in lanes {
        let s = &mut lane.session;
        let t = s.alloc_tensor(&[1 << 18], DType::F32)?;
        for name in ["scale", "shift", "reduce"] {
            s.launch(kernel(name, t.ptr, t.bytes))?;
        }
        s.free_tensor(&t);
    }
    Ok(())
}

fn data_parallel_step(lanes: &mut [DeviceLane<'_>]) -> Result<(), AccelError> {
    parallel::train_iter(lanes, Parallelism::Data, 1).map(|_| ())
}

/// The AMD arm of `run_parallel`'s per-lane context construction had no
/// test. On a backend-neutral step `mi300x × 2` merges to exactly the
/// launch and allocation counts `a100 × 2` does. On a real data-parallel
/// iteration exact equality is *not* the contract — HIP/MIOpen does not
/// fuse epilogues, so AMD launches and allocates more (Fig. 14, pinned for
/// single-device sessions in `tests/integration.rs`) — so there each
/// vendor's merged tool counts are held to its own engines' ground truth,
/// the replicas to each other, and the vendors to Fig. 14's direction.
#[test]
fn amd_lanes_merge_like_nvidia_lanes() {
    let nv = lane_counts(DeviceSpec::a100_80gb(), backend_neutral_step);
    let amd = lane_counts(DeviceSpec::mi300x(), backend_neutral_step);
    assert_eq!(nv.tool_launches, 6);
    assert_eq!(nv.tensor_events, [2, 2]);
    assert_eq!(amd.tool_launches, nv.tool_launches);
    assert_eq!(amd.tensor_events, nv.tensor_events);

    let nv = lane_counts(DeviceSpec::a100_80gb(), data_parallel_step);
    let amd = lane_counts(DeviceSpec::mi300x(), data_parallel_step);
    for counts in [&nv, &amd] {
        assert!(counts.tool_launches > 0);
        assert_eq!(counts.tool_launches, counts.engine_launches);
        assert!(counts.tensor_events[0] > 0);
        assert_eq!(counts.tensor_events[0], counts.tensor_events[1]);
    }
    assert!(amd.tool_launches > nv.tool_launches);
    assert!(amd.tensor_events[0] >= nv.tensor_events[0]);
}

/// Launches and post-sampling records of a ResNet-18 inference under
/// `HotnessTool` (global accesses only, so every record is a sampled one).
fn model_records(builder: PastaBuilder, rate: u32) -> (u64, u64) {
    let mut session = builder
        .tool(HotnessTool::new(64))
        .sampling(rate)
        .build()
        .unwrap();
    let report = session
        .run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(8))
        .unwrap();
    (report.kernel_launches, report.records)
}

/// What each of two lanes of `spec` records for three 8,192-record
/// launches at `rate`, as its own engine counted them, and what the
/// session reports for both together.
fn lane_records(spec: DeviceSpec, rate: u32) -> (Vec<u64>, u64) {
    let mut session = Pasta::builder()
        .devices(vec![spec.clone(), spec])
        .tool(HotnessTool::new(64))
        .sampling(rate)
        .build()
        .unwrap();
    let per_lane = session
        .run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
            lanes
                .iter_mut()
                .map(|lane| {
                    let s = &mut lane.session;
                    let t = s.alloc_tensor(&[1 << 18], DType::F32)?;
                    let mut records = 0;
                    for name in ["scale", "shift", "reduce"] {
                        records += s.launch(kernel(name, t.ptr, t.bytes))?.records_emitted;
                    }
                    s.free_tensor(&t);
                    Ok(records)
                })
                .collect()
        })
        .unwrap();
    (per_lane, session.records())
}

/// The session's sampling rate is one setting over two vendors. It used to
/// be copied into each backend's config, and the AMD copy was forgotten:
/// `mi300x().sampling(4)` recorded what `.sampling(1)` did.
#[test]
fn sampling_is_a_cross_vendor_contract() {
    let mut ratios = Vec::new();
    for (vendor, select) in [
        (
            "a100",
            PastaBuilder::a100 as fn(PastaBuilder) -> PastaBuilder,
        ),
        ("mi300x", PastaBuilder::mi300x),
    ] {
        let device = || select(Pasta::builder());
        let (launches, full) = model_records(device(), 1);
        let (_, quarter) = model_records(device(), 4);
        // A stream keeps `records / 4`, at least one: each is off by less
        // than one record, and no operator here has more than eight.
        assert!(
            (4 * quarter).abs_diff(full) <= 4 * 8 * launches,
            "{vendor}: {full} records at rate 1, {quarter} at rate 4"
        );
        assert_eq!(model_records(device(), 0).1, full, "{vendor}: 0 is 1");
        ratios.push(full as f64 / quarter as f64);
    }
    assert!(
        (ratios[0] - ratios[1]).abs() < 0.01 * ratios[0],
        "the vendors sample alike: {ratios:?}"
    );

    // Lanes take their rate from their shard's fork of the processor.
    for spec in [DeviceSpec::a100_80gb(), DeviceSpec::mi300x()] {
        assert_eq!(lane_records(spec.clone(), 1), (vec![3 * 8192; 2], 6 * 8192));
        assert_eq!(lane_records(spec, 4), (vec![3 * 2048; 2], 6 * 2048));
    }
}
