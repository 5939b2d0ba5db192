//! Allocation-free, gated host event path (ISSUES 13 and 24).
//!
//! The coarse path — vendor callback → `normalize_*` → `Hub::process` →
//! `EventProcessor::process`, and the framework's `Session::with_op` →
//! `normalize_framework` leg — is what a session pays for every host and
//! framework callback some tool, recorder or knob of its shard reads; the
//! rest stop at the shard's host gate, counted and never built. In steady
//! state the path must build no `String`, take no process-global lock and
//! allocate nothing: API names and operator names are interned at the
//! source, Python stacks are shared, the launch pairing is one slot. A
//! counting global allocator pins the allocation half; the rest of the
//! file pins that the shortcuts changed no result — interned symbols are
//! the global table's, memoized names equal `normalize_api_name`, lazily
//! materialized stacks equal eager ones, devices built on first touch
//! price and place like devices built up front, and a gated hub reports,
//! counts, aggregates, captures and records what the same callbacks fed
//! straight into ungated processors do.
//!
//! Everything lives in one `#[test]` because the allocation counter is
//! process-global: parallel test threads would attribute each other's
//! allocations to the wrong phase.

mod common;

use common::{quiet_injected_panics, CountingAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use pasta::amd::{HipContext, RocCallback};
use pasta::core::handler::{attach_nv, attach_roc, attach_session};
use pasta::core::hub::{new_shared, Hub, SharedHub};
use pasta::core::normalize::{
    normalize_api_name, normalize_framework, normalize_nv, normalize_roc,
};
use pasta::core::tool::LaunchCounter;
use pasta::core::{
    Event, EventClass, EventProcessor, EventRecorder, Knob, PastaError, Symbol, SymbolTable, Tool,
    ToolReport,
};
use pasta::dl::callbacks::{FrameworkEvent, Pass};
use pasta::dl::dtype::DType;
use pasta::dl::ops::{self, Act};
use pasta::dl::parallel::DeviceLane;
use pasta::dl::pycall::{native_frames_for_kernel, CrossLayerStack, PyFrame, PyStack};
use pasta::dl::tensor::{Tensor, TensorId};
use pasta::dl::{runner, Session};
use pasta::nv::{CudaContext, NvCallback};
use pasta::prelude::*;
use pasta::sim::{
    AccelError, CopyDirection, DevicePtr, DeviceRuntime, LaunchId, RuntimeStats, SimTime,
};
use pasta::uvm::runtime::{Context, LaunchEdge, Vocabulary};
use proptest::prelude::*;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

fn allocs() -> u64 {
    GLOBAL.allocs()
}

const MODELS: [ModelZoo; 3] = [ModelZoo::Bert, ModelZoo::Gpt2, ModelZoo::ResNet18];

fn launch_counter_hub() -> SharedHub {
    let mut processor = EventProcessor::new();
    processor.tools.register(Box::<LaunchCounter>::default());
    new_shared(processor)
}

/// Every host callback a bare (PASTA-free) inference run of the three
/// models emits on `rt`, recorded by `subscribe`.
fn record_bare_run<Cb: Clone + Send + 'static>(
    rt: &mut dyn DeviceRuntime,
    log: &Arc<Mutex<Vec<Cb>>>,
) -> Vec<Cb> {
    for model in MODELS {
        let mut session = Session::new(rt);
        runner::run_model(&mut session, model, RunKind::Inference, 1, 1).expect("bare run");
    }
    std::mem::take(&mut *log.lock().unwrap())
}

/// The framework events of one operator at Python depth 2: the operator
/// bracket around a tensor's life, a layer boundary and a pass boundary.
fn framework_sample() -> Vec<FrameworkEvent> {
    let mut py = PyStack::new();
    py.push(PyFrame::new("models/bert/run_bert.py", 177, "<module>"));
    py.push(PyFrame::new("models/bert/run_bert.py", 146, "forward"));
    let device = DeviceId(0);
    let name = Symbol::intern("aten::linear");
    vec![
        FrameworkEvent::PassBoundary {
            pass: pasta::dl::callbacks::Pass::Forward,
            device,
        },
        FrameworkEvent::LayerBoundary {
            name: Symbol::intern("encoder.layer.0"),
            index: 0,
            device,
        },
        FrameworkEvent::OpStart {
            seq: 7,
            name,
            device,
            py_stack: py.snapshot(),
        },
        FrameworkEvent::TensorAlloc {
            tensor: TensorId(1),
            addr: 0x7000_0000_0000,
            bytes: 4096,
            allocated_total: 4096,
            reserved_total: 1 << 21,
            device,
        },
        FrameworkEvent::TensorFree {
            tensor: TensorId(1),
            addr: 0x7000_0000_0000,
            bytes: 4096,
            allocated_total: 0,
            reserved_total: 1 << 21,
            device,
        },
        FrameworkEvent::OpEnd {
            seq: 7,
            name,
            device,
        },
    ]
}

/// Phase 1: recorded callbacks and framework events, normalized and
/// processed, allocate on first sight of a name and never again.
fn replayed_host_events_allocate_only_on_first_sight() {
    let log = Arc::new(Mutex::new(Vec::<NvCallback>::new()));
    let mut cuda = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
    let sink = Arc::clone(&log);
    cuda.subscribe(Box::new(move |cb| sink.lock().unwrap().push(cb.clone())));
    let nv = record_bare_run(&mut cuda, &log);

    let log = Arc::new(Mutex::new(Vec::<RocCallback>::new()));
    let mut hip = HipContext::new(vec![DeviceSpec::mi300x()]);
    let sink = Arc::clone(&log);
    hip.subscribe(Box::new(move |cb| sink.lock().unwrap().push(cb.clone())));
    let roc = record_bare_run(&mut hip, &log);

    let framework = framework_sample();
    assert!(nv.len() > 1000 && roc.len() > 1000, "three models' worth");

    let hub = launch_counter_hub();
    let pass = || {
        for event in nv.iter().filter_map(normalize_nv) {
            hub.process(&event);
        }
        for event in roc.iter().filter_map(normalize_roc) {
            hub.process(&event);
        }
        for event in &framework {
            hub.process(&normalize_framework(event));
        }
    };
    pass(); // first sight: every API name normalized and interned once
    let processed = hub.events_processed();
    let before = allocs();
    pass();
    assert_eq!(
        allocs() - before,
        0,
        "normalizing and processing {} known host events must not allocate",
        nv.len() + roc.len() + framework.len()
    );
    assert_eq!(hub.events_processed(), 2 * processed, "and drops none");
}

/// Phase 2: the same, live — a framework session over a CUDA context,
/// both attached to a hub, running operators at Python depth 2.
fn live_operators_allocate_only_on_first_sight() {
    let hub = launch_counter_hub();
    let mut cuda = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
    attach_nv(&mut cuda, Arc::clone(&hub));
    let mut session = Session::new(&mut cuda);
    attach_session(&mut session, Arc::clone(&hub));
    session.py_push(PyFrame::new("run.py", 10, "main"));
    session.py_push(PyFrame::new("model.py", 20, "forward"));
    // No arguments and no body: the engine itself launches this without
    // allocating, so whatever the launch allocates is the host path's.
    let kernel = KernelDesc::new("noop_kernel", Dim3::linear(1), Dim3::linear(32));
    let step = |session: &mut Session<'_>| {
        session
            .with_op("aten::linear", |s| {
                s.with_op("aten::addmm", |s| s.launch(kernel.clone()).map(drop))
            })
            .expect("operators run");
        session.synchronize();
    };
    step(&mut session);
    let before = allocs();
    for _ in 0..64 {
        step(&mut session);
    }
    assert_eq!(
        allocs() - before,
        0,
        "operators, launches and syncs on the live host path must not allocate"
    );
    // Per step: 2 op starts + 2 op ends, launch API enter + launch end,
    // sync API enter + sync.
    assert_eq!(hub.events_processed(), 65 * 8);
    let launches = hub
        .primary()
        .tools
        .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches);
    assert_eq!(launches, Some(65), "begin/end pairs all became launches");
}

/// What [`operator_step`] reads and updates: an activation, a weight with
/// its bias, gradient and Adam moments, and a layer norm's scale and shift.
struct StepTensors {
    x: Tensor,
    w: Tensor,
    bias: Tensor,
    grad: Tensor,
    m: Tensor,
    v: Tensor,
    gamma: Tensor,
    beta: Tensor,
}

impl StepTensors {
    fn new(s: &mut Session<'_>) -> Result<Self, AccelError> {
        let mut tensor = |shape: &[usize]| s.alloc_tensor(shape, DType::F32);
        Ok(StepTensors {
            x: tensor(&[8, 128, 256])?,
            w: tensor(&[256, 256])?,
            bias: tensor(&[256])?,
            grad: tensor(&[256, 256])?,
            m: tensor(&[256, 256])?,
            v: tensor(&[256, 256])?,
            gamma: tensor(&[256])?,
            beta: tensor(&[256])?,
        })
    }
}

/// Real operators, as a training lane runs them: a linear with bias and
/// GELU fused in, a layer norm, a fused Adam step, a 64-rank all-to-all
/// (63 peer copies and a collective kernel), and the frees of what they
/// allocated. Ten tensor events, four launches, 63 copies.
fn operator_step(s: &mut Session<'_>, t: &StepTensors) -> Result<(), AccelError> {
    let y = ops::linear(s, &t.x, &t.w, Some(&t.bias), Act::Gelu)?;
    let z = ops::layernorm(s, &y, &t.gamma, &t.beta)?;
    ops::adam_step(s, &t.w, &t.grad, &t.m, &t.v)?;
    ops::all_to_all(s, &z, 64)?;
    s.free_tensor(&z);
    s.free_tensor(&y);
    Ok(())
}

/// Heap allocations of `steps` operator steps on `s`, after two that warm
/// the caching allocator's segments, the GEMM workspace and the names.
fn warmed_operator_steps(s: &mut Session<'_>, steps: u64) -> Result<u64, AccelError> {
    let tensors = StepTensors::new(s)?;
    s.py_push(PyFrame::new("run.py", 10, "main"));
    s.py_push(PyFrame::new("model.py", 20, "forward"));
    operator_step(s, &tensors)?;
    operator_step(s, &tensors)?;
    let before = allocs();
    for _ in 0..steps {
        operator_step(s, &tensors)?;
    }
    Ok(allocs() - before)
}

/// Phase 2b: the substrate under the host path. Phase 2 launches a kernel
/// with no arguments and no body because, until ISSUE 19, anything real
/// allocated dozens of times in the framework and the engine — names
/// `format!`ed per launch, argument and access `Vec`s, shape `Vec`s, tree
/// nodes in the caching allocator: 25 allocations a step at `cdd42be`,
/// bare and profiled alike, so `pasta-core`'s own share of this loop —
/// the capture knob's stack included, once the hot kernel has settled —
/// was already nothing. Now the whole step is.
fn real_operators_allocate_nothing_once_warm() {
    const STEPS: u64 = 32;
    let mut cuda = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
    let mut bare = Session::new(&mut cuda);
    let bare_allocs = warmed_operator_steps(&mut bare, STEPS).expect("operators run");
    assert_eq!(
        bare_allocs, 0,
        "linear, layernorm, adam_step, all_to_all and their frees must not allocate once warm"
    );

    let mut session = Pasta::builder()
        .a100()
        .tool(LaunchCounter::default())
        .build()
        .expect("profiled session");
    let mut profiled_allocs = 0;
    session
        .run(&mut FnWorkload::new("operators", |cx| {
            profiled_allocs = warmed_operator_steps(cx.session(), STEPS)?;
            Ok(WorkloadStats::new(STEPS))
        }))
        .expect("profiled operators run");
    assert_eq!(
        profiled_allocs, 0,
        "the same steps under a LaunchCounter session must not allocate either"
    );
}

/// Phase 3: the per-thread intern front hands out the global table's
/// symbols, whatever the thread, the order or the collisions.
fn interning_from_many_threads_yields_the_global_symbols() {
    // 700 names: more than the front's 256 slots, so every thread also
    // displaces and re-interns.
    let names: Vec<String> = (0..700)
        .map(|i| match i % 4 {
            0 => format!("aten::op_{i}"),
            1 => format!("void kernel_{i}<float, {i}>(float*, int)"),
            2 => format!("encoder.layer.{i}.attention.self.query"),
            _ => format!("n{i}"),
        })
        .collect();
    let start = Barrier::new(8);
    let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|t| {
                let (names, start) = (&names, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..1000)
                        .map(|i| Symbol::intern(&names[(i * (2 * t + 1) + 31 * t) % names.len()]))
                        .collect()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (t, symbols) in per_thread.iter().enumerate() {
        for (i, symbol) in symbols.iter().enumerate() {
            let name = &names[(i * (2 * t + 1) + 31 * t) % names.len()];
            assert_eq!(symbol.as_str(), name);
            assert!(
                Symbol::ptr_eq(symbol, &SymbolTable::global().intern(name)),
                "thread {t} got a symbol of another table for {name}"
            );
        }
    }
}

/// A generated vendor name: a vendor prefix (or none) and up to 200 bytes
/// of ASCII, CamelCase or arbitrary Unicode — empty included.
fn vendor_name(prefix: u8, alphabet: u8, codes: &[u32]) -> &'static str {
    let mut name = String::from(["", "cu", "cuda", "hip"][prefix as usize]);
    for &code in codes {
        let c = match alphabet {
            0 => char::from(b'a' + (code % 26) as u8),
            1 => char::from(if code % 3 == 0 { b'A' } else { b'a' } + (code % 26) as u8),
            _ => char::from_u32(code % 0x11_0000).unwrap_or('Ǆ'),
        };
        if name.len() + c.len_utf8() > 200 {
            break;
        }
        name.push(c);
    }
    // The vendor layers' names are literals; a generated one has to live
    // as long.
    Box::leak(name.into_boxed_str())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Phase 4: the memoized name path equals `normalize_api_name`, on
    /// first sight and from the memo, for both vendors and for batch ops.
    fn memoized_names_equal_normalize_api_name(
        prefix in 0u8..4,
        alphabet in 0u8..3,
        codes in prop::collection::vec(0u32..0x11_0000, 0..210),
    ) {
        let raw = vendor_name(prefix, alphabet, &codes);
        let expected = normalize_api_name(raw);
        let (device, at) = (DeviceId(0), SimTime(1));
        for sight in ["first", "memoized"] {
            let nv = normalize_nv(&NvCallback::ApiEnter { name: raw, device, at });
            let driver = raw.starts_with("cu") && !raw.starts_with("cuda");
            match nv {
                Some(Event::DriverApi { name, .. }) if driver => {
                    prop_assert_eq!(name.as_str(), expected.as_str(), "{} sight", sight)
                }
                Some(Event::RuntimeApi { name, .. }) if !driver => {
                    prop_assert_eq!(name.as_str(), expected.as_str(), "{} sight", sight)
                }
                other => panic!("{raw:?} normalized to {other:?}"),
            }
            match normalize_roc(&RocCallback::ApiEnter { name: raw, device, at }) {
                Some(Event::RuntimeApi { name, .. }) => {
                    prop_assert_eq!(name.as_str(), expected.as_str(), "{} sight", sight)
                }
                other => panic!("{raw:?} normalized to {other:?}"),
            }
            let batch = NvCallback::BatchMemOp { device, op: raw, addr: 0, bytes: 64, at };
            let expected_op = if raw.contains("Prefetch") {
                "mem_prefetch"
            } else if raw.contains("Advise") {
                "mem_advise"
            } else {
                expected.as_str()
            };
            match normalize_nv(&batch) {
                Some(Event::BatchMemOp { op, .. }) => {
                    prop_assert_eq!(op.as_str(), expected_op, "{} sight", sight)
                }
                other => panic!("{raw:?} normalized to {other:?}"),
            }
        }
    }
}

/// Phase 5: a stack materialized at capture time is the stack the eager
/// copy used to hold — the operator's frames, then the operator itself as
/// the innermost Python frame — and the hub's merged view returns it.
fn lazily_captured_stacks_equal_eager_ones() {
    let mut processor = EventProcessor::new();
    processor.capture_knob = Some(Knob::MaxCalledKernel);
    let hub = new_shared(processor);
    let frames = [
        PyFrame::new("models/bert/run_bert.py", 177, "<module>"),
        PyFrame::new("torch/nn/modules/linear.py", 114, "forward"),
    ];
    let op_start = |seq: u64, name: &str, frames: &[PyFrame]| Event::OpStart {
        seq,
        name: name.into(),
        device: DeviceId(0),
        py_stack: frames.into(),
    };
    let launch_end = |launch: u64, name: &str| Event::KernelLaunchEnd {
        launch: LaunchId(launch),
        device: DeviceId(0),
        name: name.into(),
        start: SimTime(0),
        end: SimTime(100),
    };
    // The operator current at the launch is the one captured, not an
    // earlier one; a later one does not replace the capture.
    hub.process(&op_start(0, "aten::embedding", &frames[..1]));
    hub.process(&op_start(1, "aten::linear", &frames));
    hub.process(&launch_end(0, "ampere_sgemm_128x64_tn"));
    hub.process(&op_start(2, "aten::relu", &frames[..1]));
    hub.process(&launch_end(1, "ampere_sgemm_128x64_tn"));

    let mut python = frames.to_vec();
    python.push(PyFrame::new("torch/_ops.py", 502, "aten::linear"));
    let eager = CrossLayerStack {
        python,
        native: native_frames_for_kernel("ampere_sgemm_128x64_tn"),
    };
    let captured = hub
        .merged_stack_for("ampere_sgemm_128x64_tn")
        .expect("the hot kernel was captured");
    assert_eq!(captured, eager);
    assert_eq!(captured.render(), eager.render());
    assert_eq!(hub.merged_stack_for("never_launched"), None);
}

/// What a lane saw when it reached over to a peer device.
#[derive(Debug, Clone, PartialEq)]
struct PeerVisit {
    home: DevicePtr,
    peer: DevicePtr,
    copy_ns: u64,
    home_stats: RuntimeStats,
    peer_stats: RuntimeStats,
}

/// Allocates at home and on the peer, copies device to device on the
/// peer's link, and reports addresses, the copy's simulated cost and both
/// devices' counters.
fn visit_peer(rt: &mut dyn DeviceRuntime, home: DeviceId, peer: DeviceId) -> PeerVisit {
    const BYTES: u64 = 8 << 20;
    rt.set_device(home).expect("home device");
    let here = rt.malloc(BYTES).expect("home allocation");
    rt.set_device(peer).expect("peer device");
    let there = rt.malloc(BYTES).expect("peer allocation");
    let before = rt.host_time();
    rt.memcpy(there, here, BYTES, CopyDirection::DeviceToDevice)
        .expect("peer copy");
    let copy_ns = rt.host_time() - before;
    rt.set_device(home).expect("back home");
    PeerVisit {
        home: here,
        peer: there,
        copy_ns,
        home_stats: rt.stats(home),
        peer_stats: rt.stats(peer),
    }
}

/// Phase 6: a lane's context spans the whole 64-device machine and builds
/// a device's state on first touch. A lane that reaches a peer device gets
/// the addresses, link pricing and counters of a context that built every
/// device up front.
fn lanes_touching_a_peer_device_price_links_identically() {
    // Two device kinds, so a peer's link is not the home link.
    let specs: Vec<DeviceSpec> = (0..64)
        .map(|d| {
            if d % 2 == 0 {
                DeviceSpec::a100_80gb()
            } else {
                DeviceSpec::rtx_3060()
            }
        })
        .collect();
    let devices: Vec<DeviceId> = (0..64).map(DeviceId).collect();
    let peer_of = |d: DeviceId| DeviceId((d.0 + 33) % 64);

    let expected: Vec<PeerVisit> = devices
        .iter()
        .map(|&home| {
            let mut eager = CudaContext::new(specs.clone());
            for &d in &devices {
                // Builds the device, as every context did before.
                eager.engine().device(d);
            }
            visit_peer(&mut eager, home, peer_of(home))
        })
        .collect();
    assert_ne!(expected[0].copy_ns, expected[1].copy_ns, "links differ");

    let mut session = Pasta::builder()
        .devices(specs)
        .tool(LaunchCounter::default())
        .build()
        .expect("64-device session");
    let visits = session
        .run_parallel(&devices, |lanes| {
            Ok(lanes
                .iter_mut()
                .map(|lane| {
                    let home = lane.device();
                    visit_peer(lane.session.runtime_mut(), home, peer_of(home))
                })
                .collect::<Vec<_>>())
        })
        .expect("parallel region");
    assert_eq!(visits, expected);
}

/// Phase 7: the memory side of a managed launch. Once the pages are
/// resident, resolving an access — private, shared with nothing pending,
/// or a whole serve-shaped launch through `CudaContext` — walks the LRU
/// list in place and allocates nothing: no segment list, no `missing` or
/// stale set, no `Arc` bump, no tree node.
fn resident_managed_accesses_allocate_nothing() {
    use pasta::sim::{AccessKind, AccessSpec, KernelBody, ResidencyModel};
    use pasta::uvm::{UvmConfig, UvmManager, PAGE_SIZE};

    const BASE: u64 = 0x4000_0000_0000;
    const WEIGHT_PAGES: u64 = 256;
    const KV_PAGES: u64 = 6;
    // Hotness is an accumulating log and grows by design; one bin wider
    // than the whole phase keeps its open buffer — sized by the warm-up
    // passes — the only thing it writes.
    const WARM_UP: usize = 1200;
    const COUNTED: usize = 64;
    let manager = || {
        let mut m = UvmManager::new(UvmConfig {
            hotness_bin_events: 1 << 40,
        });
        for _ in 0..2 {
            m.add_device_p2p((WEIGHT_PAGES + 32) * PAGE_SIZE, 24.0, 300.0, 25_000);
        }
        m
    };

    // The manager alone: device 1 re-reads a private range, then a range
    // device 0 owns and shares.
    let mut m = manager();
    let (d0, d1) = (DeviceId(0), DeviceId(1));
    let shared_len = WEIGHT_PAGES * PAGE_SIZE;
    let private = BASE + shared_len;
    let private_len = KV_PAGES * PAGE_SIZE;
    m.register(BASE, shared_len);
    m.register_shared(BASE, shared_len, d0);
    m.register(private, private_len);
    m.on_kernel_access(d0, BASE, shared_len, shared_len, AccessKind::Load);
    let pass = |m: &mut UvmManager| {
        let a = m.on_kernel_access(d1, private, private_len, private_len, AccessKind::Load);
        let b = m.on_kernel_access(d1, BASE, shared_len, shared_len, AccessKind::Load);
        (a, b)
    };
    let (cold_private, cold_shared) = pass(&mut m);
    assert_eq!(cold_private.migrated_in_bytes, private_len);
    assert_eq!(cold_shared.peer_in_bytes, shared_len);
    for _ in 0..WARM_UP / 2 {
        pass(&mut m);
    }
    let before = allocs();
    for _ in 0..COUNTED {
        let (a, b) = pass(&mut m);
        assert_eq!((a.faults, b.peer_in_bytes), (0, 0), "resident hits");
    }
    assert_eq!(
        allocs() - before,
        0,
        "resident-hit accesses, private and shared, must not allocate"
    );

    // The same through the vendor layer: one scheduler step of a serving
    // lane — the shared weights read, then a decode over a 6-page KV
    // cache that appends to its newest page.
    let mut cuda = CudaContext::new(vec![DeviceSpec::a100_80gb(), DeviceSpec::a100_80gb()]);
    cuda.set_device(d1).expect("device 1 exists");
    cuda.attach_uvm(manager());
    let weights = cuda.malloc_managed(shared_len).expect("weights");
    cuda.engine_mut()
        .residency_mut()
        .expect("uvm attached")
        .register_shared(weights.addr(), shared_len, d0);
    let kv: Vec<DevicePtr> = (0..KV_PAGES)
        .map(|_| cuda.malloc_managed(PAGE_SIZE).expect("kv page"))
        .collect();
    let step = || {
        let weights_read =
            KernelDesc::new("serving_weights_read", Dim3::linear(32), Dim3::linear(128))
                .arg(weights, shared_len)
                .body(KernelBody::default().access(AccessSpec::load(0, shared_len)));
        let mut body = KernelBody::default();
        for page in 0..kv.len() {
            body = body.access(AccessSpec::load(page, PAGE_SIZE));
        }
        body = body.access(AccessSpec::store(kv.len() - 1, 1024));
        let mut decode = KernelDesc::new("serving_decode_attn", Dim3::linear(4), Dim3::linear(128));
        for &page in &kv {
            decode = decode.arg(page, PAGE_SIZE);
        }
        [weights_read, decode.body(body)]
    };
    let cold: Vec<_> = step()
        .into_iter()
        .map(|desc| cuda.launch(desc).expect("cold launch"))
        .collect();
    assert_eq!(cold[0].uvm_peer_bytes, shared_len, "weights duplicated");
    assert_eq!(cold[1].uvm_migrated_bytes, KV_PAGES * PAGE_SIZE);
    for desc in (0..WARM_UP / 8).flat_map(|_| step()) {
        cuda.launch(desc).expect("warm launch");
    }
    // Building a kernel description allocates (its argument and access
    // lists); launching one must not.
    let steps: Vec<KernelDesc> = (0..COUNTED).flat_map(|_| step()).collect();
    let before = allocs();
    for desc in steps {
        let record = cuda.launch(desc).expect("resident launch");
        assert_eq!(record.uvm_stall_ns, 0, "everything resident");
    }
    assert_eq!(
        allocs() - before,
        0,
        "a serve-shaped launch over resident pages must not allocate"
    );
}

// ---------------------------------------------------------------------------
// Phase 8 (ISSUE 24): the host gate changes no result.
// ---------------------------------------------------------------------------

const GATE_KERNELS: [&str; 3] = ["gate_gemm", "gate_relu", "gate_softmax"];
const KNOBS: [Knob; 4] = [
    Knob::MaxMemReferencedKernel,
    Knob::MaxCalledKernel,
    Knob::MaxBarrierKernel,
    Knob::MaxDurationKernel,
];

/// A tool with a generated coarse interest that digests, in order,
/// everything it is sent — and, if told to, panics on its nth delivery.
#[derive(Debug, Clone)]
struct Spy {
    name: &'static str,
    interest: Interest,
    forks: bool,
    panic_at: Option<u64>,
    seen: u64,
    digest: u64,
    launches: u64,
    /// Deliveries the processor does not read for itself: not a launch,
    /// not an annotation, not an operator start.
    tools_only: u64,
}

impl Spy {
    fn new(name: &'static str, interest: Interest) -> Spy {
        Spy {
            name,
            interest,
            forks: true,
            panic_at: None,
            seen: 0,
            digest: 0,
            launches: 0,
            tools_only: 0,
        }
    }

    /// The six coarse classes from the low bits of `classes`, or one of
    /// the two umbrellas, or `Interest::coarse()` whole, by `flavour`.
    fn generated(name: &'static str, classes: u16, flavour: u8, panic: u8) -> Spy {
        let bit = |b: u16| classes & (1 << b) != 0;
        let named = Interest {
            api_calls: bit(0),
            kernel_launches: bit(1),
            memory_ops: bit(2),
            syncs: bit(3),
            framework_ops: bit(4),
            annotations: bit(5),
            ..Interest::default()
        };
        let interest = match flavour {
            0 => Interest::coarse(),
            1 => Interest {
                host_events: true,
                ..named
            },
            2 => Interest {
                framework_events: true,
                ..named
            },
            _ => named,
        };
        Spy {
            panic_at: (panic < 6).then_some(u64::from(panic) * 3),
            ..Spy::new(name, interest)
        }
    }

    fn fresh(&self) -> Spy {
        Spy {
            seen: 0,
            digest: 0,
            launches: 0,
            tools_only: 0,
            ..self.clone()
        }
    }
}

impl Tool for Spy {
    fn name(&self) -> &str {
        self.name
    }
    fn interest(&self) -> Interest {
        self.interest
    }
    fn on_event(&mut self, event: &Event) {
        assert!(self.panic_at != Some(self.seen), "fault-injection: spy");
        self.seen += 1;
        for byte in format!("{event:?}").bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
        let own = matches!(event.class(), EventClass::Kernel | EventClass::Annotation)
            || matches!(event, Event::OpStart { .. });
        self.tools_only += u64::from(!own);
        self.launches += u64::from(matches!(event, Event::KernelLaunchEnd { .. }));
    }
    fn report(&self) -> ToolReport {
        ToolReport::new(self.name)
            .metric("seen", self.seen as f64)
            .metric("launches", self.launches as f64)
            .metric("tools_only", self.tools_only as f64)
            .body(format!("{:016x}", self.digest))
    }
    fn reset(&mut self) {
        *self = self.fresh();
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        self.forks.then(|| Box::new(self.fresh()) as Box<dyn Tool>)
    }
    fn merge(&mut self, other: &dyn Tool) {
        let other = other.as_any().downcast_ref::<Spy>().expect("a spy");
        self.seen += other.seen;
        self.launches += other.launches;
        self.tools_only += other.tools_only;
        self.digest = self.digest.rotate_left(9) ^ other.digest;
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

type Tape = Arc<Mutex<Vec<(DeviceId, Event)>>>;

#[derive(Debug)]
struct TapeRecorder {
    device: DeviceId,
    tape: Tape,
}

impl EventRecorder for TapeRecorder {
    fn record(&mut self, event: &Event) {
        self.tape.lock().unwrap().push((self.device, event.clone()));
    }
}

/// What a script does to its hub between two operations.
#[derive(Debug, Clone, Copy)]
enum Action {
    AttachRecorders,
    DetachRecorders,
    Reset,
}

/// A hub and the tape its recorders write.
struct Rig {
    hub: SharedHub,
    tape: Tape,
}

impl Rig {
    /// One shard per device, as a session builds them — or the single
    /// shared shard when a spy declines to fork.
    fn new(spies: &[Spy], devices: u32, capture: bool) -> Rig {
        let mut primary = EventProcessor::new();
        primary.capture_knob = capture.then_some(Knob::MaxCalledKernel);
        for spy in spies {
            primary.tools.register(Box::new(spy.clone()));
        }
        let forks: Option<Vec<_>> = (1..devices)
            .map(|d| primary.fork().map(|fork| (DeviceId(d), fork)))
            .collect();
        let hub = match forks {
            Some(forks) if devices > 1 => {
                let shards = std::iter::once((DeviceId(0), primary)).chain(forks);
                Arc::new(Hub::sharded(shards.collect()).expect("distinct devices"))
            }
            _ => new_shared(primary),
        };
        Rig {
            hub,
            tape: Tape::default(),
        }
    }

    fn apply(&self, action: Action) {
        match action {
            Action::AttachRecorders => self.hub.attach_recorders(|device| {
                Box::new(TapeRecorder {
                    device,
                    tape: Arc::clone(&self.tape),
                })
            }),
            Action::DetachRecorders => drop(self.hub.detach_recorders()),
            Action::Reset => self.hub.reset_all(),
        }
    }
}

/// A host callback or a framework event, as its subscriber saw it.
enum Raw<C> {
    Vendor(C),
    Framework(FrameworkEvent),
}

/// One scripted operation. Failures (a free on the wrong device, a copy
/// between devices without peer access) are part of the stream: the
/// callbacks they emit reach both sides.
fn scripted_op(
    s: &mut Session<'_>,
    devices: u32,
    (op, arg): (u8, u8),
    ptrs: &mut Vec<DevicePtr>,
    tensors: &mut Vec<(DeviceId, Tensor)>,
) {
    let kernel = KernelDesc::new(
        GATE_KERNELS[arg as usize % GATE_KERNELS.len()],
        Dim3::linear(1 + u32::from(arg)),
        Dim3::linear(32),
    );
    let _ = match op {
        0 => s
            .runtime_mut()
            .malloc(4096 * (1 + u64::from(arg)))
            .map(|p| ptrs.push(p)),
        1 => ptrs.pop().map_or(Ok(()), |p| s.runtime_mut().free(p)),
        2 => ptrs
            .last()
            .map_or(Ok(()), |&p| s.runtime_mut().memset(p, 1024)),
        3 => match ptrs[..] {
            [.., from, to] => s
                .runtime_mut()
                .memcpy(to, from, 1024, CopyDirection::DeviceToDevice),
            _ => Ok(()),
        },
        4 => {
            s.synchronize();
            Ok(())
        }
        5 => s.launch(kernel).map(drop),
        6 => s.with_op(["aten::linear", "aten::relu"][arg as usize % 2], |s| {
            s.with_op("aten::addmm", |s| s.launch(kernel).map(drop))
        }),
        7 => {
            let here = s.runtime().current_device();
            s.alloc_tensor(&[64 * (1 + arg as usize)], DType::F32)
                .map(|t| tensors.push((here, t)))
        }
        // A tensor goes back to the pool of the device it came from.
        8 => tensors.pop().map_or(Ok(()), |(home, t)| {
            s.runtime_mut().set_device(home)?;
            s.free_tensor(&t);
            Ok(())
        }),
        9 => {
            if arg % 2 == 0 {
                s.region_start("scripted");
            } else {
                s.region_end("scripted");
            }
            Ok(())
        }
        10 => {
            if arg % 2 == 0 {
                s.layer_boundary("scripted.layer", arg as usize);
            } else {
                s.pass_boundary(Pass::Backward);
            }
            Ok(())
        }
        _ => s
            .runtime_mut()
            .set_device(DeviceId(u32::from(arg) % devices)),
    };
}

/// Runs `script` on a context speaking `C` whose callbacks and framework
/// events go through `attach` / `attach_session` into `live` — with each
/// action applied before the script step it names — and, logged by a
/// second subscriber, through `normalize` straight into `reference`'s
/// processors, the actions falling between the same two events.
fn drive<C: Vocabulary + Clone + Send>(
    (live, reference): (&Rig, &Rig),
    attach: fn(&mut Context<C>, SharedHub),
    normalize: fn(&C) -> Option<Event>,
    specs: Vec<DeviceSpec>,
    script: &[(u8, u8)],
    actions: &[(usize, Action)],
) {
    let log: Arc<Mutex<Vec<Raw<C>>>> = Arc::default();
    let devices = specs.len() as u32;
    let mut context = Context::<C>::new(specs);
    attach(&mut context, Arc::clone(&live.hub));
    let sink = Arc::clone(&log);
    context.subscribe(Box::new(move |cb: &C| {
        sink.lock().unwrap().push(Raw::Vendor(cb.clone()))
    }));
    let mut session = Session::new(&mut context);
    attach_session(&mut session, Arc::clone(&live.hub));
    let sink = Arc::clone(&log);
    session.subscribe(Box::new(move |ev| {
        sink.lock().unwrap().push(Raw::Framework(ev.clone()))
    }));
    session.py_push(PyFrame::new("run.py", 10, "main"));

    let mut placed: Vec<(usize, Action)> = Vec::new();
    let (mut ptrs, mut tensors) = (Vec::new(), Vec::new());
    for (step, &op) in script.iter().enumerate() {
        for &(_, action) in actions.iter().filter(|(at, _)| *at == step) {
            live.apply(action);
            placed.push((log.lock().unwrap().len(), action));
        }
        scripted_op(&mut session, devices, op, &mut ptrs, &mut tensors);
    }
    drop(session);
    drop(context);

    let log = std::mem::take(&mut *log.lock().unwrap());
    let mut pending = None;
    for at in 0..=log.len() {
        for &(_, action) in placed.iter().filter(|(placed_at, _)| *placed_at == at) {
            reference.apply(action);
        }
        let event = match log.get(at) {
            None => None,
            Some(Raw::Framework(ev)) => Some(normalize_framework(ev)),
            Some(Raw::Vendor(cb)) => match cb.launch_edge() {
                Some(LaunchEdge::Begin(launch, name, start)) => {
                    pending = Some((launch, *name, start));
                    None
                }
                Some(LaunchEdge::End(launch, device, end)) => pending
                    .take_if(|(begun, ..)| *begun == launch)
                    .map(|(_, name, start)| Event::KernelLaunchEnd {
                        launch,
                        device,
                        name,
                        start,
                        end,
                    }),
                None => normalize(cb),
            },
        };
        if let Some(event) = event {
            reference.hub.process(&event);
        }
    }
}

/// Gated callbacks over every generated case: the property is vacuous if
/// nothing was ever turned away.
static GATED: AtomicU64 = AtomicU64::new(0);

fn assert_same_results(live: &Rig, reference: &Rig) {
    assert_eq!(reference.hub.host_events_gated(), 0, "fed past the gate");
    GATED.fetch_add(live.hub.host_events_gated(), Ordering::Relaxed);
    assert_eq!(live.hub.merged_report(), reference.hub.merged_report());
    for (a, b) in live.hub.shards().iter().zip(reference.hub.shards()) {
        let counts = (a.lock().events_processed(), b.lock().events_processed());
        assert_eq!(counts.0, counts.1, "shard {}", a.device());
    }
    let (a, b) = (live.hub.merged_knobs(), reference.hub.merged_knobs());
    let selected = |knobs: &pasta::core::KnobSet, knob| {
        knobs
            .select(knob)
            .map(|(name, agg)| (name.to_string(), agg))
    };
    for knob in KNOBS {
        assert_eq!(selected(&a, knob), selected(&b, knob), "{knob:?}");
    }
    for kernel in GATE_KERNELS {
        assert_eq!(a.get(kernel), b.get(kernel), "{kernel}");
        assert_eq!(
            live.hub.merged_stack_for(kernel),
            reference.hub.merged_stack_for(kernel),
            "{kernel}"
        );
    }
    assert_eq!(
        *live.tape.lock().unwrap(),
        *reference.tape.lock().unwrap(),
        "recorded from each attach to the next detach, nothing else"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random tool sets with random coarse interests × random callback
    /// sequences × both vendors × one shard or two × capture knob on or
    /// off, with recorders attached and detached, the analysis reset and
    /// a tool quarantined wherever the generator puts them.
    fn gated_hubs_equal_ungated_processors(
        spies in prop::collection::vec((0u16..64, 0u8..8, 0u8..24), 0..4),
        script in prop::collection::vec((0u8..12, 0u8..8), 0..80),
        actions in prop::collection::vec((0usize..80, 0u8..3), 0..4),
        shape in 0u8..8,
    ) {
        let (amd, devices, capture) = (shape & 1 != 0, 1 + u32::from(shape >> 1 & 1), shape & 4 != 0);
        let spies: Vec<Spy> = spies
            .into_iter()
            .zip(["spy-0", "spy-1", "spy-2"])
            .map(|((classes, flavour, panic), name)| Spy::generated(name, classes, flavour, panic))
            .collect();
        let actions: Vec<(usize, Action)> = actions
            .into_iter()
            .map(|(at, what)| {
                let action = [Action::AttachRecorders, Action::DetachRecorders, Action::Reset];
                (at, action[what as usize])
            })
            .collect();
        let rigs = (Rig::new(&spies, devices, capture), Rig::new(&spies, devices, capture));
        let both = (&rigs.0, &rigs.1);
        if amd {
            let specs = vec![DeviceSpec::mi300x(); devices as usize];
            drive(both, attach_roc, normalize_roc, specs, &script, &actions);
        } else {
            let specs = vec![DeviceSpec::a100_80gb(); devices as usize];
            drive(both, attach_nv, normalize_nv, specs, &script, &actions);
        }
        assert_same_results(&rigs.0, &rigs.1);
    }
}

/// A tool that reads launches alone and says so (`narrow`) or asks for
/// every coarse class anyway: the same reports either way, with the gate
/// shut on one side and open on the other.
fn launch_reader(narrow: bool, forks: bool) -> Spy {
    let interest = if narrow {
        Interest {
            kernel_launches: true,
            ..Interest::default()
        }
    } else {
        Interest::coarse()
    };
    Spy {
        forks,
        ..Spy::new("launch-reader", interest)
    }
}

/// What a session-level leg compares. Not the spy's digest — a wide spy
/// is sent more, and a second run's launches carry later ids and times.
#[derive(Debug, PartialEq)]
struct SessionCounts {
    events: u64,
    gated: u64,
    /// Launches the spy read.
    launches: u64,
    /// What the spy was sent that only a tool reads.
    tools_only: u64,
    /// The lanes that failed.
    failures: Vec<String>,
}

impl SessionCounts {
    fn of(report: &pasta::core::MergedReport, gated: u64) -> SessionCounts {
        let metric = |name| report.tools[0].get(name).expect("the spy reports it") as u64;
        SessionCounts {
            events: report.events_processed,
            gated,
            launches: metric("launches"),
            tools_only: metric("tools_only"),
            failures: report.lane_failures.iter().map(|f| f.to_string()).collect(),
        }
    }

    /// `self` under a tool that reads launches and says so, `wide` under
    /// the same tool asking for every coarse class: the same events and
    /// launches, and gated exactly what only a tool could have read.
    fn check_against(&self, wide: &SessionCounts, what: &str) {
        assert_eq!(
            (self.events, self.launches, &self.failures),
            (wide.events, wide.launches, &wide.failures),
            "{what}"
        );
        assert_eq!((self.tools_only, wide.gated), (0, 0), "{what}");
        assert_eq!(self.gated, wide.tools_only, "{what}");
        assert!(self.gated > 0, "{what}");
    }
}

/// Session legs: `reset_analysis`, two lanes racing into the single shard
/// a tool that declines to fork leaves them, and a lane that panics.
fn gated_sessions_equal_wide_open_ones() {
    let two_a100s = |narrow: bool, forks: bool| {
        Pasta::builder()
            .a100_x2()
            .tool(launch_reader(narrow, forks))
            .build()
            .expect("two-device session")
    };
    let devices = [DeviceId(0), DeviceId(1)];
    let lane_work = |lane: &mut DeviceLane<'_>, steps: usize| -> Result<(), AccelError> {
        let s = &mut lane.session;
        for step in 0..steps {
            let t = s.alloc_tensor(&[256], DType::F32)?;
            s.with_op("aten::relu", |s| {
                s.launch(KernelDesc::new(
                    "gate_relu",
                    Dim3::linear(1),
                    Dim3::linear(32),
                ))
                .map(drop)
            })?;
            if step % 8 == 0 {
                s.synchronize();
            }
            s.free_tensor(&t);
        }
        Ok(())
    };

    // reset_analysis: a second run after a reset counts what a first run
    // does, the gated callbacks included.
    let mut runs = Vec::new();
    for narrow in [true, false] {
        let mut session = two_a100s(narrow, true);
        let run = |session: &mut PastaSession| {
            let mut model =
                ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(8);
            session.run(&mut model).expect("the model runs");
            SessionCounts::of(&session.merged_report(), session.host_events_gated())
        };
        let first = run(&mut session);
        session.reset_analysis();
        assert_eq!(
            (session.events_processed(), session.host_events_gated()),
            (0, 0)
        );
        assert_eq!(first, run(&mut session), "narrow {narrow}");
        runs.push(first);
    }
    runs[0].check_against(&runs[1], "reset_analysis");

    // Two lanes, one shared shard, both emitting at once: the tally is
    // two threads' fetch_adds on one word and must lose none.
    let mut runs = Vec::new();
    for narrow in [true, false] {
        let mut session = two_a100s(narrow, false);
        let start = Barrier::new(2);
        session
            .run_parallel(&devices, |lanes| {
                std::thread::scope(|scope| {
                    let workers: Vec<_> = lanes
                        .iter_mut()
                        .map(|lane| {
                            let start = &start;
                            scope.spawn(move || {
                                start.wait();
                                lane_work(lane, 1500)
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .try_for_each(|w| w.join().expect("no lane panics"))
                })
            })
            .expect("the region runs");
        let report = session.merged_report();
        assert_eq!(report.per_device.len(), 1, "the tool declined to fork");
        runs.push(SessionCounts::of(&report, session.host_events_gated()));
    }
    runs[0].check_against(&runs[1], "two lanes, one shard");
    assert_eq!(runs[0].launches, 3000, "one launch a step a lane");

    // A lane that panics half-way: the salvaged report counts what both
    // lanes emitted up to then, gated or not.
    let mut runs = Vec::new();
    for narrow in [true, false] {
        let mut session = two_a100s(narrow, true);
        let err = session
            .run_parallel_each(&devices, |_, lane| {
                lane_work(lane, 40)?;
                assert!(lane.device() != DeviceId(1), "fault-injection: lane 1 dies");
                lane_work(lane, 40)
            })
            .expect_err("a panicking lane fails the run");
        let PastaError::Salvaged(run) = err else {
            panic!("expected a salvaged run, got {err:?}");
        };
        runs.push(SessionCounts::of(&run.report, session.host_events_gated()));
    }
    runs[0].check_against(&runs[1], "a salvaged run");
    assert_eq!(runs[0].launches, 80 + 40);
    assert_eq!(runs[0].failures.len(), 1);
}

#[test]
fn host_event_path_is_allocation_free_and_changes_no_result() {
    replayed_host_events_allocate_only_on_first_sight();
    live_operators_allocate_only_on_first_sight();
    real_operators_allocate_nothing_once_warm();
    interning_from_many_threads_yields_the_global_symbols();
    memoized_names_equal_normalize_api_name();
    lazily_captured_stacks_equal_eager_ones();
    lanes_touching_a_peer_device_price_links_identically();
    resident_managed_accesses_allocate_nothing();
    quiet_injected_panics();
    gated_hubs_equal_ungated_processors();
    assert!(
        GATED.load(Ordering::Relaxed) > 1000,
        "the generated cases must meet a shut gate"
    );
    gated_sessions_equal_wide_open_ones();
}
