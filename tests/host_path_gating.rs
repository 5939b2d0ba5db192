//! Allocation-free host event path (ISSUE 13).
//!
//! The coarse path — vendor callback → `normalize_*` → `Hub::process` →
//! `EventProcessor::process`, and the framework's `Session::with_op` →
//! `normalize_framework` leg — is the one layer every session pays, tools
//! or no tools. In steady state it must build no `String`, take no
//! process-global lock and allocate nothing: API names and operator names
//! are interned at the source, Python stacks are shared, the launch
//! pairing is one slot. A counting global allocator pins the allocation
//! half; the rest of the file pins that the shortcuts changed no result —
//! interned symbols are the global table's, memoized names equal
//! `normalize_api_name`, lazily materialized stacks equal eager ones, and
//! devices built on first touch price and place like devices built up
//! front.
//!
//! Everything lives in one `#[test]` because the allocation counter is
//! process-global: parallel test threads would attribute each other's
//! allocations to the wrong phase.

mod common;

use common::CountingAlloc;
use std::sync::{Arc, Barrier, Mutex};

use pasta::amd::{HipContext, RocCallback};
use pasta::core::handler::{attach_nv, attach_session};
use pasta::core::hub::{new_shared, SharedHub};
use pasta::core::normalize::{
    normalize_api_name, normalize_framework, normalize_nv, normalize_roc,
};
use pasta::core::tool::LaunchCounter;
use pasta::core::{Event, EventProcessor, Knob, Symbol, SymbolTable};
use pasta::dl::callbacks::FrameworkEvent;
use pasta::dl::dtype::DType;
use pasta::dl::ops::{self, Act};
use pasta::dl::pycall::{native_frames_for_kernel, CrossLayerStack, PyFrame, PyStack};
use pasta::dl::tensor::{Tensor, TensorId};
use pasta::dl::{runner, Session};
use pasta::nv::{CudaContext, NvCallback};
use pasta::prelude::*;
use pasta::sim::{
    AccelError, CopyDirection, DevicePtr, DeviceRuntime, LaunchId, RuntimeStats, SimTime,
};
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
}
