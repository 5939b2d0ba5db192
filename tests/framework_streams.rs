//! dl-framework's streams, pinned one digest per row: every `ModelZoo`
//! model × {inference, training} × {NVIDIA, AMD} through
//! `runner::run_model` (2 steps, so Adam's moments are allocated once and
//! then reused), DP, TP and PP through `parallel::train_iter` on two
//! lanes, and EP on `MoeConfig::tiny()`.
//!
//! A row's digest covers, in the order they happen, every
//! `FrameworkEvent` (tensor alloc/free, op, region, layer and pass
//! boundaries), every launch's kernel name, grid, block and arguments as
//! the runtime receives them, every vendor callback, and the run's report
//! (`param_bytes` included). Aggregate tables keep counts and peaks; these
//! digests also move when the same kernels are merely reordered.
//!
//! A second digest per row covers every launch's `KernelBody` in launch
//! order: its FLOPs, barriers and shared memory, and every field of each
//! `AccessSpec` (argument index, range, bytes, kind, space, pattern,
//! element size) in the order the kernel lists them. A kernel that drops,
//! reorders or re-indexes an access moves it.
//!
//! Both sets of pins were taken before the framework's layers, ops and
//! models were last restructured, and a restructuring must leave them
//! unchanged.

use pasta::dl::parallel::{self, DeviceLane, MoeConfig, Parallelism};
use pasta::dl::runner::run_model;
use pasta::dl::{ModelZoo, RunKind, Session};
use pasta::sim::residency::ResidencyModel;
use pasta::sim::runtime::MemAdvise;
use pasta::sim::sync::Mutex;
use pasta::sim::{
    AccelError, CopyDirection, DeviceId, DevicePtr, DeviceRuntime, DeviceSpec, KernelDesc,
    LaunchRecord, RuntimeStats, SimTime, StreamId, Vendor,
};
use pasta::uvm::runtime::{Context, Vocabulary};
use std::fmt::{self, Debug, Write};
use std::sync::Arc;

/// The batch divisor `tests/integration.rs` runs the model zoo at.
const DIV: usize = 8;

/// `(row, stream digest)`, in [`rows`] order.
const PINNED: [(&str, &str); 28] = [
    ("nv AN inference", "53c236d48fe3e165"),
    ("nv AN train", "08dec6a7f9606fd3"),
    ("nv RN-18 inference", "8fa2e6790c2a28d8"),
    ("nv RN-18 train", "503af53a1170146e"),
    ("nv RN-34 inference", "4b88b0f07f64a272"),
    ("nv RN-34 train", "53c7cbfc4270995e"),
    ("nv GPT-2 inference", "97c960420525db9c"),
    ("nv GPT-2 train", "0dda8ee83c67c312"),
    ("nv BERT inference", "6bf8e89b0470b288"),
    ("nv BERT train", "fb868bfc21ec8759"),
    ("nv Whisper inference", "2f109ae76e17ffee"),
    ("nv Whisper train", "f0181d5720623f73"),
    ("amd AN inference", "6526d7bb861d3686"),
    ("amd AN train", "06902e4392f017cf"),
    ("amd RN-18 inference", "3f34004cae622319"),
    ("amd RN-18 train", "164fa04e53d5d7e7"),
    ("amd RN-34 inference", "24ed7d96941c5c1d"),
    ("amd RN-34 train", "2dfd1abface64052"),
    ("amd GPT-2 inference", "031ca932ed2a4e0c"),
    ("amd GPT-2 train", "445a11f769f61ee2"),
    ("amd BERT inference", "5b343029ce53cdd6"),
    ("amd BERT train", "f60cb4cb4e11e6fe"),
    ("amd Whisper inference", "1fbc07c70fcd46ec"),
    ("amd Whisper train", "ca9a441f8be259c4"),
    ("data-parallel", "ce229174aee53c66"),
    ("tensor-parallel", "91f907485802eb70"),
    ("pipeline-parallel", "e43c8c3b9c2f6801"),
    ("expert-parallel tiny", "754d30286434fe71"),
];

/// `(row, body digest)`, in [`rows`] order.
const BODIES: [(&str, &str); 28] = [
    ("nv AN inference", "7ec8ae23f05876f5"),
    ("nv AN train", "055573534f3a263e"),
    ("nv RN-18 inference", "487124e01313cefd"),
    ("nv RN-18 train", "7d6e6dcdf0dc0620"),
    ("nv RN-34 inference", "ebe643735a2068fd"),
    ("nv RN-34 train", "3ba11408e5379b5e"),
    ("nv GPT-2 inference", "bf623cff7bfe5126"),
    ("nv GPT-2 train", "9be7e6807e6384bc"),
    ("nv BERT inference", "205946c7a8386c1f"),
    ("nv BERT train", "a0c27bf7b9f77cf5"),
    ("nv Whisper inference", "942479d1df5d628b"),
    ("nv Whisper train", "c3d679e501b981e7"),
    ("amd AN inference", "9f3b578a74c9f849"),
    ("amd AN train", "282a28dff475cd75"),
    ("amd RN-18 inference", "50deecc00d8785a5"),
    ("amd RN-18 train", "528480887423742b"),
    ("amd RN-34 inference", "9c74d518108d5445"),
    ("amd RN-34 train", "8a8e9f60556acee1"),
    ("amd GPT-2 inference", "7818fbe7c168c227"),
    ("amd GPT-2 train", "7d2690cdcde1d2a5"),
    ("amd BERT inference", "58381301fcd6c49f"),
    ("amd BERT train", "e23e51c160dde549"),
    ("amd Whisper inference", "b684528e0b9854f5"),
    ("amd Whisper train", "f6462ea8a0703317"),
    ("data-parallel", "7e44fbc66fb3c299"),
    ("tensor-parallel", "5017d0e716342a2f"),
    ("pipeline-parallel", "d9fb03c5c2c5a45d"),
    ("expert-parallel tiny", "096ed76796d483cb"),
];

/// FNV-1a over everything written into it, so a stream is digested as
/// it runs rather than kept.
struct Digest(u64);

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

type Log = Arc<Mutex<Digest>>;

fn log() -> Log {
    Arc::new(Mutex::new(Digest(0xcbf2_9ce4_8422_2325)))
}

fn record(log: &Log, item: &dyn Debug) {
    writeln!(log.lock(), "{item:?}").expect("digesting cannot fail");
}

/// A row's two digests: the stream and the launch bodies.
struct Logs {
    stream: Log,
    bodies: Log,
}

fn logs() -> Logs {
    Logs {
        stream: log(),
        bodies: log(),
    }
}

impl Logs {
    fn digests(&self) -> (u64, u64) {
        (self.stream.lock().0, self.bodies.lock().0)
    }
}

/// A vendor context whose callbacks land in the stream log, behind a
/// runtime that writes each launch's name, grid, block and arguments
/// there first, and its body into the body log.
struct Tap<C: Vocabulary> {
    ctx: Context<C>,
    log: Log,
    bodies: Log,
}

impl<C: Vocabulary + Debug + Send> Tap<C> {
    fn new(specs: Vec<DeviceSpec>, logs: &Logs) -> Self {
        let mut ctx = Context::<C>::new(specs);
        let sink = Arc::clone(&logs.stream);
        ctx.subscribe(Box::new(move |cb: &C| record(&sink, cb)));
        Tap {
            ctx,
            log: Arc::clone(&logs.stream),
            bodies: Arc::clone(&logs.bodies),
        }
    }
}

impl<C: Vocabulary + Send> DeviceRuntime for Tap<C> {
    fn vendor(&self) -> Vendor {
        self.ctx.vendor()
    }
    fn device_count(&self) -> usize {
        self.ctx.device_count()
    }
    fn set_device(&mut self, device: DeviceId) -> Result<(), AccelError> {
        self.ctx.set_device(device)
    }
    fn current_device(&self) -> DeviceId {
        self.ctx.current_device()
    }
    fn malloc(&mut self, bytes: u64) -> Result<DevicePtr, AccelError> {
        self.ctx.malloc(bytes)
    }
    fn malloc_managed(&mut self, bytes: u64) -> Result<DevicePtr, AccelError> {
        self.ctx.malloc_managed(bytes)
    }
    fn free(&mut self, ptr: DevicePtr) -> Result<(), AccelError> {
        self.ctx.free(ptr)
    }
    fn memcpy(
        &mut self,
        dst: DevicePtr,
        src: DevicePtr,
        bytes: u64,
        dir: CopyDirection,
    ) -> Result<(), AccelError> {
        self.ctx.memcpy(dst, src, bytes, dir)
    }
    fn memset(&mut self, dst: DevicePtr, bytes: u64) -> Result<(), AccelError> {
        self.ctx.memset(dst, bytes)
    }
    fn launch_on(
        &mut self,
        stream: StreamId,
        desc: KernelDesc,
    ) -> Result<LaunchRecord, AccelError> {
        let args: Vec<_> = desc.args.iter().map(|a| (a.ptr, a.len)).collect();
        record(
            &self.log,
            &(stream, &desc.name, desc.grid, desc.block, args),
        );
        record(&self.bodies, &desc.body);
        self.ctx.launch_on(stream, desc)
    }
    fn synchronize(&mut self) {
        self.ctx.synchronize();
    }
    fn device_capacity(&self) -> u64 {
        self.ctx.device_capacity()
    }
    fn host_time(&self) -> SimTime {
        self.ctx.host_time()
    }
    fn mem_prefetch(&mut self, ptr: DevicePtr, bytes: u64) -> Result<(), AccelError> {
        self.ctx.mem_prefetch(ptr, bytes)
    }
    fn mem_advise(
        &mut self,
        ptr: DevicePtr,
        bytes: u64,
        advice: MemAdvise,
    ) -> Result<(), AccelError> {
        self.ctx.mem_advise(ptr, bytes, advice)
    }
    fn stats(&self, device: DeviceId) -> RuntimeStats {
        self.ctx.stats(device)
    }
    fn residency(&self) -> Option<&dyn ResidencyModel> {
        self.ctx.residency()
    }
    fn residency_mut(&mut self) -> Option<&mut dyn ResidencyModel> {
        self.ctx.residency_mut()
    }
}

/// A session over `rt` whose framework events land in `log`.
fn session<'rt>(rt: &'rt mut dyn DeviceRuntime, log: &Log) -> Session<'rt> {
    let mut s = Session::new(rt);
    let sink = Arc::clone(log);
    s.subscribe(Box::new(move |e| record(&sink, e)));
    s
}

/// One model row on one vendor's context: its stream and body digests.
fn model_row<C: Vocabulary + Debug + Send>(
    spec: DeviceSpec,
    model: ModelZoo,
    kind: RunKind,
) -> (u64, u64) {
    let logs = logs();
    let mut rt = Tap::<C>::new(vec![spec], &logs);
    let mut s = session(&mut rt, &logs.stream);
    let report = run_model(&mut s, model, kind, 2, DIV).expect("the model runs");
    record(&logs.stream, &report);
    drop(s);
    logs.digests()
}

/// One two-lane parallel row: each lane digests its own stream and
/// bodies; the row's stream digest covers both lanes' stream digests and
/// the report, its body digest both lanes' body digests, in lane order.
fn parallel_row(
    run: impl FnOnce(&mut [DeviceLane<'_>]) -> Result<parallel::ParallelReport, AccelError>,
) -> (u64, u64) {
    let specs = vec![DeviceSpec::a100_80gb(), DeviceSpec::a100_80gb()];
    let lane_logs = [logs(), logs()];
    let mut rt0 = Tap::<pasta::nv::NvCallback>::new(specs.clone(), &lane_logs[0]);
    let mut rt1 = Tap::<pasta::nv::NvCallback>::new(specs, &lane_logs[1]);
    let mut lanes = [
        DeviceLane::pin(DeviceId(0), session(&mut rt0, &lane_logs[0].stream)).expect("device 0"),
        DeviceLane::pin(DeviceId(1), session(&mut rt1, &lane_logs[1].stream)).expect("device 1"),
    ];
    let report = run(&mut lanes).expect("the strategy runs");
    drop(lanes);
    let row = logs();
    for lane in &lane_logs {
        let (stream, bodies) = lane.digests();
        record(&row.stream, &stream);
        record(&row.bodies, &bodies);
    }
    record(&row.stream, &report);
    row.digests()
}

/// Every row's name, stream digest and body digest, in [`PINNED`] order.
fn rows() -> Vec<(String, (u64, u64))> {
    let mut rows = Vec::new();
    for (vendor, spec) in [
        ("nv", DeviceSpec::a100_80gb()),
        ("amd", DeviceSpec::mi300x()),
    ] {
        for model in ModelZoo::all() {
            for kind in [RunKind::Inference, RunKind::Training] {
                let name = format!("{vendor} {} {}", model.spec().abbr, kind.label());
                let digest = match vendor {
                    "nv" => model_row::<pasta::nv::NvCallback>(spec.clone(), model, kind),
                    _ => model_row::<pasta::amd::RocCallback>(spec.clone(), model, kind),
                };
                rows.push((name, digest));
            }
        }
    }
    for strategy in [
        Parallelism::Data,
        Parallelism::Tensor,
        Parallelism::Pipeline,
    ] {
        let digest = parallel_row(|lanes| parallel::train_iter(lanes, strategy, 1));
        rows.push((strategy.label().to_owned(), digest));
    }
    let digest = parallel_row(|lanes| {
        parallel::train_iter_expert_parallel_with(lanes, 1, &MoeConfig::tiny())
    });
    rows.push(("expert-parallel tiny".to_owned(), digest));
    rows
}

#[test]
fn every_framework_stream_reproduces_its_pinned_digest() {
    let rows = rows();
    let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, PINNED.map(|(name, _)| name));
    assert_eq!(names, BODIES.map(|(name, _)| name));
    let failures: Vec<String> = rows
        .iter()
        .zip(PINNED.iter().zip(BODIES))
        .flat_map(|((name, (stream, bodies)), ((_, pin), (_, body_pin)))| {
            [("stream", *stream, *pin), ("body", *bodies, body_pin)]
                .map(|(what, digest, pinned)| (name, what, format!("{digest:016x}"), pinned))
        })
        .filter(|(_, _, digest, pinned)| digest != pinned)
        .map(|(name, what, digest, pinned)| {
            format!("{name}: {what} digest {digest}, pinned {pinned}")
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
