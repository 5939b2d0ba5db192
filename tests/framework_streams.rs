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
//! The pins were taken before the framework's layers, ops and models were
//! last restructured, and a restructuring must leave them unchanged.

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

/// `(row, digest)`, in [`rows`] order.
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

/// A vendor context whose callbacks land in `log`, behind a runtime that
/// writes each launch's name, grid, block and arguments there first.
struct Tap<C: Vocabulary> {
    ctx: Context<C>,
    log: Log,
}

impl<C: Vocabulary + Debug + Send> Tap<C> {
    fn new(specs: Vec<DeviceSpec>, log: &Log) -> Self {
        let mut ctx = Context::<C>::new(specs);
        let sink = Arc::clone(log);
        ctx.subscribe(Box::new(move |cb: &C| record(&sink, cb)));
        Tap {
            ctx,
            log: Arc::clone(log),
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

/// One model row on one vendor's context.
fn model_row<C: Vocabulary + Debug + Send>(
    spec: DeviceSpec,
    model: ModelZoo,
    kind: RunKind,
) -> u64 {
    let log = log();
    let mut rt = Tap::<C>::new(vec![spec], &log);
    let mut s = session(&mut rt, &log);
    let report = run_model(&mut s, model, kind, 2, DIV).expect("the model runs");
    record(&log, &report);
    drop(s);
    let digest = log.lock().0;
    digest
}

/// One two-lane parallel row: each lane digests its own stream, and the
/// row digests both lanes' digests and the report, in lane order.
fn parallel_row(
    run: impl FnOnce(&mut [DeviceLane<'_>]) -> Result<parallel::ParallelReport, AccelError>,
) -> u64 {
    let specs = vec![DeviceSpec::a100_80gb(), DeviceSpec::a100_80gb()];
    let logs = [log(), log()];
    let mut rt0 = Tap::<pasta::nv::NvCallback>::new(specs.clone(), &logs[0]);
    let mut rt1 = Tap::<pasta::nv::NvCallback>::new(specs, &logs[1]);
    let mut lanes = [
        DeviceLane::pin(DeviceId(0), session(&mut rt0, &logs[0])).expect("device 0"),
        DeviceLane::pin(DeviceId(1), session(&mut rt1, &logs[1])).expect("device 1"),
    ];
    let report = run(&mut lanes).expect("the strategy runs");
    drop(lanes);
    let row = log();
    for lane in &logs {
        record(&row, &lane.lock().0);
    }
    record(&row, &report);
    let digest = row.lock().0;
    digest
}

/// Every row's name and digest, in [`PINNED`] order.
fn rows() -> Vec<(String, u64)> {
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
    let failures: Vec<String> = rows
        .iter()
        .zip(PINNED)
        .map(|((name, digest), (_, pinned))| (name, format!("{digest:016x}"), pinned))
        .filter(|(_, digest, pinned)| digest != pinned)
        .map(|(name, digest, pinned)| format!("{name}: digest {digest}, pinned {pinned}"))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
