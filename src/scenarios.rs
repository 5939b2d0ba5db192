//! The scenario catalogue: the seven canonical ops the benchmark times,
//! each defined once, under the benchmark's names.
//!
//! An op is a whole user-visible unit — build a session, run, merge,
//! render — driven through the public API. [`Scenario::setup`] generates
//! a scenario's inputs from a seed (every generator is a pure function of
//! it) and computes its references; [`Scenario::op`] runs one op and
//! returns the rendered report with the checks the op makes on itself.
//! The catalogue holds no clock: timing is the caller's.

use crate::core::tool::LaunchCounter;
use crate::core::{MergedReport, ToolCollection};
use crate::dl::parallel::{self, DeviceLane, MoeConfig};
use crate::dl::serving::{self, ServingConfig};
use crate::dl::{runner, DType, Session};
use crate::nv::CudaContext;
use crate::prelude::*;
use crate::sim::{AccelError, AccessSpec, MemSpace};
use crate::tools::ServingReport;
use crate::trace::replay_decoded;
use std::error::Error;
use std::fmt::Write as _;
use std::sync::Arc;

/// The scenarios, in the order the benchmark's `all` runs them.
pub const NAMES: [&str; 7] = [
    "profile_fine",
    "event_flood",
    "event_flood_gated",
    "scale_out_moe",
    "serve_oversub",
    "trace_capture",
    "trace_replay",
];

/// Thread budgets of every session the catalogue builds. Explicit — never
/// `0 = available parallelism` — so thread counts do not change with the
/// host the ops run on.
pub const PARALLEL: ParallelConfig = ParallelConfig {
    max_lane_threads: 2,
    max_merge_threads: 2,
    max_drain_threads: 1,
};

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

/// SplitMix64: small, portable, and good enough for shaping a workload.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The one tensor every flood kernel reads and writes.
pub const FLOOD_TENSOR_BYTES: u64 = 16 << 20;
/// Kernels per flood op.
pub const FLOOD_KERNELS: usize = 32;

/// Eight names for 32 launches, so per-kernel tool state (frequency
/// tables, per-kernel memory characteristics) sees repeats as well as
/// distinct keys.
const FLOOD_NAMES: [&str; 8] = [
    "flood_gemm_128x64_tn",
    "flood_softmax_warp",
    "flood_layernorm_fwd",
    "flood_im2col",
    "flood_reduce_sum",
    "flood_elementwise_add",
    "flood_embedding_gather",
    "flood_transpose_tiled",
];

/// The synthetic kernel stream of the `event_flood` family: 32 launches
/// under 8 names in seeded order, each with 192–320 access streams — 8192
/// in all for every seed, so seeds differ in shape and never in amount of
/// work: kernels come in pairs whose stream counts sum to 512 — (seeded
/// offsets and extents inside the 16 MiB tensor, seeded 60/40 load/store,
/// every fourth one shared-memory) and four barriers per block.
/// Descriptors carry no argument; the op binds the tensor with
/// `.arg(ptr, bytes)` once it is allocated. About 6.3k fine-grained
/// events per op under the six-tool suite, which subscribes to global
/// accesses only: the shared quarter is what the launch gate turns away
/// even there.
pub fn flood_kernels(seed: u64) -> Vec<KernelDesc> {
    let mut rng = Rng::new(seed ^ 0xf100_d000);
    let mut names = FLOOD_NAMES;
    shuffle(&mut names, &mut rng);
    let mut counts = Vec::with_capacity(FLOOD_KERNELS);
    for _ in 0..FLOOD_KERNELS / 2 {
        let first = rng.range(192, 320);
        counts.extend([first, 512 - first]);
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(k, specs)| {
            let mut body = KernelBody::compute(1 << 20).with_barriers(4);
            for i in 0..specs {
                let len = rng.range(1, 16) * 4096;
                let offset = rng.range(0, (FLOOD_TENSOR_BYTES - len) / 128) * 128;
                let spec = if rng.range(0, 9) < 6 {
                    AccessSpec::load(0, len)
                } else {
                    AccessSpec::store(0, len)
                }
                .with_range(offset, len);
                body = body.access(if i % 4 == 3 {
                    spec.in_space(MemSpace::Shared)
                } else {
                    spec
                });
            }
            KernelDesc::new(names[k % names.len()], Dim3::linear(64), Dim3::linear(128)).body(body)
        })
        .collect()
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i as u64) as usize);
    }
}

/// Device callbacks the launch gate decides on for one flood op, whether
/// or not it lets them through: every access stream plus kernel begin,
/// barriers, block boundaries and kernel end per launch. The work unit of
/// `event_flood_gated`, where almost none of them are delivered.
pub fn flood_gate_decisions(kernels: &[KernelDesc]) -> u64 {
    kernels
        .iter()
        .map(|k| k.body.accesses.len() as u64 + 4)
        .sum()
}

/// The three canonical inference models in seed-permuted order.
pub fn model_order(seed: u64) -> [ModelZoo; 3] {
    let mut order = [ModelZoo::Bert, ModelZoo::Gpt2, ModelZoo::ResNet18];
    shuffle(&mut order, &mut Rng::new(seed ^ 0x0de1_5000));
    order
}

/// Distinct serving request streams one run cycles through: op `i` serves
/// stream `i % SERVING_SLOTS`. Request mixes differ in total tokens by a
/// few percent, so the median op is taken over many of them rather than
/// over one that a seed happened to make light or heavy.
pub const SERVING_SLOTS: usize = 64;
/// The first streams also run through the lane-at-a-time sequential
/// reference in set-up; the rest are checked against their own first op.
pub const SERVING_REFERENCED: usize = 8;

/// The serving scenario of slot `slot`: `ServingConfig::small()` at one
/// arrival per scheduler step, with a request-trace seed derived from the
/// run seed and the slot.
pub fn serving_config(seed: u64, slot: usize) -> ServingConfig {
    let mut rng = Rng::new(seed ^ 0x5e87_1000 ^ ((slot as u64) << 32));
    ServingConfig {
        seed: rng.next_u64(),
        mean_interarrival_steps: 1,
        ..ServingConfig::small()
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------------
// The ops.
// ---------------------------------------------------------------------------

/// What one op produced.
#[derive(Debug)]
pub struct OpOutput {
    /// The rendered report: what the references hold.
    pub rendered: String,
    /// Which generated input the op ran (index into the references).
    pub slot: usize,
    /// Work units done: launches (`profile_fine`), gate decisions
    /// (`event_flood_gated`), requests completed (`serve_oversub`), events
    /// processed otherwise.
    pub work: u64,
    /// Events the op's session, or its replay, processed.
    pub events: u64,
    /// Of `events`, the host and framework callbacks the session's gate
    /// counted without building them.
    pub gated: u64,
    /// An invariant the op saw broken.
    fault: Option<String>,
    /// `trace_capture` only: the captured bytes, parsed by the checks.
    trace: Option<Trace>,
}

impl OpOutput {
    fn new(rendered: String, work: u64, events: u64, gated: u64) -> OpOutput {
        OpOutput {
            rendered,
            slot: 0,
            work,
            events,
            gated,
            fault: None,
            trace: None,
        }
    }

    /// The checks the op makes on itself: the gated flood passes no access
    /// or barrier record, the trace writer captured every processed event
    /// and the parsed trace holds exactly that many, the MoE pool stays
    /// within its lane budget, and every serving request completes with
    /// something evicted.
    pub fn checks(&self) -> Result<(), String> {
        if let Some(fault) = &self.fault {
            return Err(fault.clone());
        }
        if let Some(trace) = &self.trace {
            let reader = TraceReader::parse(trace.as_bytes()).map_err(|e| e.to_string())?;
            if reader.events_total() != self.work {
                return Err(format!(
                    "trace holds {} events, the session processed {}",
                    reader.events_total(),
                    self.work
                ));
            }
        }
        Ok(())
    }
}

/// How a multi-lane op runs its lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Lane at a time: the reference schedule.
    Sequential,
    /// On the bounded lane pool: the op itself.
    Pool,
}

/// One scenario, set up and ready to run ops.
#[derive(Debug)]
pub struct Scenario {
    name: &'static str,
    kind: Kind,
    /// Reference reports by input slot; an op fills a slot set-up left
    /// empty.
    references: Vec<Option<String>>,
}

#[derive(Debug)]
enum Kind {
    /// One inference batch of each model, in this order, on one RTX 3060
    /// under the six-tool suite.
    Models([ModelZoo; 3]),
    /// The flood kernels on one RTX 3060 under the six-tool suite, or with
    /// `coarse` under KernelFrequency + LaunchCensus, whose interest the
    /// launch gate turns every access and barrier away for; `capture`
    /// attaches a trace writer.
    Flood {
        kernels: Vec<KernelDesc>,
        coarse: bool,
        capture: bool,
    },
    /// One expert-parallel MoE iteration over 64 A100 lanes under one
    /// launch counter.
    Moe,
    /// Serving on 4 A100 lanes, no tools, one config per slot.
    Serve(Vec<ServingConfig>),
    /// The flood's trace, replayed through a fresh six-tool suite.
    Replay(Trace),
}

impl Scenario {
    /// Generates the scenario's inputs from `seed` and computes the
    /// references that do not come from the first op: the MoE and serving
    /// ones from their sequential schedules, the replay's from the live
    /// capture's merged report.
    pub fn setup(name: &str, seed: u64) -> Result<Scenario, Box<dyn Error>> {
        let Some(&name) = NAMES.iter().find(|&&n| n == name) else {
            return Err(format!("unknown scenario `{name}` (known: {NAMES:?})").into());
        };
        let flood = |coarse, capture| Kind::Flood {
            kernels: flood_kernels(seed),
            coarse,
            capture,
        };
        let mut references = vec![None];
        let kind = match name {
            "profile_fine" => Kind::Models(model_order(seed)),
            "event_flood" => flood(false, false),
            "event_flood_gated" => flood(true, false),
            "trace_capture" => flood(false, true),
            "scale_out_moe" => {
                references[0] = Some(moe_op(Schedule::Sequential, PARALLEL)?.rendered);
                Kind::Moe
            }
            "serve_oversub" => {
                let configs: Vec<ServingConfig> = (0..SERVING_SLOTS)
                    .map(|slot| serving_config(seed, slot))
                    .collect();
                references = vec![None; SERVING_SLOTS];
                for (slot, cfg) in configs.iter().enumerate().take(SERVING_REFERENCED) {
                    let reference = serve_op(cfg, slot, Schedule::Sequential, PARALLEL)?;
                    references[slot] = Some(reference.rendered);
                }
                Kind::Serve(configs)
            }
            "trace_replay" => {
                let (live, merged) = profiled(&flood(false, true), PARALLEL)?;
                references[0] = Some(merged.to_string());
                Kind::Replay(live.trace.expect("capture was requested"))
            }
            _ => unreachable!("every name in NAMES has an arm"),
        };
        Ok(Scenario {
            name,
            kind,
            references,
        })
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Runs op `i`: the unit the benchmark times.
    pub fn op(&self, i: u64) -> Result<OpOutput, Box<dyn Error>> {
        self.op_on(i, Schedule::Pool, PARALLEL)
    }

    /// Op `i` under `schedule` and `threads`. Only `scale_out_moe` and
    /// `serve_oversub` run lanes, so only they have a sequential schedule.
    pub fn op_on(
        &self,
        i: u64,
        schedule: Schedule,
        threads: ParallelConfig,
    ) -> Result<OpOutput, Box<dyn Error>> {
        match &self.kind {
            Kind::Moe => moe_op(schedule, threads),
            Kind::Serve(configs) => {
                let slot = (i % SERVING_SLOTS as u64) as usize;
                serve_op(&configs[slot], slot, schedule, threads)
            }
            _ if schedule == Schedule::Sequential => {
                Err(format!("`{}` runs no lanes to schedule", self.name).into())
            }
            Kind::Replay(trace) => {
                let reader = TraceReader::parse(trace.as_bytes())?;
                let mut tools: ToolCollection = six_tools().into_iter().collect();
                let merged = replay_decoded(&reader, &mut tools)?;
                let events = merged.events_processed;
                Ok(OpOutput::new(merged.to_string(), events, events, 0))
            }
            single_device => Ok(profiled(single_device, threads)?.0),
        }
    }

    /// The op's framework work with no PASTA attached: the models or the
    /// flood on a bare RTX 3060 context, or the MoE lanes, one bare
    /// context each over the shared 64-device machine as `run_parallel`
    /// builds them, at the op's lane budget.
    pub fn bare(&self) -> Result<(), Box<dyn Error>> {
        match &self.kind {
            Kind::Models(models) => {
                let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
                for &model in models {
                    runner::run_model(&mut Session::new(&mut rt), model, RunKind::Inference, 1, 1)?;
                }
            }
            Kind::Flood { kernels, .. } => {
                let mut rt = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
                let mut s = Session::new(&mut rt);
                launch_flood(&mut s, kernels)?;
                s.synchronize();
            }
            Kind::Moe => {
                let specs: Arc<[DeviceSpec]> =
                    vec![DeviceSpec::a100_80gb(); MOE_DEVICES as usize].into();
                let mut contexts: Vec<CudaContext> = (0..MOE_DEVICES)
                    .map(|_| CudaContext::new(Arc::clone(&specs)))
                    .collect();
                let mut lanes = Vec::with_capacity(contexts.len());
                for (device, context) in (0..MOE_DEVICES).map(DeviceId).zip(&mut contexts) {
                    let mut lane = DeviceLane::pin(device, Session::new(context))?;
                    lane.set_pool_limit(PARALLEL.max_lane_threads);
                    lanes.push(lane);
                }
                parallel::train_iter_expert_parallel_with(&mut lanes, 1, &MoeConfig::tiny())?;
            }
            _ => return Err(format!("`{}` has no bare run", self.name).into()),
        }
        Ok(())
    }

    /// Compares `out` with the reference of its slot, which an op of an
    /// empty slot fills.
    pub fn matches(&mut self, out: &OpOutput) -> Result<(), String> {
        match &self.references[out.slot] {
            None => {
                self.references[out.slot] = Some(out.rendered.clone());
                Ok(())
            }
            Some(reference) if *reference == out.rendered => Ok(()),
            Some(reference) => Err(format!(
                "report differs from the reference of input slot {} ({} vs {} bytes)",
                out.slot,
                out.rendered.len(),
                reference.len()
            )),
        }
    }

    /// FNV-1a over the first [`SERVING_REFERENCED`] reference slots, in
    /// slot order: the `sim_digest` two commits compare simulated results
    /// by. Those slots are filled by set-up or by the first op of any
    /// run, however short, so the digest does not depend on how many ops
    /// ran.
    pub fn digest(&self) -> u64 {
        let all: Vec<u8> = self
            .references
            .iter()
            .take(SERVING_REFERENCED)
            .flatten()
            .flat_map(|r| r.bytes())
            .collect();
        fnv1a(&all)
    }
}

/// The six-tool fine-grained suite.
fn six_tools() -> Vec<Box<dyn Tool>> {
    vec![
        Box::new(KernelFrequencyTool::new()),
        Box::new(BarrierStallTool::new()),
        Box::new(HotnessTool::new(64)),
        Box::new(OpKernelMapTool::new()),
        Box::new(MemoryCharacteristicsTool::new()),
        Box::new(MemoryTimelineTool::new()),
    ]
}

fn launch_flood(s: &mut Session<'_>, kernels: &[KernelDesc]) -> Result<u64, AccelError> {
    let t = s.alloc_tensor(&[(FLOOD_TENSOR_BYTES / 4) as usize], DType::F32)?;
    for k in kernels {
        s.launch(k.clone().arg(t.ptr, t.bytes))?;
    }
    s.free_tensor(&t);
    Ok(kernels.len() as u64)
}

/// The single-device pipeline, end to end: build a 1-device RTX 3060
/// session → (attach a trace writer) → run → (finish the trace) → merged
/// report → render. The merged report alone is what a replay of the
/// trace must reproduce.
fn profiled(
    kind: &Kind,
    threads: ParallelConfig,
) -> Result<(OpOutput, MergedReport), Box<dyn Error>> {
    let (coarse, capture) = match kind {
        Kind::Flood {
            coarse, capture, ..
        } => (*coarse, *capture),
        _ => (false, false),
    };
    let mut builder = Pasta::builder().rtx_3060().parallel(threads);
    let tools: Vec<Box<dyn Tool>> = if coarse {
        vec![
            Box::new(KernelFrequencyTool::new()),
            Box::new(LaunchCensusTool::new()),
        ]
    } else {
        six_tools()
    };
    for tool in tools {
        builder = builder.boxed_tool(tool);
    }
    let mut session = builder.build()?;
    let writer = capture.then(|| TraceWriter::attach(&session));
    let reports = match kind {
        Kind::Models(models) => models
            .iter()
            .map(|&model| session.run(&mut ModelWorkload::new(model, RunKind::Inference)))
            .collect::<Result<Vec<_>, _>>()?,
        Kind::Flood { kernels, .. } => {
            let mut workload = FnWorkload::new("event-flood", |cx| {
                let launches = launch_flood(cx.session(), kernels)?;
                Ok(WorkloadStats::new(launches))
            });
            vec![session.run(&mut workload)?]
        }
        _ => unreachable!("only the models and the flood run on one device"),
    };
    let capture = writer.map(|w| (w.events_captured(), w.finish(&session)));
    let merged = session.merged_report();
    let mut rendered = merged.to_string();
    // The session reports carry the simulated clocks and the overhead
    // breakdown, so the digest covers simulated time as well.
    for r in &reports {
        let _ = writeln!(rendered, "{r:?}");
    }
    let events = merged.events_processed;
    let records: u64 = reports.iter().map(|r| r.records).sum();
    let (work, mut fault) = match kind {
        Kind::Models(_) => (reports.iter().map(|r| r.kernel_launches).sum(), None),
        Kind::Flood { kernels, .. } if coarse => (
            flood_gate_decisions(kernels),
            (records != 0).then(|| format!("{records} access/barrier records passed the gate")),
        ),
        _ => (events, None),
    };
    let trace = capture.map(|(captured, trace)| {
        if captured != events {
            fault = Some(format!("writer captured {captured} of {events} events"));
        }
        trace
    });
    let gated = session.host_events_gated();
    let out = OpOutput {
        fault,
        trace,
        ..OpOutput::new(rendered, work, events, gated)
    };
    Ok((out, merged))
}

const MOE_DEVICES: u32 = 64;
const SERVE_LANES: u32 = 4;

fn moe_op(schedule: Schedule, threads: ParallelConfig) -> Result<OpOutput, Box<dyn Error>> {
    let cfg = MoeConfig::tiny();
    let devices: Vec<DeviceId> = (0..MOE_DEVICES).map(DeviceId).collect();
    let mut session = Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); MOE_DEVICES as usize])
        .tool(LaunchCounter::default())
        .parallel(threads)
        .build()?;
    session.run_parallel(&devices, |lanes| match schedule {
        Schedule::Pool => parallel::train_iter_expert_parallel_with(lanes, 1, &cfg),
        Schedule::Sequential => {
            parallel::train_iter_expert_sequential_reference_with(lanes, 1, &cfg)
        }
    })?;
    let merged = session.merged_report();
    let high_water = session.pool_high_water();
    let events = merged.events_processed;
    Ok(OpOutput {
        fault: (high_water > threads.max_lane_threads)
            .then(|| format!("pool high water {high_water} exceeds the lane budget")),
        ..OpOutput::new(
            merged.to_string(),
            events,
            events,
            session.host_events_gated(),
        )
    })
}

/// One serving run of `cfg`, the managed budget at 9/8 of the weight
/// bytes, so weights fit but weights plus live KV pages do not.
fn serve_op(
    cfg: &ServingConfig,
    slot: usize,
    schedule: Schedule,
    threads: ParallelConfig,
) -> Result<OpOutput, Box<dyn Error>> {
    let devices: Vec<DeviceId> = (0..SERVE_LANES).map(DeviceId).collect();
    let mut session = Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); SERVE_LANES as usize])
        .parallel(threads)
        .uvm(UvmSetup {
            budget_bytes: Some(cfg.dims.param_bytes(DType::F32) * 9 / 8),
            ..UvmSetup::default()
        })
        .build()?;
    let run = session.run_parallel(&devices, |lanes| match schedule {
        Schedule::Pool => serving::serve(lanes, cfg),
        Schedule::Sequential => serving::serve_sequential_reference(lanes, cfg),
    })?;
    let uvm = session.uvm_report();
    let report = ServingReport::from_run(&run, uvm.as_ref());
    let mut rendered = report.to_string();
    if let Some(uvm) = &uvm {
        let _ = writeln!(rendered, "{:?}", uvm.stats);
    }
    let fault = if report.completed != cfg.requests as u64 {
        Some(format!(
            "{} of {} requests completed",
            report.completed, cfg.requests
        ))
    } else if report.pages_evicted == 0 {
        Some("nothing was evicted: the budget no longer oversubscribes".into())
    } else {
        None
    };
    let (events, gated) = (session.events_processed(), session.host_events_gated());
    Ok(OpOutput {
        slot,
        fault,
        ..OpOutput::new(rendered, report.completed, events, gated)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_is_a_pure_function_of_the_seed() {
        let a = flood_kernels(1);
        assert_eq!(a, flood_kernels(1), "same seed, same descriptors");
        assert_ne!(a, flood_kernels(2), "different seed, different descriptors");
        assert_eq!(a.len(), FLOOD_KERNELS);
        for seed in 0..16 {
            let specs: usize = flood_kernels(seed)
                .iter()
                .map(|k| k.body.accesses.len())
                .sum();
            assert_eq!(specs, 8192, "every seed does the same work");
        }
        for k in &a {
            assert!((192..=320).contains(&k.body.accesses.len()));
            assert_eq!(k.body.barriers_per_block, 4);
            for s in &k.body.accesses {
                assert!(s.offset + s.len <= FLOOD_TENSOR_BYTES);
            }
        }
        let names: std::collections::BTreeSet<_> = a.iter().map(|k| k.name.to_string()).collect();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn serving_configs_are_seeded_per_slot() {
        assert_eq!(serving_config(1, 3), serving_config(1, 3));
        assert_ne!(serving_config(1, 3).seed, serving_config(2, 3).seed);
        assert_ne!(serving_config(1, 3).seed, serving_config(1, 4).seed);
        assert_eq!(serving_config(9, 0).mean_interarrival_steps, 1);
    }

    #[test]
    fn model_order_is_a_seeded_permutation() {
        assert_eq!(model_order(5), model_order(5));
        let orders: std::collections::BTreeSet<String> =
            (0..32).map(|s| format!("{:?}", model_order(s))).collect();
        assert!(orders.len() > 1, "some seed must permute");
        let mut sorted = model_order(7).map(|m| format!("{m:?}"));
        sorted.sort();
        assert_eq!(sorted, ["Bert", "Gpt2", "ResNet18"]);
    }

    /// The flood with and without a recorder is one op: the writer must
    /// not change what the tools report.
    #[test]
    fn event_flood_and_trace_capture_share_one_digest() {
        for seed in [1, 7] {
            let [flood, capture] = ["event_flood", "trace_capture"].map(|name| {
                let mut scenario = Scenario::setup(name, seed).expect("set-up");
                let out = scenario.op(0).expect("one op");
                scenario.matches(&out).expect("fills slot 0");
                scenario.digest()
            });
            assert_eq!(flood, capture, "seed {seed}");
        }
    }
}
