//! The seven end-to-end workloads. One op is a whole user-visible unit —
//! build a session, run, merge, render — driven only through the `pasta`
//! facade's public API, with a span around each public call.

use crate::harness::Spans;
use crate::inputs::{self, FLOOD_TENSOR_BYTES, SERVING_REFERENCED, SERVING_SLOTS};
use pasta::core::tool::LaunchCounter;
use pasta::core::{Event, MergedReport, PastaError, Tool, ToolCollection};
use pasta::dl::parallel::{self, MoeConfig};
use pasta::dl::serving::{self, ServingConfig};
use pasta::dl::{runner, DType, Session};
use pasta::prelude::*;
use pasta::sim::{AccelError, DeviceRuntime};
use pasta::tools::ServingReport;
use pasta::trace::replay_decoded;
use pasta::uvm::UvmStats;
use std::fmt::Write as _;

/// One row of the workload table.
#[derive(Debug)]
pub struct Spec {
    /// The name later issues cite.
    pub name: &'static str,
    /// Ops run (and checked) before the first timed op: 5 % of the op
    /// count that fills an 8 s window on the 2-core reference box.
    pub warmup_ops: u64,
}

const fn spec(name: &'static str, warmup_ops: u64) -> Spec {
    Spec { name, warmup_ops }
}

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: [Spec; 7] = [
    spec("profile_fine", 100),
    spec("event_flood", 250),
    spec("event_flood_gated", 1250),
    spec("scale_out_moe", 12),
    spec("serve_oversub", 22),
    spec("trace_capture", 200),
    spec("trace_replay", 200),
];

/// The table row of `name`.
pub fn find(name: &str) -> Result<&'static Spec, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {known:?})")
    })
}

/// Thread budgets of every session the benchmark builds. Explicit — never
/// `0 = available parallelism` — so thread counts do not change with the
/// host the benchmark runs on.
pub const PARALLEL: ParallelConfig = ParallelConfig {
    max_lane_threads: 2,
    max_merge_threads: 2,
    max_drain_threads: 1,
};

// ---------------------------------------------------------------------------
// What an op returns and how it is checked.
// ---------------------------------------------------------------------------

/// What one op produced.
pub struct OpOutput {
    /// The rendered report — what the byte-identity check compares.
    pub rendered: String,
    /// Work units done (see `BENCHMARK.json` for each workload's unit).
    pub work: u64,
    /// Which generated input the op ran (index into the references).
    pub slot: usize,
    /// An invariant the op itself saw broken (cheap integer checks made
    /// inside the op; a `Some` makes the op a failed op).
    pub fault: Option<String>,
    /// `trace_capture` only: the captured bytes, parsed by the untimed check.
    pub trace: Option<Trace>,
}

/// Reference reports by input slot. A slot set-up did not fill is filled
/// by the first op that runs it; every later op must match byte for byte.
#[derive(Debug, Default)]
pub struct References(Vec<Option<String>>);

impl References {
    fn with_slots(slots: usize) -> References {
        References(vec![None; slots])
    }

    fn set(&mut self, slot: usize, rendered: String) {
        self.0[slot] = Some(rendered);
    }

    pub fn slots(&self) -> usize {
        self.0.len()
    }

    /// FNV-1a over the first [`SERVING_REFERENCED`] slots, in slot order:
    /// the `sim_digest` two commits compare simulated results by. Those
    /// slots are filled by set-up or by the first op of any run, however
    /// short, so the digest does not depend on how many ops ran.
    pub fn digest(&self) -> u64 {
        let all: Vec<u8> = self
            .0
            .iter()
            .take(SERVING_REFERENCED)
            .flatten()
            .flat_map(|r| r.bytes())
            .collect();
        crate::harness::fnv1a(&all)
    }

    fn matches(&mut self, out: &OpOutput) -> Result<(), String> {
        match &self.0[out.slot] {
            None => {
                self.0[out.slot] = Some(out.rendered.clone());
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
}

/// Simulated results and exact counts of a run — the numbers a host-only
/// speed-up must leave identical — by per-layer metric name.
pub type SimFacts = Vec<(&'static str, f64)>;

/// One workload, set up and ready to run ops.
pub trait Bench {
    /// Runs op `i` — the timed unit.
    fn op(&mut self, i: u64, spans: &mut Spans) -> Result<OpOutput, String>;

    /// The untimed output check; an `Err` makes the op a failed op.
    fn check(&mut self, out: &OpOutput) -> Result<(), String> {
        if let Some(fault) = &out.fault {
            return Err(fault.clone());
        }
        self.references().matches(out)
    }

    fn references(&mut self) -> &mut References;
}

/// Set-up: generates the workload's inputs from `seed` and computes the
/// references that do not come from the first op.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match name {
        "profile_fine" => Box::new(Profiled::new(
            Stream::Models(inputs::model_order(seed)),
            ToolSet::Suite,
            false,
        )),
        "event_flood" => Box::new(Profiled::new(Stream::flood(seed), ToolSet::Suite, false)),
        "event_flood_gated" => Box::new(Profiled::new(Stream::flood(seed), ToolSet::Coarse, false)),
        "trace_capture" => Box::new(Profiled::new(Stream::flood(seed), ToolSet::Suite, true)),
        "scale_out_moe" => Box::new(ScaleOutMoe::new()?),
        "serve_oversub" => Box::new(ServeOversub::new(seed)?),
        "trace_replay" => Box::new(TraceReplay::new(seed)?),
        other => return Err(format!("workload `{other}` has no set-up")),
    })
}

// ---------------------------------------------------------------------------
// Kernel streams and the profiled pipeline over them.
// ---------------------------------------------------------------------------

/// What a single-device session runs.
#[derive(Debug, Clone)]
pub enum Stream {
    /// One inference batch of each model, in this order.
    Models([ModelZoo; 3]),
    /// The synthetic flood kernels over one 16 MiB tensor.
    Flood(Vec<KernelDesc>),
}

impl Stream {
    pub fn flood(seed: u64) -> Stream {
        Stream::Flood(inputs::flood_kernels(seed))
    }

    /// Runs the stream on `rt` through bare framework sessions — no PASTA
    /// anywhere. Returns kernels launched.
    pub fn run_bare(&self, rt: &mut dyn DeviceRuntime) -> Result<u64, AccelError> {
        match self {
            Stream::Models(models) => models.iter().try_fold(0, |launches, &model| {
                let mut s = Session::new(rt);
                let report = runner::run_model(&mut s, model, RunKind::Inference, 1, 1)?;
                Ok(launches + report.kernel_launches)
            }),
            Stream::Flood(kernels) => {
                let mut s = Session::new(rt);
                let launches = launch_flood(&mut s, kernels)?;
                s.synchronize();
                Ok(launches)
            }
        }
    }

    /// Runs the stream through a PASTA session, one `run` per workload.
    pub fn run_profiled(
        &self,
        session: &mut PastaSession,
    ) -> Result<Vec<SessionReport>, PastaError> {
        match self {
            Stream::Models(models) => models
                .iter()
                .map(|&model| session.run(&mut ModelWorkload::new(model, RunKind::Inference)))
                .collect(),
            Stream::Flood(kernels) => {
                let mut workload = FnWorkload::new("event-flood", |cx| {
                    let launches = launch_flood(cx.session(), kernels)?;
                    Ok(WorkloadStats::new(launches))
                });
                Ok(vec![session.run(&mut workload)?])
            }
        }
    }
}

fn launch_flood(s: &mut Session<'_>, kernels: &[KernelDesc]) -> Result<u64, AccelError> {
    let t = s.alloc_tensor(&[(FLOOD_TENSOR_BYTES / 4) as usize], DType::F32)?;
    for k in kernels {
        s.launch(k.clone().arg(t.ptr, t.bytes))?;
    }
    s.free_tensor(&t);
    Ok(kernels.len() as u64)
}

/// An all-interest tool that does nothing: everything up to and including
/// dispatch runs, no tool body does.
#[derive(Debug)]
pub struct NoopTool(pub &'static str);

impl Tool for NoopTool {
    fn name(&self) -> &str {
        self.0
    }
    fn interest(&self) -> Interest {
        Interest::all()
    }
    fn on_event(&mut self, event: &Event) {
        std::hint::black_box(event);
    }
    fn fork(&self) -> Option<Box<dyn Tool>> {
        Some(Box::new(NoopTool(self.0)))
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Tool sets a single-device session is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolSet {
    /// No tools: the builder attaches no device profiler.
    None,
    /// One all-interest no-op tool.
    Noop,
    /// KernelFrequency + LaunchCensus: host events and block boundaries;
    /// the launch gate turns every access and barrier callback away.
    Coarse,
    /// The six-tool fine-grained suite.
    Suite,
}

impl ToolSet {
    pub fn tools(self) -> Vec<Box<dyn Tool>> {
        match self {
            ToolSet::None => Vec::new(),
            ToolSet::Noop => vec![Box::new(NoopTool("noop"))],
            ToolSet::Coarse => vec![
                Box::new(KernelFrequencyTool::new()),
                Box::new(LaunchCensusTool::new()),
            ],
            ToolSet::Suite => vec![
                Box::new(KernelFrequencyTool::new()),
                Box::new(BarrierStallTool::new()),
                Box::new(HotnessTool::new(64)),
                Box::new(OpKernelMapTool::new()),
                Box::new(MemoryCharacteristicsTool::new()),
                Box::new(MemoryTimelineTool::new()),
            ],
        }
    }

    pub fn collection(self) -> ToolCollection {
        let mut tools = ToolCollection::new();
        for tool in self.tools() {
            tools.register(tool);
        }
        tools
    }
}

/// Everything one pass through the single-device pipeline yields.
pub struct ProfiledRun {
    pub merged: MergedReport,
    pub rendered: String,
    pub reports: Vec<SessionReport>,
    /// `(events the writer captured, the trace)` when capturing.
    pub capture: Option<(u64, Trace)>,
}

impl ProfiledRun {
    /// Simulated time under profiling and its factor over the same run's
    /// time less the profiling overhead.
    pub fn sim_facts(&self) -> SimFacts {
        let profiled: u64 = self
            .reports
            .iter()
            .map(|r| r.profiled_time.as_nanos())
            .sum();
        let overhead: u64 = self.reports.iter().map(|r| r.overhead.total_ns()).sum();
        vec![
            ("sim.profiled_time_ns", profiled as f64),
            (
                "sim.overhead_factor",
                profiled as f64 / (profiled.saturating_sub(overhead)).max(1) as f64,
            ),
        ]
    }
}

/// The single-device pipeline, end to end: build a 1-device RTX 3060
/// session with `tools` → (attach a trace writer) → run `stream` →
/// (finish the trace) → merged report → render.
pub fn profiled_run(
    stream: &Stream,
    tools: ToolSet,
    capture: bool,
    spans: &mut Spans,
) -> Result<ProfiledRun, PastaError> {
    let mut session = spans.time("core.profiler.build_us", || {
        let mut builder = Pasta::builder().rtx_3060().parallel(PARALLEL);
        for tool in tools.tools() {
            builder = builder.boxed_tool(tool);
        }
        builder.build()
    })?;
    let writer =
        capture.then(|| spans.time("trace.writer.attach_us", || TraceWriter::attach(&session)));
    let reports = spans.time("core.profiler.run_us", || stream.run_profiled(&mut session))?;
    let capture = writer.map(|w| {
        let captured = w.events_captured();
        (
            captured,
            spans.time("trace.writer.finish_us", || w.finish(&session)),
        )
    });
    let merged = spans.time("core.hub.merged_report_us", || session.merged_report());
    let rendered = spans.time("core.report.render_us", || {
        let mut out = merged.to_string();
        // The session reports carry the simulated clocks and the overhead
        // breakdown, so the digest covers simulated time as well.
        for r in &reports {
            let _ = writeln!(out, "{r:?}");
        }
        out
    });
    Ok(ProfiledRun {
        merged,
        rendered,
        reports,
        capture,
    })
}

/// `profile_fine`, `event_flood`, `event_flood_gated` and `trace_capture`:
/// the single-device pipeline over a stream, differing in stream, tool
/// set and whether a trace writer rides along.
struct Profiled {
    stream: Stream,
    tools: ToolSet,
    capture: bool,
    references: References,
}

impl Profiled {
    fn new(stream: Stream, tools: ToolSet, capture: bool) -> Profiled {
        Profiled {
            stream,
            tools,
            capture,
            references: References::with_slots(1),
        }
    }
}

impl Bench for Profiled {
    fn op(&mut self, _i: u64, spans: &mut Spans) -> Result<OpOutput, String> {
        let run = profiled_run(&self.stream, self.tools, self.capture, spans)
            .map_err(|e| e.to_string())?;
        let events = run.merged.events_processed;
        let launches: u64 = run.reports.iter().map(|r| r.kernel_launches).sum();
        let records: u64 = run.reports.iter().map(|r| r.records).sum();
        let mut fault = None;
        let work = match (&self.stream, self.tools) {
            (Stream::Models(_), _) => launches,
            (Stream::Flood(kernels), ToolSet::Coarse) => {
                if records != 0 {
                    fault = Some(format!("{records} access/barrier records passed the gate"));
                }
                inputs::flood_gate_decisions(kernels)
            }
            (Stream::Flood(_), _) => events,
        };
        let trace = run.capture.map(|(captured, trace)| {
            if captured != events {
                fault = Some(format!("writer captured {captured} of {events} events"));
            }
            trace
        });
        Ok(OpOutput {
            rendered: run.rendered,
            work,
            slot: 0,
            fault,
            trace,
        })
    }

    fn check(&mut self, out: &OpOutput) -> Result<(), String> {
        if let Some(fault) = &out.fault {
            return Err(fault.clone());
        }
        if let Some(trace) = &out.trace {
            let reader = TraceReader::parse(trace.as_bytes()).map_err(|e| e.to_string())?;
            if reader.events_total() != out.work {
                return Err(format!(
                    "trace holds {} events, the session processed {}",
                    reader.events_total(),
                    out.work
                ));
            }
        }
        self.references.matches(out)
    }

    fn references(&mut self) -> &mut References {
        &mut self.references
    }
}

// ---------------------------------------------------------------------------
// scale_out_moe
// ---------------------------------------------------------------------------

pub const MOE_DEVICES: u32 = 64;

pub fn device_ids(n: u32) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

pub fn moe_session() -> Result<PastaSession, PastaError> {
    Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); MOE_DEVICES as usize])
        .tool(LaunchCounter::default())
        .parallel(PARALLEL)
        .build()
}

/// One expert-parallel MoE iteration over 64 lanes on the 2-worker pool,
/// or its lane-at-a-time sequential reference. Returns the rendered
/// merged report, events processed and the pool's high-water mark.
fn moe_run(pooled: bool, spans: &mut Spans) -> Result<(String, u64, usize), PastaError> {
    let cfg = MoeConfig::tiny();
    let devices = device_ids(MOE_DEVICES);
    let mut session = spans.time("core.profiler.build_us", moe_session)?;
    spans.time("core.profiler.run_us", || {
        session.run_parallel(&devices, |lanes| {
            if pooled {
                parallel::train_iter_expert_parallel_with(lanes, 1, &cfg)
            } else {
                parallel::train_iter_expert_sequential_reference_with(lanes, 1, &cfg)
            }
        })
    })?;
    let merged = spans.time("core.hub.merged_report_us", || session.merged_report());
    let rendered = spans.time("core.report.render_us", || merged.to_string());
    Ok((rendered, merged.events_processed, session.pool_high_water()))
}

struct ScaleOutMoe {
    references: References,
}

impl ScaleOutMoe {
    fn new() -> Result<ScaleOutMoe, String> {
        let (reference, _, _) =
            moe_run(false, &mut Spans::new(false)).map_err(|e| e.to_string())?;
        let mut references = References::with_slots(1);
        references.set(0, reference);
        Ok(ScaleOutMoe { references })
    }
}

impl Bench for ScaleOutMoe {
    fn op(&mut self, _i: u64, spans: &mut Spans) -> Result<OpOutput, String> {
        let (rendered, events, high_water) = moe_run(true, spans).map_err(|e| e.to_string())?;
        Ok(OpOutput {
            rendered,
            work: events,
            slot: 0,
            fault: (high_water > PARALLEL.max_lane_threads)
                .then(|| format!("pool high water {high_water} exceeds the lane budget")),
            trace: None,
        })
    }

    fn references(&mut self) -> &mut References {
        &mut self.references
    }
}

// ---------------------------------------------------------------------------
// serve_oversub
// ---------------------------------------------------------------------------

pub const SERVE_LANES: u32 = 4;

/// One serving run on 4 A100 lanes. `budget_bytes: None` is the
/// unbudgeted companion the per-layer pass prices the eviction machinery
/// against. Returns the rendered report, the serving row and the
/// session's UVM statistics.
pub fn serve_run(
    cfg: &ServingConfig,
    budget_bytes: Option<u64>,
    pooled: bool,
    spans: &mut Spans,
) -> Result<(String, ServingReport, UvmStats), PastaError> {
    let devices = device_ids(SERVE_LANES);
    let mut session = spans.time("core.profiler.build_us", || {
        Pasta::builder()
            .devices(vec![DeviceSpec::a100_80gb(); SERVE_LANES as usize])
            .parallel(PARALLEL)
            .uvm(UvmSetup {
                budget_bytes,
                ..UvmSetup::default()
            })
            .build()
    })?;
    let run = spans.time("core.profiler.run_us", || {
        session.run_parallel(&devices, |lanes| {
            if pooled {
                serving::serve(lanes, cfg)
            } else {
                serving::serve_sequential_reference(lanes, cfg)
            }
        })
    })?;
    let uvm = spans.time("core.profiler.uvm_report_us", || session.uvm_report());
    let report = spans.time("tools.serving.from_run_us", || {
        ServingReport::from_run(&run, uvm.as_ref())
    });
    let rendered = spans.time("core.report.render_us", || {
        let mut out = report.to_string();
        if let Some(uvm) = &uvm {
            let _ = writeln!(out, "{:?}", uvm.stats);
        }
        out
    });
    Ok((rendered, report, uvm.map(|u| u.stats).unwrap_or_default()))
}

/// Managed budget per device: 9/8 of the weight bytes, so weights fit but
/// weights plus live KV pages do not.
pub fn serve_budget(cfg: &ServingConfig) -> u64 {
    cfg.dims.param_bytes(DType::F32) * 9 / 8
}

/// Exact page counts and simulated latencies of one serving run.
pub fn serve_sim_facts(report: &ServingReport, uvm: &UvmStats) -> SimFacts {
    vec![
        ("uvm_sim.demand_pages_in", uvm.demand_pages_in as f64),
        ("uvm_sim.pages_evicted", uvm.pages_evicted as f64),
        ("uvm_sim.peer_pages_in", uvm.peer_pages_in as f64),
        (
            "uvm_sim.duplicates_invalidated",
            uvm.duplicates_invalidated as f64,
        ),
        ("sim.ttft_p99_ns", report.ttft_p99_ns.unwrap_or(0) as f64),
        (
            "sim.decode_p99_ns",
            report.decode_p99_ns.unwrap_or(0) as f64,
        ),
    ]
}

struct ServeOversub {
    configs: Vec<ServingConfig>,
    references: References,
}

impl ServeOversub {
    fn new(seed: u64) -> Result<ServeOversub, String> {
        let configs: Vec<ServingConfig> = (0..SERVING_SLOTS)
            .map(|slot| inputs::serving_config(seed, slot))
            .collect();
        let mut references = References::with_slots(SERVING_SLOTS);
        for (slot, cfg) in configs.iter().enumerate().take(SERVING_REFERENCED) {
            let (reference, ..) =
                serve_run(cfg, Some(serve_budget(cfg)), false, &mut Spans::new(false))
                    .map_err(|e| e.to_string())?;
            references.set(slot, reference);
        }
        Ok(ServeOversub {
            configs,
            references,
        })
    }
}

impl Bench for ServeOversub {
    fn op(&mut self, i: u64, spans: &mut Spans) -> Result<OpOutput, String> {
        let slot = (i % SERVING_SLOTS as u64) as usize;
        let cfg = &self.configs[slot];
        let (rendered, report, _) =
            serve_run(cfg, Some(serve_budget(cfg)), true, spans).map_err(|e| e.to_string())?;
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
        Ok(OpOutput {
            rendered,
            work: report.completed,
            slot,
            fault,
            trace: None,
        })
    }

    fn references(&mut self) -> &mut References {
        &mut self.references
    }
}

// ---------------------------------------------------------------------------
// trace_replay
// ---------------------------------------------------------------------------

/// The flood captured once: the trace and the live run's rendered merged
/// report (tool reports only — a replay has no session reports).
pub fn capture_flood(seed: u64) -> Result<(Trace, MergedReport), PastaError> {
    let run = profiled_run(
        &Stream::flood(seed),
        ToolSet::Suite,
        true,
        &mut Spans::new(false),
    )?;
    let (_, trace) = run.capture.expect("capture was requested");
    Ok((trace, run.merged))
}

struct TraceReplay {
    trace: Trace,
    references: References,
}

impl TraceReplay {
    fn new(seed: u64) -> Result<TraceReplay, String> {
        let (trace, live) = capture_flood(seed).map_err(|e| e.to_string())?;
        let mut references = References::with_slots(1);
        references.set(0, live.to_string());
        Ok(TraceReplay { trace, references })
    }
}

impl Bench for TraceReplay {
    fn op(&mut self, _i: u64, spans: &mut Spans) -> Result<OpOutput, String> {
        let reader = spans
            .time("trace.reader.parse_us", || {
                TraceReader::parse(self.trace.as_bytes())
            })
            .map_err(|e| e.to_string())?;
        let mut tools = ToolSet::Suite.collection();
        let merged = spans
            .time("trace.replay.replay_decoded_us", || {
                replay_decoded(&reader, &mut tools)
            })
            .map_err(|e| e.to_string())?;
        let rendered = spans.time("core.report.render_us", || merged.to_string());
        Ok(OpOutput {
            rendered,
            work: merged.events_processed,
            slot: 0,
            fault: None,
            trace: None,
        })
    }

    fn references(&mut self) -> &mut References {
        &mut self.references
    }
}
