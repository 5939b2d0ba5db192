//! The traced pass: per-layer numbers measured from outside, by timing
//! calls into each layer's public functions.
//!
//! The driver's contract has every traced run print every metric in
//! [`PER_LAYER`], whatever the workload. So a traced run of workload W is
//! two things:
//!
//! 1. W's own op loop, with span recording and allocation counting on for
//!    every other op: the `harness.*` metrics, the spans file, and the
//!    phase spans W's op has.
//! 2. The layer pass, which depends on the seed and not on W: the
//!    waterfall cuts over a kernel stream and the direct probes of single
//!    layers. The calls it makes anyway are the other ops' phases —
//!    the capture cut attaches and finishes a writer, the codec probe
//!    parses and replays, the serving probe asks for the UVM report — so
//!    it records those too, and a phase W's op does not have reads from
//!    there instead of as a constant 0.

use crate::harness::{self, Spans};
use crate::inputs::{self, FLOOD_TENSOR_BYTES};
use crate::run::{self, LoopStats, Metric, MetricSpec, RunResult};
use crate::workloads::{
    self, capture_flood, device_ids, moe_session, profiled_run, serve_budget, serve_run,
    serve_sim_facts, Bench, NoopTool, Stream, ToolSet, MOE_DEVICES,
};
use crate::{Args, Budget};
use pasta::amd::HipContext;
use pasta::core::hub::{new_shared, Hub, HubSink};
use pasta::core::normalize::normalize_nv;
use pasta::core::{
    Event, EventClass, EventProcessor, EventRing, SpineConfig, SpineMsg, ToolCollection,
};
use pasta::dl::lane_exec::{run_pool, PoolTask};
use pasta::dl::serving::RequestTrace;
use pasta::nv::sanitizer::{self, SanitizerConfig};
use pasta::nv::{CudaContext, NvCallback};
use pasta::prelude::*;
use pasta::sim::instrument::{DeviceTraceSink, NullSink, TraceCtx};
use pasta::sim::probe::CountingProbe;
use pasta::sim::{
    AccessBatch, AccessKind, DeviceRuntime, Engine, KernelTraceSummary, LaunchId, ResidencyModel,
};
use pasta::trace::replay_decoded;
use pasta::uvm::{UvmConfig, UvmManager, PAGE_SIZE};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [MetricSpec; 72] = [
    // Phase spans: median per op of the time inside each public call.
    ("core.profiler.build_us", "us", "lower"),
    ("core.profiler.run_us", "us", "lower"),
    ("core.hub.merged_report_us", "us", "lower"),
    ("core.report.render_us", "us", "lower"),
    ("core.profiler.uvm_report_us", "us", "lower"),
    ("tools.serving.from_run_us", "us", "lower"),
    ("trace.writer.attach_us", "us", "lower"),
    ("trace.writer.finish_us", "us", "lower"),
    ("trace.reader.parse_us", "us", "lower"),
    ("trace.replay.replay_decoded_us", "us", "lower"),
    ("harness.op_self_us", "us", "lower"),
    // Waterfall cuts over a kernel stream.
    ("dl_framework.runner.bare_run_us", "us", "lower"),
    ("accel_sim.trace_profiler.nullsink_us", "us", "lower"),
    ("core.hub.gate_us", "us", "lower"),
    ("core.pipeline.noop_tool_us", "us", "lower"),
    ("tools.suite_us", "us", "lower"),
    ("trace.writer.capture_us", "us", "lower"),
    ("harness.waterfall_residual_pct", "%", "lower"),
    ("harness.overhead_x", "x", "lower"),
    // Direct probes on the flood's event stream.
    ("core.hub.gate_reject_ns_per_callback", "ns", "lower"),
    ("core.hub.emit_ns_per_event", "ns", "lower"),
    ("core.hub.emit_inline_ns_per_event", "ns", "lower"),
    ("core.spine.ring_hop_ns", "ns", "lower"),
    ("core.processor.process_ns_per_event", "ns", "lower"),
    ("core.tool.dispatch_ns_per_event_1", "ns", "lower"),
    ("core.tool.dispatch_ns_per_event_6", "ns", "lower"),
    ("tools.kernel_freq.ns_per_event", "ns", "lower"),
    ("tools.barrier_stall.ns_per_event", "ns", "lower"),
    ("tools.hotness.ns_per_event", "ns", "lower"),
    ("tools.op_kernel_map.ns_per_event", "ns", "lower"),
    ("tools.memchar.ns_per_event", "ns", "lower"),
    ("tools.mem_timeline.ns_per_event", "ns", "lower"),
    ("tools.suite.reports_us", "us", "lower"),
    ("core.normalize.nv_ns_per_callback", "ns", "lower"),
    ("trace.codec.encode_ns_per_event", "ns", "lower"),
    ("trace.reader.parse_ns_per_event", "ns", "lower"),
    ("trace.replay.ns_per_event", "ns", "lower"),
    ("trace.bytes_per_event", "B", "lower"),
    ("trace.events_per_op", "count", "lower"),
    // Engine, vendor and pool layers.
    ("accel_sim.engine.launch_ns", "ns", "lower"),
    ("accel_sim.engine.launch_probed_ns_per_spec", "ns", "lower"),
    ("vendor_nv.cuda.launch_ns", "ns", "lower"),
    ("vendor_amd.hip.launch_ns", "ns", "lower"),
    ("vendor_nv.cuda.managed_churn_ns", "ns", "lower"),
    (
        "dl_framework.lane_exec.pool_dispatch_ns_per_lane",
        "ns",
        "lower",
    ),
    ("core.profiler.run_parallel_empty_us", "us", "lower"),
    ("core.merge.tree_reduce_us_64", "us", "lower"),
    ("dl_framework.serving.generate_us", "us", "lower"),
    ("dl_framework.serving.serve_unbudgeted_us", "us", "lower"),
    // UVM layer: a standalone manager driven through `ResidencyModel`.
    ("uvm_sim.manager.resident_access_ns_per_page", "ns", "lower"),
    ("uvm_sim.manager.fault_ns_per_page", "ns", "lower"),
    ("uvm_sim.manager.evict_ns_per_page", "ns", "lower"),
    ("uvm_sim.manager.register_unregister_ns", "ns", "lower"),
    ("uvm_sim.manager.fork_us", "us", "lower"),
    ("uvm_sim.manager.merge_us", "us", "lower"),
    ("uvm_sim.coherence.claim_read_ns_per_page", "ns", "lower"),
    ("uvm_sim.coherence.write_range_ns_per_page", "ns", "lower"),
    // Exact counts and simulated results: these repeat exactly, and a
    // change meant only to speed the host must leave them identical.
    ("uvm_sim.demand_pages_in", "count", "lower"),
    ("uvm_sim.pages_evicted", "count", "lower"),
    ("uvm_sim.peer_pages_in", "count", "lower"),
    ("uvm_sim.duplicates_invalidated", "count", "lower"),
    ("sim.ttft_p99_ns", "sim_ns", "lower"),
    ("sim.decode_p99_ns", "sim_ns", "lower"),
    ("sim.overhead_factor", "x", "lower"),
    ("sim.profiled_time_ns", "sim_ns", "lower"),
    // The harness itself.
    ("harness.tracing_overhead_pct", "%", "lower"),
    ("harness.allocs_per_op", "count", "lower"),
    ("harness.op_wall_us_median", "us", "lower"),
    ("harness.op_wall_us_tail", "us", "lower"),
    ("harness.op_wall_tail_percentile", "%", "higher"),
    ("harness.op_samples", "count", "higher"),
    ("harness.spans_recorded", "count", "higher"),
];

/// Builds one fresh tool for a per-tool probe.
type MakeTool<'a> = &'a dyn Fn() -> Box<dyn Tool>;

/// Measured values by metric name.
type Values = HashMap<&'static str, f64>;

/// Inserts the median per op of every phase span `spans` recorded.
fn insert_phases(spans: &Spans, values: &mut Values) {
    for &(metric, ..) in &PER_LAYER {
        if let Some(ns) = spans.phase_median_ns(metric) {
            values.insert(metric, ns as f64 / 1e3);
        }
    }
}

/// The traced pass of workload `name`.
pub fn traced(name: &str, args: &Args) -> Result<RunResult, String> {
    // 1. The workload's own loop, tracing toggled per op.
    let mut bench = run::set_up(name, args.seed, !args.check)?;
    let mut spans = Spans::new(false);
    let (untraced, traced_stats, allocs) = alternating_loop(&mut *bench, args.budget(), &mut spans);
    let failed = untraced.failed + traced_stats.failed;
    let attempted = untraced.attempted + traced_stats.attempted;
    let first_failure = untraced
        .first_failure
        .clone()
        .or_else(|| traced_stats.first_failure.clone());
    let spans_path = args.out.join(format!("{name}.spans.json"));
    std::fs::write(&spans_path, spans.to_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let mut own = Values::new();
    // Traced and untraced ops alternate, so their blocks saw the same
    // machine: the plain medians are compared, noise and all.
    if let (Some(plain), Some(with_spans), Some((tail_pct, tail_ns))) = (
        untraced.window.median_p50_ns(),
        traced_stats.window.median_p50_ns(),
        untraced.window.tail(),
    ) {
        own.insert(
            "harness.tracing_overhead_pct",
            100.0 * (with_spans as f64 - plain as f64) / plain as f64,
        );
        own.insert(
            "harness.allocs_per_op",
            allocs as f64 / traced_stats.attempted as f64,
        );
        own.insert("harness.op_wall_us_median", plain as f64 / 1e3);
        own.insert("harness.op_wall_us_tail", tail_ns as f64 / 1e3);
        own.insert("harness.op_wall_tail_percentile", tail_pct);
        own.insert("harness.op_samples", untraced.window.ops() as f64);
        own.insert("harness.spans_recorded", spans.recorded().len() as f64);
        if let Some(ns) = spans.op_self_median_ns() {
            own.insert("harness.op_self_us", ns as f64 / 1e3);
        }
    }
    insert_phases(&spans, &mut own);

    // 2. The layer pass; what W's own loop measured stands.
    let stream = match name {
        "profile_fine" => Stream::Models(inputs::model_order(args.seed)),
        _ => Stream::flood(args.seed),
    };
    let mut values = Values::new();
    waterfall(&stream, args.check, &mut values)?;
    Probes::new(args.seed, args.check)?.run(&mut values)?;
    values.extend(own);

    let metrics = if failed == attempted {
        Vec::new()
    } else {
        PER_LAYER
            .iter()
            .map(|&spec| {
                values
                    .get(spec.0)
                    .map(|&v| Metric::new(spec, v))
                    .ok_or_else(|| format!("per-layer metric `{}` was not measured", spec.0))
            })
            .collect::<Result<_, _>>()?
    };
    Ok(RunResult {
        workload: name.into(),
        seed: args.seed,
        seconds: (!args.check).then_some(args.seconds),
        traced: true,
        attempted,
        failed,
        first_failure,
        sim_digest: bench.references().digest(),
        metrics,
        notes: Vec::new(),
    })
}

/// Runs the op loop for half the run's budget with span recording and
/// allocation counting on for every other op, so traced and untraced ops
/// see the same machine and their difference is the tracing alone.
/// Returns the untraced stats, the traced stats and the allocations
/// counted over the traced ops.
fn alternating_loop(
    bench: &mut dyn Bench,
    budget: Budget,
    spans: &mut Spans,
) -> (LoopStats, LoopStats, u64) {
    let (mut untraced, mut traced) = (LoopStats::default(), LoopStats::default());
    let mut allocs = 0;
    let started = Instant::now();
    let mut i = 0;
    loop {
        match budget {
            Budget::Ops(n) if i >= 2 * n => break,
            Budget::Seconds(s) if i >= 2 && started.elapsed().as_secs_f64() >= s / 2.0 => break,
            _ => {}
        }
        let tracing = i % 2 == 1;
        spans.set_enabled(tracing);
        let allocs_before = harness::allocs();
        harness::count_allocs(tracing);
        run::run_op(
            bench,
            i,
            spans,
            if tracing { &mut traced } else { &mut untraced },
        );
        harness::count_allocs(false);
        allocs += harness::allocs() - allocs_before;
        i += 1;
    }
    spans.set_enabled(false);
    untraced.window.finish();
    traced.window.finish();
    (untraced, traced, allocs)
}

// ---------------------------------------------------------------------------
// Waterfall.
// ---------------------------------------------------------------------------

/// Wall-clock the cut rotation may take...
const WATERFALL_SECONDS: f64 = 1.5;
/// ...and the last cut on its own afterwards.
const LAST_CUT_ALONE_SECONDS: f64 = 0.5;

/// Re-runs `stream` through successively longer prefixes of the pipeline,
/// round-robin so drift hits every cut alike; each successive difference
/// is a layer's cost per op. The suite cut — the last one that is a whole
/// `event_flood` / `profile_fine` op — then runs on its own in a tight
/// loop, as an end-to-end run has it: the distance between the two is the
/// residual, how far a number measured inside this rotation can be
/// trusted to match the end-to-end one.
fn waterfall(stream: &Stream, quick: bool, values: &mut Values) -> Result<(), String> {
    let mut off = Spans::new(false);
    let mut phases = Spans::new(true);
    let spec = DeviceSpec::rtx_3060;
    let suite_op = |spans: &mut Spans, capture: bool| {
        profiled_run(stream, ToolSet::Suite, capture, spans).map_err(|e| e.to_string())
    };
    let mut walls: [Vec<u64>; 6] = Default::default();
    let started = Instant::now();
    let mut round = 0u64;
    while round < 2 || (!quick && started.elapsed().as_secs_f64() < WATERFALL_SECONDS) {
        let mut cut = 0;
        let mut timed = |f: &mut dyn FnMut() -> Result<(), String>| -> Result<(), String> {
            let t = Instant::now();
            f()?;
            walls[cut].push(t.elapsed().as_nanos() as u64);
            cut += 1;
            Ok(())
        };
        // No PASTA: the framework session over a bare CUDA context.
        timed(&mut || {
            let mut ctx = CudaContext::new(vec![spec()]);
            stream
                .run_bare(&mut ctx)
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        // Engine probe only: the sanitizer's TraceProfiler into a NullSink.
        timed(&mut || {
            let mut ctx = CudaContext::new(vec![spec()]);
            sanitizer::attach(&mut ctx, SanitizerConfig::gpu_resident())
                .set_sink(Box::new(NullSink));
            stream
                .run_bare(&mut ctx)
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        for tools in [ToolSet::None, ToolSet::Noop] {
            timed(&mut || {
                profiled_run(stream, tools, false, &mut off)
                    .map(|run| drop(black_box(run.rendered)))
                    .map_err(|e| e.to_string())
            })?;
        }
        timed(&mut || {
            let run = suite_op(&mut off, false)?;
            if round == 0 {
                values.extend(run.sim_facts());
            }
            drop(black_box(run.rendered));
            Ok(())
        })?;
        // The capture cut passes through every phase of the single-device
        // pipeline, so it is the one whose phase spans are kept.
        phases.begin_op(round);
        timed(&mut || suite_op(&mut phases, true).map(|run| drop(black_box(run.rendered))))?;
        round += 1;
    }
    let [bare, nullsink, gate, noop, suite, capture] =
        walls.map(|w| harness::median(&w) as f64 / 1e3);
    values.insert("dl_framework.runner.bare_run_us", bare);
    values.insert("accel_sim.trace_profiler.nullsink_us", nullsink);
    values.insert("core.hub.gate_us", gate);
    values.insert("core.pipeline.noop_tool_us", noop);
    values.insert("tools.suite_us", suite - noop);
    values.insert("trace.writer.capture_us", capture - suite);
    insert_phases(&phases, values);

    let mut alone = Vec::new();
    let started = Instant::now();
    while alone.len() < 2 || (!quick && started.elapsed().as_secs_f64() < LAST_CUT_ALONE_SECONDS) {
        let t = Instant::now();
        drop(black_box(suite_op(&mut off, false)?.rendered));
        alone.push(t.elapsed().as_nanos() as u64);
    }
    let alone = harness::median(&alone) as f64 / 1e3;
    values.insert(
        "harness.waterfall_residual_pct",
        100.0 * (suite - alone).abs() / alone,
    );
    values.insert("harness.overhead_x", alone / bare);
    Ok(())
}

// ---------------------------------------------------------------------------
// Direct probes.
// ---------------------------------------------------------------------------

/// Median over `reps` of the nanoseconds `sample` reports.
fn median_ns(reps: usize, sample: impl FnMut() -> u64) -> f64 {
    let samples: Vec<u64> = std::iter::repeat_with(sample).take(reps.max(1)).collect();
    harness::median(&samples) as f64
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

/// Median wall of `reps` calls of `f`, in ns.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    median_ns(reps, || timed(&mut f))
}

/// Median wall of `run` over `reps` fresh subjects; `make` is untimed.
fn time_fresh<T>(reps: usize, mut make: impl FnMut() -> T, mut run: impl FnMut(&mut T)) -> f64 {
    median_ns(reps, || {
        let mut subject = make();
        timed(|| run(&mut subject))
    })
}

/// Median wall of `run` on `state` over `reps` repetitions, each preceded
/// by an untimed `prepare` that puts `state` back where `run` starts.
fn time_prepared<S>(
    reps: usize,
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut run: impl FnMut(&mut S),
) -> f64 {
    median_ns(reps, || {
        prepare(state);
        timed(|| run(state))
    })
}

/// One flood launch as the sink sees it.
struct SinkLaunch {
    ctx: TraceCtx,
    batches: Vec<AccessBatch>,
    barriers: u64,
    blocks: u64,
}

/// Managed addresses start here (what `Engine::malloc_managed` hands out
/// and `UvmManager` examples use).
const MANAGED_BASE: u64 = 0x4000_0000_0000;

fn sink_launches(kernels: &[KernelDesc]) -> Vec<SinkLaunch> {
    kernels
        .iter()
        .enumerate()
        .map(|(i, k)| SinkLaunch {
            ctx: TraceCtx {
                launch: LaunchId(i as u64),
                device: DeviceId(0),
                stream: 0,
                name: k.name.clone(),
                grid: k.grid,
                block: k.block,
            },
            batches: k
                .body
                .accesses
                .iter()
                .enumerate()
                .map(|(spec_index, a)| AccessBatch {
                    launch: LaunchId(i as u64),
                    spec_index,
                    base: 0x7000_0000 + a.offset,
                    len: a.len,
                    records: a.record_count(),
                    bytes: a.bytes,
                    elem_size: a.elem_size,
                    kind: a.kind,
                    space: a.space,
                    pattern: a.pattern,
                })
                .collect(),
            barriers: k.grid.count() * u64::from(k.body.barriers_per_block),
            blocks: k.grid.count(),
        })
        .collect()
}

/// Offers every callback of the flood to `sink`; returns how many.
fn drive(sink: &mut dyn DeviceTraceSink, launches: &[SinkLaunch]) -> u64 {
    let mut callbacks = 0;
    for l in launches {
        sink.on_kernel_begin(&l.ctx);
        for b in &l.batches {
            sink.on_batch(&l.ctx, b);
        }
        sink.on_barriers(&l.ctx, l.barriers);
        sink.on_blocks(&l.ctx, l.blocks);
        sink.on_kernel_end(&l.ctx, &KernelTraceSummary::default());
        callbacks += l.batches.len() as u64 + 4;
    }
    callbacks
}

fn noop_processor() -> EventProcessor {
    let mut p = EventProcessor::new();
    p.tools.register(Box::new(NoopTool("noop")));
    p
}

/// Fixtures the probes share: the seeded flood, its event stream as a
/// live session emitted it, and its trace.
struct Probes {
    seed: u64,
    reps: usize,
    kernels: Vec<KernelDesc>,
    events: Vec<Event>,
    access: Vec<Event>,
    trace: Trace,
}

impl Probes {
    fn new(seed: u64, quick: bool) -> Result<Probes, String> {
        let (trace, _) = capture_flood(seed).map_err(|e| e.to_string())?;
        let reader = TraceReader::parse(trace.as_bytes()).map_err(|e| e.to_string())?;
        let events = reader.shards()[0].events.clone();
        let access = events
            .iter()
            .filter(|e| e.class() == EventClass::DeviceAccess)
            .cloned()
            .collect();
        Ok(Probes {
            seed,
            reps: if quick { 2 } else { 200 },
            kernels: inputs::flood_kernels(seed),
            events,
            access,
            trace,
        })
    }

    /// `reps` scaled down for probes whose one repetition is milliseconds.
    fn reps_div(&self, by: usize) -> usize {
        (self.reps / by).max(2)
    }

    fn run(&self, values: &mut Values) -> Result<(), String> {
        self.event_path(values);
        self.tools(values);
        self.codec(values)?;
        self.engine_and_vendor(values)?;
        self.pool_and_merge(values)?;
        self.serving(values)?;
        uvm(self.reps, values);
        Ok(())
    }

    /// Gate, emit (ring and inline spine), ring hop, processor, dispatch.
    fn event_path(&self, values: &mut Values) {
        let launches = sink_launches(&self.kernels);
        let n_events = self.events.len() as f64;

        let hub = new_shared(EventProcessor::new());
        let mut sink = HubSink::new(Arc::clone(&hub));
        let mut callbacks = 0;
        let ns = time_reps(self.reps, || {
            callbacks = drive(&mut sink, &launches);
            hub.quiesce();
        });
        values.insert(
            "core.hub.gate_reject_ns_per_callback",
            ns / callbacks as f64,
        );

        for (metric, inline) in [
            ("core.hub.emit_ns_per_event", false),
            ("core.hub.emit_inline_ns_per_event", true),
        ] {
            let hub = new_shared(noop_processor());
            let mut sink = if inline {
                HubSink::inline_spine(Arc::clone(&hub))
            } else {
                HubSink::new(Arc::clone(&hub))
            };
            let ns = time_reps(self.reps, || {
                drive(&mut sink, &launches);
                hub.quiesce();
            });
            let per_rep = hub.events_processed() as f64 / self.reps.max(1) as f64;
            values.insert(metric, ns / per_rep);
        }

        // One full 256-event batch per message; filling the buffers is
        // the producer's work and stays outside the clock.
        let config = SpineConfig::default();
        let ring = EventRing::with_config(&config);
        let batch: Vec<Event> = self
            .access
            .iter()
            .take(config.batch_events)
            .cloned()
            .collect();
        let ns = time_fresh(
            self.reps,
            || {
                (0..config.pool_buffers)
                    .map(|_| {
                        let mut buf = ring.take_buffer().expect("pool buffer available");
                        buf.extend(batch.iter().cloned());
                        buf
                    })
                    .collect::<Vec<_>>()
            },
            |bufs| {
                for buf in bufs.drain(..) {
                    ring.push(SpineMsg::Batch(EventClass::DeviceAccess, buf))
                        .expect("ring has room");
                    match ring.pop() {
                        Some(SpineMsg::Batch(_, events)) => ring.recycle(events),
                        other => panic!("ring returned {other:?}"),
                    }
                }
            },
        );
        values.insert("core.spine.ring_hop_ns", ns / config.pool_buffers as f64);

        let mut processor = EventProcessor::new();
        let ns = time_reps(self.reps, || processor.process_batch(&self.events));
        values.insert("core.processor.process_ns_per_event", ns / n_events);

        const NOOPS: [&str; 6] = ["noop-0", "noop-1", "noop-2", "noop-3", "noop-4", "noop-5"];
        for (metric, count) in [
            ("core.tool.dispatch_ns_per_event_1", 1),
            ("core.tool.dispatch_ns_per_event_6", 6),
        ] {
            let mut tools = ToolCollection::new();
            for name in &NOOPS[..count] {
                tools.register(Box::new(NoopTool(name)));
            }
            let ns = time_reps(self.reps, || {
                tools.dispatch_class_batch(EventClass::DeviceAccess, &self.access)
            });
            values.insert(metric, ns / self.access.len() as f64);
        }
    }

    /// Each suite tool alone over the whole stream, less what a no-op
    /// tool costs over the same loop; and the suite's report building.
    fn tools(&self, values: &mut Values) {
        let n_events = self.events.len() as f64;
        let feed = |tools: &mut ToolCollection| {
            for event in &self.events {
                tools.dispatch(event);
            }
        };
        let alone = |make: MakeTool<'_>| {
            time_fresh(
                self.reps,
                || {
                    let mut tools = ToolCollection::new();
                    tools.register(make());
                    tools
                },
                feed,
            )
        };
        let noop = alone(&|| Box::new(NoopTool("noop")));
        let suite: [(&'static str, MakeTool<'_>); 6] = [
            ("tools.kernel_freq.ns_per_event", &|| {
                Box::new(KernelFrequencyTool::new())
            }),
            ("tools.barrier_stall.ns_per_event", &|| {
                Box::new(BarrierStallTool::new())
            }),
            ("tools.hotness.ns_per_event", &|| {
                Box::new(HotnessTool::new(64))
            }),
            ("tools.op_kernel_map.ns_per_event", &|| {
                Box::new(OpKernelMapTool::new())
            }),
            ("tools.memchar.ns_per_event", &|| {
                Box::new(MemoryCharacteristicsTool::new())
            }),
            ("tools.mem_timeline.ns_per_event", &|| {
                Box::new(MemoryTimelineTool::new())
            }),
        ];
        for (metric, make) in suite {
            values.insert(metric, (alone(make) - noop) / n_events);
        }

        let mut fed = ToolSet::Suite.collection();
        feed(&mut fed);
        let ns = time_reps(self.reps, || drop(black_box(fed.reports())));
        values.insert("tools.suite.reports_us", ns / 1e3);
    }

    /// Trace encode, parse and replay over the captured stream, and the
    /// vendor-callback normalizer over a recorded callback sample.
    fn codec(&self, values: &mut Values) -> Result<(), String> {
        let n_events = self.events.len() as f64;
        let ns = time_reps(self.reps, || {
            drop(black_box(Trace::from_shards(
                [(DeviceId(0), self.events.as_slice())],
                None,
            )))
        });
        values.insert("trace.codec.encode_ns_per_event", ns / n_events);

        let ns = time_reps(self.reps, || {
            drop(black_box(TraceReader::parse(self.trace.as_bytes())))
        });
        values.insert("trace.reader.parse_ns_per_event", ns / n_events);
        values.insert("trace.reader.parse_us", ns / 1e3);

        let reader = TraceReader::parse(self.trace.as_bytes()).map_err(|e| e.to_string())?;
        let ns = time_fresh(
            self.reps,
            || ToolSet::Suite.collection(),
            |tools| drop(black_box(replay_decoded(&reader, tools))),
        );
        values.insert("trace.replay.ns_per_event", ns / n_events);
        values.insert("trace.replay.replay_decoded_us", ns / 1e3);
        values.insert("trace.bytes_per_event", self.trace.len() as f64 / n_events);
        values.insert("trace.events_per_op", n_events);

        let sample = Arc::new(Mutex::new(Vec::<NvCallback>::new()));
        let mut ctx = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
        let sink = Arc::clone(&sample);
        ctx.subscribe(Box::new(move |cb| {
            sink.lock()
                .expect("no panic under this lock")
                .push(cb.clone())
        }));
        Stream::Models(inputs::model_order(self.seed))
            .run_bare(&mut ctx)
            .map_err(|e| e.to_string())?;
        let sample = sample.lock().expect("no panic under this lock");
        let ns = time_reps(self.reps, || {
            for cb in sample.iter() {
                black_box(normalize_nv(cb));
            }
        });
        values.insert(
            "core.normalize.nv_ns_per_callback",
            ns / sample.len() as f64,
        );
        Ok(())
    }

    /// `Engine::launch` bare and probed; the CUDA and HIP facades' launch;
    /// a managed page's register/teardown round trip.
    fn engine_and_vendor(&self, values: &mut Values) -> Result<(), String> {
        let err = |e: pasta::sim::AccelError| e.to_string();
        let launches = self.kernels.len() as f64;
        let specs: usize = self.kernels.iter().map(|k| k.body.accesses.len()).sum();

        let mut engine = Engine::new(vec![DeviceSpec::rtx_3060()]);
        let buf = engine
            .malloc(DeviceId(0), FLOOD_TENSOR_BYTES)
            .map_err(err)?;
        let bound: Vec<KernelDesc> = self
            .kernels
            .iter()
            .map(|k| k.clone().arg(buf, FLOOD_TENSOR_BYTES))
            .collect();
        let launch_all = |engine: &mut Engine| {
            for desc in &bound {
                black_box(engine.launch(DeviceId(0), 0, desc).expect("flood launches"));
            }
        };
        let ns = time_reps(self.reps, || launch_all(&mut engine));
        values.insert("accel_sim.engine.launch_ns", ns / launches);
        engine.set_probe(Box::<CountingProbe>::default());
        let ns = time_reps(self.reps, || launch_all(&mut engine));
        values.insert(
            "accel_sim.engine.launch_probed_ns_per_spec",
            ns / specs as f64,
        );

        let facade = |rt: &mut dyn DeviceRuntime| -> Result<f64, String> {
            let buf = rt.malloc(FLOOD_TENSOR_BYTES).map_err(err)?;
            Ok(time_reps(self.reps, || {
                for k in &self.kernels {
                    black_box(
                        rt.launch(k.clone().arg(buf, FLOOD_TENSOR_BYTES))
                            .expect("flood launches"),
                    );
                }
            }) / launches)
        };
        values.insert(
            "vendor_nv.cuda.launch_ns",
            facade(&mut CudaContext::new(vec![DeviceSpec::rtx_3060()]))?,
        );
        values.insert(
            "vendor_amd.hip.launch_ns",
            facade(&mut HipContext::new(vec![DeviceSpec::mi300x()]))?,
        );

        let page = inputs::serving_config(self.seed, 0).kv_page_bytes();
        let mut ctx = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut uvm = UvmManager::new(UvmConfig::default());
        uvm.add_device(64 << 20, 24.0, 25_000);
        ctx.attach_uvm(uvm);
        const ROUND_TRIPS: usize = 64;
        let ns = time_reps(self.reps, || {
            for _ in 0..ROUND_TRIPS {
                let ptr = ctx.malloc_managed(page).expect("managed page");
                ctx.free(ptr).expect("teardown");
            }
        });
        values.insert("vendor_nv.cuda.managed_churn_ns", ns / ROUND_TRIPS as f64);
        Ok(())
    }

    /// The lane pool's dispatch floor, `run_parallel`'s floor over 64
    /// devices, and the 64-shard session-end merge.
    fn pool_and_merge(&self, values: &mut Values) -> Result<(), String> {
        let lanes = MOE_DEVICES;
        let ns = time_reps(self.reps, || {
            let tasks = (0..lanes)
                .map(|d| PoolTask {
                    device: DeviceId(d),
                    run: Box::new(|| Ok(())),
                })
                .collect();
            black_box(run_pool::<()>(
                workloads::PARALLEL.max_lane_threads,
                tasks,
                None,
            ));
        });
        values.insert(
            "dl_framework.lane_exec.pool_dispatch_ns_per_lane",
            ns / f64::from(lanes),
        );

        let mut session = moe_session().map_err(|e| e.to_string())?;
        let devices = device_ids(lanes);
        let ns = time_reps(self.reps_div(8), || {
            session
                .run_parallel(&devices, |_| Ok(()))
                .expect("empty region runs");
        });
        values.insert("core.profiler.run_parallel_empty_us", ns / 1e3);

        let mut first = EventProcessor::new();
        first.tools = ToolSet::Suite.collection();
        let mut shards = Vec::with_capacity(lanes as usize);
        for d in 1..lanes {
            shards.push((DeviceId(d), first.fork().ok_or("the suite forks")?));
        }
        shards.insert(0, (DeviceId(0), first));
        for (_, processor) in &mut shards {
            processor.process_batch(&self.events);
        }
        let hub = Hub::sharded(shards)?;
        hub.set_merge_threads(workloads::PARALLEL.max_merge_threads);
        let ns = time_reps(self.reps_div(8), || drop(black_box(hub.merged_report())));
        values.insert("core.merge.tree_reduce_us_64", ns / 1e3);
        Ok(())
    }

    /// Request-trace generation, and request mix 0 served with and
    /// without the budget: the second is the scheduler and kernel stream
    /// with the UVM machinery quiet, the first gives the exact page counts
    /// and the two phases only a serving op has.
    fn serving(&self, values: &mut Values) -> Result<(), String> {
        let cfg = inputs::serving_config(self.seed, 0);
        let ns = time_reps(self.reps, || drop(black_box(RequestTrace::generate(&cfg))));
        values.insert("dl_framework.serving.generate_us", ns / 1e3);

        let mut off = Spans::new(false);
        let mut phases = Spans::new(true);
        let mut failure = None;
        for op in 0..self.reps_div(16) {
            phases.begin_op(op as u64);
            match serve_run(&cfg, Some(serve_budget(&cfg)), true, &mut phases) {
                Ok((_, report, uvm)) => values.extend(serve_sim_facts(&report, &uvm)),
                Err(e) => failure = Some(e.to_string()),
            }
        }
        for metric in ["core.profiler.uvm_report_us", "tools.serving.from_run_us"] {
            let ns = phases
                .phase_median_ns(metric)
                .ok_or("a serving run has these phases")?;
            values.insert(metric, ns as f64 / 1e3);
        }
        let ns = time_reps(self.reps_div(16), || {
            if let Err(e) = serve_run(&cfg, None, true, &mut off) {
                failure = Some(e.to_string());
            }
        });
        if let Some(e) = failure {
            return Err(format!("serving probe failed: {e}"));
        }
        values.insert("dl_framework.serving.serve_unbudgeted_us", ns / 1e3);
        Ok(())
    }
}

/// The UVM layer on its own: a two-device manager driven through the
/// `ResidencyModel` trait the engine drives it through.
fn uvm(reps: usize, values: &mut Values) {
    const PAGES: u64 = 256;
    const LEN: u64 = PAGES * PAGE_SIZE;
    let (d0, d1) = (DeviceId(0), DeviceId(1));
    let manager = |budget: u64| {
        let mut m = UvmManager::new(UvmConfig::default());
        m.add_device_p2p(budget, 24.0, 300.0, 25_000);
        m.add_device_p2p(budget, 24.0, 300.0, 25_000);
        m
    };
    let touch = |m: &mut UvmManager, device, base, len, kind| {
        black_box(m.on_kernel_access(device, base, len, len, kind));
    };

    // Resident: everything fits and was touched once.
    let mut m = manager(4 * LEN);
    m.register(MANAGED_BASE, LEN);
    touch(&mut m, d0, MANAGED_BASE, LEN, AccessKind::Load);
    let ns = time_reps(reps, || {
        touch(&mut m, d0, MANAGED_BASE, LEN, AccessKind::Load)
    });
    values.insert(
        "uvm_sim.manager.resident_access_ns_per_page",
        ns / PAGES as f64,
    );

    // Cold: re-registering drops residency, so every page faults in.
    let ns = time_prepared(
        reps,
        &mut m,
        |m| {
            m.unregister(MANAGED_BASE);
            m.register(MANAGED_BASE, LEN);
        },
        |m| touch(m, d0, MANAGED_BASE, LEN, AccessKind::Load),
    );
    values.insert("uvm_sim.manager.fault_ns_per_page", ns / PAGES as f64);

    // Thrash: the budget holds half the working set, so in steady state
    // every page of a sweep faults in and evicts another.
    let mut m = manager(LEN);
    m.register(MANAGED_BASE, 2 * LEN);
    let thrash = |m: &mut UvmManager| {
        for window in 0..8 {
            touch(
                m,
                d0,
                MANAGED_BASE + window * LEN / 4,
                LEN / 4,
                AccessKind::Load,
            );
        }
    };
    thrash(&mut m);
    let ns = time_reps(reps, || thrash(&mut m));
    values.insert("uvm_sim.manager.evict_ns_per_page", ns / (2 * PAGES) as f64);

    const ROUND_TRIPS: usize = 64;
    let ns = time_reps(reps, || {
        for _ in 0..ROUND_TRIPS {
            m.register(MANAGED_BASE + 4 * LEN, PAGE_SIZE);
            m.unregister(MANAGED_BASE + 4 * LEN);
        }
    });
    values.insert(
        "uvm_sim.manager.register_unregister_ns",
        ns / ROUND_TRIPS as f64,
    );

    // Fork four lane managers off a parent with live registrations, let
    // each fault its own range in, and fold them back.
    const LANES: u32 = 4;
    let parent = || {
        let mut m = UvmManager::new(UvmConfig::default());
        for _ in 0..LANES {
            m.add_device_p2p(4 * LEN, 24.0, 300.0, 25_000);
        }
        for i in 0..64 {
            m.register(MANAGED_BASE + i * LEN, LEN);
        }
        m
    };
    let p = parent();
    let ns = time_reps(reps, || {
        for d in 0..LANES {
            black_box(p.fork(DeviceId(d)));
        }
    });
    values.insert("uvm_sim.manager.fork_us", ns / 1e3);
    let forks: Vec<UvmManager> = (0..LANES)
        .map(|d| {
            let mut lane = p.fork(DeviceId(d));
            touch(
                &mut lane,
                DeviceId(d),
                MANAGED_BASE + u64::from(d) * LEN,
                LEN,
                AccessKind::Load,
            );
            lane
        })
        .collect();
    let ns = time_fresh(reps, parent, |p| {
        for lane in &forks {
            p.merge(lane);
        }
    });
    values.insert("uvm_sim.manager.merge_us", ns / 1e3);

    // Coherence: a shared range owned by device 0. A cold remote read
    // duplicates every page over the peer link; a remote write then
    // invalidates the other holder's copies.
    let mut m = manager(4 * LEN);
    let reshare = |m: &mut UvmManager| {
        m.unregister(MANAGED_BASE);
        m.register(MANAGED_BASE, LEN);
        m.register_shared(MANAGED_BASE, LEN, d0);
        m.take_peer_transfers();
    };
    let ns = time_prepared(reps, &mut m, reshare, |m| {
        touch(m, d1, MANAGED_BASE, LEN, AccessKind::Load)
    });
    values.insert(
        "uvm_sim.coherence.claim_read_ns_per_page",
        ns / PAGES as f64,
    );
    let ns = time_prepared(
        reps,
        &mut m,
        |m| {
            reshare(m);
            touch(m, d0, MANAGED_BASE, LEN, AccessKind::Load);
            touch(m, d1, MANAGED_BASE, LEN, AccessKind::Load);
        },
        |m| touch(m, d1, MANAGED_BASE, LEN, AccessKind::Store),
    );
    values.insert(
        "uvm_sim.coherence.write_range_ns_per_page",
        ns / PAGES as f64,
    );
}
