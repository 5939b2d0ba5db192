//! Running workloads: set-up, warm-up, the timed closed loop, the output
//! checks, and writing results.

use crate::harness::{self, Calibrator, OpSample, Spans, Window, CALIBRATION_EVERY_NS};
use crate::json::quote;
use crate::workloads::{self, Bench};
use crate::{layers, Args, Budget};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Name, unit and direction of a metric — the columns `BENCHMARK.json`
/// repeats (a unit test holds the two in step).
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricSpec; 4] = [
    ("op_wall_us_p50_norm", "us", "lower"),
    ("work_per_s_norm", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Calibration samples taken at each end of a set-up.
const SETUP_EDGE_SAMPLES: usize = 3;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(spec: MetricSpec, value: f64) -> Metric {
        Metric {
            name: spec.0,
            unit: spec.1,
            better: spec.2,
            value,
        }
    }
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    /// The timed window; `None` for a `--check` run, which times nothing.
    pub seconds: Option<f64>,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub sim_digest: u64,
    /// The metrics the contract names for this pass, all of them.
    pub metrics: Vec<Metric>,
    /// Reported beside them, never gated: the tail and its sample count.
    pub notes: Vec<(String, String)>,
}

/// Samples and failures of one op loop.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Ops that succeeded and passed their check, aggregated in order.
    pub window: Window,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

/// Runs op `i`, times it, then checks its output untimed. An `Err`
/// return, a panic or a failed check all make it a failed op.
pub fn run_op(bench: &mut dyn Bench, i: u64, spans: &mut Spans, stats: &mut LoopStats) {
    spans.begin_op(i);
    let start_ns = spans.now_ns();
    let out = catch_unwind(AssertUnwindSafe(|| bench.op(i, spans)));
    let end_ns = spans.now_ns();
    spans.record_op(start_ns, end_ns);
    stats.attempted += 1;
    let verdict = match out {
        Ok(Ok(out)) => bench.check(&out).map(|()| out.work),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(format!(
            "panicked: {}",
            pasta::sim::panic_message(payload.as_ref())
        )),
    };
    match verdict {
        Ok(work) => stats.window.push(OpSample {
            start_ns,
            end_ns,
            work,
        }),
        Err(e) => {
            stats.failed += 1;
            stats.first_failure.get_or_insert(format!("op {i}: {e}"));
        }
    }
}

/// The closed loop: one op at a time, the next only after the previous
/// one returned and was checked, until `budget` is spent. Ops are
/// numbered from `first`; returns the next unused number. With a
/// `calibrator`, its kernel runs before the first op and then between two
/// ops whenever [`CALIBRATION_EVERY_NS`] have passed, and the blocks of
/// `stats.window` keep what it read.
pub fn op_loop(
    bench: &mut dyn Bench,
    first: u64,
    budget: Budget,
    calibrator: Option<&Calibrator>,
    spans: &mut Spans,
    stats: &mut LoopStats,
) -> u64 {
    let started = Instant::now();
    let mut calibrated_ns = None;
    let mut i = first;
    loop {
        match budget {
            Budget::Ops(n) if i - first >= n => break,
            Budget::Seconds(s) if i > first && started.elapsed().as_secs_f64() >= s => break,
            _ => {}
        }
        if let Some(calibrator) = calibrator {
            let now_ns = spans.now_ns();
            if calibrated_ns.is_none_or(|then| now_ns - then >= CALIBRATION_EVERY_NS) {
                stats.window.push_calibration(calibrator.sample());
                calibrated_ns = Some(now_ns);
            }
        }
        run_op(bench, i, spans, stats);
        i += 1;
    }
    stats.window.finish();
    i
}

/// Builds the workload from the seed and (for timed runs) warms it up. A
/// failure here is a benchmark failure, not a failed op: nothing is
/// measured on a workload that cannot start.
pub fn set_up(name: &str, seed: u64, warm_up: bool) -> Result<Box<dyn Bench>, String> {
    let mut bench = workloads::setup(name, seed)?;
    if warm_up {
        let mut warm = LoopStats::default();
        let ops = Budget::Ops(workloads::find(name)?.warmup_ops);
        op_loop(&mut *bench, 0, ops, None, &mut Spans::new(false), &mut warm);
        if let Some(failure) = warm.first_failure {
            return Err(format!("{name}: warm-up failed: {failure}"));
        }
    }
    Ok(bench)
}

/// `--break-check`: swaps in the references of the *next* seed, so every
/// op whose input depends on the seed must fail its check.
fn break_references(bench: &mut dyn Bench, name: &str, seed: u64) -> Result<(), String> {
    let mut other = workloads::setup(name, seed.wrapping_add(1))?;
    let slots = Budget::Ops(other.references().slots() as u64);
    let mut filled = LoopStats::default();
    op_loop(
        &mut *other,
        0,
        slots,
        None,
        &mut Spans::new(false),
        &mut filled,
    );
    if let Some(failure) = filled.first_failure {
        return Err(format!(
            "{name}: building the wrong references failed: {failure}"
        ));
    }
    std::mem::swap(bench.references(), other.references());
    Ok(())
}

/// The end-to-end pass of one workload, tracing off: [`SETUP_REPEATS`]
/// full set-ups (inputs, references, warm-up) one after the other, then
/// the window on the last of them. The calibration kernel runs
/// [`SETUP_EDGE_SAMPLES`] times before and after each set-up, and a
/// set-up's wall is scaled to the speed those samples saw, as a block's is.
fn end_to_end(name: &str, args: &Args) -> Result<RunResult, String> {
    let budget = args.budget();
    let calibrator = Calibrator::new();
    let edge = || {
        let samples: Vec<u64> = (0..SETUP_EDGE_SAMPLES)
            .map(|_| calibrator.sample())
            .collect();
        harness::median(&samples) as f64
    };
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut before = edge();
    let mut timed_set_up = || {
        let started = Instant::now();
        let bench = set_up(name, args.seed, !args.check)?;
        let wall_s = started.elapsed().as_secs_f64();
        let after = edge();
        let slowdown = (before + after) / 2.0 / harness::CALIBRATION_REF_NS;
        setup_s.push(wall_s / slowdown);
        setup_wall_s.push(wall_s);
        before = after;
        Ok::<_, String>(bench)
    };
    let mut bench = timed_set_up()?;
    for _ in 1..if args.check { 1 } else { SETUP_REPEATS } {
        // One workload's state at a time, so `peak_rss_mb` stays the
        // workload's.
        drop(bench);
        bench = timed_set_up()?;
    }
    if args.break_check {
        break_references(&mut *bench, name, args.seed)?;
    }
    let mut stats = LoopStats::default();
    op_loop(
        &mut *bench,
        0,
        budget,
        Some(&calibrator),
        &mut Spans::new(false),
        &mut stats,
    );

    let window = &stats.window;
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    if let (Some(normalized), Some(calibration_ns), Some(median_ns), Some((tail_pct, tail_ns))) = (
        window.normalized(),
        window.calibration_median_ns(),
        window.median_p50_ns(),
        window.tail(),
    ) {
        metrics = vec![
            Metric::new(END_TO_END[0], normalized.op_wall_ns / 1e3),
            Metric::new(END_TO_END[1], normalized.work_per_s),
            Metric::new(END_TO_END[2], harness::median_f64(&setup_s)),
            Metric::new(
                END_TO_END[3],
                harness::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?,
            ),
        ];
        notes.push((
            "harness.calibration_us".into(),
            format!(
                "us {} (median over the blocks of the calibration kernel's wall; {} is the reference)",
                calibration_ns as f64 / 1e3,
                harness::CALIBRATION_REF_NS / 1e3
            ),
        ));
        notes.push((
            "harness.setup_wall_s".into(),
            format!(
                "s {} (median set-up as the clock read it; reported, not gated)",
                harness::median_f64(&setup_wall_s)
            ),
        ));
        notes.push((
            "harness.op_wall_us_median".into(),
            format!(
                "us {} (median of {} block medians as the clock read them; reported, not gated)",
                median_ns as f64 / 1e3,
                window.blocks().len()
            ),
        ));
        notes.push((
            "harness.op_wall_us_tail".into(),
            format!(
                "us {} (p{tail_pct:.2} of {} samples; reported, not gated)",
                tail_ns as f64 / 1e3,
                window.ops()
            ),
        ));
    }
    notes.push((
        "failed_ops_ratio".into(),
        format!(
            "ratio {}",
            stats.failed as f64 / stats.attempted.max(1) as f64
        ),
    ));
    Ok(RunResult {
        workload: name.into(),
        seed: args.seed,
        seconds: (!args.check).then_some(args.seconds),
        traced: false,
        attempted: stats.attempted,
        failed: stats.failed,
        first_failure: stats.first_failure,
        sim_digest: bench.references().digest(),
        metrics,
        notes,
    })
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

/// The checked-out commit, read from `.git` by hand (the driver's checkout
/// has none, and the benchmark starts no process it does not need).
fn commit() -> String {
    let git = crate::manifest_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_owned(),
    };
    match hash.trim() {
        "" => "unknown".into(),
        h => h.chars().take(12).collect(),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// JSON number; the contract wants every digit, and JSON has no NaN.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && !self.metrics.is_empty()
    }

    /// The result file: fixed schema, one per workload and pass.
    fn file_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"value\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better),
                    num(m.value)
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"commit\": {},\n  \
             \"nproc\": {},\n  \"traced\": {},\n  \"ops\": {},\n  \"failed\": {},\n  \
             \"first_failure\": {},\n  \"sim_digest\": \"{:016x}\",\n  \"metrics\": [\n{}\n  ]\n}}\n",
            quote(&self.workload),
            self.seed,
            self.seconds.map_or("null".into(), num),
            quote(&commit()),
            nproc(),
            self.traced,
            self.attempted,
            self.failed,
            self.first_failure.as_deref().map_or("null".into(), quote),
            self.sim_digest,
            metrics.join(",\n")
        )
    }

    /// The last line of standard output, as the driver's contract has it.
    fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Where a workload's result file goes (`.layers` for the traced pass).
pub fn result_path(out: &Path, workload: &str, traced: bool) -> std::path::PathBuf {
    out.join(if traced {
        format!("{workload}.layers.json")
    } else {
        format!("{workload}.json")
    })
}

/// One workload, one pass, in this process.
pub fn one(args: &Args) -> Result<bool, String> {
    let name = args
        .workload
        .as_deref()
        .ok_or("no --workload <name> (or say `all`)")?;
    workloads::find(name)?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let result = if args.traced {
        layers::traced(name, args)?
    } else {
        end_to_end(name, args)?
    };

    println!(
        "# {name} seed {} {} ops {} failed {} nproc {} commit {}",
        result.seed,
        if result.traced { "traced" } else { "untraced" },
        result.attempted,
        result.failed,
        nproc(),
        commit()
    );
    for m in &result.metrics {
        println!("{} {} {}", m.name, m.unit, num(m.value));
    }
    for (name, text) in &result.notes {
        println!("{name} {text}");
    }
    println!("sim_digest hex {:016x}", result.sim_digest);
    if let Some(failure) = &result.first_failure {
        println!("first_failure {failure}");
    }

    let path = result_path(&args.out, name, args.traced);
    std::fs::write(&path, result.file_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", result.contract_line());
    // A timed run that printed its result has done its job — the line
    // says whether it was correct. `--check` has only the exit code.
    Ok(!args.check || result.correct())
}

/// `all`: every workload, each in its own child process, one after the
/// other. Returns whether every workload ran and passed its checks.
pub fn all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for name in workloads::WORKLOADS.map(|w| w.name) {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
        cmd.arg("--out").arg(&args.out);
        if args.check {
            cmd.arg("--check");
        }
        if args.break_check {
            cmd.arg("--break-check");
        }
        // `status` waits for the child; nothing outlives this loop.
        let status = cmd.status().map_err(|e| format!("spawning {name}: {e}"))?;
        let passed = status.success()
            && crate::compare::load_result(&result_path(&args.out, name, args.traced))
                .is_ok_and(|r| r.failed == 0 && r.ops > 0);
        println!("== {name}: {}\n", if passed { "ok" } else { "FAILED" });
        ok &= passed;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::load_benchmark;
    use crate::json::Json;

    fn args(traced: bool) -> Args {
        Args {
            workload: None,
            seed: 1,
            seconds: 1.0,
            check: true,
            traced,
            break_check: false,
            out: crate::manifest_dir().join("out/smoke-test"),
        }
    }

    fn declared(key: &str) -> Vec<String> {
        load_benchmark()
            .expect("BENCHMARK.json parses")
            .get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    /// Every workload, three ops, both passes: no op fails, and each pass
    /// reports exactly the metrics `BENCHMARK.json` names for it.
    #[test]
    fn smoke_every_workload_reports_every_declared_metric() {
        std::fs::create_dir_all(args(false).out).unwrap();
        for name in workloads::WORKLOADS.map(|w| w.name) {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = if traced {
                    layers::traced(name, &args(true))
                } else {
                    end_to_end(name, &args(false))
                }
                .unwrap_or_else(|e| panic!("{name} (traced: {traced}): {e}"));
                assert_eq!(result.failed, 0, "{name}: {:?}", result.first_failure);
                assert!(
                    result.attempted >= crate::CHECK_OPS,
                    "{name}: {} ops",
                    result.attempted
                );
                assert!(result.correct(), "{name}");
                let reported: Vec<String> =
                    result.metrics.iter().map(|m| m.name.to_owned()).collect();
                assert_eq!(reported, declared(key), "{name} (traced: {traced})");
                for m in &result.metrics {
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                }
                let line = Json::parse(&result.contract_line()).expect("contract line is JSON");
                assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
                Json::parse(&result.file_json()).expect("result file is JSON");
            }
        }
    }

    /// A check that compares against the wrong input must fail ops, not
    /// pass them: references taken from seed 2 while the ops run seed 1.
    #[test]
    fn wrong_references_turn_into_failed_ops() {
        for name in ["trace_replay", "event_flood"] {
            let broken = Args {
                break_check: true,
                ..args(false)
            };
            let result = end_to_end(name, &broken).unwrap();
            assert_eq!(result.failed, result.attempted, "{name}");
            assert!(!result.correct(), "{name}");
            assert!(result
                .first_failure
                .unwrap()
                .contains("differs from the reference"));
        }
    }
}
