//! The PASTA-in-Rust benchmark. See `README.md` for what it measures and
//! why; `../BENCHMARK.json` is the machine-readable description.
//!
//! ```text
//! pasta-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--check] [--out DIR]
//! pasta-benchmark all [--seed N] [--seconds S] [--trace 0|1] [--check] [--out DIR]
//! pasta-benchmark compare <dir-a> <dir-b>
//! ```

mod compare;
mod harness;
mod inputs;
mod json;
mod layers;
mod run;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// How long an op loop runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this many seconds have passed.
    Seconds(f64),
    /// Exactly this many ops (warm-up, `--check`, the smoke test).
    Ops(u64),
}

/// Ops per workload under `--check`: enough to compare an op against the
/// first one, few enough to take no time.
pub const CHECK_OPS: u64 = 3;

/// Parsed command line of a run of one workload or of `all`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// The timed window, seconds.
    pub seconds: f64,
    /// Output checks only: [`CHECK_OPS`] ops, no warm-up, nothing timed
    /// worth reporting.
    pub check: bool,
    pub traced: bool,
    pub break_check: bool,
    pub out: PathBuf,
}

impl Args {
    pub fn budget(&self) -> Budget {
        if self.check {
            Budget::Ops(CHECK_OPS)
        } else {
            Budget::Seconds(self.seconds)
        }
    }
}

/// Seconds a run measures when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

/// This package's directory: where `out/` and `../BENCHMARK.json` live.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        check: false,
        traced: false,
        break_check: false,
        out: manifest_dir().join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(format!("--seconds {} is outside (0, 600]", parsed.seconds));
                }
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--check" => parsed.check = true,
            "--break-check" => parsed.break_check = true,
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

const USAGE: &str = "usage: --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--check] \
                     [--out DIR] | all [the same, less --workload] | compare <dir-a> <dir-b>";

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        Some("all") => {
            let args = parse_args(&argv[1..])?;
            match args.workload {
                None => run::all(&args),
                Some(_) => Err(USAGE.into()),
            }
        }
        Some(_) => run::one(&parse_args(&argv)?),
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pasta-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
