//! `compare <dir-a> <dir-b>`: the machine comparison of two result sets
//! against the bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use std::path::Path;

/// A result file read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub seed: u64,
    /// The timed window; `None` for a `--check` run.
    pub seconds: Option<f64>,
    pub ops: u64,
    pub failed: u64,
    pub sim_digest: String,
    /// `(name, value)` in file order.
    pub metrics: Vec<(String, f64)>,
}

impl ResultFile {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

pub fn load_result(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("{}: no `{key}`", path.display()))
    };
    Ok(ResultFile {
        seed: count("seed")?,
        seconds: doc.get("seconds").and_then(Json::as_f64),
        ops: count("ops")?,
        failed: count("failed")?,
        sim_digest: doc
            .get("sim_digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned(),
        metrics: doc
            .get("metrics")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_owned(),
                    m.get("value")?.as_f64()?,
                ))
            })
            .collect(),
    })
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of `a` by which `b` may be worse.
    pub bound: f64,
    /// Amount, in the metric's unit, by which `b` may be worse whatever
    /// the share says; the larger of the two allowances applies.
    pub floor: f64,
}

/// `setup_s` is a few tenths of a second, mostly warm-up ops, and moves
/// by more than its relative bound between identical runs on the
/// reference box; the issue bounds it at "+15 % or +0.2 s, whichever is
/// larger". `BENCHMARK.json` has no key for an absolute allowance, so it
/// lives here.
const SETUP_FLOOR_S: f64 = 0.2;

/// The parsed `BENCHMARK.json`.
pub fn load_benchmark() -> Result<Json, String> {
    let path = crate::manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_owned))
        .collect()
}

fn bounded_metrics(doc: &Json) -> Vec<Bounded> {
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            Some(Bounded {
                floor: if name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                },
                name,
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
}

/// Relative change of `b` over `a`, and the verdict against the metric's
/// allowance: the larger of `bound` × `a` and `floor`.
pub fn judge(a: f64, b: f64, metric: &Bounded) -> (f64, Verdict) {
    let worse = if metric.higher_is_better {
        a - b
    } else {
        b - a
    };
    let allowed = (metric.bound * a).max(metric.floor);
    let verdict = if worse > allowed {
        Verdict::Regressed
    } else if worse < -allowed {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    ((b - a) / a, verdict)
}

/// Four significant digits, and no fraction once they are used up.
fn short(v: f64) -> String {
    let decimals = 3 - (v.abs().max(1e-9).log10().floor() as i32).clamp(0, 3);
    format!("{v:.0$}", decimals as usize)
}

/// Prints one row per workload — for each end-to-end metric both values,
/// the relative change and the verdict — and returns whether nothing
/// regressed. Failed ops in `b` are a regression: the ratio must stay 0.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let benchmark = load_benchmark()?;
    let metrics = bounded_metrics(&benchmark);
    let mut ok = true;
    for workload in names(&benchmark, "workloads") {
        let a = load_result(&crate::run::result_path(dir_a, &workload, false))?;
        let b = load_result(&crate::run::result_path(dir_b, &workload, false))?;
        // Other inputs or another run length are another measurement.
        if (a.seed, a.seconds) != (b.seed, b.seconds) {
            return Err(format!(
                "{workload}: the sets are not comparable: seed {} for {:?} s against seed {} for {:?} s",
                a.seed, a.seconds, b.seed, b.seconds
            ));
        }
        let mut row = format!("{workload:<18}");
        for metric in &metrics {
            let (Some(va), Some(vb)) = (a.metric(&metric.name), b.metric(&metric.name)) else {
                return Err(format!(
                    "{workload}: `{}` missing from a result file",
                    metric.name
                ));
            };
            let (change, verdict) = judge(va, vb, metric);
            ok &= verdict != Verdict::Regressed;
            row.push_str(&format!(
                "  {} {} -> {} ({:+.1}%) {}",
                metric.name,
                short(va),
                short(vb),
                change * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Regressed => "REGRESSED",
                }
            ));
        }
        if b.failed > 0 {
            ok = false;
            row.push_str(&format!("  failed_ops {} of {} REGRESSED", b.failed, b.ops));
        }
        row.push_str(if a.sim_digest == b.sim_digest {
            "  sim_digest same"
        } else {
            "  sim_digest DIFFERS"
        });
        println!("{row}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Bounded {
        Bounded {
            name: "m".into(),
            higher_is_better: higher,
            bound: 0.10,
            floor: 0.0,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(100.0, 109.0, &metric(false)).1, Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, &metric(false)).1, Verdict::Regressed);
        assert_eq!(judge(100.0, 89.0, &metric(false)).1, Verdict::Improved);
        assert_eq!(judge(100.0, 89.0, &metric(true)).1, Verdict::Regressed);
        assert_eq!(judge(100.0, 111.0, &metric(true)).1, Verdict::Improved);
        assert!((judge(100.0, 111.0, &metric(true)).0 - 0.11).abs() < 1e-12);
    }

    #[test]
    fn short_keeps_four_digits() {
        assert_eq!(short(0.2313), "0.231");
        assert_eq!(short(77.5336), "77.53");
        assert_eq!(short(872.6652), "872.7");
        assert_eq!(short(7091000.6493), "7091001");
    }

    #[test]
    fn the_floor_applies_where_it_is_the_larger_allowance() {
        let setup = Bounded {
            floor: 0.2,
            ..metric(false)
        };
        assert_eq!(judge(0.3, 0.49, &setup).1, Verdict::Ok, "+63 % but +0.19 s");
        assert_eq!(judge(0.3, 0.51, &setup).1, Verdict::Regressed);
        assert_eq!(judge(0.3, 0.09, &setup).1, Verdict::Improved);
        assert_eq!(judge(5.0, 5.4, &setup).1, Verdict::Ok, "+0.4 s but +8 %");
        assert_eq!(judge(5.0, 5.6, &setup).1, Verdict::Regressed);
    }

    #[test]
    fn benchmark_json_names_what_the_code_measures() {
        let doc = load_benchmark().expect("BENCHMARK.json parses");
        assert_eq!(
            names(&doc, "workloads"),
            crate::workloads::WORKLOADS.map(|w| w.name)
        );
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let measured = |specs: &[crate::run::MetricSpec]| -> Vec<(String, String, String)> {
            specs
                .iter()
                .map(|s| (s.0.to_owned(), s.1.to_owned(), s.2.to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), measured(&crate::run::END_TO_END));
        assert_eq!(declared("per_layer"), measured(&crate::layers::PER_LAYER));
        for m in bounded_metrics(&doc) {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{m:?}");
        }
    }
}
