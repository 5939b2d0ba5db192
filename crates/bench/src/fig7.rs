//! Figure 7: kernel invocation frequency distribution across all model
//! inference and training runs.

use crate::scale::ExpScale;
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::{ModelWorkload, Pasta, PastaError};
use pasta_tools::KernelFrequencyTool;

/// Frequencies of one (model, run-kind) pair.
#[derive(Debug, Clone)]
pub struct FreqResult {
    /// Model abbreviation.
    pub model: String,
    /// `inference` / `train`.
    pub run: String,
    /// Total kernel launches.
    pub total: u64,
    /// Distinct kernel symbols.
    pub unique: usize,
    /// Top kernels with counts, descending.
    pub top: Vec<(String, u64)>,
}

/// Runs the Figure 7 experiment.
///
/// # Errors
///
/// Propagates session failures.
pub fn run(scale: ExpScale) -> Result<Vec<FreqResult>, PastaError> {
    let mut out = Vec::new();
    for model in ModelZoo::all() {
        for (kind, steps) in [
            (RunKind::Inference, scale.inference_steps),
            (RunKind::Training, scale.training_steps),
        ] {
            let mut session = Pasta::builder()
                .a100()
                .tool(KernelFrequencyTool::new())
                .build()?;
            session.run(
                &mut ModelWorkload::new(model, kind)
                    .steps(steps)
                    .batch_divisor(scale.batch_divisor),
            )?;
            let (total, unique, top) = session
                .with_tool_mut("kernel-frequency", |t: &mut KernelFrequencyTool| {
                    let top = t
                        .top(8)
                        .into_iter()
                        .map(|(k, c)| (k.to_string(), c))
                        .collect();
                    (t.total(), t.unique(), top)
                })
                .expect("tool registered");
            out.push(FreqResult {
                model: model.spec().abbr.to_owned(),
                run: kind.label().to_owned(),
                total,
                unique,
                top,
            });
        }
    }
    Ok(out)
}

/// Renders the Fig. 7 rows (bubble sizes = counts in the paper; here the
/// counts themselves, per model × run).
pub fn render(results: &[FreqResult]) -> String {
    let mut s =
        String::from("Figure 7: kernel invocation frequency (per model, inference+training)\n");
    for r in results {
        s.push_str(&format!(
            "\n{} [{}] — {} launches, {} unique kernels\n",
            r.model, r.run, r.total, r.unique
        ));
        for (kernel, count) in &r.top {
            s.push_str(&format!("    {count:>8}x {kernel}\n"));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shows_skewed_distribution() {
        let results = run(ExpScale::quick()).unwrap();
        assert_eq!(results.len(), 12, "6 models x 2 run kinds");
        for r in &results {
            assert!(r.total > 0, "{} {} launched nothing", r.model, r.run);
            assert!(r.unique >= 3);
            // The paper's observation: few kernels dominate.
            let top_share = r.top[0].1 as f64 / r.total as f64;
            assert!(
                top_share > 0.10,
                "{} {}: hottest kernel only {top_share}",
                r.model,
                r.run
            );
        }
        // Training launches more kernels than inference per step; with our
        // scales, AlexNet training total is comparable to inference — just
        // assert both kinds exist for every model.
        let rendered = render(&results);
        assert!(rendered.contains("AN [inference]"));
        assert!(rendered.contains("GPT-2 [train]"));
    }
}
