//! Table V: memory characteristics of the six DNN models.

use crate::scale::ExpScale;
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::{ModelWorkload, Pasta, PastaError};
use pasta_tools::memchar::{MemoryCharacteristics, MemoryCharacteristicsTool};
use pasta_tools::util::format_bytes;

/// One Table V row.
#[derive(Debug, Clone)]
pub struct TableVRow {
    /// Model abbreviation.
    pub model: String,
    /// `inference` / `train`.
    pub run: String,
    /// Kernel count.
    pub kernels: u64,
    /// Memory footprint, bytes.
    pub footprint: u64,
    /// Working set (max per-kernel), bytes.
    pub working_set: u64,
    /// Minimum per-kernel working set, bytes.
    pub min_ws: u64,
    /// Mean per-kernel working set, bytes.
    pub avg_ws: u64,
    /// Median per-kernel working set, bytes.
    pub median_ws: u64,
    /// 90th-percentile per-kernel working set, bytes.
    pub p90_ws: u64,
}

impl From<(String, String, MemoryCharacteristics)> for TableVRow {
    fn from((model, run, c): (String, String, MemoryCharacteristics)) -> Self {
        TableVRow {
            model,
            run,
            kernels: c.kernel_count,
            footprint: c.footprint,
            working_set: c.working_set,
            min_ws: c.min_ws,
            avg_ws: c.avg_ws,
            median_ws: c.median_ws,
            p90_ws: c.p90_ws,
        }
    }
}

/// Runs the Table V experiment.
///
/// # Errors
///
/// Propagates session failures.
pub fn run(scale: ExpScale) -> Result<Vec<TableVRow>, PastaError> {
    let mut rows = Vec::new();
    for kind in [RunKind::Inference, RunKind::Training] {
        for model in ModelZoo::all() {
            let steps = match kind {
                RunKind::Inference => scale.inference_steps.min(2),
                RunKind::Training => 1,
            };
            let mut session = Pasta::builder()
                .a100()
                .tool(MemoryCharacteristicsTool::new())
                .build()?;
            session.run(
                &mut ModelWorkload::new(model, kind)
                    .steps(steps)
                    .batch_divisor(scale.batch_divisor),
            )?;
            let c = session
                .with_tool_mut(
                    "memory-characteristics",
                    |t: &mut MemoryCharacteristicsTool| t.characteristics(),
                )
                .expect("tool registered");
            rows.push(TableVRow::from((
                model.spec().abbr.to_owned(),
                kind.label().to_owned(),
                c,
            )));
        }
    }
    Ok(rows)
}

/// Renders Table V in the paper's column layout.
pub fn render(rows: &[TableVRow]) -> String {
    let mut s = String::from(
        "Table V: memory characteristics (sizes adaptive units)\n\
         model     run        kernels  footprint    WS(max)     min WS      avg WS     med WS      p90 WS\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<9} {:<9} {:>8}  {:>10}  {:>10} {:>10} {:>10} {:>10}  {:>10}\n",
            r.model,
            r.run,
            r.kernels,
            format_bytes(r.footprint),
            format_bytes(r.working_set),
            format_bytes(r.min_ws),
            format_bytes(r.avg_ws),
            format_bytes(r.median_ws),
            format_bytes(r.p90_ws),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table_has_paper_shape() {
        let rows = run(ExpScale::quick()).unwrap();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.kernels > 0, "{} {}", r.model, r.run);
            assert!(
                r.footprint > r.working_set,
                "{} {}: footprint {} vs WS {} — working sets are much \
                 smaller than footprints (the paper's headline finding)",
                r.model,
                r.run,
                r.footprint,
                r.working_set
            );
            assert!(r.min_ws <= r.median_ws);
            assert!(r.median_ws <= r.p90_ws);
            assert!(r.p90_ws <= r.working_set);
        }
        // Training footprints exceed inference footprints (grads+moments).
        for model in ["AN", "RN-18", "GPT-2"] {
            let inf = rows
                .iter()
                .find(|r| r.model == model && r.run == "inference")
                .unwrap();
            let tr = rows
                .iter()
                .find(|r| r.model == model && r.run == "train")
                .unwrap();
            assert!(
                tr.footprint > inf.footprint,
                "{model}: train {} vs inference {}",
                tr.footprint,
                inf.footprint
            );
        }
    }
}
