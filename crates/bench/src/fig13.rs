//! Figure 13: memory access hotness of BERT inference over time, in
//! 2 MiB virtual blocks.

use crate::scale::ExpScale;
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::{ModelWorkload, Pasta, PastaError};
use pasta_tools::HotnessTool;
use uvm_sim::HotnessSeries;

/// The Fig. 13 data: the series plus derived classifications.
#[derive(Debug, Clone)]
pub struct HotnessResult {
    /// Dense (block × time-bin) matrix.
    pub series: HotnessSeries,
    /// Blocks hot throughout execution (pin/prefetch candidates — the
    /// blue-line bands of Fig. 13).
    pub persistent: Vec<u64>,
    /// Blocks with short bursts (eviction candidates — the red boxes).
    pub bursty: Vec<u64>,
}

/// Runs the Fig. 13 experiment (BERT inference).
///
/// # Errors
///
/// Propagates session failures.
pub fn run(scale: ExpScale) -> Result<HotnessResult, PastaError> {
    let mut session = Pasta::builder().a100().tool(HotnessTool::new(32)).build()?;
    session.run(
        &mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
            .steps(scale.inference_steps.min(3))
            .batch_divisor(scale.batch_divisor),
    )?;
    let series = session
        .with_tool_mut("hotness", |t: &mut HotnessTool| t.series())
        .expect("tool registered");
    let persistent = series.persistent_blocks(0.75);
    let bursty: Vec<u64> = (0..series.blocks.len())
        .filter(|&row| {
            let liveness = series.block_liveness(row);
            liveness > 0.0 && liveness < 0.25
        })
        .map(|row| series.blocks[row])
        .collect();
    Ok(HotnessResult {
        series,
        persistent,
        bursty,
    })
}

/// Renders an ASCII heat-map sketch of the hotness matrix.
pub fn render(result: &HotnessResult) -> String {
    let s = &result.series;
    let mut out = format!(
        "Figure 13: BERT inference hotness — {} blocks x {} time bins\n\
         {} persistent (pin candidates), {} bursty (eviction candidates)\n\n",
        s.blocks.len(),
        s.bins(),
        result.persistent.len(),
        result.bursty.len()
    );
    // Most-accessed blocks first: the persistent parameter bands and the
    // bursty transient boxes are what Fig. 13 highlights.
    let mut rows: Vec<usize> = (0..s.blocks.len()).collect();
    rows.sort_by_key(|&r| std::cmp::Reverse(s.block_total(r)));
    for &row in rows.iter().take(40) {
        let block = s.blocks[row];
        let tag = if result.persistent.contains(&block) {
            "P"
        } else if result.bursty.contains(&block) {
            "B"
        } else {
            " "
        };
        // Row-normalized shading so both faint persistent bands and sharp
        // bursts stay visible.
        let row_max = s.grid[row].iter().copied().max().unwrap_or(1).max(1);
        let cells: String = s.grid[row]
            .iter()
            .map(|&c| {
                let level = (c as f64 / row_max as f64 * 4.0).round() as usize;
                [' ', '.', ':', '*', '#'][level.min(4)]
            })
            .collect();
        out.push_str(&format!("  {tag} block {block:>8} |{cells}|\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_shows_persistent_and_bursty_blocks() {
        let r = run(ExpScale::quick()).unwrap();
        assert!(r.series.blocks.len() > 10);
        assert!(r.series.bins() > 2);
        assert!(
            !r.persistent.is_empty(),
            "parameters stay hot through execution"
        );
        assert!(!r.bursty.is_empty(), "transient activations burst and die");
        let rendered = render(&r);
        assert!(rendered.contains("persistent"));
        assert!(rendered.contains('|'));
    }
}
