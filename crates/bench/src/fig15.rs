//! Figure 15: per-GPU memory usage in one Megatron GPT-2 345M training
//! iteration under data, tensor and pipeline parallelism on two A100s.

use crate::scale::ExpScale;
use accel_sim::DeviceId;
use dl_framework::parallel::{self, Parallelism};
use pasta_core::{Pasta, PastaError};
use pasta_tools::MemoryTimelineTool;

/// One strategy's per-GPU curves.
#[derive(Debug, Clone)]
pub(crate) struct StrategyCurves {
    /// Strategy label.
    pub strategy: String,
    /// Per-GPU peaks, bytes.
    pub peaks: [u64; 2],
    /// Per-GPU tensor event counts.
    pub events: [usize; 2],
}

impl StrategyCurves {
    /// GPU1/GPU0 peak ratio (1.0 = symmetric).
    pub(crate) fn asymmetry(&self) -> f64 {
        self.peaks[1] as f64 / self.peaks[0].max(1) as f64
    }
}

/// Runs one strategy.
///
/// # Errors
///
/// Propagates session failures.
pub(crate) fn measure(
    strategy: Parallelism,
    scale: ExpScale,
) -> Result<StrategyCurves, PastaError> {
    let batch = (4 / scale.batch_divisor.min(4)).max(1);
    let mut session = Pasta::builder()
        .a100_x2()
        .tool(MemoryTimelineTool::new())
        .build()?;
    // Each device runs on its own lane thread; tensor events from the two
    // GPUs land in their own hub shards and merge deterministically below.
    session.run_parallel(&[DeviceId(0), DeviceId(1)], |lanes| {
        parallel::train_iter(lanes, strategy, batch).map(|_| ())
    })?;
    let (p0, p1, e0, e1) = session
        .with_merged_tool("memory-timeline", |t: &MemoryTimelineTool| {
            (
                t.peak_for(DeviceId(0)),
                t.peak_for(DeviceId(1)),
                t.events_for(DeviceId(0)),
                t.events_for(DeviceId(1)),
            )
        })
        .expect("tool registered");
    Ok(StrategyCurves {
        strategy: strategy.label().to_owned(),
        peaks: [p0, p1],
        events: [e0, e1],
    })
}

/// Runs all three strategies.
///
/// # Errors
///
/// Propagates session failures.
pub(crate) fn run(scale: ExpScale) -> Result<Vec<StrategyCurves>, PastaError> {
    [
        Parallelism::Data,
        Parallelism::Tensor,
        Parallelism::Pipeline,
    ]
    .into_iter()
    .map(|s| measure(s, scale))
    .collect()
}

/// Renders the Fig. 15 summary.
pub(crate) fn render(results: &[StrategyCurves]) -> String {
    let mut s = String::from("Figure 15: Megatron GPT-2 345M per-GPU memory, one train iter\n");
    for r in results {
        s.push_str(&format!(
            "  {:<18} GPU0 peak {:>5} MB ({:>6} events) | GPU1 peak {:>5} MB ({:>6} events) | GPU1/GPU0 {:.2}\n",
            r.strategy,
            r.peaks[0] >> 20,
            r.events[0],
            r.peaks[1] >> 20,
            r.events[1],
            r.asymmetry()
        ));
    }
    if let (Some(dp), Some(tp)) = (
        results.iter().find(|r| r.strategy.starts_with("data")),
        results.iter().find(|r| r.strategy.starts_with("tensor")),
    ) {
        s.push_str(&format!(
            "  TP/DP peak ratio {:.2} (paper: about half — model sharding)\n",
            tp.peaks[0] as f64 / dp.peaks[0].max(1) as f64
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_signatures_match_paper() {
        let results = run(ExpScale::quick()).unwrap();
        assert_eq!(results.len(), 3);
        let dp = &results[0];
        let tp = &results[1];
        let pp = &results[2];
        // DP and TP: identical usage across the two GPUs.
        assert!((0.98..1.02).contains(&dp.asymmetry()), "DP {:?}", dp.peaks);
        assert!((0.98..1.02).contains(&tp.asymmetry()), "TP {:?}", tp.peaks);
        // TP peak about half of DP's.
        let ratio = tp.peaks[0] as f64 / dp.peaks[0] as f64;
        assert!((0.35..0.75).contains(&ratio), "TP/DP {ratio}");
        // PP: GPU1 runs the logits head — asymmetric tail.
        assert!(pp.asymmetry() > 1.05, "PP {:?}", pp.peaks);
        let rendered = render(&results);
        assert!(rendered.contains("pipeline-parallel"));
    }
}
