//! Figure 14: memory usage over logical time for one GPT-2 training
//! iteration on NVIDIA (A100) vs AMD (MI300X) under identical
//! configurations.

use crate::scale::ExpScale;
use accel_sim::DeviceId;
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::{ModelWorkload, Pasta, PastaError};
use pasta_tools::{MemoryTimelineTool, TimelinePoint};

/// One backend's curve.
#[derive(Debug, Clone)]
pub(crate) struct BackendCurve {
    /// `NVIDIA` / `AMD`.
    pub backend: String,
    /// The memory curve (logical event index → live bytes).
    pub series: Vec<TimelinePoint>,
    /// Peak live bytes.
    pub peak: u64,
    /// Total alloc/free events (the paper: AMD issues more).
    pub events: usize,
}

/// The Fig. 14 result pair.
#[derive(Debug, Clone)]
pub(crate) struct Fig14Result {
    /// NVIDIA curve.
    pub nvidia: BackendCurve,
    /// AMD curve.
    pub amd: BackendCurve,
}

fn run_backend(amd: bool, scale: ExpScale) -> Result<BackendCurve, PastaError> {
    let builder = if amd {
        Pasta::builder().mi300x()
    } else {
        Pasta::builder().a100()
    };
    let mut session = builder.tool(MemoryTimelineTool::new()).build()?;
    // Fig. 14 is defined over exactly one training iteration.
    let _ = scale.training_steps;
    session.run(
        &mut ModelWorkload::new(ModelZoo::Gpt2, RunKind::Training)
            .batch_divisor(scale.batch_divisor),
    )?;
    let (series, peak, events) = session
        .with_tool_mut("memory-timeline", |t: &mut MemoryTimelineTool| {
            (
                t.series_for(DeviceId(0)).to_vec(),
                t.peak_for(DeviceId(0)),
                t.events_for(DeviceId(0)),
            )
        })
        .expect("tool registered");
    Ok(BackendCurve {
        backend: if amd { "AMD" } else { "NVIDIA" }.to_owned(),
        series,
        peak,
        events,
    })
}

/// Runs the Fig. 14 experiment.
///
/// # Errors
///
/// Propagates session failures.
pub(crate) fn run(scale: ExpScale) -> Result<Fig14Result, PastaError> {
    Ok(Fig14Result {
        nvidia: run_backend(false, scale)?,
        amd: run_backend(true, scale)?,
    })
}

/// Renders the Fig. 14 comparison.
pub(crate) fn render(r: &Fig14Result) -> String {
    let mut s = String::from("Figure 14: GPT-2 training memory, NVIDIA vs AMD\n");
    for c in [&r.nvidia, &r.amd] {
        s.push_str(&format!(
            "  {:<6}: peak {:>6} MB over {:>6} tensor events\n",
            c.backend,
            c.peak >> 20,
            c.events
        ));
    }
    s.push_str(&format!(
        "  NVIDIA/AMD peak ratio {:.3} (paper: NVIDIA slightly higher)\n\
         \u{0020} AMD/NVIDIA event ratio {:.3} (paper: AMD issues more)\n",
        r.nvidia.peak as f64 / r.amd.peak.max(1) as f64,
        r.amd.events as f64 / r.nvidia.events.max(1) as f64
    ));
    // Sample the curve into a 60-column sparkline per backend.
    for c in [&r.nvidia, &r.amd] {
        let n = c.series.len().max(1);
        let cols = 60.min(n);
        let mut line = String::new();
        for i in 0..cols {
            let idx = i * n / cols;
            let v = c.series[idx].allocated;
            let level = (v as f64 / c.peak.max(1) as f64 * 7.0).round() as usize;
            line.push(
                [
                    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}',
                    '\u{2587}', '\u{2588}',
                ][level.min(7)],
            );
        }
        s.push_str(&format!("  {:<6} {line}\n", c.backend));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_contrast_matches_paper() {
        let r = run(ExpScale::quick()).unwrap();
        // Same three-phase pattern on both (PyTorch's caching allocator).
        for c in [&r.nvidia, &r.amd] {
            assert!(c.events > 200, "{}: {}", c.backend, c.events);
            let peak_idx = c
                .series
                .iter()
                .enumerate()
                .max_by_key(|(_, p)| p.allocated)
                .map(|(i, _)| i)
                .unwrap();
            assert!(peak_idx > c.series.len() / 10, "{} ramps up", c.backend);
            assert!(
                peak_idx < c.series.len() * 9 / 10,
                "{} ramps down",
                c.backend
            );
        }
        // Backend-specific differences (§V-D1).
        assert!(
            r.amd.events > r.nvidia.events,
            "AMD {} vs NVIDIA {}",
            r.amd.events,
            r.nvidia.events
        );
        assert!(
            r.nvidia.peak >= r.amd.peak,
            "NVIDIA peak {} vs AMD {}",
            r.nvidia.peak,
            r.amd.peak
        );
        let rendered = render(&r);
        assert!(rendered.contains("NVIDIA"));
        assert!(rendered.contains("AMD"));
    }
}
