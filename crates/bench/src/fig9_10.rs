//! Figures 9 and 10: analysis-model overhead and its breakdown.
//!
//! Three variants of the memory-characteristics tool (paper §V-B3):
//!
//! * **CS-GPU** — Compute Sanitizer collection with PASTA's GPU-resident
//!   fused collect-and-analyze;
//! * **CS-CPU** — Compute Sanitizer collection, conventional single-thread
//!   CPU analysis (the MemoryTracker sample tool's model);
//! * **NVBIT-CPU** — NVBit collection (SASS dump+parse, heavier records),
//!   CPU analysis (the MemTrace tool's model);
//!
//! run on simulated A100 and RTX 3060, reported as overhead relative to
//! the uninstrumented execution time (Fig. 9) and as the
//! execution/collection/transfer/analysis breakdown (Fig. 10). Runs whose
//! simulated profiling time exceeds 7 days report `∞`, as in the paper.

use crate::scale::ExpScale;
use accel_sim::{DeviceSpec, OverheadBreakdown};
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::{BackendChoice, ModelWorkload, Pasta, PastaError};
use pasta_tools::MemoryCharacteristicsTool;
use vendor_nv::sanitizer::SanitizerConfig;

/// Seven simulated days — the paper's did-not-finish cutoff.
pub(crate) const CUTOFF_NS: u64 = 7 * 24 * 3600 * 1_000_000_000;

/// The three analysis variants of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Variant {
    /// GPU-resident Compute Sanitizer (PASTA's design).
    CsGpu,
    /// CPU-analysis Compute Sanitizer (conventional).
    CsCpu,
    /// CPU-analysis NVBit (conventional).
    NvbitCpu,
}

impl Variant {
    /// All variants in paper order.
    pub fn all() -> [Variant; 3] {
        [Variant::CsGpu, Variant::CsCpu, Variant::NvbitCpu]
    }

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::CsGpu => "CS-GPU",
            Variant::CsCpu => "CS-CPU",
            Variant::NvbitCpu => "NVBIT-CPU",
        }
    }

    fn backend(self) -> BackendChoice {
        match self {
            Variant::CsGpu => BackendChoice::Sanitizer(SanitizerConfig::gpu_resident()),
            Variant::CsCpu => BackendChoice::Sanitizer(SanitizerConfig::cpu_post_process()),
            Variant::NvbitCpu => BackendChoice::Nvbit,
        }
    }
}

/// One measurement: model × device × variant.
#[derive(Debug, Clone)]
pub(crate) struct OverheadResult {
    /// Model abbreviation.
    pub model: String,
    /// Device name.
    pub device: &'static str,
    /// Variant label.
    pub variant: &'static str,
    /// Uninstrumented execution time, ns.
    pub execution_ns: u64,
    /// Overhead factor (`profiled / execution`); `None` = exceeded the
    /// 7-day cutoff (the paper's ∞).
    pub overhead: Option<f64>,
    /// Fig. 10 breakdown.
    pub breakdown: OverheadBreakdown,
}

impl OverheadResult {
    /// Fig. 10 fractions `(execution, collection, transfer, analysis)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        self.breakdown.fractions(self.execution_ns)
    }
}

fn device_pair() -> [(&'static str, DeviceSpec); 2] {
    [
        ("A100", DeviceSpec::a100_80gb()),
        ("3060", DeviceSpec::rtx_3060()),
    ]
}

/// Measures one model on one device under one variant.
///
/// # Errors
///
/// Propagates session failures.
pub(crate) fn measure(
    model: ModelZoo,
    device: &'static str,
    spec: DeviceSpec,
    variant: Variant,
    scale: ExpScale,
) -> Result<OverheadResult, PastaError> {
    // Uninstrumented reference run.
    let mut baseline = Pasta::builder()
        .devices(vec![spec.clone()])
        .backend(BackendChoice::HostOnly)
        .build()?;
    let base_report = baseline.run(
        &mut ModelWorkload::new(model, RunKind::Inference)
            .steps(scale.inference_steps)
            .batch_divisor(scale.batch_divisor),
    )?;
    let execution_ns = base_report.profiled_time.as_nanos();

    // Instrumented run.
    let mut session = Pasta::builder()
        .devices(vec![spec])
        .tool(MemoryCharacteristicsTool::new())
        .backend(variant.backend())
        .build()?;
    let report = session.run(
        &mut ModelWorkload::new(model, RunKind::Inference)
            .steps(scale.inference_steps)
            .batch_divisor(scale.batch_divisor),
    )?;
    let profiled_ns = report.profiled_time.as_nanos();
    let overhead = if profiled_ns > CUTOFF_NS {
        None
    } else {
        Some(profiled_ns as f64 / execution_ns.max(1) as f64)
    };
    Ok(OverheadResult {
        model: model.spec().abbr.to_owned(),
        device,
        variant: variant.label(),
        execution_ns,
        overhead,
        breakdown: report.overhead,
    })
}

/// Runs the full Fig. 9/10 grid.
///
/// # Errors
///
/// Propagates session failures.
pub(crate) fn run(scale: ExpScale) -> Result<Vec<OverheadResult>, PastaError> {
    let mut out = Vec::new();
    for model in ModelZoo::all() {
        for (device, spec) in device_pair() {
            for variant in Variant::all() {
                out.push(measure(model, device, spec.clone(), variant, scale)?);
            }
        }
    }
    Ok(out)
}

/// Geometric mean of the overhead factors for `(device, variant)` pairs
/// (skipping ∞ entries), as the paper's "Geo." column.
pub(crate) fn geomean(results: &[OverheadResult], device: &str, variant: &str) -> Option<f64> {
    let factors: Vec<f64> = results
        .iter()
        .filter(|r| r.device == device && r.variant == variant)
        .filter_map(|r| r.overhead)
        .collect();
    if factors.is_empty() {
        return None;
    }
    Some((factors.iter().map(|f| f.ln()).sum::<f64>() / factors.len() as f64).exp())
}

/// Renders the Fig. 9 rows.
pub(crate) fn render_fig9(results: &[OverheadResult]) -> String {
    let mut s = String::from(
        "Figure 9: overhead vs model execution time (x; ∞ = > 7 simulated days)\n\
         model     device  CS-GPU        CS-CPU        NVBIT-CPU\n",
    );
    let fmt = |o: Option<f64>| match o {
        Some(f) => format!("{f:>10.1}x"),
        None => "         ∞".to_owned(),
    };
    let mut models: Vec<&str> = results.iter().map(|r| r.model.as_str()).collect();
    models.dedup();
    for model in models {
        for device in ["A100", "3060"] {
            let get = |v: &str| {
                results
                    .iter()
                    .find(|r| r.model == model && r.device == device && r.variant == v)
                    .and_then(|r| r.overhead)
            };
            s.push_str(&format!(
                "{model:<9} {device:<7} {} {} {}\n",
                fmt(get("CS-GPU")),
                fmt(get("CS-CPU")),
                fmt(get("NVBIT-CPU")),
            ));
        }
    }
    for device in ["A100", "3060"] {
        let g = |v| geomean(results, device, v).unwrap_or(f64::NAN);
        let (gpu, cpu, nvbit) = (g("CS-GPU"), g("CS-CPU"), g("NVBIT-CPU"));
        s.push_str(&format!(
            "Geo. {device:<7}: CS-GPU {gpu:.1}x  CS-CPU {cpu:.1}x  NVBIT-CPU {nvbit:.1}x  \
             → CS-CPU/CS-GPU {:.0}x, NVBIT-CPU/CS-GPU {:.0}x\n",
            cpu / gpu,
            nvbit / gpu
        ));
    }
    s
}

/// Renders the Fig. 10 breakdown rows.
pub(crate) fn render_fig10(results: &[OverheadResult]) -> String {
    let mut s = String::from(
        "Figure 10: profiling-time breakdown (fractions of total)\n\
         model     device  variant     execution  collection  transfer  analysis\n",
    );
    for r in results {
        let (e, c, t, a) = r.fractions();
        s.push_str(&format!(
            "{:<9} {:<7} {:<11} {e:>9.3}  {c:>10.3}  {t:>8.3}  {a:>8.3}\n",
            r.model, r.device, r.variant
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_ordering_matches_paper() {
        // One model, quick scale: the overhead ordering and breakdown
        // shapes of Figs. 9–10 hold.
        let scale = ExpScale::quick();
        let spec = DeviceSpec::a100_80gb();
        let gpu = measure(ModelZoo::Bert, "A100", spec.clone(), Variant::CsGpu, scale).unwrap();
        let cpu = measure(ModelZoo::Bert, "A100", spec.clone(), Variant::CsCpu, scale).unwrap();
        let nvbit = measure(ModelZoo::Bert, "A100", spec, Variant::NvbitCpu, scale).unwrap();

        let g = gpu.overhead.expect("CS-GPU finishes");
        assert!(g > 1.0, "instrumentation costs something: {g}");
        let c = cpu.overhead.expect("CS-CPU finishes at quick scale");
        assert!(
            c / g > 100.0,
            "CS-CPU/CS-GPU gap should be orders of magnitude: {c} / {g}"
        );
        if let Some(n) = nvbit.overhead {
            assert!(n > c * 5.0, "NVBit costs well above CS-CPU: {n} vs {c}");
        }

        // Fig. 10 shapes: CPU variants dominated by analysis; the GPU
        // variant is not.
        let (_, _, _, a_cpu) = cpu.fractions();
        assert!(a_cpu > 0.5, "CPU-analysis fraction {a_cpu}");
        let (_, _, _, a_gpu) = gpu.fractions();
        assert!(a_gpu < 0.1, "GPU-resident has no CPU analysis: {a_gpu}");
    }
}
