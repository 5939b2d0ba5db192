//! Figures 11 and 12: object-level vs tensor-level UVM prefetching,
//! without (Fig. 11) and with 3× (Fig. 12) memory oversubscription.
//!
//! Methodology follows §V-A: the device's usable memory is limited to
//! `footprint / oversubscription` by measuring the footprint first, and
//! execution times are normalized to the no-prefetch baseline.

use crate::scale::ExpScale;
use accel_sim::DeviceSpec;
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::{ModelWorkload, Pasta, PastaError, UvmSetup};
use pasta_tools::UvmPrefetchAdvisor;
use uvm_sim::PrefetchGranularity;

/// One model × device × oversubscription measurement.
#[derive(Debug, Clone)]
pub struct PrefetchResult {
    /// Model abbreviation.
    pub model: String,
    /// Device name.
    pub device: String,
    /// Oversubscription factor (1 = none).
    pub oversubscription: f64,
    /// Baseline (no prefetch) execution, ns.
    pub baseline_ns: u64,
    /// Object-level prefetch execution, ns.
    pub object_ns: u64,
    /// Tensor-level prefetch execution, ns.
    pub tensor_ns: u64,
}

impl PrefetchResult {
    /// Object-level time normalized to the baseline.
    pub fn object_norm(&self) -> f64 {
        self.object_ns as f64 / self.baseline_ns.max(1) as f64
    }

    /// Tensor-level time normalized to the baseline.
    pub fn tensor_norm(&self) -> f64 {
        self.tensor_ns as f64 / self.baseline_ns.max(1) as f64
    }
}

fn uvm_session(spec: DeviceSpec, budget: u64) -> Result<pasta_core::PastaSession, PastaError> {
    Pasta::builder()
        .devices(vec![spec])
        .tool(UvmPrefetchAdvisor::new())
        .uvm(UvmSetup {
            budget_bytes: Some(budget),
            ..UvmSetup::default()
        })
        .build()
}

/// Measures one (model, device, oversubscription) cell.
///
/// # Errors
///
/// Propagates session failures.
pub fn measure(
    model: ModelZoo,
    device_name: &str,
    spec: DeviceSpec,
    oversubscription: f64,
    scale: ExpScale,
) -> Result<PrefetchResult, PastaError> {
    let steps = scale.inference_steps.min(3);
    let run = |budget: u64,
               plan: Option<uvm_sim::PrefetchPlan>|
     -> Result<(u64, UvmPrefetchAdvisor, u64), PastaError> {
        let mut session = uvm_session(spec.clone(), budget)?;
        if let Some(p) = plan {
            session.set_prefetch_plan(p);
        }
        let r = session.run(
            &mut ModelWorkload::new(model, RunKind::Inference)
                .steps(steps)
                .batch_divisor(scale.batch_divisor),
        )?;
        let advisor = session
            .with_tool_mut("uvm-prefetch-advisor", |t: &mut UvmPrefetchAdvisor| {
                std::mem::take(t)
            })
            .expect("advisor registered");
        Ok((r.profiled_time.as_nanos(), advisor, r.peak_reserved))
    };

    // Footprint measurement (plenty of memory), then budget per §V-A.
    let (_, _, footprint) = run(spec.mem_capacity, None)?;
    let budget = ((footprint as f64 / oversubscription) as u64).max(8 << 20);

    let (baseline_ns, advisor, _) = run(budget, None)?;
    let (object_ns, _, _) = run(
        budget,
        Some(advisor.build_plan(PrefetchGranularity::Object)),
    )?;
    let (tensor_ns, _, _) = run(
        budget,
        Some(advisor.build_plan(PrefetchGranularity::Tensor)),
    )?;
    Ok(PrefetchResult {
        model: model.spec().abbr.to_owned(),
        device: device_name.to_owned(),
        oversubscription,
        baseline_ns,
        object_ns,
        tensor_ns,
    })
}

/// Runs one full figure (all models × both devices) at the given
/// oversubscription factor: 1.0 regenerates Fig. 11, 3.0 Fig. 12.
///
/// # Errors
///
/// Propagates session failures.
pub fn run(oversubscription: f64, scale: ExpScale) -> Result<Vec<PrefetchResult>, PastaError> {
    let mut out = Vec::new();
    for model in ModelZoo::all() {
        for (name, spec) in [
            ("3060", DeviceSpec::rtx_3060()),
            ("A100", DeviceSpec::a100_80gb()),
        ] {
            out.push(measure(model, name, spec, oversubscription, scale)?);
        }
    }
    Ok(out)
}

/// Renders a figure's rows plus the cross-model average.
pub fn render(figure: &str, results: &[PrefetchResult]) -> String {
    let mut s = format!(
        "{figure}: execution time normalized to no-prefetch \
         (oversubscription {:.0}x)\n\
         model     device  object-level  tensor-level\n",
        results.first().map_or(0.0, |r| r.oversubscription)
    );
    for r in results {
        s.push_str(&format!(
            "{:<9} {:<7} {:>12.2}  {:>12.2}\n",
            r.model,
            r.device,
            r.object_norm(),
            r.tensor_norm()
        ));
    }
    for device in ["3060", "A100"] {
        let of: Vec<f64> = results
            .iter()
            .filter(|r| r.device == device)
            .map(PrefetchResult::object_norm)
            .collect();
        let tf: Vec<f64> = results
            .iter()
            .filter(|r| r.device == device)
            .map(PrefetchResult::tensor_norm)
            .collect();
        if !of.is_empty() {
            s.push_str(&format!(
                "Avg. {device:<7}: object {:.2}  tensor {:.2}\n",
                of.iter().sum::<f64>() / of.len() as f64,
                tf.iter().sum::<f64>() / tf.len() as f64
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_cell_reproduces_both_regimes() {
        // One full-ish batch keeps the cold-fault-vs-thrash balance the
        // figure sweep sees; quick-scale's tiny batch plus two steps damps
        // the oversubscription effect.
        let scale = ExpScale {
            batch_divisor: 4,
            inference_steps: 1,
            training_steps: 1,
        };
        let no_over = measure(
            ModelZoo::ResNet18,
            "3060",
            DeviceSpec::rtx_3060(),
            1.0,
            scale,
        )
        .unwrap();
        assert!(
            no_over.object_norm() < 1.0 && no_over.tensor_norm() < 1.0,
            "both prefetchers win without oversubscription: {} / {}",
            no_over.object_norm(),
            no_over.tensor_norm()
        );
        let over3 = measure(
            ModelZoo::ResNet18,
            "3060",
            DeviceSpec::rtx_3060(),
            3.0,
            scale,
        )
        .unwrap();
        assert!(
            over3.object_norm() > 1.2,
            "object-level thrashes at 3x: {}",
            over3.object_norm()
        );
        assert!(
            over3.tensor_norm() < over3.object_norm(),
            "tensor-level beats object-level at 3x"
        );
    }
}
