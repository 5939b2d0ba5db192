//! Settings ablations: what the profiling settings cost in simulated
//! time — the GPU-resident Compute Sanitizer's analysis-thread width, the
//! CPU-analysis trace buffer, record sampling
//! (`ACCEL_PROF_ENV_SAMPLE_RATE`), and UVM prefetching under 1×–4×
//! oversubscription (Figs. 11–12 generalized).

use crate::fig11_12;
use crate::scale::ExpScale;
use accel_sim::DeviceSpec;
use dl_framework::models::{ModelZoo, RunKind};
use pasta_core::{BackendChoice, ModelWorkload, Pasta, PastaBuilder, PastaError};
use pasta_tools::MemoryCharacteristicsTool;
use vendor_nv::sanitizer::SanitizerConfig;

/// BERT inference under the memory-characteristics tool on an A100, with
/// `setting` applied to the builder: `(records, simulated overhead ns)`.
fn bert(
    scale: ExpScale,
    setting: impl FnOnce(PastaBuilder) -> PastaBuilder,
) -> Result<(u64, u64), PastaError> {
    let builder = Pasta::builder()
        .a100()
        .tool(MemoryCharacteristicsTool::new());
    let report = setting(builder).build()?.run(
        &mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
            .steps(scale.inference_steps)
            .batch_divisor(scale.batch_divisor),
    )?;
    Ok((report.records, report.overhead.total_ns()))
}

/// Runs the four sweeps and renders one table each.
///
/// # Errors
///
/// Propagates session failures.
pub(crate) fn run(scale: ExpScale) -> Result<String, PastaError> {
    let mut s = String::from(
        "Ablations: BERT inference, memory characteristics, A100\n\
         GPU analysis threads   overhead ns\n",
    );
    for threads in [32, 256, 1_024, 4_096, 16_384] {
        let config = SanitizerConfig::gpu_resident().with_analysis_threads(threads);
        let (_, ns) = bert(scale, |b| b.backend(BackendChoice::Sanitizer(config)))?;
        s.push_str(&format!("{threads:>20}  {ns:>12}\n"));
    }
    s.push_str("CPU trace-buffer bytes   overhead ns\n");
    for bytes in [256 << 10, 1 << 20, 4 << 20, 16 << 20] {
        let config = SanitizerConfig::cpu_post_process().with_buffer_bytes(bytes);
        let (_, ns) = bert(scale, |b| b.backend(BackendChoice::Sanitizer(config)))?;
        s.push_str(&format!("{bytes:>22}  {ns:>12}\n"));
    }
    s.push_str("sampling rate     records   overhead ns\n");
    for rate in [1, 10, 100, 1_000] {
        let (records, ns) = bert(scale, |b| b.sampling(rate))?;
        s.push_str(&format!("{rate:>13}  {records:>10}  {ns:>12}\n"));
    }
    s.push_str(
        "Ablations: ResNet-18, RTX 3060, time normalized to no-prefetch\n\
         oversubscription  object-level  tensor-level\n",
    );
    for factor in [1.0, 2.0, 3.0, 4.0] {
        let r = fig11_12::measure(
            ModelZoo::ResNet18,
            "3060",
            DeviceSpec::rtx_3060(),
            factor,
            scale,
        )?;
        s.push_str(&format!(
            "{factor:>15.0}x  {:>12.2}  {:>12.2}\n",
            r.object_norm(),
            r.tensor_norm()
        ));
    }
    Ok(s)
}
