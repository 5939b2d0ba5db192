//! Workload runners: build a model, execute N batches/iterations, report.

use crate::models::{ModelZoo, RunKind};
use crate::session::Session;
use accel_sim::{AccelError, SimTime};

/// Summary of one model run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// Paper abbreviation.
    pub abbr: String,
    /// Inference or training.
    pub run: RunKind,
    /// Batches (inference) or iterations (training) executed.
    pub steps: usize,
    /// Kernels launched across the run.
    pub kernel_launches: u64,
    /// Host virtual time consumed by the run (after final sync).
    pub host_time: SimTime,
    /// Peak live tensor bytes.
    pub peak_allocated: u64,
    /// Peak reserved (segment) bytes — the paper's "memory footprint".
    pub peak_reserved: u64,
    /// Model parameter bytes.
    pub param_bytes: u64,
}

/// Builds `model`, runs `steps` batches/iterations of `kind`, destroys the
/// model, and reports. `batch_divisor` scales the batch down for fast test
/// runs (1 = the paper's batch size).
///
/// # Errors
///
/// Propagates allocation/launch failures.
pub fn run_model(
    s: &mut Session<'_>,
    model: ModelZoo,
    kind: RunKind,
    steps: usize,
    batch_divisor: usize,
) -> Result<RunReport, AccelError> {
    let start_time = s.runtime().host_time();
    let start_kernels = s.kernels_launched();
    let mut workload = model.build_scaled(s, batch_divisor)?;
    for _ in 0..steps {
        match kind {
            RunKind::Inference => workload.inference_batch(s)?,
            RunKind::Training => workload.training_iter(s)?,
        }
    }
    s.synchronize();
    s.release_workspaces();
    let param_bytes = workload.param_bytes();
    let spec = workload.spec().clone();
    let stats = s.allocator_stats();
    workload.destroy(s);
    Ok(RunReport {
        model: spec.name.to_owned(),
        abbr: spec.abbr.to_owned(),
        run: kind,
        steps,
        kernel_launches: s.kernels_launched() - start_kernels,
        host_time: SimTime(s.runtime().host_time() - start_time),
        peak_allocated: stats.peak_allocated,
        peak_reserved: stats.peak_reserved,
        param_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::DeviceSpec;
    use vendor_nv::CudaContext;

    #[test]
    fn inference_report_counts_kernels() {
        let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut s = Session::new(&mut rt);
        let r = run_model(&mut s, ModelZoo::Bert, RunKind::Inference, 2, 8).unwrap();
        assert_eq!(r.abbr, "BERT");
        assert!(r.kernel_launches > 100);
        assert!(r.host_time.as_nanos() > 0);
        assert!(r.peak_reserved >= r.peak_allocated);
        assert_eq!(s.allocator_stats().allocated, 0, "model destroyed");
    }

    #[test]
    fn training_launches_more_kernels_than_inference() {
        let mut rt = CudaContext::new(vec![DeviceSpec::a100_80gb()]);
        let mut s = Session::new(&mut rt);
        let inf = run_model(&mut s, ModelZoo::ResNet18, RunKind::Inference, 1, 16).unwrap();
        let tr = run_model(&mut s, ModelZoo::ResNet18, RunKind::Training, 1, 16).unwrap();
        assert!(
            tr.kernel_launches > inf.kernel_launches,
            "training {} vs inference {}",
            tr.kernel_launches,
            inf.kernel_launches
        );
        assert!(tr.peak_allocated > inf.peak_allocated);
    }
}
