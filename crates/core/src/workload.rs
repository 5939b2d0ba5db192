//! The extensible workload layer: what a [`crate::PastaSession`] runs.
//!
//! The paper frames PASTA as *one* pipeline over heterogeneous profiling
//! backends; the session API mirrors that by profiling anything that
//! implements the object-safe [`Workload`] trait instead of hardcoding
//! the six zoo models. A workload receives a [`WorkloadCx`] — the
//! instrumented [`Session`] (every allocation, operator and launch it
//! performs flows through the event pipeline to the registered tools),
//! plus access to the device runtimes and the attached UVM manager — and
//! returns [`WorkloadStats`] that the session folds into its
//! [`crate::SessionReport`].
//!
//! Three implementations ship in-tree:
//!
//! * [`ModelWorkload`] — the Table IV model-zoo path every figure and
//!   bench uses;
//! * [`KernelSweepWorkload`] — raw [`KernelDesc`] launches straight at
//!   the engine, for custom-kernel and microbenchmark profiling the
//!   model zoo cannot express;
//! * [`FnWorkload`] — a closure adapter for one-off scenarios.

use crate::error::PastaError;
use accel_sim::{KernelDesc, LaunchRecord};
use dl_framework::models::{ModelZoo, RunKind};
use dl_framework::parallel::DeviceLane;
use dl_framework::runner;
use dl_framework::session::Session;
use uvm_sim::UvmManager;

/// Everything a [`Workload`] may touch while it runs.
///
/// Dereferences to the instrumented [`Session`], so tensor allocation,
/// operator bracketing, kernel launches and region annotations are all
/// available directly: `cx.alloc_tensor(..)`, `cx.launch(..)`,
/// `cx.region_start(..)`, …
pub struct WorkloadCx<'a, 'rt> {
    session: &'a mut Session<'rt>,
}

impl<'a, 'rt> WorkloadCx<'a, 'rt> {
    pub(crate) fn new(session: &'a mut Session<'rt>) -> Self {
        WorkloadCx { session }
    }

    /// Wraps one parallel lane's session, giving per-lane code inside
    /// [`crate::PastaSession::run_parallel`] the same instrumented
    /// surface a [`Workload`] gets — including [`WorkloadCx::uvm`] /
    /// [`WorkloadCx::uvm_mut`] access to the lane's *own* forked UVM
    /// manager (each lane carries a private fork of the session manager,
    /// so touching it from the lane's thread contends on nothing).
    pub fn for_lane(lane: &'a mut DeviceLane<'rt>) -> Self {
        WorkloadCx {
            session: &mut lane.session,
        }
    }

    /// The instrumented framework session.
    pub fn session(&mut self) -> &mut Session<'rt> {
        self.session
    }

    /// Launches a raw kernel on the current device, counted against the
    /// session like any framework-issued launch.
    ///
    /// # Errors
    ///
    /// Propagates launch validation failures.
    pub fn launch_kernel(&mut self, desc: KernelDesc) -> Result<LaunchRecord, PastaError> {
        self.session.launch(desc).map_err(PastaError::from)
    }

    /// The attached UVM manager, when the session was built with
    /// [`crate::UvmSetup`].
    pub fn uvm(&self) -> Option<&UvmManager> {
        self.session
            .runtime()
            .residency()
            .and_then(|r| r.as_any().downcast_ref())
    }

    /// Mutable access to the attached UVM manager.
    pub fn uvm_mut(&mut self) -> Option<&mut UvmManager> {
        self.session
            .runtime_mut()
            .residency_mut()
            .and_then(|r| r.as_any_mut().downcast_mut())
    }
}

impl<'rt> std::ops::Deref for WorkloadCx<'_, 'rt> {
    type Target = Session<'rt>;
    fn deref(&self) -> &Session<'rt> {
        self.session
    }
}

impl<'rt> std::ops::DerefMut for WorkloadCx<'_, 'rt> {
    fn deref_mut(&mut self) -> &mut Session<'rt> {
        self.session
    }
}

/// What a workload reports back to the session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Report label; [`Workload::name`] is used when `None`.
    pub label: Option<String>,
    /// Kernels the workload launched.
    pub kernel_launches: u64,
}

impl WorkloadStats {
    /// Stats with the default label.
    pub fn new(kernel_launches: u64) -> Self {
        WorkloadStats {
            label: None,
            kernel_launches,
        }
    }

    /// Overrides the report label (builder style).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// Something a [`crate::PastaSession`] can profile.
///
/// Object safe: sessions take `&mut dyn Workload`, so workloads can be
/// stored, composed and selected at runtime (the programmatic analogue of
/// handing `accelprof` an arbitrary executable).
pub trait Workload: Send {
    /// Human-readable workload name (default report label).
    fn name(&self) -> &str;

    /// Executes the workload against the instrumented context.
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    fn run(&mut self, cx: &mut WorkloadCx<'_, '_>) -> Result<WorkloadStats, PastaError>;
}

/// The model-zoo workload: builds a Table IV model, runs batches or
/// training iterations, and destroys it — exactly what the paper's
/// figures profile.
#[derive(Debug, Clone)]
pub struct ModelWorkload {
    model: ModelZoo,
    kind: RunKind,
    steps: usize,
    batch_divisor: usize,
    name: String,
}

impl ModelWorkload {
    /// One step of `model` under `kind` at the paper's batch size.
    pub fn new(model: ModelZoo, kind: RunKind) -> Self {
        ModelWorkload {
            model,
            kind,
            steps: 1,
            batch_divisor: 1,
            name: format!("{} {}", model.spec().abbr, kind.label()),
        }
    }

    /// Number of batches (inference) or iterations (training).
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Divides the paper batch size (tests and quick runs).
    pub fn batch_divisor(mut self, divisor: usize) -> Self {
        self.batch_divisor = divisor.max(1);
        self
    }
}

impl Workload for ModelWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, cx: &mut WorkloadCx<'_, '_>) -> Result<WorkloadStats, PastaError> {
        let report = runner::run_model(
            cx.session(),
            self.model,
            self.kind,
            self.steps,
            self.batch_divisor,
        )?;
        let stats = WorkloadStats::new(report.kernel_launches).labeled(format!(
            "{} {}",
            report.abbr,
            self.kind.label()
        ));
        Ok(stats)
    }
}

/// Launches a fixed set of raw [`KernelDesc`]s, optionally repeated — the
/// custom-kernel / microbenchmark scenario the model zoo cannot express.
#[derive(Debug, Clone)]
pub struct KernelSweepWorkload {
    name: String,
    kernels: Vec<KernelDesc>,
    repeats: usize,
}

impl KernelSweepWorkload {
    /// An empty sweep named `name`, run once.
    pub fn new(name: impl Into<String>) -> Self {
        KernelSweepWorkload {
            name: name.into(),
            kernels: Vec::new(),
            repeats: 1,
        }
    }

    /// Appends a kernel to the sweep (builder style).
    pub fn kernel(mut self, desc: KernelDesc) -> Self {
        self.kernels.push(desc);
        self
    }

    /// Appends many kernels.
    pub fn kernels(mut self, descs: impl IntoIterator<Item = KernelDesc>) -> Self {
        self.kernels.extend(descs);
        self
    }

    /// How many times the whole sweep runs.
    pub fn repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Kernels currently in the sweep.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// True when no kernels are queued.
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }
}

impl Workload for KernelSweepWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, cx: &mut WorkloadCx<'_, '_>) -> Result<WorkloadStats, PastaError> {
        let mut launches = 0;
        for _ in 0..self.repeats {
            for desc in &self.kernels {
                cx.launch_kernel(desc.clone())?;
                launches += 1;
            }
        }
        // No explicit synchronize: the session drains device work after
        // every workload before closing the measurement window.
        Ok(WorkloadStats::new(launches))
    }
}

/// Adapts a closure into a [`Workload`]; the quickest way to profile an
/// ad-hoc scenario.
///
/// ```
/// use pasta_core::{FnWorkload, Pasta, WorkloadStats};
/// use dl_framework::dtype::DType;
///
/// # fn main() -> Result<(), pasta_core::PastaError> {
/// let mut session = Pasta::builder().rtx_3060().build()?;
/// let mut workload = FnWorkload::new("alloc-probe", |cx| {
///     let t = cx.alloc_tensor(&[1024], DType::F32)?;
///     cx.free_tensor(&t);
///     Ok(WorkloadStats::new(0))
/// });
/// let report = session.run(&mut workload)?;
/// assert_eq!(report.workload, "alloc-probe");
/// # Ok(())
/// # }
/// ```
pub struct FnWorkload<F> {
    name: String,
    f: F,
}

impl<F> FnWorkload<F>
where
    F: FnMut(&mut WorkloadCx<'_, '_>) -> Result<WorkloadStats, PastaError> + Send,
{
    /// Wraps `f` as a workload named `name`.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnWorkload {
            name: name.into(),
            f,
        }
    }
}

impl<F> Workload for FnWorkload<F>
where
    F: FnMut(&mut WorkloadCx<'_, '_>) -> Result<WorkloadStats, PastaError> + Send,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, cx: &mut WorkloadCx<'_, '_>) -> Result<WorkloadStats, PastaError> {
        (self.f)(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_workload_builder_and_name() {
        let w = ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
            .steps(2)
            .batch_divisor(8);
        assert_eq!(w.name(), "BERT inference");
        assert_eq!(w.steps, 2);
        assert_eq!(w.batch_divisor, 8);
    }

    #[test]
    fn kernel_sweep_builder() {
        use accel_sim::Dim3;
        let w = KernelSweepWorkload::new("sweep")
            .kernel(KernelDesc::new("k0", Dim3::linear(1), Dim3::linear(32)))
            .kernels([KernelDesc::new("k1", Dim3::linear(2), Dim3::linear(64))])
            .repeats(3);
        assert_eq!(w.name(), "sweep");
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.repeats, 3);
    }

    #[test]
    fn workload_stats_label_override() {
        let s = WorkloadStats::new(5).labeled("custom");
        assert_eq!(s.kernel_launches, 5);
        assert_eq!(s.label.as_deref(), Some("custom"));
    }

    #[test]
    fn workload_trait_is_object_safe() {
        fn takes_dyn(_w: &mut dyn Workload) {}
        let mut w = KernelSweepWorkload::new("s");
        takes_dyn(&mut w);
    }
}
