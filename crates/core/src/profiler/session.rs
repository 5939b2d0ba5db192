//! [`PastaSession`]: the sequential run, reports, health, accounting and
//! reset. The parallel regions are in the sibling `parallel` module.

use super::builder::{ContextRecipe, SessionRuntime};
use super::parallel::ParallelConfig;
use crate::error::{LaneFailure, PastaError, SalvagedRun};
use crate::hub::SharedHub;
use crate::knob::{KernelAggregate, Knob};
use crate::report::{MergedReport, SessionReport, ToolQuarantine, ToolReport, UvmReport};
use crate::tool::Tool;
use crate::workload::{Workload, WorkloadCx};
use accel_sim::instrument::ProfilerHandle;
use accel_sim::{panic_message, DeviceId, OverheadBreakdown};
use dl_framework::pycall::CrossLayerStack;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uvm_sim::{PrefetchPlan, UvmStats};

/// A live PASTA profiling session.
pub struct PastaSession {
    pub(super) runtime: Box<dyn SessionRuntime>,
    pub(super) hub: SharedHub,
    pub(super) profiler: Option<ProfilerHandle>,
    /// How this session's context and framework session were built;
    /// parallel lanes build theirs the same way.
    pub(super) recipe: ContextRecipe,
    /// Thread budgets for parallel regions and the session-end merge.
    pub(super) parallel: ParallelConfig,
    /// Overhead accumulated by finished parallel-lane profilers.
    pub(super) lane_overhead: OverheadBreakdown,
    /// Records observed by finished parallel-lane profilers.
    pub(super) lane_records: u64,
    /// Per-device UVM statistics contributed by finished parallel lanes
    /// (the unmerged breakdown behind [`UvmReport::per_device`]).
    pub(super) lane_uvm: BTreeMap<DeviceId, UvmStats>,
    /// Contained lane/workload panics accumulated by this session's runs
    /// (overlaid onto [`MergedReport::lane_failures`]; cleared by
    /// [`PastaSession::reset_analysis`]).
    pub(super) lane_failures: Vec<LaneFailure>,
    /// Peak pooled lane concurrency across this session's parallel
    /// regions ([`PastaSession::pool_high_water`]): every lane pool this
    /// session runs `fetch_max`es its per-pool high water here, so the
    /// reading is per-session — immune to other sessions' pools.
    pub(super) pool_watermark: Arc<AtomicUsize>,
}

impl std::fmt::Debug for PastaSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PastaSession")
            .field("profiler_attached", &self.profiler.is_some())
            .field("managed_allocator", &self.recipe.managed_allocator)
            .finish()
    }
}

impl PastaSession {
    /// Profiles an arbitrary [`Workload`] — the one sequential entry point.
    ///
    /// The workload runs against a fresh instrumented framework session;
    /// everything it does (tensor traffic, operators, kernel launches,
    /// region annotations) flows through the event pipeline to the
    /// registered tools, and the run is summarized as a
    /// [`SessionReport`].
    ///
    /// # Errors
    ///
    /// Propagates workload failures. A *panicking* workload is contained
    /// at the session boundary instead of unwinding through the caller:
    /// the run fails with [`PastaError::Salvaged`], whose report carries
    /// everything the tools accumulated up to the panic plus the typed
    /// [`LaneFailure`] (device `None`: a sequential workload belongs to
    /// no lane).
    pub fn run(&mut self, workload: &mut dyn Workload) -> Result<SessionReport, PastaError> {
        let overhead_before = self.overhead();
        let records_before = self.records();
        let name = workload.name().to_owned();
        let (result, elapsed, alloc) = {
            let mut session = self
                .recipe
                .framework_session(&mut *self.runtime, &self.hub, None);
            let t0 = session.runtime().host_time();
            let result = match catch_unwind(AssertUnwindSafe(|| {
                workload.run(&mut WorkloadCx::new(&mut session))
            })) {
                Ok(result) => result,
                Err(payload) => Err(PastaError::Lane(LaneFailure {
                    device: None,
                    payload: panic_message(payload.as_ref()),
                })),
            };
            // Drain in-flight device work — also on failure or panic — so
            // profiled_time covers it and it cannot leak into the next
            // run's measurement window; workloads themselves need not
            // synchronize.
            session.synchronize();
            let t1 = session.runtime().host_time();
            (result, t1 - t0, session.allocator_stats())
        };
        let stats = result.map_err(|e| self.salvage(e))?;
        Ok(SessionReport {
            workload: stats.label.unwrap_or(name),
            kernel_launches: stats.kernel_launches,
            profiled_time: accel_sim::SimTime(elapsed),
            overhead: self.overhead_delta(overhead_before),
            records: self.records() - records_before,
            peak_allocated: alloc.peak_allocated,
            peak_reserved: alloc.peak_reserved,
        })
    }

    /// Reports from all registered tools, merged across device shards in
    /// ascending device order (single-shard sessions report directly).
    pub fn reports(&self) -> Vec<ToolReport> {
        self.hub.merged_reports()
    }

    /// The full merged report: merged tools, the per-device breakdown,
    /// the total event count, (when UVM is attached) the merged UVM
    /// statistics, and the session's health overlay — quarantined tools
    /// and contained lane failures — the session-end merge stage of the
    /// sharded hub.
    pub fn merged_report(&self) -> MergedReport {
        let mut report = self.hub.merged_report();
        report.uvm = self.uvm_report();
        report.lane_failures = self.lane_failures.clone();
        report
    }

    /// Converts a contained panic ([`PastaError::Lane`]) into
    /// [`PastaError::Salvaged`]: the failure is recorded on the session
    /// and the error carries the merged report over every surviving
    /// lane's state at the moment of salvage. Other errors pass through.
    pub(super) fn salvage(&mut self, e: PastaError) -> PastaError {
        match e {
            PastaError::Lane(failure) => {
                self.lane_failures.push(failure.clone());
                PastaError::Salvaged(Box::new(SalvagedRun {
                    failures: vec![failure],
                    report: self.merged_report(),
                }))
            }
            other => other,
        }
    }

    /// The session's shared event hub. Trace writers bind to it so
    /// recorders stay detachable through the hub handle even while the
    /// session is borrowed elsewhere (or already gone).
    pub fn hub(&self) -> &SharedHub {
        &self.hub
    }

    /// Contained lane/workload panics accumulated by this session's runs,
    /// in detection order (cleared by [`PastaSession::reset_analysis`]).
    pub fn lane_failures(&self) -> &[LaneFailure] {
        &self.lane_failures
    }

    /// Quarantine records across every shard, deduplicated by tool name.
    /// Empty on a healthy run.
    pub fn quarantined_tools(&self) -> Vec<ToolQuarantine> {
        self.hub.quarantines()
    }

    /// Strict health check: errors with [`PastaError::ToolQuarantined`]
    /// if any tool was disarmed after a panicking callback — for callers
    /// that treat a degraded toolset as failure rather than reading the
    /// quarantine list off the merged report.
    pub fn check_tool_health(&self) -> Result<(), PastaError> {
        match self.hub.quarantines().into_iter().next() {
            Some(q) => Err(PastaError::ToolQuarantined(q)),
            None => Ok(()),
        }
    }

    /// The UVM slice of [`PastaSession::merged_report`]: the session
    /// manager's totals (finished parallel lanes already folded in,
    /// ascending device id) plus the unmerged per-lane breakdown. `None`
    /// when the session was built without [`crate::UvmSetup`].
    pub fn uvm_report(&self) -> Option<UvmReport> {
        self.runtime.uvm_manager().map(|manager| UvmReport {
            stats: manager.stats(),
            per_device: self
                .lane_uvm
                .iter()
                .map(|(&device, &stats)| (device, stats))
                .collect(),
            peer_bytes: manager.peer_matrix(),
        })
    }

    /// Runs `f` against the named tool downcast to `T`, on the *primary*
    /// shard (device 0). On sharded multi-device sessions this sees only
    /// device 0's slice of the stream — use
    /// [`PastaSession::with_merged_tool`] for the cross-device view.
    pub fn with_tool_mut<T: Tool, R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        self.hub.primary().tools.with_tool_mut(name, f)
    }

    /// Runs `f` against the merged cross-shard view of the named tool
    /// (every device's instance folded into a fresh copy, ascending
    /// device order).
    pub fn with_merged_tool<T: Tool, R>(&self, name: &str, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.hub.with_merged_tool(name, f)
    }

    /// Cumulative instrumentation overhead so far, including overhead
    /// charged by finished parallel lanes.
    pub fn overhead(&self) -> OverheadBreakdown {
        self.profiler
            .as_ref()
            .map(ProfilerHandle::breakdown)
            .unwrap_or_default()
            .merge(self.lane_overhead)
    }

    fn overhead_delta(&self, before: OverheadBreakdown) -> OverheadBreakdown {
        let now = self.overhead();
        OverheadBreakdown {
            collection_ns: now.collection_ns - before.collection_ns,
            transfer_ns: now.transfer_ns - before.transfer_ns,
            analysis_ns: now.analysis_ns - before.analysis_ns,
            setup_ns: now.setup_ns - before.setup_ns,
        }
    }

    /// Trace records observed so far (post-sampling), including records
    /// collected by finished parallel lanes.
    pub fn records(&self) -> u64 {
        self.profiler
            .as_ref()
            .map(ProfilerHandle::records_total)
            .unwrap_or(0)
            + self.lane_records
    }

    /// Events processed by the dispatch unit so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.hub.events_processed()
    }

    /// Of [`PastaSession::events_processed`], the host and framework
    /// callbacks nothing read: counted at the host gate, never built
    /// ([`crate::hub::Hub::host_events_gated`]).
    pub fn host_events_gated(&self) -> u64 {
        self.hub.host_events_gated()
    }

    /// Attaches one trace recorder per hub shard (ascending device order).
    /// Every event a shard processes from now on — sequential runs and
    /// [`PastaSession::run_parallel`] lanes alike, since lanes feed the
    /// same shared hub — is offered to that shard's recorder. This is the
    /// capture attachment point of the `pasta-trace` subsystem.
    pub fn attach_event_recorders(
        &self,
        make: impl FnMut(DeviceId) -> Box<dyn crate::processor::EventRecorder>,
    ) {
        self.hub.attach_recorders(make);
    }

    /// Detaches every shard's trace recorder, ascending device order.
    pub fn detach_event_recorders(
        &self,
    ) -> Vec<(DeviceId, Box<dyn crate::processor::EventRecorder>)> {
        self.hub.detach_recorders()
    }

    /// Installs a UVM prefetch plan to replay before upcoming launches.
    pub fn set_prefetch_plan(&mut self, plan: PrefetchPlan) {
        self.runtime.set_prefetch_plan(plan);
    }

    /// The knob-selected kernel and its aggregate, merged across shards.
    pub fn knob_selection(&self, knob: Knob) -> Option<(String, KernelAggregate)> {
        self.hub
            .merged_knobs()
            .select(knob)
            .map(|(n, a)| (n.to_string(), a))
    }

    /// The captured cross-layer stack for a kernel, if any (shards
    /// consulted in ascending device order; first capture wins).
    pub fn cross_layer_stack(&self, kernel: &str) -> Option<CrossLayerStack> {
        self.hub.merged_stack_for(kernel)
    }

    /// Resets all tools, knobs, stacks and UVM counters on every shard
    /// (the runtime keeps running; UVM residency and budgets stay).
    pub fn reset_analysis(&mut self) {
        self.hub.reset_all();
        if let Some(p) = &self.profiler {
            p.reset();
        }
        self.lane_overhead = OverheadBreakdown::default();
        self.lane_records = 0;
        self.lane_uvm.clear();
        self.lane_failures.clear();
        if let Some(manager) = self.runtime.uvm_manager_mut() {
            manager.reset_stats();
        }
    }

    /// Peak number of *this session's* pooled lane tasks that ran
    /// concurrently since the session was built: the lane pool
    /// (`dl_framework::lane_exec::drive_lanes`) folds each run's high
    /// water in with a `fetch_max`, whichever parallel region drove the
    /// session's lanes through it. The pipeline stages' fixed two-worker
    /// pool is outside the lane pool's limit and not counted. Concurrent
    /// sessions (or parallel tests) cannot contaminate this reading.
    pub fn pool_high_water(&self) -> usize {
        self.pool_watermark.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DeviceHungry, Pasta, UvmSetup};
    use super::*;
    use crate::tool::LaunchCounter;
    use crate::workload::ModelWorkload;
    use dl_framework::models::{ModelZoo, RunKind};

    #[test]
    fn run_model_produces_report_and_tool_state() {
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        let mut resnet =
            ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(16);
        let report = session.run(&mut resnet).unwrap();
        assert!(report.kernel_launches > 40);
        assert!(report.profiled_time.as_nanos() > 0);
        let n = session
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, report.kernel_launches);
        assert!(session.events_processed() > report.kernel_launches);
    }

    #[test]
    fn merged_tool_lookup_misses_on_an_unknown_name_or_the_wrong_type() {
        for (builder, sharded) in [
            (Pasta::builder().rtx_3060(), false),
            (Pasta::builder().a100_x2(), true),
        ] {
            let session = builder.tool(LaunchCounter::default()).build().unwrap();
            assert_eq!(session.hub.is_sharded(), sharded);
            let merged = |name| session.with_merged_tool(name, |t: &LaunchCounter| t.launches);
            assert_eq!(merged("launch-counter"), Some(0));
            assert_eq!(merged("missing"), None, "unknown name");
            assert!(
                session
                    .with_merged_tool("launch-counter", |_: &DeviceHungry| ())
                    .is_none(),
                "right name, wrong type"
            );
        }
    }

    #[test]
    fn kernel_sweep_workload_profiles_raw_kernels() {
        use crate::workload::KernelSweepWorkload;
        use accel_sim::{Dim3, KernelBody, KernelDesc};
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        let mut sweep = KernelSweepWorkload::new("sweep")
            .kernel(
                KernelDesc::new("custom_a", Dim3::linear(8), Dim3::linear(128))
                    .body(KernelBody::compute(1 << 20)),
            )
            .kernel(
                KernelDesc::new("custom_b", Dim3::linear(4), Dim3::linear(64))
                    .body(KernelBody::compute(1 << 18)),
            )
            .repeats(3);
        let report = session.run(&mut sweep).unwrap();
        assert_eq!(report.workload, "sweep");
        assert_eq!(report.kernel_launches, 6);
        assert!(report.profiled_time.as_nanos() > 0);
        let n = session
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, 6, "raw launches reach the tools like model kernels");
    }

    #[test]
    fn fn_workload_runs_and_labels_report() {
        use crate::workload::{FnWorkload, WorkloadStats};
        let mut session = Pasta::builder().rtx_3060().build().unwrap();
        let mut w = FnWorkload::new("closure", |cx| {
            let t = cx
                .alloc_tensor(&[256], dl_framework::dtype::DType::F32)
                .map_err(PastaError::from)?;
            cx.free_tensor(&t);
            Ok(WorkloadStats::new(0).labeled("relabeled"))
        });
        let report = session.run(&mut w).unwrap();
        assert_eq!(report.workload, "relabeled");
        assert!(report.peak_allocated >= 1024);
    }

    #[test]
    fn failed_workload_device_time_does_not_leak_into_next_run() {
        use crate::workload::{FnWorkload, WorkloadStats};
        use accel_sim::{Dim3, KernelBody, KernelDesc};
        let mut session = Pasta::builder().rtx_3060().build().unwrap();
        let mut failing = FnWorkload::new("fails-mid-flight", |cx| {
            // A long kernel is in flight when the workload errors out.
            let desc = KernelDesc::new("long_kernel", Dim3::linear(4096), Dim3::linear(256))
                .body(KernelBody::compute(1 << 28));
            cx.launch_kernel(desc)?;
            Err(PastaError::Config("injected failure".into()))
        });
        let failed = session.run(&mut failing);
        assert!(failed.is_err());
        let mut idle = FnWorkload::new("idle", |_cx| Ok(WorkloadStats::new(0)));
        let report = session.run(&mut idle).unwrap();
        assert!(
            report.profiled_time.as_nanos() < 10_000,
            "stale device time from the failed run leaked into the idle run: {}",
            report.profiled_time
        );
    }

    #[test]
    fn workload_cx_exposes_uvm_manager() {
        use crate::workload::{FnWorkload, WorkloadStats};
        let mut with_uvm = Pasta::builder()
            .rtx_3060()
            .uvm(UvmSetup::default())
            .build()
            .unwrap();
        let mut probe = FnWorkload::new("uvm-probe", |cx| {
            assert!(cx.uvm().is_some(), "UVM sessions expose the manager");
            let _ = cx.uvm().unwrap().resident_bytes(accel_sim::DeviceId(0));
            Ok(WorkloadStats::new(0))
        });
        with_uvm.run(&mut probe).unwrap();

        let mut without = Pasta::builder().rtx_3060().build().unwrap();
        let mut probe = FnWorkload::new("no-uvm-probe", |cx| {
            assert!(cx.uvm().is_none(), "no UVM setup → no manager");
            Ok(WorkloadStats::new(0))
        });
        without.run(&mut probe).unwrap();
    }

    #[test]
    fn amd_session_runs_models_too() {
        let mut session = Pasta::builder()
            .mi300x()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        let mut bert = ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8);
        let report = session.run(&mut bert).unwrap();
        assert!(report.kernel_launches > 50);
    }

    #[test]
    fn knobs_and_stacks_populate_during_runs() {
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(DeviceHungry)
            .capture_knob(Some(Knob::MaxMemReferencedKernel))
            .build()
            .unwrap();
        let mut bert = ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8);
        session.run(&mut bert).unwrap();
        let (kernel, agg) = session
            .knob_selection(Knob::MaxMemReferencedKernel)
            .expect("knob selects a kernel");
        assert!(agg.memory_records > 0);
        let stack = session
            .cross_layer_stack(&kernel)
            .expect("stack captured for the hot kernel");
        assert!(!stack.native.is_empty());
        assert!(stack.render().contains("Python"));
    }
}
