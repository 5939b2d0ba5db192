//! The PASTA entry point: builder and session.
//!
//! [`Pasta::builder`] assembles devices, an instrumentation backend, an
//! analysis mode, an optional UVM configuration and a set of tools into a
//! [`PastaSession`] — the programmatic equivalent of the paper's
//! `accelprof -v -t <tool> <executable>` launcher.
//!
//! The primary run API is [`PastaSession::run`], which profiles anything
//! implementing the object-safe [`Workload`] trait against a fresh
//! instrumented framework session: zoo models via
//! [`crate::ModelWorkload`], raw kernel sweeps via
//! [`crate::KernelSweepWorkload`], ad-hoc closures via
//! [`crate::FnWorkload`], or user-defined types. The historical
//! [`PastaSession::run_model`] / [`PastaSession::run_model_scaled`] entry
//! points are thin wrappers that forward a [`crate::ModelWorkload`]
//! through the same path and produce identical [`SessionReport`]s.

use crate::error::{LaneFailure, PastaError, SalvagedRun};
use crate::handler::{attach_nv, attach_roc, attach_session};
use crate::hub::{new_shared, Hub, HubSink, SharedHub};
use crate::knob::{KernelAggregate, Knob};
use crate::processor::EventProcessor;
use crate::range::RangeFilter;
use crate::report::{MergedReport, SessionReport, ToolQuarantine, ToolReport, UvmReport};
use crate::spine::{SpineConfig, SpineDrainer, SpineMode};
use crate::tool::Tool;
use crate::workload::{ModelWorkload, Workload, WorkloadCx};
use accel_sim::instrument::ProfilerHandle;
use accel_sim::{
    panic_message, AccelError, AnalysisMode, DeviceId, DeviceRuntime, DeviceSpec, Engine,
    OverheadBreakdown, Vendor,
};
use dl_framework::alloc::AllocatorConfig;
use dl_framework::lane_exec;
use dl_framework::models::{ModelZoo, RunKind};
use dl_framework::parallel::DeviceLane;
use dl_framework::pycall::CrossLayerStack;
use dl_framework::session::Session;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use uvm_sim::runtime::{Context, Vocabulary};
use uvm_sim::{PrefetchPlan, UvmConfig, UvmManager, UvmStats};
use vendor_amd::rocprofiler::RocProfilerConfig;
use vendor_amd::HipContext;
use vendor_nv::nvbit::NvbitConfig;
use vendor_nv::sanitizer::SanitizerConfig;
use vendor_nv::CudaContext;

/// Which instrumentation backend to attach (paper §III-D: users "choose
/// either of these libraries independently or use both in conjunction").
#[derive(Debug, Clone, PartialEq)]
pub enum BackendChoice {
    /// NVIDIA Compute Sanitizer (memory/barrier coverage).
    Sanitizer(SanitizerConfig),
    /// NVIDIA NVBit (all-instruction coverage, CPU analysis).
    Nvbit(NvbitConfig),
    /// AMD ROCProfiler-SDK.
    RocProfiler(RocProfilerConfig),
    /// Host callbacks only — no device instrumentation.
    HostOnly,
}

/// UVM attachment configuration.
///
/// Managed ranges default to *private* (per-device demand paging). A
/// workload — or a parallel lane — can additionally mark a range
/// **shared** across devices through
/// [`accel_sim::ResidencyModel::register_shared`] (reachable via
/// [`crate::WorkloadCx::uvm_mut`] or the lane session's runtime): remote
/// reads then read-duplicate the owner's copy over the peer link and
/// remote writes invalidate the other devices' duplicates, with the
/// traffic surfacing in [`UvmReport::peer_bytes`] and
/// `Event::UvmPeerMigrate`.
#[derive(Debug, Clone, PartialEq)]
pub struct UvmSetup {
    /// UVM cost-model config.
    pub config: UvmConfig,
    /// Managed-memory budget per device; `None` = full usable capacity.
    /// Setting this below the workload footprint creates oversubscription
    /// (paper §V-A methodology).
    pub budget_bytes: Option<u64>,
    /// Back the DL framework's caching allocator with
    /// `cudaMallocManaged` so every tensor lives in managed memory.
    pub managed_allocator: bool,
}

impl Default for UvmSetup {
    fn default() -> Self {
        UvmSetup {
            config: UvmConfig::default(),
            budget_bytes: None,
            managed_allocator: true,
        }
    }
}

/// What a session asks of its vendor context beyond [`DeviceRuntime`],
/// whichever vocabulary the context speaks.
trait SessionRuntime: DeviceRuntime {
    fn engine_mut(&mut self) -> &mut Engine;
    fn set_prefetch_plan(&mut self, plan: PrefetchPlan);
}

impl<C: Vocabulary> SessionRuntime for Context<C> {
    fn engine_mut(&mut self) -> &mut Engine {
        Context::engine_mut(self)
    }

    fn set_prefetch_plan(&mut self, plan: PrefetchPlan) {
        Context::set_prefetch_plan(self, plan);
    }
}

impl dyn SessionRuntime {
    /// The attached UVM manager, if any.
    fn uvm_manager(&self) -> Option<&UvmManager> {
        self.residency().and_then(|r| r.as_any().downcast_ref())
    }

    /// Mutable access to the attached UVM manager, if any.
    fn uvm_manager_mut(&mut self) -> Option<&mut UvmManager> {
        self.residency_mut()
            .and_then(|r| r.as_any_mut().downcast_mut())
    }
}

/// Marker type: use [`Pasta::builder`].
#[derive(Debug)]
pub struct Pasta;

impl Pasta {
    /// Starts building a session.
    pub fn builder() -> PastaBuilder {
        PastaBuilder::default()
    }
}

/// Thread budgets for the scale-out executor: how many OS threads a
/// parallel region and its teardown may spend, independent of how many
/// device lanes it drives. Every budget is a cap, not a count — a region
/// never spawns more workers than it has work — and `0` means "available
/// parallelism" (what the OS reports).
///
/// Threads are a *resource* knob only: per-lane event streams, merged
/// reports and UVM statistics are byte-identical at every setting (the
/// tree merge's shape depends on shard count alone, and lanes never share
/// state), so `ParallelConfig` can be tuned freely without invalidating
/// profiles.
///
/// ```
/// use pasta_core::{Pasta, ParallelConfig};
/// let builder = Pasta::builder().parallel(ParallelConfig {
///     max_lane_threads: 4,
///     ..ParallelConfig::default()
/// });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelConfig {
    /// Lane worker threads for `run_parallel`/`run_parallel_each`: lanes
    /// are multiplexed onto at most this many pooled workers (named
    /// `lane-dev{N}` after their first lane) instead of one thread per
    /// device. Idle workers absorb spine-drain duty.
    pub max_lane_threads: usize,
    /// Worker threads for the session-end merge plan (tool folds across
    /// shards, forked UVM managers) — the tree reduction in
    /// [`crate::merge`], workers named `merge-{k}`.
    pub max_merge_threads: usize,
    /// Background spine-drainer threads for `run_parallel` (named
    /// `drain-dev{N}`); each services an interleaved slice of the lane
    /// devices instead of one thread per device.
    pub max_drain_threads: usize,
}

/// Builder for [`PastaSession`].
pub struct PastaBuilder {
    specs: Option<Vec<DeviceSpec>>,
    backend: Option<BackendChoice>,
    analysis_mode: AnalysisMode,
    sampling_rate: u32,
    tools: Vec<Box<dyn Tool>>,
    range: RangeFilter,
    capture_knob: Option<Knob>,
    uvm: Option<UvmSetup>,
    spine_mode: SpineMode,
    spine_config: SpineConfig,
    parallel: ParallelConfig,
}

impl Default for PastaBuilder {
    fn default() -> Self {
        PastaBuilder {
            specs: None,
            backend: None,
            analysis_mode: AnalysisMode::GpuResident,
            sampling_rate: 1,
            tools: Vec::new(),
            range: RangeFilter::all(),
            capture_knob: Some(Knob::MaxMemReferencedKernel),
            uvm: None,
            spine_mode: SpineMode::Ring,
            spine_config: SpineConfig::default(),
            parallel: ParallelConfig::default(),
        }
    }
}

impl std::fmt::Debug for PastaBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PastaBuilder")
            .field(
                "devices",
                &self.specs.as_ref().map_or(0, |specs| specs.len()),
            )
            .field("tools", &self.tools.len())
            .field("analysis_mode", &self.analysis_mode)
            .finish()
    }
}

impl PastaBuilder {
    /// One NVIDIA A100 80 GB (Table III machine A).
    pub fn a100(mut self) -> Self {
        self.specs = Some(vec![DeviceSpec::a100_80gb()]);
        self
    }

    /// Two A100s (the multi-GPU experiments).
    pub fn a100_x2(mut self) -> Self {
        self.specs = Some(vec![DeviceSpec::a100_80gb(), DeviceSpec::a100_80gb()]);
        self
    }

    /// One RTX 3060 (machine B).
    pub fn rtx_3060(mut self) -> Self {
        self.specs = Some(vec![DeviceSpec::rtx_3060()]);
        self
    }

    /// One MI300X (machine C) — selects the HIP runtime.
    pub fn mi300x(mut self) -> Self {
        self.specs = Some(vec![DeviceSpec::mi300x()]);
        self
    }

    /// Explicit device list (all same vendor, non-empty).
    pub fn devices(mut self, specs: Vec<DeviceSpec>) -> Self {
        self.specs = Some(specs);
        self
    }

    /// Registers a tool.
    pub fn tool(mut self, tool: impl Tool + 'static) -> Self {
        self.tools.push(Box::new(tool));
        self
    }

    /// Registers a boxed tool.
    pub fn boxed_tool(mut self, tool: Box<dyn Tool>) -> Self {
        self.tools.push(tool);
        self
    }

    /// Chooses the instrumentation backend explicitly.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the analysis mode for the default backend.
    pub fn analysis_mode(mut self, mode: AnalysisMode) -> Self {
        self.analysis_mode = mode;
        self
    }

    /// Record-sampling factor (`ACCEL_PROF_ENV_SAMPLE_RATE`).
    pub fn sampling(mut self, rate: u32) -> Self {
        self.sampling_rate = rate.max(1);
        self
    }

    /// Range-specific analysis filter.
    pub fn range(mut self, range: RangeFilter) -> Self {
        self.range = range;
        self
    }

    /// Which knob drives cross-layer stack capture (None disables).
    pub fn capture_knob(mut self, knob: Option<Knob>) -> Self {
        self.capture_knob = knob;
        self
    }

    /// Attaches UVM with the given setup.
    pub fn uvm(mut self, setup: UvmSetup) -> Self {
        self.uvm = Some(setup);
        self
    }

    /// How sinks hand fine-grained events to their shard:
    /// [`SpineMode::Ring`] (the default lock-free SPSC spine) or
    /// [`SpineMode::Inline`] (the mutex-spine reference — kept for
    /// differential byte-identity tests and bench decompositions).
    pub fn spine_mode(mut self, mode: SpineMode) -> Self {
        self.spine_mode = mode;
        self
    }

    /// Ring geometry for the event spine (slots per ring, preallocated
    /// batch buffers, events per batch). Applies to the session's own
    /// sink and to every per-lane sink `run_parallel` creates. Validated
    /// at [`PastaBuilder::build`]: rings need at least 2 slots.
    pub fn spine_config(mut self, config: SpineConfig) -> Self {
        self.spine_config = config;
        self
    }

    /// Thread budgets for parallel regions and the session-end merge —
    /// see [`ParallelConfig`].
    pub fn parallel(mut self, config: ParallelConfig) -> Self {
        self.parallel = config;
        self
    }

    /// Builds the session.
    ///
    /// # Errors
    ///
    /// [`PastaError::Config`] on an explicitly empty device list, mixed
    /// vendors, duplicate tool names, a backend/vendor mismatch, or an
    /// invalid spine geometry (rings need ≥ 2 slots).
    /// (No device selection at all defaults to one A100.)
    pub fn build(self) -> Result<PastaSession, PastaError> {
        if self.spine_config.ring_slots < 2 {
            return Err(PastaError::Config(format!(
                "spine ring_slots must be at least 2 (got {}): a 1-slot ring \
                 cannot distinguish full from empty",
                self.spine_config.ring_slots
            )));
        }
        if self.spine_config.batch_events == 0 {
            return Err(PastaError::Config(
                "spine batch_events must be at least 1".into(),
            ));
        }
        let specs = match self.specs {
            None => vec![DeviceSpec::a100_80gb()],
            Some(specs) if specs.is_empty() => {
                return Err(PastaError::Config(
                    "device list is empty: pass at least one DeviceSpec".into(),
                ))
            }
            Some(specs) => specs,
        };
        let specs: Arc<[DeviceSpec]> = specs.into();
        let vendor = specs[0].vendor;
        if specs.iter().any(|s| s.vendor != vendor) {
            return Err(PastaError::Config(
                "all devices in one session must share a vendor".into(),
            ));
        }
        for (i, tool) in self.tools.iter().enumerate() {
            if self.tools[..i].iter().any(|t| t.name() == tool.name()) {
                return Err(PastaError::Config(format!(
                    "duplicate tool name `{}`: tool names select tools and must be unique",
                    tool.name()
                )));
            }
        }

        let mut processor = EventProcessor::new();
        processor.range = self.range;
        processor.capture_knob = self.capture_knob;
        for tool in self.tools {
            processor.tools.register(tool);
        }
        let wants_device = processor.tools.interest().wants_device_events();
        // One shard per device when every tool forks; otherwise fall back
        // to a single shared shard (correct for any tool, but concurrent
        // lanes then serialize on its lock).
        let shard_forks: Option<Vec<EventProcessor>> =
            (1..specs.len()).map(|_| processor.fork()).collect();
        let hub: SharedHub = match shard_forks {
            Some(rest) if specs.len() > 1 => {
                let mut shards = vec![(DeviceId(0), processor)];
                shards.extend(
                    rest.into_iter()
                        .enumerate()
                        .map(|(i, p)| (DeviceId(i as u32 + 1), p)),
                );
                Arc::new(Hub::sharded(shards).map_err(PastaError::Config)?)
            }
            _ => new_shared(processor),
        };
        hub.set_merge_threads(self.parallel.max_merge_threads);

        let backend = self.backend.unwrap_or(match vendor {
            Vendor::Amd => BackendChoice::RocProfiler(
                RocProfilerConfig::default().with_mode(self.analysis_mode),
            ),
            _ => {
                let cfg = match self.analysis_mode {
                    AnalysisMode::GpuResident => SanitizerConfig::gpu_resident(),
                    AnalysisMode::CpuPostProcess => SanitizerConfig::cpu_post_process(),
                };
                BackendChoice::Sanitizer(cfg)
            }
        });

        // The residency model is the same whichever vocabulary the context
        // speaks, so it is built before one is chosen.
        let uvm = self.uvm.as_ref().map(|uvm_setup| {
            let mut uvm = UvmManager::new(uvm_setup.config.clone());
            for spec in specs.iter() {
                let budget = uvm_setup
                    .budget_bytes
                    .unwrap_or(spec.mem_capacity)
                    .min(spec.mem_capacity);
                uvm.add_device_p2p(
                    budget,
                    spec.link_bandwidth_gbps,
                    spec.p2p_bandwidth_gbps,
                    spec.fault_latency_ns,
                );
            }
            uvm
        });
        let recipe = ContextRecipe {
            specs,
            backend,
            sampling_rate: self.sampling_rate,
            wants_device,
            spine_mode: self.spine_mode,
            spine_config: self.spine_config,
        };
        let (runtime, profiler) = recipe.build(&hub, DeviceId(0), uvm)?;

        Ok(PastaSession {
            runtime,
            hub,
            profiler,
            managed_allocator: self
                .uvm
                .is_some_and(|uvm_setup| uvm_setup.managed_allocator),
            recipe,
            parallel: self.parallel,
            lane_overhead: OverheadBreakdown::default(),
            lane_records: 0,
            lane_uvm: BTreeMap::new(),
            lane_failures: Vec::new(),
            pool_watermark: Arc::new(AtomicUsize::new(0)),
        })
    }
}

/// What every vendor context of a session is built from: the session's
/// own context and each parallel lane's come out of
/// [`ContextRecipe::build`].
struct ContextRecipe {
    /// Device specs the session was built with, shared with every
    /// per-lane context of a parallel region.
    specs: Arc<[DeviceSpec]>,
    /// Resolved backend choice.
    backend: BackendChoice,
    sampling_rate: u32,
    wants_device: bool,
    /// How the session's sinks hand events to their shards.
    spine_mode: SpineMode,
    /// Ring geometry for every sink the session creates.
    spine_config: SpineConfig,
}

impl ContextRecipe {
    /// A context over the full device list, pinned to `device`: host
    /// callbacks normalized into `hub`, `uvm` as the residency model and,
    /// when tools want device events, the backend's profiler with a sink
    /// wired into `hub`.
    fn build(
        &self,
        hub: &SharedHub,
        device: DeviceId,
        uvm: Option<UvmManager>,
    ) -> Result<(Box<dyn SessionRuntime>, Option<ProfilerHandle>), PastaError> {
        let specs = Arc::clone(&self.specs);
        let (mut runtime, profiler): (Box<dyn SessionRuntime>, _) = match specs[0].vendor {
            Vendor::Amd => {
                let mut ctx = HipContext::new(specs);
                attach_roc(&mut ctx, Arc::clone(hub));
                let profiler = match &self.backend {
                    BackendChoice::RocProfiler(cfg) if self.wants_device => {
                        Some(vendor_amd::rocprofiler::attach(&mut ctx, cfg.clone()))
                    }
                    BackendChoice::HostOnly | BackendChoice::RocProfiler(_) => None,
                    _ => {
                        return Err(PastaError::Config(
                            "NVIDIA backends cannot attach to AMD devices".into(),
                        ))
                    }
                };
                (Box::new(ctx), profiler)
            }
            _ => {
                let mut ctx = CudaContext::new(specs);
                attach_nv(&mut ctx, Arc::clone(hub));
                let sampling = self.sampling_rate;
                let profiler = match &self.backend {
                    BackendChoice::Sanitizer(cfg) if self.wants_device => Some(
                        vendor_nv::sanitizer::attach(&mut ctx, cfg.clone().with_sampling(sampling)),
                    ),
                    BackendChoice::Nvbit(cfg) if self.wants_device => Some(
                        vendor_nv::nvbit::attach(&mut ctx, cfg.clone().with_sampling(sampling)),
                    ),
                    BackendChoice::HostOnly
                    | BackendChoice::Sanitizer(_)
                    | BackendChoice::Nvbit(_) => None,
                    BackendChoice::RocProfiler(_) => {
                        return Err(PastaError::Config(
                            "ROCProfiler cannot attach to NVIDIA devices".into(),
                        ))
                    }
                };
                (Box::new(ctx), profiler)
            }
        };
        runtime.set_device(device)?;
        if let Some(uvm) = uvm {
            runtime.engine_mut().set_residency(Box::new(uvm));
        }
        if let Some(handle) = &profiler {
            handle.set_sink(Box::new(HubSink::with_spine(
                Arc::clone(hub),
                self.spine_mode,
                self.spine_config,
            )));
        }
        Ok((runtime, profiler))
    }
}

/// A live PASTA profiling session.
pub struct PastaSession {
    runtime: Box<dyn SessionRuntime>,
    hub: SharedHub,
    profiler: Option<ProfilerHandle>,
    managed_allocator: bool,
    /// How this session's context was built; parallel lanes build theirs
    /// the same way.
    recipe: ContextRecipe,
    /// Thread budgets for parallel regions and the session-end merge.
    parallel: ParallelConfig,
    /// Overhead accumulated by finished parallel-lane profilers.
    lane_overhead: OverheadBreakdown,
    /// Records observed by finished parallel-lane profilers.
    lane_records: u64,
    /// Per-device UVM statistics contributed by finished parallel lanes
    /// (the unmerged breakdown behind [`UvmReport::per_device`]).
    lane_uvm: BTreeMap<DeviceId, UvmStats>,
    /// Contained lane/workload panics accumulated by this session's runs
    /// (overlaid onto [`MergedReport::lane_failures`]; cleared by
    /// [`PastaSession::reset_analysis`]).
    lane_failures: Vec<LaneFailure>,
    /// Peak pooled lane concurrency across this session's parallel
    /// regions ([`PastaSession::pool_high_water`]): every lane pool this
    /// session runs `fetch_max`es its per-pool high water here, so the
    /// reading is per-session — immune to other sessions' pools.
    pool_watermark: Arc<AtomicUsize>,
}

impl std::fmt::Debug for PastaSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PastaSession")
            .field("profiler_attached", &self.profiler.is_some())
            .field("managed_allocator", &self.managed_allocator)
            .finish()
    }
}

impl PastaSession {
    /// Creates a fresh instrumented framework session over the runtime
    /// and hands it to `f` — the shared substrate of every run path.
    fn with_instrumented_session<R>(
        &mut self,
        f: impl FnOnce(&mut Session<'_>) -> Result<R, PastaError>,
    ) -> Result<R, PastaError> {
        let hub = Arc::clone(&self.hub);
        let managed = self.managed_allocator;
        let rt: &mut dyn DeviceRuntime = &mut *self.runtime;
        let alloc_config = if managed {
            AllocatorConfig::managed()
        } else {
            AllocatorConfig::default()
        };
        let backend = dl_framework::backend::BackendProfile::for_vendor(rt.vendor());
        let mut session = Session::with_config(rt, backend, alloc_config);
        attach_session(&mut session, hub);
        f(&mut session)
    }

    /// Profiles an arbitrary [`Workload`] — the primary entry point.
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
        let (result, elapsed, alloc) = self.with_instrumented_session(|session| {
            let t0 = session.runtime().host_time();
            let result = match catch_unwind(AssertUnwindSafe(|| {
                workload.run(&mut WorkloadCx::new(session))
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
            Ok((result, t1 - t0, session.allocator_stats()))
        })?;
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

    /// Runs `steps` batches/iterations of a zoo model at the paper's batch
    /// size, under full instrumentation. Forwards a
    /// [`ModelWorkload`] through [`PastaSession::run`].
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub fn run_model(
        &mut self,
        model: ModelZoo,
        kind: RunKind,
        steps: usize,
    ) -> Result<SessionReport, PastaError> {
        self.run_model_scaled(model, kind, steps, 1)
    }

    /// Like [`PastaSession::run_model`] with the batch divided by
    /// `batch_divisor` (tests and quick runs).
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    pub fn run_model_scaled(
        &mut self,
        model: ModelZoo,
        kind: RunKind,
        steps: usize,
        batch_divisor: usize,
    ) -> Result<SessionReport, PastaError> {
        let mut workload = ModelWorkload::new(model, kind)
            .steps(steps)
            .batch_divisor(batch_divisor);
        self.run(&mut workload)
    }

    /// Runs a closure against an instrumented framework session,
    /// returning its value directly (no [`SessionReport`]). Prefer
    /// [`crate::FnWorkload`] + [`PastaSession::run`] when a report is
    /// wanted.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f`.
    pub fn run_custom<R>(
        &mut self,
        f: impl FnOnce(&mut Session<'_>) -> Result<R, accel_sim::AccelError>,
    ) -> Result<R, PastaError> {
        self.with_instrumented_session(|session| f(session).map_err(PastaError::from))
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
    fn salvage(&mut self, e: PastaError) -> PastaError {
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
    /// when the session was built without [`UvmSetup`].
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
    pub fn with_tool_mut<T: Tool + 'static, R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        self.hub.primary().tools.with_tool_mut(name, f)
    }

    /// Runs `f` against the merged cross-shard view of the named tool
    /// (every device's instance folded into a fresh copy, ascending
    /// device order).
    pub fn with_merged_tool<T: Tool + 'static, R>(
        &self,
        name: &str,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        self.hub.with_merged_tool(name, f)
    }

    /// Cumulative instrumentation overhead so far, including overhead
    /// charged by finished parallel lanes.
    pub fn overhead(&self) -> OverheadBreakdown {
        let mut b = self
            .profiler
            .as_ref()
            .map(ProfilerHandle::breakdown)
            .unwrap_or_default();
        b.collection_ns += self.lane_overhead.collection_ns;
        b.transfer_ns += self.lane_overhead.transfer_ns;
        b.analysis_ns += self.lane_overhead.analysis_ns;
        b.setup_ns += self.lane_overhead.setup_ns;
        b
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

    /// Restricts a device's usable memory (oversubscription methodology).
    pub fn limit_device_memory(&mut self, device: DeviceId, bytes: u64) {
        self.runtime
            .engine_mut()
            .device_mut(device)
            .limit_usable_capacity(bytes);
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
            // Hotness resets with the stats: a pre-reset parallel region
            // concatenated lane time axes into the accumulator, and
            // leaving them would make stats and hotness describe
            // different analysis windows.
            manager.reset_hotness();
        }
    }

    /// Peak number of *this session's* pooled lane tasks that ran
    /// concurrently since the session was built (or the last
    /// [`PastaSession::reset_pool_high_water`]): every lane pool a
    /// parallel region of this session runs — `run_parallel_each`'s own
    /// pool and any `drive_lanes` pool the stamped lanes ride inside
    /// [`PastaSession::run_parallel`] — folds its per-pool high water in
    /// with a `fetch_max`. Concurrent sessions (or parallel tests) cannot
    /// contaminate this reading.
    pub fn pool_high_water(&self) -> usize {
        self.pool_watermark.load(Ordering::Acquire)
    }

    /// Resets [`PastaSession::pool_high_water`] to zero.
    pub fn reset_pool_high_water(&mut self) {
        self.pool_watermark.store(0, Ordering::Release);
    }

    /// Creates one instrumented per-device framework session ("lane") per
    /// entry of `devices` and hands them to `f` — the substrate of the
    /// genuinely concurrent multi-device workloads: each lane owns its
    /// own vendor context (full device list, pinned to its device) and
    /// its own profiler whose sink feeds that device's hub shard, so
    /// `f` can drive every lane from its own OS thread with no shared
    /// lock on the emission path.
    ///
    /// Lanes inherit the session's backend, sampling and allocator
    /// configuration. A session built with [`UvmSetup`] replicates its
    /// UVM manager into every lane via [`UvmManager::fork`] — same
    /// config, budgets and registrations, fresh residency and counters —
    /// so lane tensor traffic faults and migrates with no cross-lane
    /// lock; lane UVM state merges back into the session manager
    /// (ascending device id) when `f` returns, and surfaces through
    /// [`PastaSession::uvm_report`]. Lane instrumentation overhead and
    /// record counts fold into
    /// [`PastaSession::overhead`]/[`PastaSession::records`] when `f`
    /// returns.
    ///
    /// # Errors
    ///
    /// [`PastaError::Config`] on an empty device list, a duplicate
    /// [`DeviceId`] (each device gets exactly one lane), or a device the
    /// session was not built with; otherwise propagates failures from
    /// `f`.
    pub fn run_parallel<R>(
        &mut self,
        devices: &[DeviceId],
        f: impl FnOnce(&mut [DeviceLane<'_>]) -> Result<R, AccelError>,
    ) -> Result<R, PastaError> {
        self.run_parallel_impl(devices, DrainPolicy::Background, f)
    }

    fn run_parallel_impl<R>(
        &mut self,
        devices: &[DeviceId],
        drain_policy: DrainPolicy,
        f: impl FnOnce(&mut [DeviceLane<'_>]) -> Result<R, AccelError>,
    ) -> Result<R, PastaError> {
        if devices.is_empty() {
            return Err(PastaError::Config(
                "parallel device list is empty: pass at least one DeviceId".into(),
            ));
        }
        for (i, device) in devices.iter().enumerate() {
            if devices[..i].contains(device) {
                return Err(PastaError::Config(format!(
                    "duplicate device {device} in the parallel device list: \
                     each device gets exactly one lane"
                )));
            }
            if device.index() >= self.recipe.specs.len() {
                return Err(PastaError::Config(format!(
                    "device {device} is not part of this session ({} device(s) configured)",
                    self.recipe.specs.len()
                )));
            }
        }

        // Per-lane contexts: the full device list each, pinned to the
        // lane's device, host callbacks and (when tools want device
        // events) a profiler+sink wired into the shared hub.
        let mut contexts = Vec::with_capacity(devices.len());
        let mut handles = Vec::new();
        for &device in devices {
            // A UVM session replicates into its lanes: each lane carries a
            // manager forked from the session's (same config, budgets and
            // registrations, fresh residency and counters), so managed
            // allocations made on the lane fault, migrate and evict with
            // no lock shared across lanes. Lane state merges back into
            // the session manager when `f` returns.
            let uvm = self.runtime.uvm_manager().map(|m| m.fork(device));
            let (ctx, handle) = self.recipe.build(&self.hub, device, uvm)?;
            contexts.push(ctx);
            handles.extend(handle);
        }

        let alloc_config = if self.managed_allocator {
            AllocatorConfig::managed()
        } else {
            AllocatorConfig::default()
        };
        let mut lanes: Vec<DeviceLane<'_>> = contexts
            .iter_mut()
            .zip(devices)
            .map(|(ctx, &device)| {
                let rt: &mut dyn DeviceRuntime = &mut **ctx;
                let backend = dl_framework::backend::BackendProfile::for_vendor(rt.vendor());
                let mut session = Session::with_config(rt, backend, alloc_config.clone());
                attach_session(&mut session, Arc::clone(&self.hub));
                DeviceLane::pin(device, session)
                    .map(|mut lane| {
                        // Stamp the session's lane budget so pooled lane
                        // schedules (dl-framework's `drive_lanes`) inherit
                        // it without a config parameter of their own, and
                        // the session's watermark so every pool the lanes
                        // ride reports its per-pool high water back here.
                        lane.set_pool_limit(self.parallel.max_lane_threads);
                        lane.set_pool_watermark(Arc::clone(&self.pool_watermark));
                        lane
                    })
                    .map_err(PastaError::from)
            })
            .collect::<Result<_, _>>()?;

        // Lane drain scheduling: with the ring spine, a bounded set of
        // background drainers (at most `max_drain_threads`, `0` = the
        // machine's parallelism — never more than one per device) keeps
        // the lane shards' rings drained while the emitters run, so tool
        // dispatch leaves the emission critical path. Pool-idle regions
        // ([`PastaSession::run_parallel_each`]) skip the threads entirely
        // — their idle lane workers sweep the shards instead. Inline-spine
        // (or host-only) sessions also skip them: there is nothing to
        // drain off-path. Either way the spine's producer-side
        // backpressure keeps the path lossless without any drainer.
        let drain_width = if self.parallel.max_drain_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.parallel.max_drain_threads
        };
        let drainer = (self.recipe.wants_device
            && self.recipe.spine_mode == SpineMode::Ring
            && drain_policy == DrainPolicy::Background)
            .then(|| SpineDrainer::start_bounded(Arc::clone(&self.hub), devices, drain_width));

        // The orchestration closure is contained like a lane: a panic
        // unwinding out of it (or out of an unguarded thread it joined)
        // becomes a typed failure, and the harvest below still runs so the
        // surviving lanes' shards and UVM managers merge into the session.
        let result = match catch_unwind(AssertUnwindSafe(|| f(&mut lanes))) {
            Ok(result) => result.map_err(PastaError::from),
            Err(payload) => Err(PastaError::Lane(LaneFailure {
                device: None,
                payload: panic_message(payload.as_ref()),
            })),
        };
        // Settle lane clocks (also on failure) so nothing stays in flight,
        // then fold lane instrumentation accounting into the session.
        for lane in &mut lanes {
            lane.session.synchronize();
        }
        drop(lanes);
        // Stop the drainers, then make every pushed event visible before
        // the harvest below — lane sinks were dropped with the contexts
        // further down, but their rings stay registered until drained
        // empty, so a panicked lane's events still reach the salvaged
        // report. (Contexts drop after the quiesce-on-lock harvest paths
        // run; the explicit quiesce here covers everything pushed so far.)
        if let Some(drainer) = drainer {
            drainer.stop();
        }
        self.hub.quiesce();
        // Harvest the lane UVM managers and fold them into the session
        // manager in ascending device id — the same deterministic order
        // as the session-end tool merge, regardless of the order the
        // caller listed the devices in. The fold runs through the shared
        // merge plan: lane managers tree-reduce pairwise in device order
        // (`UvmManager::merge` is associative — stats sum, hotness lanes
        // replay their recording logs in device order, shared-range
        // import is order-independent), then the single combined manager
        // merges into the session's, byte-identical to the linear chain
        // this replaces but with an O(N/W + log N) critical path at 64+
        // lanes. Per-device stats are captured *before* the reduction —
        // the tree consumes the lane managers.
        let mut lane_managers: Vec<(DeviceId, UvmManager)> = Vec::new();
        for (ctx, &device) in contexts.iter_mut().zip(devices) {
            let Some(model) = ctx.engine_mut().take_residency() else {
                continue;
            };
            if let Ok(manager) = model.into_any().downcast::<UvmManager>() {
                lane_managers.push((device, *manager));
            }
        }
        lane_managers.sort_by_key(|&(device, _)| device);
        if !lane_managers.is_empty() {
            if let Some(session_manager) = self.runtime.uvm_manager_mut() {
                for (device, lane_manager) in &lane_managers {
                    self.lane_uvm
                        .entry(*device)
                        .or_default()
                        .merge_from(&lane_manager.stats());
                }
                let managers: Vec<UvmManager> = lane_managers.into_iter().map(|(_, m)| m).collect();
                if let Some(combined) =
                    crate::merge::tree_reduce(managers, self.parallel.max_merge_threads, |a, b| {
                        a.merge(&b)
                    })
                {
                    session_manager.merge(&combined);
                }
            }
        }
        for handle in handles {
            let b = handle.breakdown();
            self.lane_overhead.collection_ns += b.collection_ns;
            self.lane_overhead.transfer_ns += b.transfer_ns;
            self.lane_overhead.analysis_ns += b.analysis_ns;
            self.lane_overhead.setup_ns += b.setup_ns;
            self.lane_records += handle.records_total();
        }
        // Lane sinks die with their contexts; a ring-mode sink's Drop
        // spills partial spill buffers onto its rings (even for a lane
        // that panicked mid-launch). Quiesce afterwards so that tail is
        // visible to the salvaged report `salvage` may build below.
        drop(contexts);
        self.hub.quiesce();
        result.map_err(|e| self.salvage(e))
    }

    /// Runs `work` once per lane on the bounded lane pool, each lane's
    /// panic contained at the lane boundary — the fault-isolated sibling
    /// of hand-rolling thread orchestration inside
    /// [`PastaSession::run_parallel`].
    ///
    /// Lanes are multiplexed onto at most
    /// [`ParallelConfig::max_lane_threads`] pooled workers (named
    /// `lane-dev{N}` after the first lane each runs), so a 256-device
    /// region costs a handful of OS threads, not 256. No background
    /// drainer threads are spawned either: a pool worker that runs out of
    /// lanes sweeps the lane shards' spine rings until the stragglers
    /// finish, and the spine's producer-side backpressure covers the rest
    /// — losslessly, so thread budgets never change the merged bytes.
    ///
    /// `work` receives the lane's index into `devices` and the lane
    /// itself. A panicking lane becomes a [`LaneFailure`] attributed to
    /// its device; the surviving lanes run to completion and their shard
    /// and UVM state still merges into the session, so the resulting
    /// [`PastaError::Salvaged`] carries a usable report. When several
    /// lanes fail, the first panic (ascending device position in
    /// `devices`) is reported.
    ///
    /// # Errors
    ///
    /// The same configuration errors as [`PastaSession::run_parallel`];
    /// [`PastaError::Salvaged`] when a lane panicked; the first lane
    /// error otherwise.
    pub fn run_parallel_each(
        &mut self,
        devices: &[DeviceId],
        work: impl Fn(usize, &mut DeviceLane<'_>) -> Result<(), AccelError> + Sync,
    ) -> Result<(), PastaError> {
        let hub = Arc::clone(&self.hub);
        let drain_devices: Option<Vec<DeviceId>> = (self.recipe.wants_device
            && self.recipe.spine_mode == SpineMode::Ring)
            .then(|| devices.to_vec());
        let pool_limit = self.parallel.max_lane_threads;
        let watermark = Arc::clone(&self.pool_watermark);
        self.run_parallel_impl(devices, DrainPolicy::PoolIdle, |lanes| {
            let idle = drain_devices.as_ref().map(|ds| {
                let hub = &hub;
                move || -> bool {
                    ds.iter()
                        .map(|&d| hub.shard_for(d).try_drain())
                        .sum::<u64>()
                        > 0
                }
            });
            let work = &work;
            let tasks: Vec<lane_exec::PoolTask<'_, ()>> = lanes
                .iter_mut()
                .enumerate()
                .map(|(i, lane)| lane_exec::PoolTask {
                    device: lane.device(),
                    run: Box::new(move || work(i, lane)),
                })
                .collect();
            let run = lane_exec::run_pool(
                pool_limit,
                tasks,
                idle.as_ref().map(|h| h as &(dyn Fn() -> bool + Sync)),
            );
            watermark.fetch_max(run.high_water, Ordering::AcqRel);
            // An idle-hook panic (`run.idle_panic`) is contained inside
            // the pool and the hook disarmed; correctness needs nothing
            // more — producer-side backpressure plus the session's final
            // quiesce drain every ring the disarmed sweeper abandoned.
            let results = run.results;
            // A contained panic is the root cause — report it ahead of
            // secondary errors surviving lanes hit because a peer died.
            for r in &results {
                if let Err(e @ AccelError::LanePanic { .. }) = r {
                    return Err(e.clone());
                }
            }
            for r in results {
                r?;
            }
            Ok(())
        })
    }
}

/// Who keeps the spine rings drained while a parallel region's lanes run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainPolicy {
    /// A bounded set of dedicated drainer threads
    /// ([`SpineDrainer::start_bounded`]) — for [`PastaSession::run_parallel`],
    /// whose orchestration closure is opaque to the session.
    Background,
    /// No drainer threads: the caller's lane pool sweeps the shards from
    /// idle workers ([`PastaSession::run_parallel_each`]).
    PoolIdle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::LaunchCounter;

    #[test]
    fn build_defaults_to_one_a100() {
        let session = Pasta::builder().build().unwrap();
        assert!(format!("{session:?}").contains("PastaSession"));
    }

    #[test]
    fn mixed_vendors_rejected() {
        let r = Pasta::builder()
            .devices(vec![DeviceSpec::a100_80gb(), DeviceSpec::mi300x()])
            .build();
        assert!(matches!(r, Err(PastaError::Config(_))));
    }

    #[test]
    fn explicitly_empty_device_list_rejected() {
        let r = Pasta::builder().devices(vec![]).build();
        let Err(PastaError::Config(msg)) = r else {
            panic!("empty device list must be a config error");
        };
        assert!(msg.contains("empty"), "unhelpful message: {msg}");
    }

    #[test]
    fn duplicate_tool_names_rejected() {
        let r = Pasta::builder()
            .a100()
            .tool(LaunchCounter::default())
            .tool(LaunchCounter::default())
            .build();
        let Err(PastaError::Config(msg)) = r else {
            panic!("duplicate tool names must be a config error");
        };
        assert!(msg.contains("launch-counter"), "unhelpful message: {msg}");
    }

    #[test]
    fn rocprofiler_on_nvidia_rejected() {
        let r = Pasta::builder()
            .a100()
            .tool(DeviceHungry)
            .backend(BackendChoice::RocProfiler(RocProfilerConfig::default()))
            .build();
        assert!(matches!(r, Err(PastaError::Config(_))));
    }

    struct DeviceHungry;
    impl Tool for DeviceHungry {
        fn name(&self) -> &str {
            "hungry"
        }
        fn interest(&self) -> crate::tool::Interest {
            crate::tool::Interest::all()
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn coarse_tools_skip_device_instrumentation() {
        let session = Pasta::builder()
            .rtx_3060()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        assert!(
            session.profiler.is_none(),
            "no device-event interest → no probe → near-zero overhead"
        );
    }

    #[test]
    fn device_tools_attach_profiler() {
        let session = Pasta::builder()
            .rtx_3060()
            .tool(DeviceHungry)
            .build()
            .unwrap();
        assert!(session.profiler.is_some());
    }

    #[test]
    fn run_model_produces_report_and_tool_state() {
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        let report = session
            .run_model_scaled(ModelZoo::ResNet18, RunKind::Inference, 1, 16)
            .unwrap();
        assert!(report.kernel_launches > 40);
        assert!(report.profiled_time.as_nanos() > 0);
        let n = session
            .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(n, report.kernel_launches);
        assert!(session.events_processed() > report.kernel_launches);
    }

    #[test]
    fn run_model_and_run_workload_report_identically() {
        let run_via = |use_trait: bool| {
            let mut session = Pasta::builder()
                .rtx_3060()
                .tool(LaunchCounter::default())
                .build()
                .unwrap();
            if use_trait {
                let mut w = ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference)
                    .steps(1)
                    .batch_divisor(16);
                session.run(&mut w).unwrap()
            } else {
                session
                    .run_model_scaled(ModelZoo::ResNet18, RunKind::Inference, 1, 16)
                    .unwrap()
            }
        };
        assert_eq!(
            run_via(false),
            run_via(true),
            "run_model must forward through run() byte-identically"
        );
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
            let resident = cx.uvm_mut().unwrap().resident_bytes(accel_sim::DeviceId(0));
            let _ = resident;
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
        let report = session
            .run_model_scaled(ModelZoo::Bert, RunKind::Inference, 1, 8)
            .unwrap();
        assert!(report.kernel_launches > 50);
    }

    #[test]
    fn multi_device_sessions_shard_when_tools_fork() {
        let session = Pasta::builder()
            .a100_x2()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        assert!(
            session.hub.is_sharded(),
            "forkable tools → one shard/device"
        );
        assert_eq!(session.hub.shards().len(), 2);

        let single = Pasta::builder()
            .a100()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        assert!(!single.hub.is_sharded(), "one device → one shard");

        let fallback = Pasta::builder()
            .a100_x2()
            .tool(DeviceHungry)
            .build()
            .unwrap();
        assert!(
            !fallback.hub.is_sharded(),
            "a tool that declines fork() keeps the single shared shard"
        );
    }

    #[test]
    fn run_parallel_rejects_bad_device_lists() {
        let mut session = Pasta::builder()
            .a100_x2()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();

        let err = session
            .run_parallel(&[], |_| Ok(()))
            .expect_err("empty device list");
        assert!(
            matches!(&err, PastaError::Config(m) if m.contains("empty")),
            "{err}"
        );

        let err = session
            .run_parallel(&[DeviceId(0), DeviceId(1), DeviceId(0)], |_| Ok(()))
            .expect_err("duplicate device");
        let PastaError::Config(msg) = &err else {
            panic!("duplicate DeviceId must be a config error, got {err}");
        };
        assert!(msg.contains("duplicate device gpu0"), "unhelpful: {msg}");
        assert!(
            !msg.contains("  "),
            "message has collapsed whitespace: {msg}"
        );

        let err = session
            .run_parallel(&[DeviceId(7)], |_| Ok(()))
            .expect_err("unknown device");
        assert!(
            matches!(&err, PastaError::Config(m) if m.contains("gpu7")),
            "{err}"
        );
    }

    #[test]
    fn run_parallel_lanes_feed_per_device_shards_and_merge() {
        use dl_framework::dtype::DType;
        let mut session = Pasta::builder()
            .a100_x2()
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        let devices = [DeviceId(0), DeviceId(1)];
        session
            .run_parallel(&devices, |lanes| {
                assert_eq!(lanes.len(), 2);
                // Drive both lanes from their own threads: tensor traffic
                // and kernel launches race into the hub.
                std::thread::scope(|scope| {
                    for lane in lanes.iter_mut() {
                        scope.spawn(move || {
                            let s = &mut lane.session;
                            let t = s.alloc_tensor(&[1024], DType::F32).unwrap();
                            for _ in 0..5 {
                                let desc = accel_sim::KernelDesc::new(
                                    "lane_kernel",
                                    accel_sim::Dim3::linear(8),
                                    accel_sim::Dim3::linear(128),
                                )
                                .arg(t.ptr, t.bytes)
                                .body(accel_sim::KernelBody::compute(1 << 16));
                                s.launch(desc).unwrap();
                            }
                            s.free_tensor(&t);
                        });
                    }
                });
                Ok(())
            })
            .unwrap();
        // Each shard saw its own lane's 5 launches...
        for shard in session.hub.shards() {
            let n = shard
                .lock()
                .tools
                .with_tool_mut("launch-counter", |t: &mut LaunchCounter| t.launches)
                .unwrap();
            assert_eq!(n, 5, "shard {} launches", shard.device());
        }
        // ...and the merged view folds both, deterministically.
        let total = session
            .with_merged_tool("launch-counter", |t: &LaunchCounter| t.launches)
            .unwrap();
        assert_eq!(total, 10);
        let merged = session.merged_report();
        assert_eq!(merged.per_device.len(), 2);
        assert_eq!(merged, session.merged_report(), "merge is repeatable");
        // The merged knob view sums both devices' launches.
        let (kernel, agg) = session.knob_selection(Knob::MaxCalledKernel).unwrap();
        assert_eq!(kernel, "lane_kernel");
        assert_eq!(agg.calls, 10);
    }

    #[test]
    fn run_parallel_forks_and_merges_lane_uvm_managers() {
        use dl_framework::dtype::DType;
        let mut session = Pasta::builder()
            .a100_x2()
            .uvm(UvmSetup::default())
            .tool(LaunchCounter::default())
            .build()
            .unwrap();
        assert!(session.uvm_report().is_some(), "UVM session reports UVM");
        let devices = [DeviceId(0), DeviceId(1)];
        session
            .run_parallel(&devices, |lanes| {
                std::thread::scope(|scope| {
                    for lane in lanes.iter_mut() {
                        scope.spawn(move || {
                            // Lane-local UVM access through the workload
                            // surface: the manager is the lane's own fork.
                            let mut cx = crate::workload::WorkloadCx::for_lane(lane);
                            assert!(cx.uvm().is_some(), "lanes carry forked managers");
                            let s = cx.session();
                            let t = s.alloc_tensor(&[1 << 20], DType::F32).unwrap();
                            let desc = accel_sim::KernelDesc::new(
                                "uvm_lane_kernel",
                                accel_sim::Dim3::linear(64),
                                accel_sim::Dim3::linear(128),
                            )
                            .arg(t.ptr, t.bytes)
                            .body(accel_sim::KernelBody::streaming(t.bytes / 2, t.bytes / 2));
                            let rec = s.launch(desc).unwrap();
                            assert!(rec.uvm_faults > 0, "managed tensors fault cold");
                            s.free_tensor(&t);
                        });
                    }
                });
                Ok(())
            })
            .unwrap();
        let report = session.uvm_report().expect("uvm attached");
        assert_eq!(report.per_device.len(), 2, "one UVM entry per lane");
        assert_eq!(report.per_device[0].0, DeviceId(0));
        assert_eq!(report.per_device[1].0, DeviceId(1));
        let mut sum = uvm_sim::UvmStats::default();
        for (device, stats) in &report.per_device {
            assert!(stats.fault_groups > 0, "{device} faulted");
            sum.merge_from(stats);
        }
        assert_eq!(
            report.stats, sum,
            "session totals equal the lane fold (no other UVM activity ran)"
        );
        let merged = session.merged_report();
        assert_eq!(merged.uvm, Some(report), "merged report carries the slice");
        // Analysis reset clears the UVM window too — counters, the
        // per-lane breakdown and the hotness clock together.
        session.reset_analysis();
        let after = session.uvm_report().expect("manager still attached");
        assert_eq!(after.stats, uvm_sim::UvmStats::default());
        assert!(after.per_device.is_empty());
        let mut probe = crate::workload::FnWorkload::new("hotness-probe", |cx| {
            let hotness = cx.uvm().expect("uvm attached").hotness();
            assert_eq!(hotness.events_seen(), 0, "hotness clock reset with stats");
            Ok(crate::workload::WorkloadStats::new(0))
        });
        session.run(&mut probe).unwrap();
    }

    #[test]
    fn knobs_and_stacks_populate_during_runs() {
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(DeviceHungry)
            .capture_knob(Some(Knob::MaxMemReferencedKernel))
            .build()
            .unwrap();
        session
            .run_model_scaled(ModelZoo::Bert, RunKind::Inference, 1, 8)
            .unwrap();
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
