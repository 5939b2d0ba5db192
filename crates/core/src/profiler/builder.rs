//! [`PastaBuilder`] and what it resolves its inputs into: the hub, the UVM
//! manager and the `ContextRecipe` every vendor context and instrumented
//! framework session of the session — its own and each parallel lane's —
//! comes out of.

use super::parallel::ParallelConfig;
use super::session::PastaSession;
use crate::error::PastaError;
use crate::event::{Event, EventClass};
use crate::handler::{attach, attach_framework};
use crate::hub::{new_shared, Hub, HubSink, SharedHub};
use crate::knob::Knob;
use crate::normalize::{class_of_nv, class_of_roc, normalize_nv, normalize_roc};
use crate::processor::EventProcessor;
use crate::range::RangeFilter;
use crate::tool::Tool;
use accel_sim::instrument::{BackendCosts, ProfilerHandle};
use accel_sim::{
    AccelError, AnalysisMode, DeviceId, DeviceRuntime, DeviceSpec, Engine, InstrCoverage,
    OverheadBreakdown, Vendor,
};
use dl_framework::alloc::AllocatorConfig;
use dl_framework::backend::BackendProfile;
use dl_framework::session::Session;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use uvm_sim::runtime::{Context, Vocabulary};
use uvm_sim::{PrefetchPlan, UvmConfig, UvmManager, PAGE_SIZE};
use vendor_amd::rocprofiler::RocProfilerConfig;
use vendor_nv::sanitizer::SanitizerConfig;

/// Which instrumentation backend to attach (paper §III-D: users "choose
/// either of these libraries independently or use both in conjunction").
#[derive(Debug, Clone, PartialEq)]
pub enum BackendChoice {
    /// NVIDIA Compute Sanitizer (memory/barrier coverage).
    Sanitizer(SanitizerConfig),
    /// NVIDIA NVBit (all-instruction coverage, CPU analysis).
    Nvbit,
    /// AMD ROCProfiler-SDK.
    RocProfiler(RocProfilerConfig),
    /// Host callbacks only — no device instrumentation.
    HostOnly,
}

impl BackendChoice {
    /// What a context of `vendor` attaches for this choice (`None`: host
    /// callbacks only), read from the backend's own module.
    fn resolve(
        &self,
        vendor: Vendor,
    ) -> Result<Option<(InstrCoverage, AnalysisMode, BackendCosts)>, PastaError> {
        let (home, backend) = match self {
            BackendChoice::Sanitizer(cfg) => (Vendor::Nvidia, cfg.backend()),
            BackendChoice::Nvbit => (Vendor::Nvidia, vendor_nv::nvbit::backend()),
            BackendChoice::RocProfiler(cfg) => (Vendor::Amd, cfg.backend()),
            BackendChoice::HostOnly => return Ok(None),
        };
        // Anything that is not AMD runs on the CUDA context.
        if (home == Vendor::Amd) != (vendor == Vendor::Amd) {
            return Err(PastaError::Config(format!(
                "{home} backends cannot attach to {vendor} devices"
            )));
        }
        Ok(Some(backend))
    }
}

/// UVM attachment configuration.
///
/// Managed ranges default to *private* (per-device demand paging). A
/// workload — or a parallel lane — can additionally mark a range
/// **shared** across devices through
/// [`accel_sim::ResidencyModel::register_shared`] (reachable through the
/// session's `runtime_mut().residency_mut()`): remote
/// reads then read-duplicate the owner's copy over the peer link and
/// remote writes invalidate the other devices' duplicates, with the
/// traffic surfacing in [`crate::UvmReport::peer_bytes`] and
/// `Event::UvmPeerMigrate`.
#[derive(Debug, Clone, PartialEq)]
pub struct UvmSetup {
    /// Managed-memory budget per device; `None` = full usable capacity.
    /// Setting this below the workload footprint creates oversubscription
    /// (paper §V-A methodology). A budget below one 64 KiB page holds no
    /// page at all and fails the build.
    pub budget_bytes: Option<u64>,
    /// Back the DL framework's caching allocator with
    /// `cudaMallocManaged` so every tensor lives in managed memory.
    pub managed_allocator: bool,
}

impl Default for UvmSetup {
    fn default() -> Self {
        UvmSetup {
            budget_bytes: None,
            managed_allocator: true,
        }
    }
}

/// What a session asks of its vendor context beyond [`DeviceRuntime`],
/// whichever vocabulary the context speaks.
pub(super) trait SessionRuntime: DeviceRuntime {
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
    pub(super) fn uvm_manager(&self) -> Option<&UvmManager> {
        self.residency()
            .and_then(|r| (r as &dyn Any).downcast_ref())
    }

    /// Mutable access to the attached UVM manager, if any.
    pub(super) fn uvm_manager_mut(&mut self) -> Option<&mut UvmManager> {
        self.residency_mut()
            .and_then(|r| (r as &mut dyn Any).downcast_mut())
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

    /// Registers every tool of `tools`, in order (a named suite, say).
    pub fn tools(mut self, tools: impl IntoIterator<Item = Box<dyn Tool>>) -> Self {
        self.tools.extend(tools);
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

    /// Record-sampling factor (`ACCEL_PROF_ENV_SAMPLE_RATE`): every
    /// backend of either vendor processes one record in `rate` (0, like 1,
    /// keeps them all).
    pub fn sampling(mut self, rate: u32) -> Self {
        self.sampling_rate = rate;
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
    /// vendors, duplicate tool names, a backend/vendor mismatch, a trace
    /// buffer smaller than one record, or a UVM budget smaller than one
    /// page.
    /// (No device selection at all defaults to one A100.)
    pub fn build(self) -> Result<PastaSession, PastaError> {
        if let Some(budget) = self.uvm.as_ref().and_then(|u| u.budget_bytes) {
            if budget < PAGE_SIZE {
                return Err(PastaError::Config(format!(
                    "UvmSetup budget_bytes must hold at least one {PAGE_SIZE}-byte page \
                     (got {budget})"
                )));
            }
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
        processor.sampling_rate = self.sampling_rate;
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

        let mode = self.analysis_mode;
        let backend = self.backend.unwrap_or(match vendor {
            Vendor::Amd => BackendChoice::RocProfiler(RocProfilerConfig { mode }),
            _ => BackendChoice::Sanitizer(SanitizerConfig {
                mode,
                ..SanitizerConfig::default()
            }),
        });

        // The residency model is the same whichever vocabulary the context
        // speaks, so it is built before one is chosen.
        let uvm = self.uvm.as_ref().map(|uvm_setup| {
            let mut uvm = UvmManager::new(UvmConfig);
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
            backend: backend.resolve(vendor)?.filter(|_| wants_device),
            managed_allocator: self
                .uvm
                .is_some_and(|uvm_setup| uvm_setup.managed_allocator),
        };
        let (runtime, profiler) = recipe.build(&hub, DeviceId(0), None, uvm)?;

        Ok(PastaSession {
            runtime,
            hub,
            profiler,
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

/// What every vendor context and instrumented framework session of a
/// PASTA session is built from: the session's own and each parallel
/// lane's come out of [`ContextRecipe::build`] and
/// [`ContextRecipe::framework_session`], so the two cannot drift.
pub(super) struct ContextRecipe {
    /// Device specs the session was built with, shared with every
    /// per-lane context of a parallel region.
    pub(super) specs: Arc<[DeviceSpec]>,
    /// What a context attaches — coverage, analysis mode, costs — when the
    /// backend choice instruments the device and a tool wants its events.
    backend: Option<(InstrCoverage, AnalysisMode, BackendCosts)>,
    /// Whether the framework's caching allocator hands out managed
    /// memory ([`UvmSetup::managed_allocator`]).
    pub(super) managed_allocator: bool,
}

impl ContextRecipe {
    /// A context over the full device list, pinned to `device`: host
    /// callbacks normalized into `hub`, `uvm` as the residency model and,
    /// when tools want device events, the backend's profiler with an inline
    /// sink into `hub`. `home` is `Some(device)` only for a lane of a
    /// sharded hub: its host callbacks then tally what its own shard turns
    /// away without a locked add (`DeviceShard::count_gated`).
    pub(super) fn build(
        &self,
        hub: &SharedHub,
        device: DeviceId,
        home: Option<DeviceId>,
        uvm: Option<UvmManager>,
    ) -> Result<(Box<dyn SessionRuntime>, Option<ProfilerHandle>), PastaError> {
        let (mut runtime, profiler) = match self.specs[0].vendor {
            Vendor::Amd => self.context(hub, home, class_of_roc, normalize_roc)?,
            _ => self.context(hub, home, class_of_nv, normalize_nv)?,
        };
        runtime.set_device(device)?;
        if let Some(uvm) = uvm {
            runtime.engine_mut().set_residency(Box::new(uvm));
        }
        if let Some(handle) = &profiler {
            handle.set_sink(Box::new(HubSink::inline_spine(Arc::clone(hub))));
        }
        Ok((runtime, profiler))
    }

    /// A context speaking `C` over the recipe's devices: host callbacks
    /// gated by `class_of` and normalized into `hub` by `normalize`, the
    /// recipe's backend attached.
    fn context<C: Vocabulary + Send>(
        &self,
        hub: &SharedHub,
        home: Option<DeviceId>,
        class_of: fn(&C) -> Option<(EventClass, DeviceId)>,
        normalize: fn(&C) -> Option<Event>,
    ) -> Result<(Box<dyn SessionRuntime>, Option<ProfilerHandle>), PastaError> {
        let mut ctx = Context::<C>::new(Arc::clone(&self.specs));
        attach(&mut ctx, Arc::clone(hub), home, class_of, normalize);
        let profiler = match &self.backend {
            Some((coverage, mode, costs)) => Some(
                ctx.attach_profiler(*coverage, *mode, costs.clone())
                    .map_err(|e| match e {
                        AccelError::Config(msg) => PastaError::Config(msg),
                        other => other.into(),
                    })?,
            ),
            None => None,
        };
        Ok((Box::new(ctx), profiler))
    }

    /// A fresh framework session over `rt` — the recipe's allocator
    /// backing, the vendor's backend profile — with its callbacks
    /// normalized into `hub`, for a subscriber whose home is `home` (as in
    /// [`ContextRecipe::build`]).
    pub(super) fn framework_session<'rt>(
        &self,
        rt: &'rt mut dyn DeviceRuntime,
        hub: &SharedHub,
        home: Option<DeviceId>,
    ) -> Session<'rt> {
        let alloc_config = if self.managed_allocator {
            AllocatorConfig::managed()
        } else {
            AllocatorConfig::default()
        };
        let backend = BackendProfile::for_vendor(rt.vendor());
        let mut session = Session::with_config(rt, backend, alloc_config);
        attach_framework(&mut session, Arc::clone(hub), home);
        session
    }
}

#[cfg(test)]
mod tests {
    use super::super::DeviceHungry;
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

    #[test]
    fn sub_record_trace_buffer_is_a_config_error_naming_the_field() {
        let config = SanitizerConfig::cpu_post_process().with_buffer_bytes(8);
        let r = Pasta::builder()
            .tool(DeviceHungry)
            .backend(BackendChoice::Sanitizer(config))
            .build();
        let Err(PastaError::Config(msg)) = r else {
            panic!("a trace buffer below one record must be a config error");
        };
        assert!(msg.contains("buffer_bytes"), "unhelpful message: {msg}");
    }

    #[test]
    fn the_extremes_of_an_amd_backend_and_a_uvm_setup_build() {
        // `RocProfilerConfig` carries a mode and `UvmSetup` a budget and
        // an allocator flag; the buffer and the UVM cost model are
        // constants checked at compile time, so the extremes of what is
        // left build: a budget of one page up to the largest.
        for (mode, budget) in [
            (AnalysisMode::GpuResident, PAGE_SIZE),
            (AnalysisMode::CpuPostProcess, u64::MAX),
        ] {
            let session = Pasta::builder()
                .mi300x()
                .tool(DeviceHungry)
                .backend(BackendChoice::RocProfiler(RocProfilerConfig { mode }))
                .uvm(UvmSetup {
                    budget_bytes: Some(budget),
                    managed_allocator: budget == 0,
                })
                .build();
            assert!(session.is_ok_and(|s| s.profiler.is_some()));
        }
    }

    #[test]
    fn a_uvm_budget_below_one_page_is_a_config_error_naming_the_field() {
        let build = |budget| {
            Pasta::builder()
                .uvm(UvmSetup {
                    budget_bytes: Some(budget),
                    ..UvmSetup::default()
                })
                .build()
        };
        for budget in [0, 65_535] {
            let Err(PastaError::Config(msg)) = build(budget) else {
                panic!("a budget of {budget} bytes must be a config error");
            };
            assert!(msg.contains("budget_bytes"), "unhelpful message: {msg}");
        }
        assert_eq!(PAGE_SIZE, 65_536);
        assert!(build(PAGE_SIZE).is_ok(), "one page is a budget");
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
    fn device_tools_attach_profiler_and_every_context_delivers_inline() {
        use crate::workload::KernelSweepWorkload;
        use accel_sim::{Dim3, KernelBody, KernelDesc};
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(DeviceHungry)
            .build()
            .unwrap();
        assert!(session.profiler.is_some());
        let kernel = KernelDesc::new("ringless", Dim3::linear(8), Dim3::linear(64))
            .body(KernelBody::compute(1 << 16));
        let mut sweep = KernelSweepWorkload::new("sweep").kernel(kernel.clone());
        session.run(&mut sweep).unwrap();
        let hub = Arc::clone(&session.hub);
        let rings = || hub.shards().iter().map(|s| s.rings()).sum::<usize>();
        assert_eq!(rings(), 0, "the session's own context delivers inline");
        session
            .run_parallel(&[DeviceId(0)], |lanes| {
                lanes[0].session.launch(kernel)?;
                assert_eq!(rings(), 0, "a lane delivers inline too");
                Ok(())
            })
            .unwrap();
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
}
