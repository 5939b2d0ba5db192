//! The shared trace-profiler machinery behind Compute Sanitizer and NVBit.
//!
//! [`TraceProfiler`] implements [`crate::DeviceProbe`]. Per access
//! batch it (1) charges instrumentation costs to the simulated clocks
//! according to the backend kind and analysis mode, (2) accumulates the
//! Fig. 10 overhead breakdown, and (3) forwards the events to the attached
//! [`DeviceTraceSink`] (the PASTA event processor).
//!
//! The two analysis modes reproduce the paper's Fig. 2:
//!
//! * **CpuPostProcess** — records fill a fixed device buffer; each time it
//!   fills, the kernel stalls for a flush (latency + PCIe transfer), and a
//!   single host thread later drains and analyzes every record. Host
//!   analysis time is charged to the host clock, delaying every subsequent
//!   launch — this is what makes conventional tools orders of magnitude
//!   slower (Fig. 9).
//! * **GpuResident** — parallel device analysis threads consume records in
//!   situ (fused collect+analyze); only a small result buffer crosses the
//!   link at kernel end.

use super::overhead::OverheadBreakdown;
use super::sink::{DeviceTraceSink, TraceCtx};
use crate::symbol::Symbol;
use crate::sync::Mutex;
use crate::trace::{TraceBufferModel, TRACE_RECORD_BYTES};
use crate::{
    AccessBatch, AnalysisMode, DeviceProbe, InstrCoverage, KernelTraceSummary, ProbeConfig,
    ProbeCosts,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Backend-specific cost constants — the only place a per-record
/// instrumentation or analysis cost is written down: one preset per
/// backend ([`BackendCosts::sanitizer`], [`BackendCosts::nvbit`], and
/// ROCProfiler's in `vendor_amd::rocprofiler`), from which the backends'
/// configs also read their defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCosts {
    /// Device time per instrumented record for the inline callback, ns.
    pub device_callback_ns_per_record: f64,
    /// Host time per record for single-thread analysis, ns.
    pub cpu_analysis_ns_per_record: f64,
    /// Host time per record to drain fetched buffers, ns.
    pub cpu_drain_ns_per_record: f64,
    /// Device time per record for one GPU analysis thread, ns.
    pub gpu_analysis_ns_per_record: f64,
    /// Width of the on-device analysis thread group.
    pub gpu_analysis_threads: u64,
    /// Trace buffer model (CPU-post-process mode).
    pub buffer: TraceBufferModel,
    /// Kernel stall per buffer flush, ns.
    pub buffer_flush_latency_ns: u64,
    /// One-time host cost to dump+parse SASS per unique kernel, ns
    /// (NVBit only; zero for Compute Sanitizer).
    pub sass_parse_ns_per_kernel: u64,
    /// Result-buffer bytes shipped at kernel end (GPU-resident mode).
    pub result_buffer_bytes: u64,
}

impl BackendCosts {
    /// Compute Sanitizer defaults: light callbacks, no SASS parsing.
    ///
    /// Records are *warp-level* (32 lanes per record). The device callback
    /// cost of ~2.8 ns per warp record (~0.09 ns per thread access) yields
    /// the one-to-two-orders-of-magnitude kernel slowdown real patched
    /// instrumentation shows; the single-thread CPU analysis cost of
    /// ~4.3 us per warp record (~135 ns per thread access) reproduces the
    /// paper's measured CS-CPU / CS-GPU gap (941x on A100, 627x on 3060).
    pub fn sanitizer() -> Self {
        BackendCosts {
            device_callback_ns_per_record: 2.8,
            cpu_analysis_ns_per_record: 2_800.0,
            cpu_drain_ns_per_record: 150.0,
            gpu_analysis_ns_per_record: 0.9,
            gpu_analysis_threads: 4_096,
            buffer: TraceBufferModel::new_4mib(),
            buffer_flush_latency_ns: 30_000,
            sass_parse_ns_per_kernel: 0,
            result_buffer_bytes: 64 << 10,
        }
    }

    /// NVBit defaults: heavier trampolines, per-record SASS decoding on the
    /// host, and a one-time SASS dump+parse per unique kernel. The host
    /// analysis constant is ~14x the Compute Sanitizer one, matching the
    /// paper's measured NVBIT-CPU / CS-CPU gap (13006/941 = 13.8 on A100).
    pub fn nvbit() -> Self {
        BackendCosts {
            device_callback_ns_per_record: 8.0,
            cpu_analysis_ns_per_record: 39_000.0,
            cpu_drain_ns_per_record: 400.0,
            gpu_analysis_ns_per_record: 1.2,
            gpu_analysis_threads: 4_096,
            buffer: TraceBufferModel::new_4mib(),
            buffer_flush_latency_ns: 45_000,
            sass_parse_ns_per_kernel: 80_000_000,
            result_buffer_bytes: 64 << 10,
        }
    }
}

/// State shared between a running profiler and its [`ProfilerHandle`].
pub struct ProfilerShared {
    /// Accumulated overhead, Fig. 10 style.
    pub breakdown: OverheadBreakdown,
    /// Downstream consumer (the PASTA event processor), if attached.
    pub sink: Option<Box<dyn DeviceTraceSink>>,
    /// Total records observed (post-sampling).
    pub records_total: u64,
    /// Kernels instrumented.
    pub kernels: u64,
}

impl std::fmt::Debug for ProfilerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilerShared")
            .field("breakdown", &self.breakdown)
            .field("records_total", &self.records_total)
            .field("kernels", &self.kernels)
            .field("sink_attached", &self.sink.is_some())
            .finish()
    }
}

/// Caller-side handle to a profiler that has been moved into the engine.
#[derive(Debug, Clone)]
pub struct ProfilerHandle {
    shared: Arc<Mutex<ProfilerShared>>,
}

impl ProfilerHandle {
    /// Installs (or replaces) the downstream trace sink.
    pub fn set_sink(&self, sink: Box<dyn DeviceTraceSink>) {
        self.shared.lock().sink = Some(sink);
    }

    /// Snapshot of the overhead breakdown.
    pub fn breakdown(&self) -> OverheadBreakdown {
        self.shared.lock().breakdown
    }

    /// Total records observed so far.
    pub fn records_total(&self) -> u64 {
        self.shared.lock().records_total
    }

    /// Kernels instrumented so far.
    pub fn kernels(&self) -> u64 {
        self.shared.lock().kernels
    }

    /// Resets counters and breakdown (keeps the sink).
    pub fn reset(&self) {
        let mut s = self.shared.lock();
        s.breakdown = OverheadBreakdown::default();
        s.records_total = 0;
        s.kernels = 0;
    }
}

/// What pricing a record takes: the cost model and the in-flight
/// kernel's buffer-flush bookkeeping. Apart from [`ProfilerShared`] so a
/// callback can charge while it holds the shared lock.
struct Meter {
    mode: AnalysisMode,
    costs: BackendCosts,
    /// Per-device host-link bandwidth, GB/s (indexed by device ordinal).
    link_bw: Vec<f64>,
    /// Records so far in the current kernel (buffer-flush bookkeeping).
    cur_records: u64,
    cur_flushes: u64,
}

/// A vendor instrumentation backend attached to the simulator.
pub struct TraceProfiler {
    coverage: InstrCoverage,
    meter: Meter,
    shared: Arc<Mutex<ProfilerShared>>,
    parsed_kernels: HashSet<Symbol>,
}

impl std::fmt::Debug for TraceProfiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceProfiler")
            .field("coverage", &self.coverage)
            .field("mode", &self.meter.mode)
            .finish()
    }
}

impl TraceProfiler {
    /// Creates a profiler and its handle.
    ///
    /// `link_bw` carries the host-link bandwidth of each device, in device
    /// order. Record sampling is the sink's to ask for: the rate arrives in
    /// the [`ProbeConfig`] it returns at kernel begin.
    pub fn new(
        coverage: InstrCoverage,
        mode: AnalysisMode,
        costs: BackendCosts,
        link_bw: Vec<f64>,
    ) -> (Self, ProfilerHandle) {
        let shared = Arc::new(Mutex::new(ProfilerShared {
            breakdown: OverheadBreakdown::default(),
            sink: None,
            records_total: 0,
            kernels: 0,
        }));
        let handle = ProfilerHandle {
            shared: Arc::clone(&shared),
        };
        (
            TraceProfiler {
                coverage,
                meter: Meter {
                    mode,
                    costs,
                    link_bw,
                    cur_records: 0,
                    cur_flushes: 0,
                },
                shared,
                parsed_kernels: HashSet::new(),
            },
            handle,
        )
    }

    /// One callback: charges each count in `records` as one batch of trace
    /// records and forwards to the sink, under a single acquisition of the
    /// shared lock.
    fn deliver(
        &mut self,
        ctx: &TraceCtx,
        records: impl IntoIterator<Item = u64>,
        forward: impl FnOnce(&mut dyn DeviceTraceSink),
    ) -> ProbeCosts {
        let mut shared = self.shared.lock();
        let device = ctx.device.index();
        let costs = records.into_iter().fold(ProbeCosts::FREE, |costs, n| {
            costs.merge(self.meter.charge(&mut shared, device, n))
        });
        if let Some(sink) = shared.sink.as_deref_mut() {
            forward(sink);
        }
        costs
    }
}

/// `x.ceil() as u64` without the call into libm the baseline x86-64
/// target makes of `ceil`: truncate, then add one when that dropped a
/// fraction. Equal for every `f64` — NaN and negatives give 0, and past
/// `u64::MAX` both saturate.
fn ceil_u64(x: f64) -> u64 {
    let floor = x as u64;
    floor.saturating_add(u64::from((floor as f64) < x))
}

impl Meter {
    fn link_bw(&self, device: usize) -> f64 {
        self.link_bw.get(device).copied().unwrap_or(16.0)
    }

    /// Cost of one batch in the current mode; also updates the breakdown.
    fn charge(&mut self, shared: &mut ProfilerShared, device: usize, records: u64) -> ProbeCosts {
        let callback = ceil_u64(records as f64 * self.costs.device_callback_ns_per_record);
        let mut costs = ProbeCosts {
            device_ns: callback,
            host_ns: 0,
        };
        shared.breakdown.collection_ns += callback;
        shared.records_total += records;
        match self.mode {
            AnalysisMode::GpuResident => {
                let analyze = ceil_u64(
                    records as f64 * self.costs.gpu_analysis_ns_per_record
                        / self.costs.gpu_analysis_threads as f64,
                );
                costs.device_ns += analyze;
                // Fused collect-and-analyze: the paper reports both under
                // "collection" for the GPU-resident variant.
                shared.breakdown.collection_ns += analyze;
            }
            AnalysisMode::CpuPostProcess => {
                self.cur_records += records;
                let flushes_now = self.costs.buffer.stall_flushes(self.cur_records);
                let new_flushes = flushes_now - self.cur_flushes;
                self.cur_flushes = flushes_now;
                if new_flushes > 0 {
                    let bytes_per_flush = self.costs.buffer.capacity_records * TRACE_RECORD_BYTES;
                    let xfer = (bytes_per_flush as f64 / self.link_bw(device)) as u64;
                    let stall = new_flushes * (self.costs.buffer_flush_latency_ns + xfer);
                    costs.device_ns += stall;
                    shared.breakdown.transfer_ns += stall;
                }
                let host = ceil_u64(
                    records as f64
                        * (self.costs.cpu_drain_ns_per_record
                            + self.costs.cpu_analysis_ns_per_record),
                );
                costs.host_ns += host;
                shared.breakdown.analysis_ns += host;
            }
        }
        costs
    }
}

impl DeviceProbe for TraceProfiler {
    fn on_kernel_begin(&mut self, ctx: &TraceCtx) -> ProbeConfig {
        self.meter.cur_records = 0;
        self.meter.cur_flushes = 0;
        let mut shared = self.shared.lock();
        let config = match shared.sink.as_mut() {
            Some(sink) => sink.on_kernel_begin(ctx),
            None => ProbeConfig::all(),
        };
        if !config.is_disabled() {
            shared.kernels += 1;
        }
        config
    }

    fn on_access_batches(&mut self, ctx: &TraceCtx, batches: &[AccessBatch]) -> ProbeCosts {
        self.deliver(ctx, batches.iter().map(|b| b.records), |sink| {
            sink.on_batches(ctx, batches)
        })
    }

    fn on_barriers(&mut self, ctx: &TraceCtx, count: u64) -> ProbeCosts {
        self.deliver(ctx, Some(count), |sink| sink.on_barriers(ctx, count))
    }

    fn on_block_boundaries(&mut self, ctx: &TraceCtx, count: u64) -> ProbeCosts {
        // Block entry/exit callbacks are cheap and are not trace records.
        self.deliver(ctx, None, |sink| sink.on_blocks(ctx, count))
    }

    fn on_kernel_end(&mut self, ctx: &TraceCtx, summary: &KernelTraceSummary) -> ProbeCosts {
        let mut costs = ProbeCosts::FREE;
        let device = ctx.device.index();
        let meter = &self.meter;

        // NVBit pays a one-time SASS dump+parse per unique kernel symbol.
        if meter.costs.sass_parse_ns_per_kernel > 0 && self.parsed_kernels.insert(ctx.name) {
            costs.host_ns += meter.costs.sass_parse_ns_per_kernel;
            self.shared.lock().breakdown.setup_ns += meter.costs.sass_parse_ns_per_kernel;
        }

        match meter.mode {
            AnalysisMode::GpuResident => {
                // Ship the small result buffer back at kernel end.
                let xfer = (meter.costs.result_buffer_bytes as f64 / meter.link_bw(device)) as u64;
                costs.device_ns += xfer;
                self.shared.lock().breakdown.transfer_ns += xfer;
            }
            AnalysisMode::CpuPostProcess => {
                // Final partial buffer drains after the kernel completes; the
                // host pays the transfer but the kernel does not stall.
                let leftover =
                    meter.cur_records - meter.cur_flushes * meter.costs.buffer.capacity_records;
                let xfer = (leftover * TRACE_RECORD_BYTES) as f64 / meter.link_bw(device);
                costs.host_ns += xfer as u64;
                self.shared.lock().breakdown.transfer_ns += xfer as u64;
            }
        }

        let mut shared = self.shared.lock();
        if let Some(sink) = shared.sink.as_mut() {
            if self.coverage == InstrCoverage::AllInstructions {
                sink.on_instructions(ctx, summary.instructions);
            }
            sink.on_kernel_end(ctx, summary);
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, Dim3, KernelBody, KernelDesc, LaunchId};

    fn kctx(desc: &KernelDesc) -> TraceCtx {
        TraceCtx {
            launch: LaunchId(1),
            device: DeviceId(0),
            stream: 0,
            name: desc.name,
            grid: desc.grid,
            block: desc.block,
        }
    }

    fn batch(records: u64) -> AccessBatch {
        AccessBatch {
            launch: LaunchId(1),
            spec_index: 0,
            base: 0x1000,
            len: records * 128,
            records,
            bytes: records * 128,
            elem_size: 4,
            kind: crate::kernel::AccessKind::Load,
            space: crate::kernel::MemSpace::Global,
            pattern: crate::kernel::AccessPattern::Sequential,
        }
    }

    fn desc() -> KernelDesc {
        KernelDesc::new("k", Dim3::linear(8), Dim3::linear(128)).body(KernelBody::compute(1_000))
    }

    #[test]
    fn gpu_mode_is_much_cheaper_than_cpu_mode() {
        let records = 10_000_000;
        let d = desc();

        let (mut gpu, gh) = TraceProfiler::new(
            InstrCoverage::MemoryAndBarrier,
            AnalysisMode::GpuResident,
            BackendCosts::sanitizer(),
            vec![24.0],
        );
        gpu.on_kernel_begin(&kctx(&d));
        let gc = gpu.on_access_batches(&kctx(&d), &[batch(records)]);
        gpu.on_kernel_end(&kctx(&d), &KernelTraceSummary::default());

        let (mut cpu, ch) = TraceProfiler::new(
            InstrCoverage::MemoryAndBarrier,
            AnalysisMode::CpuPostProcess,
            BackendCosts::sanitizer(),
            vec![24.0],
        );
        cpu.on_kernel_begin(&kctx(&d));
        let cc = cpu.on_access_batches(&kctx(&d), &[batch(records)]);
        cpu.on_kernel_end(&kctx(&d), &KernelTraceSummary::default());

        let gpu_total = gh.breakdown().total_ns();
        let cpu_total = ch.breakdown().total_ns();
        assert!(
            cpu_total > gpu_total * 100,
            "CPU mode {cpu_total}ns must dwarf GPU mode {gpu_total}ns"
        );
        assert!(cc.host_ns > 0, "CPU mode charges host analysis");
        assert_eq!(gc.host_ns, 0, "GPU mode has no host analysis");
    }

    #[test]
    fn cpu_mode_stalls_on_full_buffers() {
        let d = desc();
        let costs = BackendCosts {
            buffer: TraceBufferModel {
                capacity_records: 1_000,
            },
            ..BackendCosts::sanitizer()
        };
        let (mut p, h) = TraceProfiler::new(
            InstrCoverage::MemoryAndBarrier,
            AnalysisMode::CpuPostProcess,
            costs,
            vec![24.0],
        );
        p.on_kernel_begin(&kctx(&d));
        let c = p.on_access_batches(&kctx(&d), &[batch(10_000)]);
        assert!(
            c.device_ns > 10 * 30_000,
            "10 flushes worth of stalls expected, got {}",
            c.device_ns
        );
        assert!(h.breakdown().transfer_ns > 0);
    }

    #[test]
    fn nvbit_pays_sass_parse_once_per_kernel() {
        let d = desc();
        let (mut p, h) = TraceProfiler::new(
            InstrCoverage::AllInstructions,
            AnalysisMode::CpuPostProcess,
            BackendCosts::nvbit(),
            vec![24.0],
        );
        for _ in 0..3 {
            p.on_kernel_begin(&kctx(&d));
            p.on_kernel_end(&kctx(&d), &KernelTraceSummary::default());
        }
        assert_eq!(
            h.breakdown().setup_ns,
            BackendCosts::nvbit().sass_parse_ns_per_kernel,
            "same kernel symbol parses once"
        );
    }

    #[test]
    fn sink_receives_forwarded_events() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static BATCHES: AtomicU64 = AtomicU64::new(0);
        struct Counting;
        impl DeviceTraceSink for Counting {
            fn on_batch(&mut self, _ctx: &TraceCtx, _b: &AccessBatch) {
                BATCHES.fetch_add(1, Ordering::Relaxed);
            }
        }
        let d = desc();
        let (mut p, h) = TraceProfiler::new(
            InstrCoverage::MemoryAndBarrier,
            AnalysisMode::GpuResident,
            BackendCosts::sanitizer(),
            vec![24.0],
        );
        h.set_sink(Box::new(Counting));
        p.on_kernel_begin(&kctx(&d));
        p.on_access_batches(&kctx(&d), &[batch(10)]);
        p.on_access_batches(&kctx(&d), &[batch(10)]);
        assert_eq!(BATCHES.load(Ordering::Relaxed), 2);
        assert_eq!(h.records_total(), 20);
    }

    #[test]
    fn launches_reach_the_sink_in_order_under_one_context_with_exact_charges() {
        use crate::{DeviceSpec, Engine};

        /// Logs every callback with the context it came with.
        struct Logging(Arc<Mutex<Vec<(String, TraceCtx)>>>);
        impl Logging {
            fn log(&mut self, what: String, ctx: &TraceCtx) {
                self.0.lock().push((what, ctx.clone()));
            }
        }
        impl DeviceTraceSink for Logging {
            fn on_kernel_begin(&mut self, ctx: &TraceCtx) -> ProbeConfig {
                self.log("begin".into(), ctx);
                ProbeConfig::all()
            }
            fn on_batch(&mut self, ctx: &TraceCtx, b: &AccessBatch) {
                self.log(format!("batch {} x{}", b.spec_index, b.records), ctx);
            }
            fn on_barriers(&mut self, ctx: &TraceCtx, count: u64) {
                self.log(format!("barriers {count}"), ctx);
            }
            fn on_blocks(&mut self, ctx: &TraceCtx, count: u64) {
                self.log(format!("blocks {count}"), ctx);
            }
            fn on_instructions(&mut self, ctx: &TraceCtx, count: u64) {
                self.log(format!("instructions {count}"), ctx);
            }
            fn on_kernel_end(&mut self, ctx: &TraceCtx, s: &KernelTraceSummary) {
                self.log(
                    format!("end {}+{}", s.global_records, s.shared_records),
                    ctx,
                );
            }
        }

        // Readings taken before the callbacks shared one lock acquisition
        // and borrowed the cached context; they must never move.
        let expected = [
            (
                AnalysisMode::CpuPostProcess,
                OverheadBreakdown {
                    collection_ns: 135_168,
                    transfer_ns: 736_896,
                    analysis_ns: 665_702_400,
                    setup_ns: 80_000_000,
                },
            ),
            (
                AnalysisMode::GpuResident,
                OverheadBreakdown {
                    collection_ns: 135_178,
                    transfer_ns: 5_460,
                    analysis_ns: 0,
                    setup_ns: 80_000_000,
                },
            ),
        ];
        for (mode, breakdown) in expected {
            let log = Arc::new(Mutex::new(Vec::new()));
            let costs = BackendCosts {
                buffer: TraceBufferModel {
                    capacity_records: 1_000,
                },
                ..BackendCosts::nvbit()
            };
            let (profiler, handle) =
                TraceProfiler::new(InstrCoverage::AllInstructions, mode, costs, vec![24.0]);
            handle.set_sink(Box::new(Logging(Arc::clone(&log))));
            let mut engine = Engine::new(vec![DeviceSpec::a100_80gb()]);
            let device = DeviceId(0);
            let buf = engine.malloc(device, 1 << 20).unwrap();
            engine.set_probe(Box::new(profiler));
            let desc = KernelDesc::new("k", Dim3::linear(64), Dim3::linear(128))
                .arg(buf, 1 << 20)
                .body(KernelBody::streaming(1 << 19, 1 << 19).with_barriers(4));
            for _ in 0..2 {
                engine.launch(device, 3, &desc).unwrap();
            }

            let log = log.lock();
            let calls: Vec<&str> = log.iter().map(|(what, _)| what.as_str()).collect();
            let one_launch = [
                "begin",
                "batch 0 x4096",
                "batch 1 x4096",
                "barriers 256",
                "blocks 64",
                "instructions 15974",
                "end 8192+0",
            ];
            assert_eq!(calls, [one_launch, one_launch].concat(), "{mode:?}");
            for (i, (what, ctx)) in log.iter().enumerate() {
                let launch_ctx = TraceCtx {
                    launch: LaunchId((i / one_launch.len()) as u64),
                    device,
                    stream: 3,
                    name: "k".into(),
                    grid: Dim3::linear(64),
                    block: Dim3::linear(128),
                };
                assert_eq!(ctx, &launch_ctx, "{mode:?}: context of `{what}`");
            }
            assert_eq!(handle.breakdown(), breakdown, "{mode:?}");
            assert_eq!(handle.records_total(), 2 * (8192 + 256), "{mode:?}");
            assert_eq!(handle.kernels(), 2, "{mode:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Every product `Meter::charge` rounds: a record count times a
        /// shipped per-record constant (or a random positive rate), also
        /// past 2^53 where `f64` holds integers only and past 2^64 where
        /// the cast saturates.
        #[test]
        fn ceil_u64_is_f64_ceil(
            records in 0u64..(1 << 52) + 1,
            shift in 0u32..53,
            rate_bits in proptest::any::<u64>(),
        ) {
            let rate = (rate_bits >> 11) as f64 / (1u64 << 53) as f64 * 50_000.0;
            // Small counts are the common case; `shift` reaches them.
            for records in [records, records >> shift] {
                let n = records as f64;
                let mut products = vec![n * rate, n * rate / 4_096.0];
                for c in [BackendCosts::sanitizer(), BackendCosts::nvbit()] {
                    products.extend([
                        n * c.device_callback_ns_per_record,
                        n * c.gpu_analysis_ns_per_record / c.gpu_analysis_threads as f64,
                        n * (c.cpu_drain_ns_per_record + c.cpu_analysis_ns_per_record),
                    ]);
                }
                for x in products {
                    proptest::prop_assert_eq!(ceil_u64(x), x.ceil() as u64, "{records}: {x}");
                }
            }
        }
    }

    #[test]
    fn ceil_u64_agrees_at_the_edges() {
        for x in [
            0.0,
            -0.0,
            -0.5,
            -3.0,
            0.1,
            1.0,
            (1u64 << 53) as f64 - 0.5,
            (1u64 << 53) as f64,
            u64::MAX as f64,
            1e30,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x}");
        }
    }

    #[test]
    fn handle_reset_clears_counters() {
        let d = desc();
        let (mut p, h) = TraceProfiler::new(
            InstrCoverage::MemoryAndBarrier,
            AnalysisMode::GpuResident,
            BackendCosts::sanitizer(),
            vec![24.0],
        );
        p.on_kernel_begin(&kctx(&d));
        p.on_access_batches(&kctx(&d), &[batch(100)]);
        assert!(h.records_total() > 0);
        h.reset();
        assert_eq!(h.records_total(), 0);
        assert_eq!(h.breakdown().total_ns(), 0);
    }
}
