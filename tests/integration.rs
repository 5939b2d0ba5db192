//! Cross-crate integration tests: full PASTA sessions over the simulated
//! stack, exercising vendor backends, analysis modes, range filtering,
//! sampling, UVM and the tool collection together.

use pasta::core::{
    AnalysisMode, BackendChoice, Knob, ModelWorkload, Pasta, PastaBuilder, RangeFilter, UvmSetup,
};
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::nv::sanitizer::SanitizerConfig;
use pasta::sim::DeviceId;
use pasta::tools::{
    BarrierStallTool, HotnessTool, KernelFrequencyTool, MemoryCharacteristicsTool,
    MemoryTimelineTool, UvmPrefetchAdvisor,
};
use pasta::uvm::PrefetchGranularity;

const DIV: usize = 8; // batch divisor keeping tests quick

#[test]
fn same_model_runs_on_both_vendors() {
    let mut nv = Pasta::builder()
        .a100()
        .tool(KernelFrequencyTool::new())
        .build()
        .unwrap();
    let nv_report = nv
        .run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(DIV))
        .unwrap();

    let mut amd = Pasta::builder()
        .mi300x()
        .tool(KernelFrequencyTool::new())
        .build()
        .unwrap();
    let amd_report = amd
        .run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(DIV))
        .unwrap();

    assert!(nv_report.kernel_launches > 40);
    // The AMD backend decomposes fused epilogues into separate kernels, so
    // it launches strictly more (the Fig. 14 "more events" observation).
    assert!(
        amd_report.kernel_launches > nv_report.kernel_launches,
        "AMD {} vs NVIDIA {}",
        amd_report.kernel_launches,
        nv_report.kernel_launches
    );
}

#[test]
fn amd_peak_memory_is_slightly_lower_than_nvidia() {
    // Fig. 14: NVIDIA peak is slightly higher (bigger cuDNN workspaces),
    // AMD issues more alloc/free events.
    let mut nv = Pasta::builder()
        .a100()
        .tool(MemoryTimelineTool::new())
        .build()
        .unwrap();
    nv.run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Training).batch_divisor(DIV))
        .unwrap();
    let (nv_peak, nv_events) = nv
        .with_tool_mut("memory-timeline", |t: &mut MemoryTimelineTool| {
            (t.peak_for(DeviceId(0)), t.events_for(DeviceId(0)))
        })
        .unwrap();

    let mut amd = Pasta::builder()
        .mi300x()
        .tool(MemoryTimelineTool::new())
        .build()
        .unwrap();
    amd.run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Training).batch_divisor(DIV))
        .unwrap();
    let (amd_peak, amd_events) = amd
        .with_tool_mut("memory-timeline", |t: &mut MemoryTimelineTool| {
            (t.peak_for(DeviceId(0)), t.events_for(DeviceId(0)))
        })
        .unwrap();

    assert!(
        amd_events >= nv_events,
        "AMD {amd_events} vs NV {nv_events}"
    );
    assert!(amd_peak <= nv_peak, "AMD {amd_peak} vs NV {nv_peak}");
}

#[test]
fn gpu_resident_analysis_is_orders_of_magnitude_cheaper() {
    let run = |mode: AnalysisMode| {
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(MemoryCharacteristicsTool::new())
            .analysis_mode(mode)
            .build()
            .unwrap();
        let r = session
            .run(&mut ModelWorkload::new(ModelZoo::AlexNet, RunKind::Inference).batch_divisor(DIV))
            .unwrap();
        (r.overhead.total_ns(), r.records)
    };
    let (gpu_overhead, gpu_records) = run(AnalysisMode::GpuResident);
    let (cpu_overhead, cpu_records) = run(AnalysisMode::CpuPostProcess);
    assert_eq!(gpu_records, cpu_records, "same records either way");
    let ratio = cpu_overhead as f64 / gpu_overhead.max(1) as f64;
    assert!(
        ratio > 100.0,
        "CPU-analysis overhead must dwarf GPU-resident: ratio {ratio}"
    );
}

#[test]
fn nvbit_costs_more_than_sanitizer() {
    let sanitizer = {
        let mut s = Pasta::builder()
            .rtx_3060()
            .tool(MemoryCharacteristicsTool::new())
            .backend(BackendChoice::Sanitizer(SanitizerConfig::cpu_post_process()))
            .build()
            .unwrap();
        s.run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(DIV))
            .unwrap()
            .overhead
            .total_ns()
    };
    let nvbit = {
        let mut s = Pasta::builder()
            .rtx_3060()
            .tool(MemoryCharacteristicsTool::new())
            .backend(BackendChoice::Nvbit)
            .build()
            .unwrap();
        s.run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(DIV))
            .unwrap()
            .overhead
            .total_ns()
    };
    assert!(
        nvbit as f64 > sanitizer as f64 * 5.0,
        "NVBit {nvbit} vs Sanitizer {sanitizer}"
    );
}

#[test]
fn sampling_reduces_records_proportionally() {
    for device in [PastaBuilder::rtx_3060, PastaBuilder::mi300x] {
        let run = |rate: u32| {
            let mut session = device(Pasta::builder())
                .tool(MemoryCharacteristicsTool::new())
                .sampling(rate)
                .build()
                .unwrap();
            session
                .run(
                    &mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference)
                        .batch_divisor(DIV),
                )
                .unwrap()
                .records
        };
        let full = run(1);
        let sampled = run(100);
        assert!(full > 0);
        let ratio = full as f64 / sampled.max(1) as f64;
        assert!(
            (20.0..500.0).contains(&ratio),
            "100x sampling should cut records ~100x, got {ratio} ({full} vs {sampled})"
        );
    }
}

#[test]
fn grid_window_restricts_instrumentation() {
    let run = |range: RangeFilter| {
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(MemoryCharacteristicsTool::new())
            .range(range)
            .build()
            .unwrap();
        session
            .run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(DIV))
            .unwrap()
            .records
    };
    let full = run(RangeFilter::all());
    let windowed = run(RangeFilter::grid_window(0, 10));
    assert!(
        windowed < full / 2,
        "10-kernel window must collect far fewer records: {windowed} vs {full}"
    );
}

#[test]
fn knob_finds_hot_kernel_and_stack() {
    let mut session = Pasta::builder()
        .a100()
        .tool(MemoryCharacteristicsTool::new())
        .capture_knob(Some(Knob::MaxMemReferencedKernel))
        .build()
        .unwrap();
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(DIV))
        .unwrap();
    let (kernel, agg) = session
        .knob_selection(Knob::MaxMemReferencedKernel)
        .expect("selection");
    assert!(agg.memory_records > 0);
    // BERT's hottest memory kernel is a GEMM (Fig. 4's gemm_and_bias).
    assert!(
        kernel.contains("sgemm") || kernel.contains("indexSelect"),
        "unexpected hot kernel {kernel}"
    );
    let stack = session.cross_layer_stack(&kernel).expect("stack captured");
    let rendered = stack.render();
    assert!(rendered.contains("── C/C++ ──"));
    assert!(rendered.contains("── Python ──"));
}

/// One UVM run of ResNet-18 with the given budget, returning
/// `(time_ns, advisor, peak_reserved)`.
fn uvm_run(plan: Option<pasta::uvm::PrefetchPlan>, budget: u64) -> (u64, UvmPrefetchAdvisor, u64) {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(UvmPrefetchAdvisor::new())
        .uvm(UvmSetup {
            budget_bytes: Some(budget),
            ..UvmSetup::default()
        })
        .build()
        .unwrap();
    if let Some(p) = plan {
        session.set_prefetch_plan(p);
    }
    let r = session
        .run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(4))
        .unwrap();
    let advisor = session
        .with_tool_mut("uvm-prefetch-advisor", |t: &mut UvmPrefetchAdvisor| {
            std::mem::take(t)
        })
        .unwrap();
    (r.profiled_time.as_nanos(), advisor, r.peak_reserved)
}

#[test]
fn prefetching_wins_without_oversubscription_object_slightly_ahead() {
    // Fig. 11's shape: with memory to spare, both granularities beat
    // demand paging, and bulk object-level transfers edge out tensor-level.
    let (_, _, footprint) = uvm_run(None, u64::MAX >> 1);
    let budget = footprint * 2;
    let (baseline, advisor, _) = uvm_run(None, budget);
    let (obj, _, _) = uvm_run(
        Some(advisor.build_plan(PrefetchGranularity::Object)),
        budget,
    );
    let (ten, _, _) = uvm_run(
        Some(advisor.build_plan(PrefetchGranularity::Tensor)),
        budget,
    );
    assert!(obj < baseline, "object-level wins: {obj} vs {baseline}");
    assert!(ten < baseline, "tensor-level wins: {ten} vs {baseline}");
    assert!(obj <= ten, "object slightly ahead when memory is free");
}

#[test]
fn tensor_prefetch_beats_object_under_oversubscription() {
    // Fig. 12's shape: at 3x oversubscription (paper methodology: budget =
    // footprint / 3), object-level prefetching thrashes while tensor-level
    // still beats the baseline.
    let (_, _, footprint) = uvm_run(None, u64::MAX >> 1);
    let budget = footprint / 3;
    let (baseline, advisor, _) = uvm_run(None, budget);
    let (obj, _, _) = uvm_run(
        Some(advisor.build_plan(PrefetchGranularity::Object)),
        budget,
    );
    let (ten, _, _) = uvm_run(
        Some(advisor.build_plan(PrefetchGranularity::Tensor)),
        budget,
    );
    assert!(
        ten < obj,
        "tensor-level {ten} must beat object-level {obj} when oversubscribed"
    );
    assert!(
        obj as f64 > baseline as f64 * 1.3,
        "object-level prefetch thrashes under oversubscription: {obj} vs {baseline}"
    );
    assert!(
        ten < baseline,
        "tensor-level still wins: {ten} vs {baseline}"
    );
}

#[test]
fn hotness_tool_sees_persistent_parameter_blocks() {
    let mut session = Pasta::builder()
        .a100()
        .tool(HotnessTool::new(32))
        .build()
        .unwrap();
    session
        .run(
            &mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
                .steps(2)
                .batch_divisor(DIV),
        )
        .unwrap();
    let (blocks, persistent) = session
        .with_tool_mut("hotness", |t: &mut HotnessTool| {
            let s = t.series();
            (s.blocks.len(), t.persistent_blocks(0.5).len())
        })
        .unwrap();
    assert!(blocks > 10, "BERT touches many 2 MiB blocks: {blocks}");
    assert!(
        persistent > 0,
        "parameters are accessed throughout execution"
    );
    assert!(persistent < blocks, "transients exist too");
}

#[test]
fn barrier_tool_attributes_stalls_to_gemms() {
    let mut session = Pasta::builder()
        .a100()
        .tool(BarrierStallTool::new())
        .build()
        .unwrap();
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(DIV))
        .unwrap();
    let ranking = session
        .with_tool_mut("barrier-stall", |t: &mut BarrierStallTool| t.ranking())
        .unwrap();
    assert!(!ranking.is_empty());
    assert!(
        ranking[0].0.contains("sgemm"),
        "GEMMs synchronize most: {}",
        ranking[0].0
    );
}

#[test]
fn training_emits_balanced_tensor_events() {
    let mut session = Pasta::builder()
        .a100()
        .tool(MemoryTimelineTool::new())
        .build()
        .unwrap();
    session
        .run(&mut ModelWorkload::new(ModelZoo::Gpt2, RunKind::Training).batch_divisor(2))
        .unwrap();
    let series: Vec<_> = session
        .with_tool_mut("memory-timeline", |t: &mut MemoryTimelineTool| {
            t.series_for(DeviceId(0)).to_vec()
        })
        .unwrap();
    assert!(
        series.len() > 500,
        "GPT-2 training is event-rich: {}",
        series.len()
    );
    // The run ends back at zero live bytes (model destroyed): ramp-down.
    assert_eq!(series.last().unwrap().allocated, 0);
    // Peak is strictly inside the run: the three-phase shape of Fig. 14.
    let peak_idx = series
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| p.allocated)
        .map(|(i, _)| i)
        .unwrap();
    assert!(peak_idx > series.len() / 10);
    assert!(peak_idx < series.len() * 9 / 10);
}

#[test]
fn whisper_runs_all_components() {
    let mut session = Pasta::builder()
        .a100()
        .tool(KernelFrequencyTool::new())
        .build()
        .unwrap();
    let r = session
        .run(&mut ModelWorkload::new(ModelZoo::Whisper, RunKind::Inference).batch_divisor(8))
        .unwrap();
    assert!(r.kernel_launches > 200);
    let has_xattn = session
        .with_tool_mut("kernel-frequency", |t: &mut KernelFrequencyTool| {
            t.ranking().iter().any(|(k, _)| k.contains("xattn"))
        })
        .unwrap();
    assert!(has_xattn, "Whisper decoder runs cross-attention kernels");
}

/// The §IV-D multi-GPU injection scenario: a Megatron-style launch tree
/// spawns one CUDA worker per GPU plus a JIT-compilation helper that never
/// creates a CUDA context. `LD_PRELOAD` instruments the helper spuriously
/// (the failure mode the paper hit); `CUDA_INJECTION64_PATH` does not.
#[test]
fn injection_model_skips_cuda_less_helpers() {
    use pasta::nv::{is_spurious, should_instrument, InjectionMethod, ProcessKind};
    let launch_tree = [
        ProcessKind::CudaContextCreator, // rank 0
        ProcessKind::CudaContextCreator, // rank 1
        ProcessKind::Helper,             // JIT compile subprocess
    ];
    let count = |m: InjectionMethod| {
        launch_tree
            .iter()
            .filter(|&&k| should_instrument(m, k))
            .count()
    };
    let spurious = |m: InjectionMethod| launch_tree.iter().filter(|&&k| is_spurious(m, k)).count();
    assert_eq!(count(InjectionMethod::LdPreload), 3);
    assert_eq!(spurious(InjectionMethod::LdPreload), 1, "the paper's bug");
    assert_eq!(count(InjectionMethod::CudaInjection64Path), 2);
    assert_eq!(spurious(InjectionMethod::CudaInjection64Path), 0);
}

/// Sums what a session delivers for its instruction interest: the counts
/// of `Event::Instructions` and how many kernel trace summaries arrived.
#[derive(Debug, Default)]
struct InstructionCounter {
    also_blocks: bool,
    instructions: u64,
    instruction_events: u64,
    traces: u64,
}

impl pasta::core::Tool for InstructionCounter {
    fn name(&self) -> &str {
        "instruction-counter"
    }
    fn interest(&self) -> pasta::core::tool::Interest {
        pasta::core::tool::Interest {
            instructions: true,
            host_events: true,
            block_boundaries: self.also_blocks,
            ..Default::default()
        }
    }
    fn on_event(&mut self, event: &pasta::core::Event) {
        match event {
            pasta::core::Event::Instructions { count, .. } => {
                self.instructions += count;
                self.instruction_events += 1;
            }
            pasta::core::Event::KernelTrace { .. } => self.traces += 1,
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// (instructions counted, `Instructions` events, `KernelTrace` events,
/// kernel launches) for one ResNet-18 inference under `backend`.
fn instructions_seen(
    also_blocks: bool,
    backend: BackendChoice,
    range: RangeFilter,
) -> (u64, u64, u64, u64) {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(InstructionCounter {
            also_blocks,
            ..Default::default()
        })
        .backend(backend)
        .range(range)
        .build()
        .unwrap();
    let launches = session
        .run(&mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference).batch_divisor(DIV))
        .unwrap()
        .kernel_launches;
    session
        .with_tool_mut("instruction-counter", |t: &mut InstructionCounter| {
            (t.instructions, t.instruction_events, t.traces, launches)
        })
        .unwrap()
}

#[test]
fn an_instructions_only_tool_gets_its_launches_walked() {
    // Regression: `instructions` had no field in the launch's probe config,
    // so a tool wanting nothing else from the device got a disabled config,
    // the engine skipped the probed walk, and no `Instructions` (NVBit's
    // all-instruction coverage, §III-D) or `KernelTrace` ever reached it.
    let alone = instructions_seen(false, BackendChoice::Nvbit, RangeFilter::all());
    let with_blocks = instructions_seen(true, BackendChoice::Nvbit, RangeFilter::all());
    assert!(alone.0 > 0, "no instruction counted: {alone:?}");
    assert_eq!(
        alone, with_blocks,
        "asking for block boundaries too changes nothing"
    );
    assert_eq!(
        (alone.1, alone.2),
        (alone.3, alone.3),
        "one of each per launch"
    );

    // Compute Sanitizer sees memory and barrier instructions only: the
    // launch is still walked and summarised, nothing is counted.
    let sanitizer = BackendChoice::Sanitizer(SanitizerConfig::default());
    let (count, events, traces, launches) = instructions_seen(false, sanitizer, RangeFilter::all());
    assert_eq!((count, events, traces), (0, 0, launches));

    // Outside the analysis range a launch emits neither.
    let (_, events, traces, launches) =
        instructions_seen(false, BackendChoice::Nvbit, RangeFilter::grid_window(0, 10));
    assert!(launches > 10);
    assert_eq!((events, traces), (10, 10));
}
