//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * GPU-resident analysis thread-group width (who pays when the on-device
//!   analysis pool shrinks);
//! * trace-buffer capacity (stall frequency of the CPU-analysis path);
//! * UVM oversubscription sweep 1×..4× (generalizing Figs. 11–12);
//! * record sampling rate (the `ACCEL_PROF_ENV_SAMPLE_RATE` escape hatch).
//!
//! Each bench prints the *simulated* metric it ablates (the design signal)
//! while Criterion measures the harness's own wall-clock cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dl_framework::models::{ModelZoo, RunKind};
use pasta_bench::ExpScale;
use pasta_core::{BackendChoice, ModelWorkload, Pasta, UvmSetup};
use pasta_tools::{MemoryCharacteristicsTool, UvmPrefetchAdvisor};
use uvm_sim::PrefetchGranularity;
use vendor_nv::sanitizer::SanitizerConfig;

fn scale() -> ExpScale {
    ExpScale::quick()
}

/// Simulated overhead for a sanitizer config on a quick BERT run.
fn overhead_with(config: SanitizerConfig) -> u64 {
    let mut session = Pasta::builder()
        .a100()
        .tool(MemoryCharacteristicsTool::new())
        .backend(BackendChoice::Sanitizer(config))
        .build()
        .expect("build");
    let s = scale();
    let report = session
        .run(
            &mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
                .batch_divisor(s.batch_divisor),
        )
        .expect("run");
    report.overhead.total_ns()
}

fn ablate_analysis_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gpu_analysis_threads");
    group.sample_size(10);
    for threads in [32u64, 256, 1_024, 4_096, 16_384] {
        let overhead =
            overhead_with(SanitizerConfig::gpu_resident().with_analysis_threads(threads));
        println!("gpu_analysis_threads={threads}: simulated overhead {overhead} ns");
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, &t| {
                bench.iter(|| {
                    overhead_with(SanitizerConfig::gpu_resident().with_analysis_threads(t))
                });
            },
        );
    }
    group.finish();
}

fn ablate_trace_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_trace_buffer_bytes");
    group.sample_size(10);
    for bytes in [256u64 << 10, 1 << 20, 4 << 20, 16 << 20] {
        let overhead = overhead_with(SanitizerConfig::cpu_post_process().with_buffer_bytes(bytes));
        println!("trace_buffer={bytes}B: simulated overhead {overhead} ns");
        group.bench_with_input(BenchmarkId::from_parameter(bytes), &bytes, |bench, &b| {
            bench.iter(|| overhead_with(SanitizerConfig::cpu_post_process().with_buffer_bytes(b)));
        });
    }
    group.finish();
}

fn ablate_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sampling_rate");
    group.sample_size(10);
    for rate in [1u32, 10, 100, 1_000] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |bench, &r| {
            bench.iter(|| {
                let mut session = Pasta::builder()
                    .a100()
                    .tool(MemoryCharacteristicsTool::new())
                    .sampling(r)
                    .build()
                    .expect("build");
                let s = scale();
                session
                    .run(
                        &mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
                            .batch_divisor(s.batch_divisor),
                    )
                    .expect("run")
                    .records
            });
        });
    }
    group.finish();
}

/// One UVM cell at a given oversubscription factor; returns normalized
/// (object, tensor) times — the Figs. 11/12 sweep generalized.
fn uvm_cell(oversubscription: f64) -> (f64, f64) {
    let s = ExpScale {
        batch_divisor: 4,
        inference_steps: 1,
        training_steps: 1,
    };
    let run = |budget: u64, plan: Option<uvm_sim::PrefetchPlan>| {
        let mut session = Pasta::builder()
            .rtx_3060()
            .tool(UvmPrefetchAdvisor::new())
            .uvm(UvmSetup {
                budget_bytes: Some(budget),
                ..UvmSetup::default()
            })
            .build()
            .expect("build");
        if let Some(p) = plan {
            session.set_prefetch_plan(p);
        }
        let r = session
            .run(
                &mut ModelWorkload::new(ModelZoo::ResNet18, RunKind::Inference)
                    .batch_divisor(s.batch_divisor),
            )
            .expect("run");
        let advisor = session
            .with_tool_mut("uvm-prefetch-advisor", |t: &mut UvmPrefetchAdvisor| {
                std::mem::take(t)
            })
            .expect("tool");
        (r.profiled_time.as_nanos(), advisor, r.peak_reserved)
    };
    let (_, _, footprint) = run(u64::MAX >> 1, None);
    let budget = ((footprint as f64 / oversubscription) as u64).max(8 << 20);
    let (base, advisor, _) = run(budget, None);
    let (obj, _, _) = run(
        budget,
        Some(advisor.build_plan(PrefetchGranularity::Object)),
    );
    let (ten, _, _) = run(
        budget,
        Some(advisor.build_plan(PrefetchGranularity::Tensor)),
    );
    (obj as f64 / base as f64, ten as f64 / base as f64)
}

fn ablate_oversubscription(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_oversubscription_sweep");
    group.sample_size(10);
    for factor in [1.0f64, 2.0, 3.0, 4.0] {
        let (obj, ten) = uvm_cell(factor);
        println!("oversubscription={factor}: object {obj:.2}x  tensor {ten:.2}x of baseline");
        group.bench_with_input(BenchmarkId::from_parameter(factor), &factor, |bench, &f| {
            bench.iter(|| uvm_cell(f));
        });
    }
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablate_analysis_threads, ablate_trace_buffer, ablate_sampling,
              ablate_oversubscription
}
criterion_main!(ablations);
