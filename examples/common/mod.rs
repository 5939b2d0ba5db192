//! The ops `overhead_probe` times and `sample_profile` samples: the
//! benchmark's two heaviest, each bare (the dl-framework over a CUDA
//! context, nothing attached) and profiled (build the session, run, merge,
//! render), plus its flood and its serving op for the sampler. Not an
//! example itself — Cargo discovers `examples/*.rs` and
//! `examples/*/main.rs` only.

// Each example uses the subset it needs.
#![allow(dead_code)]

use pasta::core::tool::LaunchCounter;
use pasta::dl::parallel::{self, DeviceLane, MoeConfig};
use pasta::dl::serving::{self, ServingConfig};
use pasta::dl::{runner, DType, Session};
use pasta::nv::CudaContext;
use pasta::prelude::*;
use pasta::sim::{AccessSpec, KernelBody, MemSpace};
use pasta::tools::ServingReport;
use std::sync::Arc;

pub type Outcome = Result<(), Box<dyn std::error::Error>>;

/// What an op's session counted: events processed and, of those, the host
/// and framework callbacks its gate counted without building them. Both 0
/// for a bare op.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventCounts {
    pub processed: u64,
    pub gated: u64,
}

impl EventCounts {
    fn of(session: &PastaSession) -> EventCounts {
        EventCounts {
            processed: session.events_processed(),
            gated: session.host_events_gated(),
        }
    }
}

pub type OpOutcome = Result<EventCounts, Box<dyn std::error::Error>>;

pub const LANES: u32 = 64;
pub const POOL_WIDTH: usize = 2;

/// The benchmark's thread budgets.
const THREADS: ParallelConfig = ParallelConfig {
    max_lane_threads: POOL_WIDTH,
    max_merge_threads: POOL_WIDTH,
    max_drain_threads: 1,
};

/// The three `profile_fine` models.
pub const FINE_MODELS: [ModelZoo; 3] = [ModelZoo::Bert, ModelZoo::Gpt2, ModelZoo::ResNet18];

/// The one tensor the flood's kernels access.
const FLOOD_TENSOR_BYTES: u64 = 16 << 20;

/// The MoE region on bare lanes: one CUDA context per lane over the
/// shared 64-device machine, as `run_parallel` builds them.
pub fn moe_bare() -> OpOutcome {
    let specs: Arc<[DeviceSpec]> = vec![DeviceSpec::a100_80gb(); LANES as usize].into();
    let mut contexts: Vec<CudaContext> = (0..LANES)
        .map(|_| CudaContext::new(Arc::clone(&specs)))
        .collect();
    let mut lanes = Vec::with_capacity(contexts.len());
    for (device, context) in (0..LANES).map(DeviceId).zip(&mut contexts) {
        let mut lane = DeviceLane::pin(device, Session::new(context))?;
        lane.set_pool_limit(POOL_WIDTH);
        lanes.push(lane);
    }
    parallel::train_iter_expert_parallel_with(&mut lanes, 1, &MoeConfig::tiny())?;
    Ok(EventCounts::default())
}

/// The benchmark's `scale_out_moe` op.
pub fn moe_profiled() -> OpOutcome {
    let devices: Vec<DeviceId> = (0..LANES).map(DeviceId).collect();
    let mut session = Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); LANES as usize])
        .tool(LaunchCounter::default())
        .parallel(THREADS)
        .build()?;
    session.run_parallel(&devices, |lanes| {
        parallel::train_iter_expert_parallel_with(lanes, 1, &MoeConfig::tiny())
    })?;
    std::hint::black_box(session.merged_report().to_string());
    Ok(EventCounts::of(&session))
}

/// One inference batch of `model` on a bare framework session.
pub fn model_bare(model: ModelZoo) -> OpOutcome {
    let mut context = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
    let mut session = Session::new(&mut context);
    runner::run_model(&mut session, model, RunKind::Inference, 1, 1)?;
    Ok(EventCounts::default())
}

/// A 1-device RTX 3060 session under the benchmark's six-tool suite.
fn suite_session() -> Result<PastaSession, PastaError> {
    Pasta::builder()
        .rtx_3060()
        .tools(pasta::tools::standard_suite())
        .tool(MemoryTimelineTool::new())
        .build()
}

/// One inference batch of `model` under the benchmark's `profile_fine`
/// six-tool suite.
pub fn model_profiled(model: ModelZoo) -> OpOutcome {
    let mut session = suite_session()?;
    let report = session.run(&mut ModelWorkload::new(model, RunKind::Inference))?;
    std::hint::black_box((session.merged_report().to_string(), report));
    Ok(EventCounts::of(&session))
}

/// The kernels of the benchmark's `event_flood` op, built once as the
/// benchmark builds them at set-up: 32 kernels of 256 access streams over
/// one 16 MiB tensor (60/40 load/store, every fourth stream shared-memory,
/// four barriers a block). The benchmark seeds offsets and extents; these
/// step through the tensor.
pub fn flood_kernels() -> Vec<KernelDesc> {
    (0..32u64)
        .map(|k| {
            let mut body = KernelBody::compute(1 << 20).with_barriers(4);
            for i in 0..256u64 {
                let len = (1 + (i + k) % 16) * 4096;
                let offset = (i * 61 + k * 977) * 4096 % (FLOOD_TENSOR_BYTES - len);
                let spec = if i % 5 < 3 {
                    AccessSpec::load(0, len)
                } else {
                    AccessSpec::store(0, len)
                }
                .with_range(offset, len);
                body = body.access(if i % 4 == 3 {
                    spec.in_space(MemSpace::Shared)
                } else {
                    spec
                });
            }
            let name = [
                "flood_gemm",
                "flood_softmax",
                "flood_layernorm",
                "flood_reduce",
            ][k as usize % 4];
            KernelDesc::new(name, Dim3::linear(64), Dim3::linear(128)).body(body)
        })
        .collect()
}

/// The benchmark's `event_flood` op under the same suite: `kernels`
/// ([`flood_kernels`]) launched over one fresh tensor.
pub fn flood_profiled(kernels: &[KernelDesc]) -> OpOutcome {
    let mut session = suite_session()?;
    let report = session.run(&mut FnWorkload::new("event-flood", |cx| {
        let s = cx.session();
        let t = s.alloc_tensor(&[(FLOOD_TENSOR_BYTES / 4) as usize], DType::F32)?;
        for kernel in kernels {
            s.launch(kernel.clone().arg(t.ptr, t.bytes))?;
        }
        s.free_tensor(&t);
        Ok(WorkloadStats::new(kernels.len() as u64))
    }))?;
    std::hint::black_box((session.merged_report().to_string(), report));
    Ok(EventCounts::of(&session))
}

/// The benchmark's `serve_oversub` op: four A100 lanes, no tools, the
/// managed budget at 9/8 of the weights, one arrival a scheduler step.
pub fn serve_profiled() -> OpOutcome {
    const SERVE_LANES: u32 = 4;
    let cfg = ServingConfig {
        mean_interarrival_steps: 1,
        ..ServingConfig::small()
    };
    let devices: Vec<DeviceId> = (0..SERVE_LANES).map(DeviceId).collect();
    let mut session = Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); SERVE_LANES as usize])
        .parallel(THREADS)
        .uvm(UvmSetup {
            budget_bytes: Some(cfg.dims.param_bytes(DType::F32) * 9 / 8),
            ..UvmSetup::default()
        })
        .build()?;
    let run = session.run_parallel(&devices, |lanes| serving::serve(lanes, &cfg))?;
    let uvm = session.uvm_report();
    std::hint::black_box(ServingReport::from_run(&run, uvm.as_ref()).to_string());
    Ok(EventCounts::of(&session))
}
