//! The ops `overhead_probe` times and `sample_profile` samples: the
//! benchmark's two heaviest, each bare (the dl-framework over a CUDA
//! context, nothing attached) and profiled (build the session, run, merge,
//! render). Not an example itself — Cargo discovers `examples/*.rs` and
//! `examples/*/main.rs` only.

// Each example uses the subset it needs.
#![allow(dead_code)]

use pasta::core::tool::LaunchCounter;
use pasta::dl::parallel::{self, DeviceLane, MoeConfig};
use pasta::dl::{runner, Session};
use pasta::nv::CudaContext;
use pasta::prelude::*;
use std::sync::Arc;

pub type Outcome = Result<(), Box<dyn std::error::Error>>;

pub const LANES: u32 = 64;
pub const POOL_WIDTH: usize = 2;

/// The three `profile_fine` models.
pub const FINE_MODELS: [ModelZoo; 3] = [ModelZoo::Bert, ModelZoo::Gpt2, ModelZoo::ResNet18];

/// The MoE region on bare lanes: one CUDA context per lane over the
/// shared 64-device machine, as `run_parallel` builds them.
pub fn moe_bare() -> Outcome {
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
    Ok(())
}

/// The benchmark's `scale_out_moe` op.
pub fn moe_profiled() -> Outcome {
    let devices: Vec<DeviceId> = (0..LANES).map(DeviceId).collect();
    let mut session = Pasta::builder()
        .devices(vec![DeviceSpec::a100_80gb(); LANES as usize])
        .tool(LaunchCounter::default())
        .parallel(ParallelConfig {
            max_lane_threads: POOL_WIDTH,
            max_merge_threads: POOL_WIDTH,
            max_drain_threads: 1,
        })
        .build()?;
    session.run_parallel(&devices, |lanes| {
        parallel::train_iter_expert_parallel_with(lanes, 1, &MoeConfig::tiny())
    })?;
    std::hint::black_box(session.merged_report().to_string());
    Ok(())
}

/// One inference batch of `model` on a bare framework session.
pub fn model_bare(model: ModelZoo) -> Outcome {
    let mut context = CudaContext::new(vec![DeviceSpec::rtx_3060()]);
    let mut session = Session::new(&mut context);
    runner::run_model(&mut session, model, RunKind::Inference, 1, 1)?;
    Ok(())
}

/// One inference batch of `model` under the benchmark's `profile_fine`
/// six-tool suite.
pub fn model_profiled(model: ModelZoo) -> Outcome {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tools(pasta::tools::standard_suite())
        .tool(MemoryTimelineTool::new())
        .build()?;
    let report = session.run(&mut ModelWorkload::new(model, RunKind::Inference))?;
    std::hint::black_box((session.merged_report().to_string(), report));
    Ok(())
}
