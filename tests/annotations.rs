//! End-to-end tests of the paper's §III-F features: range-specific
//! analysis via `pasta.start()/stop()`-style annotations and grid-id
//! windows, plus the operator→kernel and transfer tools over real runs.

use pasta::core::{FnWorkload, ModelWorkload, Pasta, RangeFilter, WorkloadStats};
use pasta::dl::dtype::DType;
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::dl::ops::{self, Act};
use pasta::tools::{MemoryCharacteristicsTool, OpKernelMapTool, TransferTool};

/// The paper's Listing 1: annotate one region and only analyze inside it.
#[test]
fn annotated_region_gates_device_collection() {
    let run = |annotate: bool| {
        let mut session = Pasta::builder()
            .a100()
            .tool(MemoryCharacteristicsTool::new())
            .range(if annotate {
                RangeFilter::annotated_regions()
            } else {
                RangeFilter::all()
            })
            .build()
            .unwrap();
        session
            .run(&mut FnWorkload::new("listing-1", |cx| {
                let s = cx.session();
                let x = s.alloc_tensor(&[64, 512], DType::F32)?;
                let w1 = s.alloc_tensor(&[512, 512], DType::F32)?;
                let w2 = s.alloc_tensor(&[512, 512], DType::F32)?;
                // Outside the region: a linear layer.
                let y1 = ops::linear(s, &x, &w1, None, Act::None)?;
                // The targeted region (pasta.start / pasta.stop).
                s.region_start("transformer_layer");
                let y2 = ops::linear(s, &y1, &w2, None, Act::Gelu)?;
                s.region_end("transformer_layer");
                // Outside again.
                let y3 = ops::linear(s, &y2, &w1, None, Act::None)?;
                for t in [&x, &w1, &w2, &y1, &y2, &y3] {
                    s.free_tensor(t);
                }
                s.release_workspaces();
                Ok(WorkloadStats::new(0))
            }))
            .unwrap();
        session.records()
    };
    let all = run(false);
    let gated = run(true);
    assert!(all > 0);
    assert!(
        gated < all && gated > 0,
        "annotation gating must collect a strict, non-empty subset: {gated} vs {all}"
    );
}

#[test]
fn op_kernel_map_exposes_hidden_mapping() {
    let mut session = Pasta::builder()
        .a100()
        .tool(OpKernelMapTool::new())
        .build()
        .unwrap();
    session
        .run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(8))
        .unwrap();
    let ranking = session
        .with_tool_mut("op-kernel-map", |t: &mut OpKernelMapTool| t.ranking())
        .unwrap();
    assert!(
        ranking.len() >= 4,
        "several distinct operators: {}",
        ranking.len()
    );
    // aten::linear exists and maps to at least one GEMM kernel.
    let (_, linear) = ranking
        .iter()
        .find(|(op, _)| op == "aten::linear")
        .expect("aten::linear profiled");
    assert!(linear.kernels_per_call() >= 1.0);
    assert!(
        linear.kernel_counts.keys().any(|k| k.contains("sgemm")),
        "linear lowers to GEMMs: {:?}",
        linear.kernel_counts.keys().collect::<Vec<_>>()
    );
    // Attention ops nest multiple kernels per call.
    let (_, attn) = ranking
        .iter()
        .find(|(op, _)| op.contains("attention"))
        .expect("attention op profiled");
    // The QK/PV GEMMs attribute directly to the attention op; its QKV and
    // output projections attribute to the nested aten::linear ops.
    assert!(
        attn.kernels_per_call() >= 2.0,
        "attention runs several kernels per call: {}",
        attn.kernels_per_call()
    );
}

#[test]
fn transfer_tool_sees_explicit_copies_and_uvm_ops() {
    use accel_sim::{CopyDirection, DevicePtr};
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(TransferTool::new())
        .uvm(pasta::core::UvmSetup::default())
        .build()
        .unwrap();
    session
        .run(&mut FnWorkload::new("copies", |cx| {
            let s = cx.session();
            let t = s.alloc_tensor(&[1 << 20], DType::F32)?;
            let rt = s.runtime_mut();
            rt.memcpy(
                t.ptr,
                DevicePtr(0x1000),
                4 << 20,
                CopyDirection::HostToDevice,
            )?;
            rt.memcpy(DevicePtr(0x1000), t.ptr, 1024, CopyDirection::DeviceToHost)?;
            rt.mem_prefetch(t.ptr, 4 << 20)?;
            s.free_tensor(&t);
            Ok(WorkloadStats::new(0))
        }))
        .unwrap();
    let stats = session
        .with_tool_mut("transfer-analysis", |t: &mut TransferTool| t.stats())
        .unwrap();
    assert_eq!(stats.h2d.0, 1);
    assert_eq!(stats.h2d.1, 4 << 20);
    assert_eq!(stats.d2h, (1, 1024));
    assert_eq!(
        stats.small_copies, 1,
        "the 1 KiB read-back is latency-bound"
    );
    assert!(stats.batch_ops.0 >= 1, "the UVM prefetch is visible");
}

/// Grid-window + annotation events compose with a real model run.
#[test]
fn grid_window_composes_with_model_runs() {
    let run = |range: RangeFilter| {
        let mut session = Pasta::builder()
            .a100()
            .tool(MemoryCharacteristicsTool::new())
            .range(range)
            .build()
            .unwrap();
        let r = session
            .run(&mut ModelWorkload::new(ModelZoo::AlexNet, RunKind::Inference).batch_divisor(16))
            .unwrap();
        (r.records, r.kernel_launches)
    };
    let (all_records, launches) = run(RangeFilter::all());
    // Restrict to the second quarter of launches.
    let (window_records, _) = run(RangeFilter::grid_window(launches / 4, launches / 2));
    assert!(window_records > 0);
    assert!(
        window_records < all_records,
        "{window_records} vs {all_records}"
    );
}
