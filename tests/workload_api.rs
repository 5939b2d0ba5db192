//! Integration tests for the `Workload`-trait session API: arbitrary
//! workloads run through the same instrumented pipeline as the zoo
//! models.

use pasta::dl::dtype::DType;
use pasta::prelude::*;

#[test]
fn kernel_sweep_is_profiled_like_any_model() {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(KernelFrequencyTool::new())
        .tool(MemoryCharacteristicsTool::new())
        .build()
        .unwrap();

    // Allocate a buffer first so the sweep kernels have real operands the
    // memory tools can characterize.
    let mut operand = None;
    session
        .run(&mut FnWorkload::new("alloc-operand", |cx| {
            let t = cx.alloc_tensor(&[1 << 18], DType::F32)?;
            operand = Some((t.ptr, t.bytes));
            Ok(WorkloadStats::new(0))
        }))
        .unwrap();
    let (ptr, bytes) = operand.expect("the workload ran");

    let mut sweep = KernelSweepWorkload::new("saxpy-sweep")
        .kernels((0..3).map(|i| {
            KernelDesc::new(
                format!("saxpy_{i}"),
                Dim3::linear(32 << i),
                Dim3::linear(256),
            )
            .arg(ptr, bytes)
            .body(KernelBody::streaming(bytes, bytes))
        }))
        .repeats(2);
    let report = session.run(&mut sweep).unwrap();

    assert_eq!(report.kernel_launches, 6);
    assert!(report.records > 0, "device tools see the raw launches");
    let unique = session
        .with_tool_mut("kernel-frequency", |t: &mut KernelFrequencyTool| {
            t.ranking().len()
        })
        .unwrap();
    assert_eq!(unique, 3, "three distinct kernels in the census");
}

#[test]
fn dyn_workloads_compose_in_one_session() {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(KernelFrequencyTool::new())
        .build()
        .unwrap();
    let mut model: Box<dyn Workload> =
        Box::new(ModelWorkload::new(ModelZoo::AlexNet, RunKind::Inference).batch_divisor(16));
    let mut closure: Box<dyn Workload> = Box::new(FnWorkload::new("probe", |cx| {
        let t = cx.alloc_tensor(&[4096], DType::F32)?;
        cx.free_tensor(&t);
        Ok(WorkloadStats::new(0))
    }));
    let mut reports = Vec::new();
    for w in [&mut model, &mut closure] {
        reports.push(session.run(w.as_mut()).unwrap());
    }
    assert!(reports[0].kernel_launches > 0);
    assert_eq!(reports[1].workload, "probe");
}
