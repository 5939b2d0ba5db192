//! Tensor-aware UVM prefetching, end to end (the §V-C case study):
//!
//! 1. profile a UVM run of ResNet-18 to learn kernel↔object↔tensor
//!    correlations;
//! 2. generate object-level and tensor-level prefetch plans;
//! 3. replay each plan (and a no-prefetch baseline) under memory
//!    oversubscription and compare execution times.
//!
//! ```sh
//! cargo run --example uvm_advisor
//! ```

use pasta::core::{ModelWorkload, Pasta, UvmSetup};
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::tools::UvmPrefetchAdvisor;
use pasta::uvm::PrefetchGranularity;

const MODEL: ModelZoo = ModelZoo::ResNet18;
const BATCH_DIVISOR: usize = 4;
/// Oversubscription factor applied to the measured footprint (paper §V-A).
const OVERSUBSCRIPTION: u64 = 2;

fn profiled_run(
    plan: Option<pasta::uvm::PrefetchPlan>,
    budget: u64,
) -> Result<(u64, UvmPrefetchAdvisor, u64), Box<dyn std::error::Error>> {
    let mut session = Pasta::builder()
        .rtx_3060()
        .tool(UvmPrefetchAdvisor::new())
        .uvm(UvmSetup {
            budget_bytes: Some(budget),
            ..UvmSetup::default()
        })
        .build()?;
    if let Some(plan) = plan {
        session.set_prefetch_plan(plan);
    }
    let report = session
        .run(&mut ModelWorkload::new(MODEL, RunKind::Inference).batch_divisor(BATCH_DIVISOR))?;
    let advisor = session
        .with_tool_mut("uvm-prefetch-advisor", |t: &mut UvmPrefetchAdvisor| {
            std::mem::take(t)
        })
        .expect("advisor registered");
    Ok((
        report.profiled_time.as_nanos(),
        advisor,
        report.peak_reserved,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "profiling {} under UVM to learn access correlations …",
        MODEL.spec().name
    );
    // Measure the footprint first, then restrict memory (paper §V-A).
    let (_, _, footprint) = profiled_run(None, u64::MAX >> 1)?;
    let budget = footprint / OVERSUBSCRIPTION;
    println!(
        "  footprint {} MB → budget {} MB ({OVERSUBSCRIPTION}x oversubscription)",
        footprint >> 20,
        budget >> 20
    );
    let (baseline_ns, advisor, _) = profiled_run(None, budget)?;
    let (obj_bytes, ten_bytes) = advisor.object_vs_tensor_bytes();
    println!(
        "  object-level plan would move {} MB; tensor-level {} MB ({}x overfetch)",
        obj_bytes >> 20,
        ten_bytes >> 20,
        if ten_bytes > 0 {
            obj_bytes / ten_bytes.max(1)
        } else {
            0
        }
    );

    for granularity in [PrefetchGranularity::Object, PrefetchGranularity::Tensor] {
        let plan = advisor.build_plan(granularity);
        let (time_ns, _, _) = profiled_run(Some(plan), budget)?;
        println!(
            "  {:<13} execution {:>12} ns  ({:.2}x vs no-prefetch)",
            granularity.label(),
            time_ns,
            time_ns as f64 / baseline_ns as f64
        );
    }
    println!(
        "  {:<13} execution {baseline_ns:>12} ns  (1.00x)",
        "no-prefetch"
    );
    Ok(())
}
