//! Kernel-census across the whole model zoo — the Fig. 7 workflow as a
//! library consumer would run it: which kernels dominate each model?
//!
//! ```sh
//! cargo run --example kernel_census
//! ```

use pasta::core::{ModelWorkload, Pasta};
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::tools::KernelFrequencyTool;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for model in ModelZoo::all() {
        let mut session = Pasta::builder()
            .a100()
            .tool(KernelFrequencyTool::new())
            .build()?;
        // Batch divided by 4 to keep the example snappy; experiments use
        // the paper's full batch sizes.
        let report =
            session.run(&mut ModelWorkload::new(model, RunKind::Inference).batch_divisor(4))?;
        let top = session
            .with_tool_mut("kernel-frequency", |t: &mut KernelFrequencyTool| t.top(5))
            .expect("tool registered");

        println!(
            "{:<16} {:>6} launches — top kernels:",
            model.spec().name,
            report.kernel_launches
        );
        for (kernel, count) in top {
            println!("    {count:>6}× {kernel}");
        }
        println!();
    }
    Ok(())
}
