//! Cross-layer call-stack location (the Fig. 4 workflow): find the kernel
//! with the most memory references during BERT inference and print its
//! joined Python + C/C++ stack.
//!
//! ```sh
//! cargo run --example cross_stack
//! ```

use pasta::core::{Knob, ModelWorkload, Pasta};
use pasta::dl::models::{ModelZoo, RunKind};
use pasta::tools::MemoryCharacteristicsTool;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = Pasta::builder()
        .a100()
        .tool(MemoryCharacteristicsTool::new())
        .capture_knob(Some(Knob::MaxMemReferencedKernel))
        .build()?;
    session.run(&mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference).batch_divisor(2))?;

    let (kernel, agg) = session
        .knob_selection(Knob::MaxMemReferencedKernel)
        .expect("a kernel was selected");
    println!("MAX_MEM_REFERENCED_KERNEL: {kernel}");
    println!(
        "  {} memory records, {} calls, {} bytes",
        agg.memory_records, agg.calls, agg.bytes
    );
    println!();
    match session.cross_layer_stack(&kernel) {
        Some(stack) => println!("{}", stack.render()),
        None => println!("(no stack captured)"),
    }
    Ok(())
}
