//! Figure 4 (qualitative): cross-layer call stack of the kernel with the
//! highest memory-reference count during BERT inference.

use crate::scale::ExpScale;
use dl_framework::models::{ModelZoo, RunKind};
use dl_framework::pycall::CrossLayerStack;
use pasta_core::knob::KernelAggregate;
use pasta_core::{Knob, ModelWorkload, Pasta, PastaError};
use pasta_tools::MemoryCharacteristicsTool;

/// The Fig. 4 result: the hot kernel, its aggregate and its joined stack.
#[derive(Debug, Clone)]
pub(crate) struct Fig4Result {
    /// The `MAX_MEM_REFERENCED_KERNEL` selection.
    pub kernel: String,
    /// Its aggregate counters.
    pub aggregate: KernelAggregate,
    /// The captured cross-layer stack.
    pub stack: CrossLayerStack,
}

/// Runs the Fig. 4 experiment.
///
/// # Errors
///
/// Propagates session failures; fails if no stack was captured.
pub(crate) fn run(scale: ExpScale) -> Result<Fig4Result, PastaError> {
    let mut session = Pasta::builder()
        .a100()
        .tool(MemoryCharacteristicsTool::new())
        .capture_knob(Some(Knob::MaxMemReferencedKernel))
        .build()?;
    session.run(
        &mut ModelWorkload::new(ModelZoo::Bert, RunKind::Inference)
            .steps(scale.inference_steps.min(2))
            .batch_divisor(scale.batch_divisor),
    )?;
    let (kernel, aggregate) = session
        .knob_selection(Knob::MaxMemReferencedKernel)
        .ok_or_else(|| pasta_core::PastaError::Config("no kernel selected".into()))?;
    let stack = session
        .cross_layer_stack(&kernel)
        .ok_or_else(|| pasta_core::PastaError::Config("no stack captured".into()))?;
    Ok(Fig4Result {
        kernel,
        aggregate,
        stack,
    })
}

/// Renders the Fig. 4 stack.
pub(crate) fn render(r: &Fig4Result) -> String {
    format!(
        "Figure 4: cross-layer call stack of MAX_MEM_REFERENCED_KERNEL\n\
         kernel: {}\n\
         memory records: {}   calls: {}   bytes: {}\n\n{}",
        r.kernel,
        r.aggregate.memory_records,
        r.aggregate.calls,
        r.aggregate.bytes,
        r.stack.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_kernel_has_joined_stack() {
        let r = run(ExpScale::quick()).unwrap();
        assert!(r.aggregate.memory_records > 0);
        let rendered = render(&r);
        assert!(rendered.contains("── C/C++ ──"));
        assert!(rendered.contains("── Python ──"));
        // BERT's memory-hottest kernel resolves into the GEMM stack of
        // Fig. 4 (gemm_and_bias) or the embedding gather.
        assert!(
            rendered.contains("gemm_and_bias") || rendered.contains("DispatchStub"),
            "{rendered}"
        );
    }
}
