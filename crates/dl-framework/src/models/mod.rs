//! The six evaluated models (paper Table IV).
//!
//! | Model     | Type        | Layers | Architecture         | Batch |
//! |-----------|-------------|--------|----------------------|-------|
//! | AlexNet   | CNN         | 8      | Conv + FC            | 128   |
//! | ResNet-18 | CNN         | 18     | Residual blocks      | 32    |
//! | ResNet-34 | CNN         | 34     | Residual blocks      | 32    |
//! | GPT-2     | Transformer | 12     | Decoder              | 8     |
//! | BERT      | Transformer | 12     | Encoder              | 16    |
//! | Whisper   | Transformer | 12+12  | Encoder/Decoder      | 16    |
//!
//! Every model implements [`Workload`]: it can run inference batches and
//! training iterations on any [`crate::Session`], producing the kernel
//! populations, tensor lifetimes and memory curves the PASTA tools
//! measure. Architectural dimensions are the published ones, so kernel
//! counts, footprints and working sets *emerge* from shapes.

pub mod cnn;
pub mod transformer;

use crate::session::Session;
use accel_sim::AccelError;

/// Whether a run is inference or training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunKind {
    /// Forward only.
    Inference,
    /// Forward + backward + optimizer.
    Training,
}

impl RunKind {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            RunKind::Inference => "inference",
            RunKind::Training => "train",
        }
    }
}

/// Table IV metadata for one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Full name.
    pub name: &'static str,
    /// Paper abbreviation (`AN`, `RN-18`, …).
    pub abbr: &'static str,
    /// Layer count as the paper counts it.
    pub layers: usize,
    /// Batch size used in the evaluation.
    pub batch: usize,
}

/// A built model that can execute on a session.
pub trait Workload: Send {
    /// Table IV metadata.
    fn spec(&self) -> &ModelSpec;

    /// Runs one inference batch (allocates the input, frees all transients
    /// and the output before returning).
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    fn inference_batch(&mut self, s: &mut Session<'_>) -> Result<(), AccelError>;

    /// Runs one training iteration (forward, loss, backward, optimizer).
    ///
    /// # Errors
    ///
    /// Propagates allocation/launch failures.
    fn training_iter(&mut self, s: &mut Session<'_>) -> Result<(), AccelError>;

    /// Frees parameters and internal state.
    fn destroy(&mut self, s: &mut Session<'_>);

    /// Total parameter bytes.
    fn param_bytes(&self) -> u64;
}

/// The model zoo: constructors for every Table IV model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelZoo {
    /// AlexNet, batch 128.
    AlexNet,
    /// ResNet-18, batch 32.
    ResNet18,
    /// ResNet-34, batch 32.
    ResNet34,
    /// GPT-2 (124M decoder), batch 8.
    Gpt2,
    /// BERT-base (encoder), batch 16.
    Bert,
    /// Whisper-small (encoder/decoder), batch 16.
    Whisper,
}

impl ModelZoo {
    /// All six models in paper order.
    pub fn all() -> [ModelZoo; 6] {
        [
            ModelZoo::AlexNet,
            ModelZoo::ResNet18,
            ModelZoo::ResNet34,
            ModelZoo::Gpt2,
            ModelZoo::Bert,
            ModelZoo::Whisper,
        ]
    }

    /// Table IV metadata without building the model.
    pub fn spec(self) -> ModelSpec {
        match self {
            ModelZoo::AlexNet => ModelSpec {
                name: "AlexNet",
                abbr: "AN",
                layers: 8,
                batch: 128,
            },
            ModelZoo::ResNet18 => ModelSpec {
                name: "ResNet18",
                abbr: "RN-18",
                layers: 18,
                batch: 32,
            },
            ModelZoo::ResNet34 => ModelSpec {
                name: "ResNet34",
                abbr: "RN-34",
                layers: 34,
                batch: 32,
            },
            ModelZoo::Gpt2 => ModelSpec {
                name: "GPT-2",
                abbr: "GPT-2",
                layers: 12,
                batch: 8,
            },
            ModelZoo::Bert => ModelSpec {
                name: "BERT",
                abbr: "BERT",
                layers: 12,
                batch: 16,
            },
            ModelZoo::Whisper => ModelSpec {
                name: "Whisper (small)",
                abbr: "Whisper",
                layers: 12,
                batch: 16,
            },
        }
    }

    /// Builds the model with its paper batch size.
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory while creating parameters.
    pub fn build(self, s: &mut Session<'_>) -> Result<Box<dyn Workload>, AccelError> {
        self.build_scaled(s, 1)
    }

    /// Builds the model with `batch / divisor` (tests use `divisor > 1` to
    /// stay fast; experiments use 1).
    ///
    /// # Errors
    ///
    /// Propagates allocator out-of-memory while creating parameters.
    pub(crate) fn build_scaled(
        self,
        s: &mut Session<'_>,
        divisor: usize,
    ) -> Result<Box<dyn Workload>, AccelError> {
        let paper = self.spec();
        let spec = ModelSpec {
            batch: (paper.batch / divisor.max(1)).max(1),
            ..paper
        };
        Ok(match self {
            ModelZoo::AlexNet => Box::new(cnn::alexnet(s, spec)?),
            ModelZoo::ResNet18 => Box::new(cnn::resnet(s, spec, &[2, 2, 2, 2])?),
            ModelZoo::ResNet34 => Box::new(cnn::resnet(s, spec, &[3, 4, 6, 3])?),
            ModelZoo::Gpt2 => Box::new(transformer::gpt2(s, spec)?),
            ModelZoo::Bert => Box::new(transformer::bert(s, spec)?),
            ModelZoo::Whisper => Box::new(transformer::whisper_small(s, spec)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table_iv() {
        assert_eq!(ModelZoo::AlexNet.spec().batch, 128);
        assert_eq!(ModelZoo::ResNet18.spec().batch, 32);
        assert_eq!(ModelZoo::Gpt2.spec().batch, 8);
        assert_eq!(ModelZoo::Bert.spec().batch, 16);
        assert_eq!(ModelZoo::Whisper.spec().batch, 16);
        assert_eq!(ModelZoo::ResNet34.spec().layers, 34);
        assert_eq!(ModelZoo::all().len(), 6);
    }

    #[test]
    fn run_kind_labels() {
        assert_eq!(RunKind::Inference.label(), "inference");
        assert_eq!(RunKind::Training.label(), "train");
    }
}
