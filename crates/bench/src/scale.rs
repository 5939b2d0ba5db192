//! Experiment scaling.

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpScale {
    /// Divide Table IV batch sizes by this.
    pub batch_divisor: usize,
    /// Inference batches per model.
    pub inference_steps: usize,
    /// Training iterations per model.
    pub training_steps: usize,
}

impl ExpScale {
    /// The paper-faithful scale (full batch sizes).
    pub fn full() -> Self {
        ExpScale {
            batch_divisor: 1,
            inference_steps: 12,
            training_steps: 2,
        }
    }

    /// A smoke-test scale: CI's experiments smoke and the tier-1 artifact
    /// digests run at it.
    pub fn quick() -> Self {
        ExpScale {
            batch_divisor: 8,
            inference_steps: 2,
            training_steps: 1,
        }
    }

    /// Reads `PASTA_SCALE`: `full` or unset is [`ExpScale::full`],
    /// `quick` is [`ExpScale::quick`].
    ///
    /// # Errors
    ///
    /// Any other value, as given, so a mistyped scale is never run as
    /// `full`.
    pub fn from_env() -> Result<Self, String> {
        std::env::var_os("PASTA_SCALE").map_or(Ok(ExpScale::full()), |value| {
            ExpScale::named(&value.to_string_lossy())
        })
    }

    fn named(name: &str) -> Result<Self, String> {
        match name {
            "full" => Ok(ExpScale::full()),
            "quick" => Ok(ExpScale::quick()),
            other => Err(other.to_owned()),
        }
    }
}

impl Default for ExpScale {
    fn default() -> Self {
        ExpScale::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(ExpScale::quick().batch_divisor > ExpScale::full().batch_divisor);
        assert_eq!(ExpScale::full().batch_divisor, 1);
    }

    #[test]
    fn only_full_and_quick_name_a_scale() {
        assert_eq!(ExpScale::named("full"), Ok(ExpScale::full()));
        assert_eq!(ExpScale::named("quick"), Ok(ExpScale::quick()));
        for bad in ["Quick", "qiuck", "", "full "] {
            assert_eq!(ExpScale::named(bad), Err(bad.to_owned()));
        }
    }
}
