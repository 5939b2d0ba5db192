//! # pasta-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§V), each with a
//! `run()` that regenerates the result and a `render()` producing the rows
//! the paper reports. [`ARTIFACTS`] names them; the one binary,
//! `experiments [NAME…]`, prints the named ones (all of them by default).
//! One more row, `ablations`, sweeps the profiling settings the paper's
//! design turns on. The framework's own timings are the repository's
//! `benchmark/` package.
//!
//! Experiment scale comes from [`scale::ExpScale`]: `PASTA_SCALE=quick`
//! shrinks batch sizes and step counts for smoke runs, the default `full`
//! uses the paper's batch sizes (Table IV).

mod ablations;
mod fig11_12;
mod fig13;
mod fig14;
mod fig15;
mod fig4;
mod fig7;
mod fig9_10;
pub mod scale;
mod table5;

pub use scale::ExpScale;

use pasta_core::PastaError;

/// One paper artifact: its command-line name, and the experiment that
/// regenerates it and renders the rows the paper reports.
pub(crate) type Artifact = (&'static str, fn(ExpScale) -> Result<String, PastaError>);

/// Every artifact of the evaluation, in the paper's order, then the
/// settings ablations. Every entry stands alone, so `fig9` and `fig10`
/// each take the measurement they share — a quarter-second at full
/// scale, and deterministic.
pub const ARTIFACTS: &[Artifact] = &[
    ("fig4", |s| Ok(fig4::render(&fig4::run(s)?))),
    ("fig7", |s| Ok(fig7::render(&fig7::run(s)?))),
    ("table5", |s| Ok(table5::render(&table5::run(s)?))),
    ("fig9", |s| Ok(fig9_10::render_fig9(&fig9_10::run(s)?))),
    ("fig10", |s| Ok(fig9_10::render_fig10(&fig9_10::run(s)?))),
    ("fig11", |s| {
        Ok(fig11_12::render("Figure 11", &fig11_12::run(1.0, s)?))
    }),
    ("fig12", |s| {
        Ok(fig11_12::render("Figure 12", &fig11_12::run(3.0, s)?))
    }),
    ("fig13", |s| Ok(fig13::render(&fig13::run(s)?))),
    ("fig14", |s| Ok(fig14::render(&fig14::run(s)?))),
    ("fig15", |s| Ok(fig15::render(&fig15::run(s)?))),
    ("ablations", ablations::run),
];

/// Resolves command-line names against [`ARTIFACTS`], in the order given.
/// `all` — or no name at all — is the whole table in order.
///
/// # Errors
///
/// The first name that is neither `all` nor in the table.
pub fn select(names: &[String]) -> Result<Vec<&'static Artifact>, &str> {
    if names.is_empty() {
        return Ok(ARTIFACTS.iter().collect());
    }
    let mut selected = Vec::new();
    for name in names {
        match ARTIFACTS.iter().find(|(known, _)| known == name) {
            Some(artifact) => selected.push(artifact),
            None if name == "all" => selected.extend(ARTIFACTS),
            None => return Err(name),
        }
    }
    Ok(selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(selected: Vec<&Artifact>) -> Vec<&'static str> {
        selected.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn artifact_names_are_unique_and_all_is_the_table_in_order() {
        let table = names(ARTIFACTS.iter().collect());
        for (i, name) in table.iter().enumerate() {
            assert!(!table[..i].contains(name), "duplicate artifact `{name}`");
            assert_ne!(*name, "all", "`all` is the selector, not an artifact");
        }
        assert_eq!(names(select(&[]).unwrap()), table);
        assert_eq!(names(select(&["all".into()]).unwrap()), table);
        let picked = select(&["table5".into(), "fig4".into()]).unwrap();
        assert_eq!(names(picked), ["table5", "fig4"], "argument order");
        let unknown = ["fig9".into(), "no-such-artifact".into()];
        assert_eq!(select(&unknown).unwrap_err(), "no-such-artifact");
    }

    #[test]
    fn fig4_and_table5_render_under_their_headings() {
        for (name, heading) in [("fig4", "Figure 4"), ("table5", "Table V")] {
            let (_, run) = select(&[name.into()]).unwrap()[0];
            let text = run(ExpScale::quick()).unwrap();
            assert!(text.starts_with(heading), "{name} starts with: {text:.40}");
            assert!(text.trim().len() > heading.len(), "{name} has rows");
        }
    }
}
