//! Every paper artifact of `experiments`, rendered at quick scale, pinned
//! by its text: `tests/golden/<artifact>.txt` holds the bytes
//! `PASTA_SCALE=quick experiments <artifact>` prints for the row (the
//! header line and the trailing blank line left out), so a moved byte
//! means a figure or table moved, and a failure names the row, the first
//! line that differs, and both versions of it. The ten paper rows were
//! first pinned from the output of the commit before the `ablations` row
//! was added (16,505 bytes).

use pasta_bench::{ExpScale, ARTIFACTS};
use std::path::Path;

/// The rows of [`ARTIFACTS`], in order: dropping or reordering one
/// changes `experiments all` output, so it fails here too.
const ROWS: &str = "fig4 fig7 table5 fig9 fig10 fig11 fig12 fig13 fig14 fig15 ablations";

/// Where `text` first departs from `golden`: the 1-based line number and
/// both lines (`<end of text>` past either's last line).
fn first_difference(golden: &str, text: &str) -> Option<(usize, String, String)> {
    let (mut want, mut got) = (golden.split('\n'), text.split('\n'));
    for line in 1.. {
        match (want.next(), got.next()) {
            (None, None) => return None,
            (w, g) if w != g => {
                let show = |l: Option<&str>| l.unwrap_or("<end of text>").to_owned();
                return Some((line, show(w), show(g)));
            }
            _ => {}
        }
    }
    unreachable!("the loop returns")
}

#[test]
fn every_artifact_reproduces_its_pinned_digest_at_quick_scale() {
    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, ROWS.split(' ').collect::<Vec<_>>());
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut failures = Vec::new();
    for (name, run) in ARTIFACTS {
        let path = golden_dir.join(format!("{name}.txt"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: no golden at {}: {e}", path.display()));
        let text = run(ExpScale::quick()).expect("the artifact runs");
        if let Some((line, want, got)) = first_difference(&golden, &text) {
            failures.push(format!(
                "{name}: line {line} differs\n  golden: {want}\n  now:    {got}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
