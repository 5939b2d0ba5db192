//! The line budget.
//!
//! Counts the non-test lines of every `.rs` file in the workspace, per
//! area — each crate under `crates/` (the shims included), then `src/`,
//! `examples/` and `tests/` — and checks the sums against
//! `docs/line-budget.txt`. A file's non-test lines are those above its
//! first line that starts with `#[cfg(test)]`, the rule CI's file-scanning
//! source steps use, so no non-test item may follow that line; the two
//! test modules in files of their own (`TEST_FILES`) count nothing. A
//! crate's own `tests/`, `benches/` and `examples/` count toward that
//! crate.
//!
//! Any difference fails, naming the line to write: a count that fell is
//! lowered in the same change, and one that rose needs a CHANGES.md line
//! saying why.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const BUDGET: &str = "docs/line-budget.txt";

/// Files whose whole content is test code: `#[cfg(test)] mod …;` modules.
const TEST_FILES: [&str; 2] = [
    "crates/core/src/hub/tests.rs",
    "crates/trace/src/read_path_tests.rs",
];

fn is_test_file(path: &Path) -> bool {
    TEST_FILES.iter().any(|name| path.ends_with(name))
}

/// Non-test lines of one source file.
fn counted_lines(path: &Path) -> usize {
    if is_test_file(path) {
        return 0;
    }
    fs::read_to_string(path)
        .expect("a readable source file")
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .count()
}

/// The first top-level item below `text`'s first `#[cfg(test)]` line that
/// no `#[cfg(test)]` gates, as `(line number, line)`: code the count above
/// would take for test code.
fn ungated_item(text: &str) -> Option<(usize, &str)> {
    let mut gated = false;
    text.lines()
        .enumerate()
        .skip_while(|(_, line)| !line.starts_with("#[cfg(test)]"))
        .find(|(_, line)| {
            if line.starts_with("#[cfg(test)]") {
                gated = true;
                return false;
            }
            // Indented lines, closing delimiters, further attributes,
            // comments and blank lines start no item.
            if line.is_empty() || line.starts_with([' ', '\t', '}', ')', ']', '#', '/']) {
                return false;
            }
            !std::mem::replace(&mut gated, false)
        })
        .map(|(i, line)| (i + 1, line))
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("a listable directory")
        .map(|e| e.expect("a directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Non-test lines of every `.rs` file under `dir`.
fn area_lines(dir: &Path) -> usize {
    let mut files = Vec::new();
    rust_files(dir, &mut files);
    files.iter().map(|path| counted_lines(path)).sum()
}

/// Every crate directory under `dir`, relative to the repo root.
fn crates_under(root: &Path, dir: &str, out: &mut Vec<String>) {
    for entry in fs::read_dir(root.join(dir)).expect("a listable directory") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().expect("a named entry").to_string_lossy();
        let area = format!("{dir}/{name}");
        if path.join("Cargo.toml").is_file() {
            out.push(area);
        } else if path.is_dir() {
            crates_under(root, &area, out);
        }
    }
}

/// Every counted area, relative to the repo root.
fn areas(root: &Path) -> Vec<String> {
    let mut areas = vec!["src".to_owned(), "examples".to_owned(), "tests".to_owned()];
    crates_under(root, "crates", &mut areas);
    areas
}

/// The measured counts, area → lines.
fn measured(root: &Path) -> BTreeMap<String, usize> {
    areas(root)
        .into_iter()
        .map(|area| {
            let lines = area_lines(&root.join(&area));
            (area, lines)
        })
        .collect()
}

/// The budget file's counts, area → lines.
fn budgeted(text: &str) -> BTreeMap<String, usize> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (area, lines) = line
                .split_once(' ')
                .unwrap_or_else(|| panic!("{BUDGET}: `{line}` is not `area lines`"));
            let lines = lines
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{BUDGET}: `{line}` has no line count"));
            (area.to_owned(), lines)
        })
        .collect()
}

#[test]
fn every_area_matches_its_line_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(root.join(BUDGET)).expect("the line budget is readable");
    let budget = budgeted(&text);
    let counts = measured(root);
    let mut wrong = Vec::new();
    for (area, &lines) in &counts {
        match budget.get(area) {
            Some(&want) if want == lines => {}
            Some(&want) => wrong.push(format!(
                "  `{area} {want}` → `{area} {lines}` ({}{})",
                if lines > want { "+" } else { "" },
                lines as i64 - want as i64
            )),
            None => wrong.push(format!("  missing: `{area} {lines}`")),
        }
    }
    for area in budget.keys().filter(|area| !counts.contains_key(*area)) {
        wrong.push(format!("  `{area}` is no area: delete its line"));
    }
    assert!(
        wrong.is_empty(),
        "{BUDGET} differs from the counted lines; change these lines (a rise \
         needs a CHANGES.md line saying why):\n{}",
        wrong.join("\n")
    );
}

#[test]
fn no_item_follows_a_files_first_test_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for area in areas(root) {
        rust_files(&root.join(area), &mut files);
    }
    let wrong: Vec<String> = files
        .iter()
        .filter(|path| !is_test_file(path))
        .filter_map(|path| {
            let text = fs::read_to_string(path).expect("a readable source file");
            ungated_item(&text).map(|(n, line)| {
                let path = path.strip_prefix(root).expect("under the repo");
                format!("  {}:{n}: {line}", path.display())
            })
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "these items follow their file's first `#[cfg(test)]` line, so the budget \
         and CI's source scans skip them; move the test module below them:\n{}",
        wrong.join("\n")
    );
}
