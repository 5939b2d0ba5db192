//! The source rules: every check the repository holds its own sources to,
//! over one walk of each `.rs` file and manifest under `crates/`, `src/`,
//! `tests/`, `examples/` and `benchmark/src/`, and the root manifest. Rust
//! files are lexed: comments dropped, literals blanked. A file's test code
//! starts at its first column-0 `#[cfg(test)]`, or at its top when a
//! `#[cfg(test)] mod name;` pulls it in.
//!
//! * The line budget: the non-test lines of each crate under `crates/`
//!   (its tests, benches and examples too), `src/`, `examples/` and
//!   `tests/` equal `docs/line-budget.txt`; a rise needs a CHANGES.md line
//!   saying why. No non-test item may follow the first gate.
//! * The census: each `pub` fn / struct / enum / trait / type / const /
//!   static in `crates/*/src` whose name nothing outside its crate names
//!   is a `crate path name — reason` line of `docs/public-surface.txt`, and
//!   each line is such an item. Outside is another crate, `src/`, `tests/`,
//!   `examples/`, `benchmark/`, the crate's own tests, benches, examples
//!   and `src/bin/`, and doc-comment code; `#[cfg(test)]` items and the
//!   shims are ignored. Any identifier of the same name counts, so the
//!   census can miss an unused item but never lists a used one.
//! * `RULES`, and the perf-log pointers: every `docs/perf-log/*.md` that
//!   README.md, ROADMAP.md or CHANGES.md cites exists and is not empty.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::sync::OnceLock;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const BUDGET: &str = "docs/line-budget.txt";
const CENSUS: &str = "docs/public-surface.txt";

/// The item kinds the census covers.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// A structural rule: no line of code in `scope` holds one of the
/// `|`-separated `needles` followed by a character `then` accepts, but for
/// exactly the allowed count of lines in each allowed file.
struct Rule {
    name: &'static str,
    /// What the rule keeps true, printed with its hits.
    why: &'static str,
    needles: &'static str,
    then: fn(Option<char>) -> bool,
    /// Files, or `dir/` for every file below; `*` is any one directory.
    scope: &'static [&'static str],
    /// Whether the rule reads test code too.
    test_code: bool,
    allowed: &'static [(&'static str, usize)],
}

const RULES: [Rule; 8] = [
    Rule {
        name: "One lock type",
        why: "accel_sim::sync::Mutex is the one lock: no manifest or `use` names parking_lot",
        needles: "parking_lot",
        then: |_| true,
        scope: &["Cargo.toml", "crates/", "src/", "tests/", "examples/"],
        test_code: true,
        allowed: &[],
    },
    Rule {
        name: "One worker pool",
        why: "threads are accel_sim::threads::run_pool's workers",
        needles: "thread::scope|thread::spawn|thread::Builder|spawn_scoped",
        then: |_| true,
        scope: &["crates/*/src/", "src/"],
        test_code: false,
        allowed: &[("crates/accel-sim/src/threads.rs", 3)],
    },
    Rule {
        name: "One lane delivery",
        why: "every sink a session builds delivers inline: only HubSink's own \
              constructors name the ring",
        needles: "SpineMode::Ring",
        then: |c| !c.is_some_and(is_ident),
        scope: &["crates/*/src/", "src/", "examples/"],
        test_code: false,
        allowed: &[("crates/core/src/hub/sink.rs", 2)],
    },
    Rule {
        name: "One event schema",
        why: "codec and vendor mappings come from event_table!: no `Event::` + a variant",
        needles: "Event::",
        then: |c| c.is_some_and(|c| c.is_ascii_uppercase()),
        scope: &["crates/trace/src/codec.rs", "crates/core/src/normalize.rs"],
        test_code: false,
        allowed: &[],
    },
    Rule {
        name: "One tool template",
        why: "a tool downcasts by upcasting, not as_any, and reads events through on_event",
        needles: "fn as_any|fn as_any_mut|fn into_any|\
                  fn on_global_access|fn on_shared_access|fn on_kernel_trace",
        then: |c| !c.is_some_and(is_ident),
        scope: &["crates/", "src/", "tests/", "examples/"],
        test_code: true,
        allowed: &[("crates/core/src/tool.rs", 2)],
    },
    Rule {
        name: "Analysis lives in tools",
        why: "hotness is HotnessTool's: analyses are tools",
        needles: "BlockHotness",
        then: |_| true,
        scope: &["crates/*/src/", "src/"],
        test_code: false,
        allowed: &[
            ("crates/uvm-sim/src/hotness.rs", 4),
            ("crates/uvm-sim/src/lib.rs", 1),
            ("crates/tools/src/hotness.rs", 4),
        ],
    },
    Rule {
        name: "One kernel builder",
        why: "a framework launch names each tensor once, through ops::Kernel: no \
              hand-built descriptor or hand-indexed access stream",
        needles: "KernelDesc::new|AccessSpec::",
        then: |_| true,
        scope: &["crates/dl-framework/src/"],
        test_code: false,
        allowed: &[("crates/dl-framework/src/ops.rs", 3)],
    },
    Rule {
        name: "Symbols hash by address",
        why: "per-symbol state is a SymbolMap, keyed by the symbol's address, not its name",
        needles: "HashMap<Symbol|HashSet<Symbol",
        then: |_| true,
        scope: &["crates/*/src/", "src/"],
        test_code: false,
        allowed: &[],
    },
];

/// One file of the walk.
struct Source {
    /// Repo-relative, `/`-separated.
    path: String,
    /// The package whose library holds this file; `None` for manifests and
    /// for files compiled as crates of their own (tests, binaries, …).
    owner: Option<String>,
    text: String,
    /// A Rust file's code, comments dropped and literal contents blanked,
    /// line for line; a manifest's text.
    code: String,
    /// The code in a Rust file's doc-comment Rust fences.
    doc: String,
    /// The byte where `code`'s test code starts.
    cut: usize,
}

impl Source {
    fn new(path: &str, text: String) -> Source {
        let (code, doc) = match path.ends_with(".rs") {
            true => lex(&text),
            false => (text.clone(), String::new()),
        };
        let gate = |line: &&str| line.starts_with("#[cfg(test)]");
        let lines = code.split_inclusive('\n');
        let cut = lines.take_while(|l| !gate(l)).map(str::len).sum();
        let (path, owner) = (path.to_owned(), None);
        Source {
            path,
            owner,
            text,
            code,
            doc,
            cut,
        }
    }

    fn is_rust(&self) -> bool {
        self.path.ends_with(".rs")
    }

    fn non_test(&self) -> &str {
        &self.code[..self.cut]
    }

    /// Line `n`, counted from 1, as written.
    fn line(&self, n: usize) -> &str {
        self.text.lines().nth(n - 1).unwrap_or("").trim()
    }
}

/// The one walk, shared by every test here.
fn sources() -> &'static [Source] {
    static SOURCES: OnceLock<Vec<Source>> = OnceLock::new();
    SOURCES.get_or_init(|| {
        let mut paths = vec!["Cargo.toml".to_owned()];
        for dir in ["benchmark/src", "crates", "examples", "src", "tests"] {
            files_under(dir, &mut paths);
        }
        let read = |path: &str| fs::read_to_string(format!("{ROOT}/{path}")).expect("a file");
        let mut sources: Vec<_> = paths.iter().map(|p| Source::new(p, read(p))).collect();
        // A package's library is its `src/` less `src/bin/`.
        let mut libraries = Vec::new();
        for s in &sources {
            let package = s.text.lines().find_map(|l| l.strip_prefix("name = \""));
            if let (Some(dir), Some(name)) = (s.path.strip_suffix("Cargo.toml"), package) {
                libraries.push((format!("{dir}src/"), name.trim_end_matches('"').to_owned()));
            }
        }
        let mut test_files = HashSet::new();
        for s in sources.iter().filter(|s| s.is_rust()) {
            let dir = module_dir(&s.path);
            for m in pub_items(&s.code).1 {
                test_files.extend([format!("{dir}{m}.rs"), format!("{dir}{m}/mod.rs")]);
            }
        }
        for s in sources.iter_mut().filter(|s| s.is_rust()) {
            for (lib, name) in &libraries {
                let in_lib = s.path.strip_prefix(lib.as_str());
                if in_lib.is_some_and(|p| !p.starts_with("bin/")) {
                    s.owner = Some(name.clone());
                }
            }
            if test_files.contains(&s.path) {
                s.cut = 0;
            }
        }
        sources
    })
}

/// Every `.rs` file and manifest under `dir`, repo-relative, sorted.
fn files_under(dir: &str, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(format!("{ROOT}/{dir}")) else {
        return;
    };
    let names = entries.map(|e| e.expect("a directory entry").file_name());
    let names: BTreeSet<String> = names.map(|n| n.into_string().expect("UTF-8")).collect();
    for name in names {
        let path = format!("{dir}/{name}");
        if fs::metadata(format!("{ROOT}/{path}")).is_ok_and(|m| m.is_dir()) {
            files_under(&path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// The directory a file's `mod name;` declarations resolve against.
fn module_dir(path: &str) -> String {
    let (dir, file) = path.rsplit_once('/').expect("a path inside a directory");
    match file {
        "lib.rs" | "main.rs" | "mod.rs" => format!("{dir}/"),
        _ => format!("{dir}/{}/", file.trim_end_matches(".rs")),
    }
}

/// Whether `path` is `pattern` or below it.
fn in_scope(path: &str, pattern: &str) -> bool {
    let mut dirs = path.split('/');
    (pattern.split('/')).all(|p| p.is_empty() || dirs.next().is_some_and(|d| p == "*" || p == d))
}

/// What breaks `rule` in `sources`: each file whose hit count is not the
/// one allowed it, then each of its hits as `file:line: line`.
fn broken(rule: &Rule, sources: &[Source]) -> Vec<String> {
    let holds = |line: &str, n: &str| {
        let next = |at: usize| line[at + n.len()..].chars().next();
        line.match_indices(n).any(|(at, _)| (rule.then)(next(at)))
    };
    let hit = |(_, line): &(usize, &str)| rule.needles.split('|').any(|n| holds(line, n));
    let scoped = |s: &&Source| rule.scope.iter().any(|p| in_scope(&s.path, p));
    let mut out = Vec::new();
    for s in sources.iter().filter(scoped) {
        let (path, end) = (&s.path, if rule.test_code { s.code.len() } else { s.cut });
        let hits: Vec<_> = (1..).zip(s.code[..end].lines()).filter(hit).collect();
        let allowed = rule.allowed.iter().find(|a| a.0 == path);
        let allowed = allowed.map_or(0, |a| a.1);
        if hits.len() != allowed {
            out.push(format!("  {path}: {} hits, {allowed} allowed", hits.len()));
            for (n, _) in hits {
                out.push(format!("  {path}:{n}: {}", s.line(n)));
            }
        }
    }
    out
}

/// Every `docs/perf-log/*.md` that README.md, ROADMAP.md or CHANGES.md
/// cites but that is missing or empty, as `document: pointer`.
fn unresolved_perf_logs() -> BTreeSet<String> {
    let mut unresolved = BTreeSet::new();
    for doc in ["README.md", "ROADMAP.md", "CHANGES.md"] {
        let text = fs::read_to_string(format!("{ROOT}/{doc}")).expect("a readable document");
        for (at, _) in text.match_indices("docs/perf-log/") {
            let pointer = text[at..].split(|c: char| !(c.is_alphanumeric() || "/._-".contains(c)));
            let pointer = pointer.into_iter().next().unwrap_or("");
            if let Some(cited) = pointer.rfind(".md").map(|end| &pointer[..end + 3]) {
                if !fs::metadata(format!("{ROOT}/{cited}")).is_ok_and(|m| m.len() > 0) {
                    unresolved.insert(format!("  {doc}: {cited} is missing or empty"));
                }
            }
        }
    }
    unresolved
}

/// The first top-level item below `s`'s first column-0 `#[cfg(test)]`
/// that no `#[cfg(test)]` gates, as `(line number, line)`: code the cut
/// would take for test code.
fn ungated_item(s: &Source) -> Option<(usize, &str)> {
    let mut below = (s.non_test().lines().count() + 1..).zip(s.code[s.cut..].lines());
    // A file with no such line, or test code whole, has nothing below one.
    let gate = below.next();
    gate.filter(|(_, line)| line.starts_with("#[cfg(test)]"))?;
    let mut gated = true;
    below
        .find(|(_, line)| {
            if line.starts_with("#[cfg(test)]") {
                gated = true;
                return false;
            }
            // Indented lines, closing delimiters, further attributes and
            // blank lines (comments among them) start no item.
            if line.trim().is_empty() || line.starts_with([' ', '\t', '}', ')', ']', '#']) {
                return false;
            }
            !std::mem::replace(&mut gated, false)
        })
        .map(|(n, _)| (n, s.line(n)))
}

/// Each counted area's non-test lines.
fn measured(sources: &[Source]) -> BTreeMap<String, usize> {
    let mut areas = BTreeMap::from(["src", "examples", "tests"].map(|a| (a.to_owned(), 0)));
    // A crate's manifest comes before its files in the walk.
    for s in sources {
        if let Some(dir) = s.path.strip_suffix("/Cargo.toml") {
            areas.extend(dir.starts_with("crates/").then(|| (dir.to_owned(), 0)));
        }
        let area = areas.iter_mut().find(|(a, _)| in_scope(&s.path, a));
        if let Some((_, lines)) = area.filter(|_| s.is_rust()) {
            *lines += s.non_test().lines().count();
        }
    }
    areas
}

/// The budget file's counts, area → lines.
fn budgeted(text: &str) -> BTreeMap<String, usize> {
    let lines = text.lines().map(str::trim);
    let lines = lines.filter(|line| !line.is_empty() && !line.starts_with('#'));
    let parse = |(area, n): (&str, &str)| Some((area.to_owned(), n.trim().parse().ok()?));
    lines
        .map(|line| {
            let count = line.split_once(' ').and_then(parse);
            count.unwrap_or_else(|| panic!("{BUDGET}: `{line}` is not `area lines`"))
        })
        .collect()
}

/// The census: every `(package, path, name)` declared in `crates/*/src`
/// whose name nothing outside the package names.
fn census(sources: &[Source]) -> BTreeSet<(String, String, String)> {
    // The shims stand in for crates from outside the workspace.
    let shim = |s: &&Source| s.path.starts_with("crates/shims/");
    let rust: Vec<&Source> = sources.iter().filter(|s| s.is_rust() && !shim(s)).collect();
    let doc_idents: HashSet<String> = rust.iter().flat_map(|s| idents(&s.doc)).collect();
    let named: Vec<HashSet<String>> = rust.iter().map(|s| idents(&s.code)).collect();
    let mut found = BTreeSet::new();
    for s in rust.iter().filter(|s| s.path.starts_with("crates/")) {
        let Some(owner) = &s.owner else {
            continue;
        };
        for name in pub_items(s.non_test()).0 {
            let outside =
                |(o, names): (&&Source, &HashSet<_>)| o.owner != s.owner && names.contains(&name);
            if !doc_idents.contains(&name) && !rust.iter().zip(&named).any(outside) {
                found.insert((owner.clone(), s.path.clone(), name));
            }
        }
    }
    found
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn idents(code: &str) -> HashSet<String> {
    code.split(|c: char| !is_ident(c))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
        .map(str::to_owned)
        .collect()
}

/// Splits a source file into its code — comments dropped, string and
/// char literal contents blanked, newlines kept — and the code inside its
/// doc comments' Rust fences.
fn lex(src: &str) -> (String, String) {
    let s: Vec<char> = src.chars().collect();
    let at = |i: usize| s.get(i).copied().unwrap_or('\0');
    let mut code = String::with_capacity(src.len());
    let mut doc_code = String::new();
    // `None` outside a doc fence, else whether the fence holds Rust.
    let mut fence: Option<bool> = None;
    let blank = |code: &mut String, from: &[char]| {
        code.extend(from.iter().map(|&c| if c == '\n' { '\n' } else { ' ' }));
    };
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        if c == '/' && at(i + 1) == '/' {
            let end = s[i..]
                .iter()
                .position(|&c| c == '\n')
                .map_or(s.len(), |p| i + p);
            let line: String = s[i..end].iter().collect();
            if let Some(doc) = line
                .strip_prefix("///")
                .or_else(|| line.strip_prefix("//!"))
            {
                let doc = doc.trim();
                if let Some(lang) = doc.strip_prefix("```") {
                    fence =
                        match fence {
                            Some(_) => None,
                            None => Some(lang.split(',').all(|a| {
                                matches!(a.trim(), "" | "rust" | "no_run" | "should_panic")
                            })),
                        };
                } else if fence == Some(true) {
                    doc_code.push_str(doc);
                    doc_code.push('\n');
                }
            }
            i = end;
        } else if c == '/' && at(i + 1) == '*' {
            let start = i;
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
            blank(&mut code, &s[start..i.min(s.len())]);
        } else if c == '"' || (c == 'r' && raw_string_at(&s, i)) {
            let start = i;
            let hashes = if c == 'r' {
                i += 1;
                let n = s[i..].iter().take_while(|&&c| c == '#').count();
                i += n;
                Some(n)
            } else {
                None
            };
            i += 1;
            while i < s.len() {
                match (s[i], hashes) {
                    ('\\', None) => i += 2,
                    ('"', None) => break,
                    ('"', Some(n))
                        if s[i + 1..].iter().take(n).filter(|&&c| c == '#').count() == n =>
                    {
                        i += n;
                        break;
                    }
                    _ => i += 1,
                }
            }
            i += 1;
            blank(&mut code, &s[start..i.min(s.len())]);
        } else if c == '\'' && at(i + 1) == '\\' {
            // An escaped char literal: '\n', '\'', '\u{..}'.
            let end = s[(i + 3).min(s.len())..]
                .iter()
                .position(|&c| c == '\'')
                .map_or(s.len(), |p| i + 4 + p);
            blank(&mut code, &s[i..end]);
            i = end;
        } else if c == '\'' && at(i + 2) == '\'' {
            blank(&mut code, &s[i..i + 3]);
            i += 3;
        } else {
            code.push(c);
            i += 1;
        }
    }
    (code, doc_code)
}

/// True when the `r` at `i` opens a raw (byte) string, not an identifier
/// or a raw identifier.
fn raw_string_at(s: &[char], i: usize) -> bool {
    let before = |k: usize| k.checked_sub(1).map_or('\0', |k| s[k]);
    let starts_token = !is_ident(before(i)) || (before(i) == 'b' && !is_ident(before(i - 1)));
    let after = s[i + 1..].iter().find(|&&c| c != '#');
    starts_token && after == Some(&'"')
}

/// The names of the `pub` items in `code` outside `#[cfg(test)]` items,
/// and the names of the modules a `#[cfg(test)] mod name;` declares.
fn pub_items(code: &str) -> (Vec<String>, Vec<String>) {
    let lines: Vec<&str> = code.lines().collect();
    let (mut items, mut test_mods) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        if line.starts_with("#[cfg(test)]") {
            let mut j = i + 1;
            while lines[j].trim().starts_with("#[") {
                j += 1;
            }
            let item = lines[j].trim();
            if let Some(name) = item
                .trim_start_matches("pub(crate) ")
                .strip_prefix("mod ")
                .and_then(|m| m.strip_suffix(';'))
            {
                test_mods.push(name.trim().to_owned());
            }
            i = item_end(&lines, j);
            continue;
        }
        items.extend(pub_item(line));
        i += 1;
    }
    (items, test_mods)
}

/// The name a `pub fn|struct|enum|trait|type|const|static` line declares.
fn pub_item(line: &str) -> Option<String> {
    let words: Vec<&str> = line.strip_prefix("pub ")?.split_whitespace().collect();
    let word = |k: usize| words.get(k).copied().unwrap_or("");
    // Qualifiers before the kind: `const fn`, `unsafe fn`, `extern "C" fn`
    // (the ABI string is blanked by `lex`).
    let mut k = 0;
    while matches!(word(k), "unsafe" | "async" | "extern")
        || (word(k) == "const" && matches!(word(k + 1), "fn" | "unsafe"))
    {
        k += 1;
    }
    if !KINDS.contains(&word(k)) {
        return None;
    }
    k += 1;
    if word(k) == "mut" {
        k += 1;
    }
    let name: String = word(k).chars().take_while(|&c| is_ident(c)).collect();
    (!name.is_empty() && name != "_").then_some(name)
}

/// The line after the item starting at line `j`: after its closing brace,
/// or after its `;` when it has no body.
fn item_end(lines: &[&str], j: usize) -> usize {
    let (mut braces, mut parens) = (0i32, 0i32);
    let mut opened = false;
    for (k, line) in lines.iter().enumerate().skip(j) {
        for c in line.chars() {
            match c {
                '{' => {
                    braces += 1;
                    opened = true;
                }
                '}' => braces -= 1,
                '(' | '[' => parens += 1,
                ')' | ']' => parens -= 1,
                ';' if !opened && braces == 0 && parens == 0 => return k + 1,
                _ => {}
            }
        }
        if opened && braces == 0 {
            return k + 1;
        }
    }
    lines.len()
}

#[test]
fn every_area_matches_its_line_budget() {
    let text = fs::read_to_string(format!("{ROOT}/{BUDGET}")).expect("the line budget is readable");
    let budget = budgeted(&text);
    let counts = measured(sources());
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
    let wrong: Vec<String> = (sources().iter().filter(|s| s.is_rust()))
        .filter_map(|s| ungated_item(s).map(|(n, line)| format!("  {}:{n}: {line}", s.path)))
        .collect();
    assert!(
        wrong.is_empty(),
        "these items follow their file's first `#[cfg(test)]` line, so the budget \
         and the source rules skip them; move the test module below them:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn every_pub_item_nothing_outside_its_crate_names_is_listed_with_a_reason() {
    let listed_text =
        fs::read_to_string(format!("{ROOT}/{CENSUS}")).expect("docs/public-surface.txt");
    let mut listed = BTreeSet::new();
    for line in listed_text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let (item, reason) = line
            .split_once(" — ")
            .unwrap_or_else(|| panic!("`{line}`: every line is `crate path name — reason`"));
        assert!(!reason.trim().is_empty(), "`{line}` gives no reason");
        let fields: Vec<&str> = item.split_whitespace().collect();
        let [package, path, name] = fields[..] else {
            panic!("`{line}`: every line is `crate path name — reason`");
        };
        assert!(
            listed.insert((package.to_owned(), path.to_owned(), name.to_owned())),
            "`{line}` is listed twice"
        );
    }

    let found = census(sources());
    let unlisted: Vec<String> = found
        .difference(&listed)
        .map(|(c, p, n)| format!("{c} {p} {n} — <reason>"))
        .collect();
    let stale: Vec<String> = listed
        .difference(&found)
        .map(|(c, p, n)| format!("{c} {p} {n}"))
        .collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "\n{} `pub` item(s) nothing outside their crate names: make each private or \
         `pub(crate)`, or list it in {CENSUS} with a reason:\n{}\n\n{} line(s) in {CENSUS} \
         no longer name such an item (it went private, moved, or gained an outside user): \
         delete them:\n{}\n",
        unlisted.len(),
        unlisted.join("\n"),
        stale.len(),
        stale.join("\n"),
    );
}

#[test]
fn every_rule_holds_and_every_cited_perf_log_exists() {
    let mut failures = Vec::new();
    for rule in &RULES {
        let hits = broken(rule, sources());
        if !hits.is_empty() {
            let (name, why, hits) = (rule.name, rule.why, hits.join("\n"));
            failures.push(format!("{name} ({why}):\n{hits}"));
        }
    }
    let unresolved = unresolved_perf_logs();
    if !unresolved.is_empty() {
        let pointers = unresolved.into_iter().collect::<Vec<_>>().join("\n");
        failures.push(format!("Perf-log pointers resolve:\n{pointers}"));
    }
    assert!(failures.is_empty(), "\n{}\n", failures.join("\n\n"));
}

#[test]
fn the_lexer_sees_code_not_comments_or_literals() {
    let src = "/// ```\n/// use a::doc_named;\n/// ```\n/// ```text\n/// not_code\n/// ```\n\
               // line_comment\n/* block /* nested */ comment */\n\
               fn f() -> &'static str { let _ = '\\''; let _ = '{'; r#\"raw_lit\"# }\n\
               #[cfg(test)]\nmod t { pub fn in_test(x: [u8; 2]) {} }\n\
               pub const fn real() {}\npub(crate) fn private() {}\n\
               pub static mut GLOBAL: u8 = 0;\n#[cfg(test)]\nmod read_path_tests;\n";
    let (code, doc) = lex(src);
    let code_idents = idents(&code);
    assert!(code_idents.contains("real") && code_idents.contains("static"));
    for gone in [
        "line_comment",
        "block",
        "nested",
        "raw_lit",
        "doc_named",
        "not_code",
    ] {
        assert!(!code_idents.contains(gone), "{gone} leaked into code");
    }
    assert_eq!(
        idents(&doc),
        ["use", "a", "doc_named"].map(str::to_owned).into()
    );
    let (items, test_mods) = pub_items(&code);
    assert_eq!(items, ["real", "GLOBAL"]);
    assert_eq!(test_mods, ["read_path_tests"]);

    // Every rule fires on each needle in code, naming file and line, but
    // not in a comment or a literal, and holds an allowed file to its count.
    for rule in &RULES {
        let check = |path: &str, text: String| broken(rule, &[Source::new(path, text)]);
        let next = if (rule.then)(Some('A')) { 'A' } else { '(' };
        let dir = rule.scope.iter().find(|p| p.ends_with('/'));
        let free = dir.map_or(rule.scope[0].into(), |d| d.replace('*', "any") + "free.rs");
        for needle in rule.needles.split('|').map(|n| format!("{n}{next}")) {
            let hit = format!("  {free}:2: {needle}");
            let fired = check(&free, format!("\n    {needle}\n"));
            assert!(fired.contains(&hit), "{hit}");
            let quiet = format!("// {needle}\n/* {needle} */\nconst S: &str = \"{needle}\";");
            assert!(check(&free, quiet).is_empty(), "{}: {needle}", rule.name);
        }
        let first = format!("{}{next}\n", rule.needles.split('|').next().unwrap());
        for &(path, n) in rule.allowed {
            assert!(check(path, first.repeat(n)).is_empty(), "{}", rule.name);
            let over = check(path, first.repeat(n + 1));
            assert!(!over.is_empty(), "{}", rule.name);
        }
    }
}
