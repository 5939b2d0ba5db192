//! The public-surface census.
//!
//! Lists every `pub` fn / struct / enum / trait / type / const / static
//! declared in `crates/*/src` whose name no file outside the defining crate
//! names, and checks that list against `docs/public-surface.txt`: one
//! `crate path name — reason` line per item deliberately kept `pub`. A new
//! `pub` item nothing outside its crate uses therefore fails here until it
//! is made private or `pub(crate)` — or listed, with a CHANGES line saying
//! why — and a listed item that went private or gained an outside caller
//! fails until its line goes.
//!
//! The census is lexical. Outside a crate means another crate, `src/`,
//! `tests/`, `examples/`, `benchmark/`, and the crate's own `tests/`,
//! `benches/`, `examples/` and `src/bin/`, all of which compile as separate
//! crates. Code in doc comments counts as outside wherever it sits, since
//! doctests compile as external crates too. Comments, string literals,
//! `#[cfg(test)]` items and the in-tree shims are ignored. A name counts as
//! named when any outside file holds it as an identifier, so an item shares
//! its fate with every same-named item elsewhere: the census can only miss
//! an unused item, never list a used one.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

const CENSUS: &str = "docs/public-surface.txt";

/// The item kinds the census covers.
const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// One source file, lexed.
struct Source {
    /// Repo-relative path with `/` separators.
    path: String,
    /// The package whose library this file belongs to; `None` for every
    /// file that compiles as a crate of its own (tests, benches, binaries,
    /// examples, the facade, the benchmark).
    owner: Option<String>,
    /// The code with comments removed and literal contents blanked; line
    /// structure kept.
    code: String,
    /// Identifiers of `code`.
    idents: HashSet<String>,
}

/// The census: every `(package, path, name)` whose name nothing outside
/// the package names.
fn census(root: &Path) -> BTreeSet<(String, String, String)> {
    let mut sources = Vec::new();
    let mut doc_idents = HashSet::new();
    for dir in ["src", "tests", "examples", "benchmark/src"] {
        collect(root, &root.join(dir), None, &mut sources, &mut doc_idents);
    }
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is listable")
        .map(|e| e.expect("a directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    for dir in &crates {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("a readable manifest");
        let package = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|l| l.strip_suffix('"'))
            .expect("a package name")
            .to_owned();
        for sub in ["tests", "benches", "examples", "src/bin"] {
            collect(root, &dir.join(sub), None, &mut sources, &mut doc_idents);
        }
        collect(
            root,
            &dir.join("src"),
            Some(&package),
            &mut sources,
            &mut doc_idents,
        );
    }

    // Files a `#[cfg(test)] mod name;` pulls in are test code whole.
    let mut test_files = HashSet::new();
    let mut declared = Vec::new();
    for s in sources.iter().filter(|s| s.owner.is_some()) {
        let (items, test_mods) = pub_items(&s.code);
        let dir = module_dir(&s.path);
        test_files.extend(
            test_mods
                .iter()
                .flat_map(|m| [format!("{dir}{m}.rs"), format!("{dir}{m}/mod.rs")]),
        );
        declared.extend(items.into_iter().map(|name| (s, name)));
    }
    declared
        .into_iter()
        .filter(|(s, _)| !test_files.contains(&s.path))
        .filter(|(s, name)| {
            !doc_idents.contains(name)
                && !sources
                    .iter()
                    .any(|o| o.owner != s.owner && o.idents.contains(name))
        })
        .map(|(s, name)| {
            (
                s.owner.clone().expect("a library file"),
                s.path.clone(),
                name,
            )
        })
        .collect()
}

/// Lexes every `.rs` file under `dir` (skipping `src/bin` of a library
/// walk, which is its own crate and walked separately).
fn collect(
    root: &Path,
    dir: &Path,
    owner: Option<&str>,
    out: &mut Vec<Source>,
    doc_idents: &mut HashSet<String>,
) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("a directory entry").path())
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if !(owner.is_some() && path.ends_with("src/bin")) {
                collect(root, &path, owner, out, doc_idents);
            }
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("a readable source file");
        let (code, doc_code) = lex(&text);
        doc_idents.extend(idents(&doc_code));
        out.push(Source {
            path: path
                .strip_prefix(root)
                .expect("under the repo")
                .to_string_lossy()
                .replace('\\', "/"),
            owner: owner.map(str::to_owned),
            idents: idents(&code),
            code,
        });
    }
}

/// The directory a file's `mod name;` declarations resolve against.
fn module_dir(path: &str) -> String {
    let (dir, file) = path.rsplit_once('/').expect("a path inside a crate");
    match file {
        "lib.rs" | "main.rs" | "mod.rs" => format!("{dir}/"),
        _ => format!("{dir}/{}/", file.trim_end_matches(".rs")),
    }
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
fn every_pub_item_nothing_outside_its_crate_names_is_listed_with_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let listed_text = fs::read_to_string(root.join(CENSUS)).expect("docs/public-surface.txt");
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

    let found = census(root);
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
}
