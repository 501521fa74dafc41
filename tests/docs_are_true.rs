//! Docs that are true: every `crates/…`, `tests/…` and `perfbench/…` path
//! that DESIGN.md or EXPERIMENTS.md cites exists, and every
//! `file.rs::test_name` names a function of that file (a name ending in `*`
//! is a prefix). A rename or a deletion that leaves the documents behind
//! turns this red with the document, the line and the citation.

use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["DESIGN.md", "EXPERIMENTS.md"];
const ROOTS: [&str; 3] = ["crates/", "tests/", "perfbench/"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn is_path_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || "_./-".contains(c)
}

/// One citation: a path, and the `::name` after it if there is one.
#[derive(Debug, PartialEq)]
struct Citation {
    line: usize,
    path: String,
    function: Option<String>,
}

/// Every maximal run of path characters in `text` that starts with one of
/// `ROOTS` or ends in `.rs::name`.
fn citations(text: &str) -> Vec<Citation> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(start) = rest.find(is_path_char) {
            let run = &rest[start..];
            let len = run.find(|c| !is_path_char(c)).unwrap_or(run.len());
            let (token, after) = run.split_at(len);
            rest = after;
            // A sentence's full stop or a directory's slash is not the path.
            let path = token.trim_end_matches(['.', '/']);
            let function = after.strip_prefix("::").map(|name| {
                let end = name
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '*'))
                    .unwrap_or(name.len());
                name[..end].to_string()
            });
            let cited_function = path.ends_with(".rs") && function.is_some();
            if ROOTS.iter().any(|r| token.starts_with(r)) || cited_function {
                out.push(Citation {
                    line: n + 1,
                    path: path.to_string(),
                    function: function.filter(|_| path.ends_with(".rs")),
                });
            }
        }
    }
    out
}

/// All `.rs` files under `dir`, build output aside.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Does `source` define a function called `name` (or, for `name*`, one
/// whose name starts with it)?
fn defines(source: &str, name: &str) -> bool {
    let (stem, prefix) = match name.strip_suffix('*') {
        Some(stem) => (stem, true),
        None => (name, false),
    };
    source.match_indices("fn ").any(|(at, _)| {
        let ident = &source[at + 3..];
        let end = ident
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(ident.len());
        if prefix {
            ident[..end].starts_with(stem)
        } else {
            &ident[..end] == stem
        }
    })
}

#[test]
fn the_scanner_finds_what_a_reader_would() {
    let text = "see `crates/exec/src/scan.rs` and (tests/filestore.rs::sim_and_*), \
                `perfbench/`.\nOnly `sort.rs::cmp_rows`; not exec/tests/x.rs or a.rs alone.";
    let cite = |line, path: &str, function: Option<&str>| Citation {
        line,
        path: path.into(),
        function: function.map(String::from),
    };
    assert_eq!(
        citations(text),
        [
            cite(1, "crates/exec/src/scan.rs", None),
            cite(1, "tests/filestore.rs", Some("sim_and_*")),
            cite(1, "perfbench", None),
            cite(2, "sort.rs", Some("cmp_rows")),
        ]
    );
    assert!(defines("pub fn alpha_beta() {}", "alpha_beta"));
    assert!(defines("fn alpha_beta() {}", "alpha_*"));
    assert!(!defines("fn alpha_beta() {}", "alpha"));
    assert!(!defines("fn alpha_beta() {}", "beta*"));
}

#[test]
fn every_path_and_test_the_documents_cite_exists() {
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ROOTS {
        rust_files(&root.join(dir), &mut sources);
    }
    let mut wrong = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for c in citations(&text) {
            checked += 1;
            let rooted = ROOTS.iter().any(|r| format!("{}/", c.path).starts_with(r));
            if rooted && !root.join(&c.path).exists() {
                wrong.push(format!("{doc}:{}: no such path `{}`", c.line, c.path));
                continue;
            }
            let Some(function) = &c.function else {
                continue;
            };
            // A bare `file.rs` is any file of that name.
            let found = sources
                .iter()
                .filter(|f| f.ends_with(&c.path))
                .filter_map(|f| std::fs::read_to_string(f).ok())
                .any(|source| defines(&source, function));
            if !found {
                wrong.push(format!(
                    "{doc}:{}: no function `{function}` in `{}`",
                    c.line, c.path
                ));
            }
        }
    }
    assert!(checked > 50, "the scanner found only {checked} citations");
    assert!(wrong.is_empty(), "stale citations:\n{}", wrong.join("\n"));
}
