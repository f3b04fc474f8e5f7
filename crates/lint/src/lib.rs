//! # slicer-lint
//!
//! A from-scratch, zero-dependency static-analysis pass over every
//! workspace `src/` file, enforcing three invariant families the compiler
//! cannot check but Slicer's security argument depends on:
//!
//! 1. **Panic-freedom** in the protocol/settlement crates (`chain`,
//!    `core`, `sore`, `store`, `accumulator`): a panicking verifier is an
//!    availability attack on fair payment (Section IV-B), so `unwrap()`,
//!    `expect(..)`, `panic!`, `unreachable!`, `assert!` and bare slice
//!    indexing are denied in non-test code.
//! 2. **Constant-time discipline** in `crypto`, `bignum` and `sore`:
//!    `==`/`!=` on secret-named operands and early exits inside comparison
//!    loops leak through timing, breaking the IND-OCPA-style leakage
//!    bound — `ct_eq`-style primitives are the sanctioned alternative.
//! 3. **Determinism** everywhere outside `crates/telemetry`'s Clock
//!    abstraction: `HashMap`/`HashSet` iteration order, `SystemTime`,
//!    `Instant::now` and `std::thread` all make same-seed transcripts
//!    diverge, which the determinism suite forbids.
//!
//! Nothing is grandfathered: code must be clean or carry an inline
//! `// slicer-lint: allow(<rule>) — <reason>` pragma, and any finding
//! fails the run.
//!
//! Run it as `cargo run -p slicer-lint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod taint;

pub use rules::{policy_for, scan_source, Finding, Policy, ALL_RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collects every `.rs` file the linter covers: `crates/*/src/**` plus the
/// root `src/**`, sorted for deterministic output.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories).
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every covered file under `root` and returns all findings —
/// per-file token rules plus the workspace-wide interprocedural taint
/// analysis — with paths made workspace-relative (forward slashes).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable files).
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for path in collect_files(root)? {
        let rel = relative_path(root, &path);
        let src = fs::read_to_string(&path)?;
        sources.push((rel, src));
    }
    Ok(scan_sources(&sources))
}

/// Scans a set of in-memory `(workspace-relative path, source)` pairs:
/// per-file token rules plus the cross-file taint analysis over the whole
/// set. This is the engine behind [`scan_workspace`], exposed so fixtures
/// and tests can lint synthetic workspaces without touching the
/// filesystem.
pub fn scan_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (rel, src) in sources {
        findings.extend(scan_source(rel, src));
    }
    let parsed: Vec<parser::ParsedFile> = sources
        .iter()
        .map(|(rel, src)| parser::parse_file(rel, src))
        .collect();
    findings.extend(taint::analyze(&parsed));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// `root`-relative path with forward slashes (reports must not
/// depend on the host OS).
pub fn relative_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
