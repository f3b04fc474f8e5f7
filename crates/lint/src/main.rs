//! CLI driver: `cargo run -p slicer-lint -- [--format json|text] [--root DIR]`.
//!
//! Scans the workspace, prints every finding and exits 1 if there are
//! any (0 when clean, 2 on a usage or I/O error).
//!
//! * `--format json` — machine-readable output: one JSON object with the
//!   status, findings and per-family totals (for CI consumers).
//! * `--root <dir>` — workspace root (default: the lint crate's
//!   grandparent, i.e. the repo root when run via cargo).

use slicer_lint::{scan_workspace, Finding};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json: bool,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut json = false;
    let mut root = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                other => {
                    return Err(format!(
                        "--format wants json or text, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            },
            "--root" => {
                root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--help" | "-h" => {
                println!("usage: slicer-lint [--format json|text] [--root DIR]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}; try --help")),
        }
    }
    let root = match root {
        Some(r) => r,
        // CARGO_MANIFEST_DIR = <root>/crates/lint.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .ok_or("cannot locate workspace root; pass --root")?
            .to_path_buf(),
    };
    Ok(Args { json, root })
}

/// Minimal RFC 8259 string escaping (the linter is zero-dependency).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Finding counts per rule family (`panic`, `ct`, `det`, ...).
fn family_totals(findings: &[Finding]) -> BTreeMap<&str, usize> {
    let mut totals = BTreeMap::new();
    for f in findings {
        *totals
            .entry(f.rule.split('.').next().unwrap_or(f.rule))
            .or_insert(0) += 1;
    }
    totals
}

/// The machine-readable report: status, findings and per-family totals.
fn report_json(findings: &[Finding]) -> String {
    let status = if findings.is_empty() {
        "ok"
    } else {
        "violation"
    };
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&f.file),
                f.line,
                json_escape(f.rule),
                json_escape(&f.detail)
            )
        })
        .collect();
    let families: Vec<String> = family_totals(findings)
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    format!(
        "{{\"status\":\"{status}\",\"findings\":[{}],\"families\":{{{}}}}}",
        items.join(","),
        families.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slicer-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_workspace(&args.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("slicer-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        println!("{}", report_json(&findings));
    } else if findings.is_empty() {
        println!("slicer-lint: OK — clean");
    } else {
        for f in &findings {
            println!("{f}");
        }
        let parts: Vec<String> = family_totals(&findings)
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        eprintln!(
            "slicer-lint: FAILED — {} finding(s) ({}); fix them or add a justified pragma",
            findings.len(),
            parts.join(" ")
        );
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
