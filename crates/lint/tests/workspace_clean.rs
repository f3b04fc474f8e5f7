//! The workspace itself lints clean: no finding is grandfathered, so
//! `cargo test` enforces the same invariant as `slicer-lint` in CI.

use slicer_lint::scan_workspace;
use std::path::Path;

#[test]
fn workspace_has_no_findings() {
    // CARGO_MANIFEST_DIR = <root>/crates/lint.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/lint");
    let findings = scan_workspace(root).expect("workspace sources are readable");
    let listed: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "{} slicer-lint finding(s):\n{}",
        findings.len(),
        listed.join("\n")
    );
}
