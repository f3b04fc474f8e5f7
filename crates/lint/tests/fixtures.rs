//! Fixture tests: every rule must flag a known-bad snippet at the right
//! line, and known-good idioms (ct_eq helpers, pragma'd sites, test code)
//! must pass clean.

use slicer_lint::{scan_source, Finding};

/// Scans a snippet as if it lived in the given crate.
fn scan_in(krate: &str, src: &str) -> Vec<Finding> {
    scan_source(&format!("crates/{krate}/src/fixture.rs"), src)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn find<'a>(findings: &'a [Finding], rule: &str) -> &'a Finding {
    findings
        .iter()
        .find(|f| f.rule == rule)
        .unwrap_or_else(|| panic!("expected a {rule} finding, got {findings:?}"))
}

// ---------------------------------------------------------------- panic --

#[test]
fn unwrap_flagged_in_panic_free_crate_at_right_line() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
    let findings = scan_in("chain", src);
    let f = find(&findings, "panic.unwrap");
    assert_eq!(f.line, 2);
}

#[test]
fn expect_and_panic_macros_flagged() {
    let src = r#"
fn f(x: Option<u8>) -> u8 {
    let y = x.expect("present");
    if y > 9 { panic!("nine"); }
    y
}
"#;
    let findings = scan_in("core", src);
    assert!(rules_of(&findings).contains(&"panic.expect"));
    assert!(rules_of(&findings).contains(&"panic.panic"));
}

#[test]
fn unreachable_and_assert_flagged() {
    let src =
        "fn f(n: u8) {\n    assert!(n < 4);\n    match n { 0..=3 => {}, _ => unreachable!() }\n}\n";
    let findings = scan_in("sore", src);
    assert_eq!(find(&findings, "panic.assert").line, 2);
    assert_eq!(find(&findings, "panic.unreachable").line, 3);
}

#[test]
fn bare_indexing_flagged_but_safe_access_not() {
    let bad = "fn f(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    let findings = scan_in("store", bad);
    assert_eq!(find(&findings, "panic.index").line, 2);

    let good = "fn f(v: &[u8]) -> u8 {\n    v.first().copied().unwrap_or(0)\n}\n";
    let findings = scan_in("store", good);
    assert!(
        !rules_of(&findings).contains(&"panic.index"),
        "get-based access must pass: {findings:?}"
    );
}

#[test]
fn attribute_and_type_brackets_are_not_indexing() {
    let src = "#[derive(Debug)]\nstruct S { buf: [u8; 4] }\nfn f(s: &S) -> [u8; 4] { s.buf }\n";
    let findings = scan_in("chain", src);
    assert!(
        findings.is_empty(),
        "type syntax must not be flagged: {findings:?}"
    );
}

#[test]
fn test_code_is_exempt_from_panic_rules() {
    let src = r#"
fn prod(x: Option<u8>) -> u8 { x.unwrap_or(0) }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1u8];
        assert_eq!(v[0], Some(1).unwrap());
    }
}
"#;
    let findings = scan_in("chain", src);
    assert!(findings.is_empty(), "test code must pass: {findings:?}");
}

#[test]
fn non_panic_crates_may_unwrap() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    let findings = scan_in("bench", src);
    assert!(
        !rules_of(&findings).contains(&"panic.unwrap"),
        "bench is not a panic-free crate: {findings:?}"
    );
}

// ------------------------------------------------------------------- ct --

#[test]
fn secret_equality_flagged_in_ct_crate_only() {
    let src = "fn check(secret_key: &[u8], other: &[u8]) -> bool {\n    secret_key == other\n}\n";
    let findings = scan_in("crypto", src);
    assert_eq!(find(&findings, "ct.secret_eq").line, 2);

    // The same comparison outside a CT crate is not a finding.
    let findings = scan_in("workload", src);
    assert!(!rules_of(&findings).contains(&"ct.secret_eq"));
}

#[test]
fn ct_eq_fold_idiom_passes() {
    let src = r#"
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = (a.len() ^ b.len()) as u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}
"#;
    let findings = scan_in("crypto", src);
    assert!(findings.is_empty(), "ct_eq fold must pass: {findings:?}");
}

#[test]
fn early_return_in_comparison_loop_flagged() {
    let src = r#"
pub fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    for (x, y) in a.iter().zip(b.iter()) {
        if x != y {
            return false;
        }
    }
    true
}
"#;
    let findings = scan_in("bignum", src);
    assert!(
        rules_of(&findings).contains(&"ct.early_exit"),
        "data-dependent early return must be flagged: {findings:?}"
    );
}

// ------------------------------------------------------------------ det --

#[test]
fn hash_collections_wall_clocks_and_threads_flagged() {
    let src = r#"
use std::collections::HashMap;
fn f() {
    let m: HashMap<u8, u8> = HashMap::new();
    let _ = m;
    let _t = std::time::Instant::now();
    let _h = std::thread::spawn(|| 1u8);
}
"#;
    let findings = scan_in("workload", src);
    let rules = rules_of(&findings);
    assert!(rules.contains(&"det.hash_collection"));
    assert!(rules.contains(&"det.wall_clock"));
    assert!(rules.contains(&"det.thread"));
}

#[test]
fn telemetry_crate_is_exempt_from_det() {
    let src = "fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let findings = scan_in("telemetry", src);
    assert!(
        findings.is_empty(),
        "telemetry owns the clock: {findings:?}"
    );
}

#[test]
fn par_crate_threads_are_sanctioned_by_construction() {
    // The deterministic pool is the one place std::thread is legal — no
    // pragma involved, the policy itself exempts the crate.
    let src = r#"
fn fan_out() {
    std::thread::scope(|s| {
        s.spawn(|| 1u8);
    });
    let n = std::thread::available_parallelism();
    let _ = n;
}
"#;
    let findings = scan_in("par", src);
    assert!(
        findings.is_empty(),
        "slicer-par owns the sanctioned pool: {findings:?}"
    );

    // The exemption is det.thread-only: the rest of the det family still
    // applies inside crates/par.
    let clocky = "fn f() {\n    let _t = std::time::Instant::now();\n}\n";
    let findings = scan_in("par", clocky);
    assert!(rules_of(&findings).contains(&"det.wall_clock"));

    // And other crates remain barred from std::thread.
    let elsewhere = "fn f() {\n    std::thread::spawn(|| 1u8);\n}\n";
    let findings = scan_in("core", elsewhere);
    assert!(rules_of(&findings).contains(&"det.thread"));
}

#[test]
fn btreemap_passes_det() {
    let src = "use std::collections::BTreeMap;\nfn f() -> BTreeMap<u8, u8> { BTreeMap::new() }\n";
    let findings = scan_in("core", src);
    assert!(findings.is_empty(), "BTreeMap is fine: {findings:?}");
}

// --------------------------------------------------------------- pragma --

#[test]
fn pragma_with_reason_suppresses_the_finding() {
    let src = "fn f(x: Option<u8>) -> u8 {\n    // slicer-lint: allow(panic.unwrap) — constructor contract, callers pass Some\n    x.unwrap()\n}\n";
    let findings = scan_in("chain", src);
    assert!(findings.is_empty(), "pragma'd site must pass: {findings:?}");
}

#[test]
fn pragma_without_reason_is_itself_a_finding() {
    let src =
        "fn f(x: Option<u8>) -> u8 {\n    // slicer-lint: allow(panic.unwrap)\n    x.unwrap()\n}\n";
    let findings = scan_in("chain", src);
    assert!(
        rules_of(&findings).contains(&"pragma.missing_reason"),
        "reasonless pragma must be rejected: {findings:?}"
    );
}

#[test]
fn pragma_only_suppresses_its_named_rule() {
    let src = "fn f(v: &[u8]) -> u8 {\n    // slicer-lint: allow(panic.unwrap) — wrong rule named\n    v[0]\n}\n";
    let findings = scan_in("chain", src);
    assert!(
        rules_of(&findings).contains(&"panic.index"),
        "a pragma for another rule must not suppress panic.index: {findings:?}"
    );
}
