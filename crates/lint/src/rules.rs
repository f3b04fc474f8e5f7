//! The three rule families and the per-crate policy that selects them.
//!
//! | family        | rules                                                   | applies to |
//! |---------------|---------------------------------------------------------|------------|
//! | panic-freedom | `panic.unwrap` `panic.expect` `panic.panic`             | chain, core, sore, store, accumulator |
//! |               | `panic.unreachable` `panic.assert` `panic.index`        | |
//! | constant-time | `ct.secret_eq` `ct.early_exit`                          | crypto, bignum, sore |
//! | determinism   | `det.hash_collection` `det.wall_clock` `det.thread`     | everything except telemetry; `det.thread` additionally exempts par |
//! | secret taint  | `taint.secret_to_{log,debug,persist,wire,ct}`           | crypto, core, sore, trapdoor, daemon, persist (see [`crate::taint`]) |
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt from
//! every family. Inline `// slicer-lint: allow(<rule>) — <reason>` pragmas
//! suppress a finding on their own or the following line; a pragma without
//! a reason is itself a violation (`pragma.missing_reason`).

use crate::lexer::{lex, Pragma, Tok, TokKind};

/// Every rule id the engine can emit, in stable report order.
pub const ALL_RULES: &[&str] = &[
    "panic.unwrap",
    "panic.expect",
    "panic.panic",
    "panic.unreachable",
    "panic.assert",
    "panic.index",
    "ct.secret_eq",
    "ct.early_exit",
    "det.hash_collection",
    "det.wall_clock",
    "det.thread",
    "taint.secret_to_log",
    "taint.secret_to_debug",
    "taint.secret_to_persist",
    "taint.secret_to_wire",
    "taint.secret_to_ct",
    "pragma.missing_reason",
];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Short excerpt of the offending tokens.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.detail
        )
    }
}

/// Which families apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Panic-freedom family.
    pub panic: bool,
    /// Constant-time family.
    pub ct: bool,
    /// Determinism family.
    pub det: bool,
    /// Whether `det.thread` applies. False only for the crates that *are*
    /// the sanctioned threading abstraction — exempt by construction, not
    /// by pragma.
    pub thread: bool,
}

/// Crates whose non-test code must be panic-free: the protocol, settlement
/// and proof layers, where a panic is an availability attack on fair
/// payment (Section IV-B of the paper), not a crash.
const PANIC_FREE_CRATES: &[&str] = &[
    "chain",
    "core",
    "sore",
    "store",
    "accumulator",
    "persist",
    "daemon",
];

/// Crates holding secret-dependent comparisons that must be constant-time.
const CT_CRATES: &[&str] = &["crypto", "bignum", "sore"];

/// Crates allowed to touch `std::thread`: only `slicer-par`, whose ordered
/// join and caller-thread telemetry make its fan-out deterministic by
/// construction. Everything else must go through its `Pool`.
const SANCTIONED_THREAD_CRATES: &[&str] = &["par"];

/// Derives the [`Policy`] for a workspace-relative path like
/// `crates/chain/src/chain.rs`. Unknown layouts get determinism-only.
pub fn policy_for(path: &str) -> Policy {
    let krate = path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("");
    // The telemetry crate *is* the sanctioned Clock abstraction.
    let det = krate != "telemetry";
    Policy {
        panic: PANIC_FREE_CRATES.contains(&krate),
        ct: CT_CRATES.contains(&krate),
        det,
        thread: det && !SANCTIONED_THREAD_CRATES.contains(&krate),
    }
}

/// Keywords that can directly precede `[` without it being an index
/// expression (slice patterns, `impl .. for ..`, etc.).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Identifier segments that mark an operand as secret material for
/// `ct.secret_eq`.
const SECRET_SEGMENTS: &[&str] = &[
    "key",
    "keys",
    "secret",
    "trapdoor",
    "token",
    "tokens",
    "mac",
    "tag",
    "digest",
    "cipher",
    "ciphertext",
    "nonce",
    "seed",
    "prf",
    "mask",
    "password",
    "sk",
];

/// Function-name segments that mark a comparison routine for
/// `ct.early_exit`.
const CT_FN_SEGMENTS: &[&str] = &["eq", "ne", "cmp", "compare", "verify", "ct"];

fn ident_has_segment(ident: &str, segments: &[&str]) -> bool {
    ident
        .split('_')
        .any(|s| segments.contains(&s.to_ascii_lowercase().as_str()))
}

/// Scans one source file (already workspace-relative) and returns its
/// findings, pragma suppression applied.
pub fn scan_source(path: &str, src: &str) -> Vec<Finding> {
    let policy = policy_for(path);
    let lexed = lex(src);
    let mut raw = scan_tokens(path, &lexed.tokens, policy);
    apply_pragmas(path, &lexed.pragmas, &mut raw);
    raw
}

/// A scope opened by `{`: what construct owns it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Scope {
    /// Function body, with the function's name.
    Fn(String),
    /// Loop body (`for` / `while` / `loop`).
    Loop,
    /// Anything else (blocks, modules, match arms, structs…).
    Plain,
}

fn scan_tokens(path: &str, toks: &[Tok], policy: Policy) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut pending_loop = false;
    let mut i = 0usize;

    let finding = |out: &mut Vec<Finding>, line: u32, rule: &'static str, detail: String| {
        out.push(Finding {
            file: path.to_string(),
            line,
            rule,
            detail,
        });
    };

    while i < toks.len() {
        // `#[test]` / `#[cfg(test)]`-guarded items are exempt wholesale.
        if toks[i].text == "#" && is_test_attr(toks, i) {
            i = skip_item(toks, i);
            continue;
        }
        let t = &toks[i];
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        let next = toks.get(i + 1);
        let text = t.text.as_str();

        // --- scope tracking (needed by ct.early_exit) ---------------------
        match text {
            "{" => {
                if pending_loop {
                    scopes.push(Scope::Loop);
                } else if let Some(name) = pending_fn.take() {
                    scopes.push(Scope::Fn(name));
                } else {
                    scopes.push(Scope::Plain);
                }
                pending_loop = false;
            }
            "}" => {
                scopes.pop();
            }
            "fn" if t.kind == TokKind::Ident => {
                pending_fn = next
                    .filter(|n| n.kind == TokKind::Ident)
                    .map(|n| n.text.clone());
            }
            "loop" | "while" if t.kind == TokKind::Ident => pending_loop = true,
            "for" if t.kind == TokKind::Ident => {
                // `impl Trait for Type` / `for<'a>` are not loops: a loop
                // `for` is never preceded by an identifier or `>`.
                let loopish = !matches!(
                    prev.map(|p| (p.kind, p.text.as_str())),
                    Some((TokKind::Ident, _)) | Some((_, ">"))
                );
                if loopish {
                    pending_loop = true;
                }
            }
            _ => {}
        }

        // --- panic-freedom ------------------------------------------------
        if policy.panic && t.kind == TokKind::Ident {
            let dotted = prev.is_some_and(|p| p.text == ".");
            let called = next.is_some_and(|n| n.text == "(");
            let banged = next.is_some_and(|n| n.text == "!");
            match text {
                "unwrap" | "unwrap_err" if dotted && called => {
                    finding(&mut out, t.line, "panic.unwrap", format!(".{text}()"));
                }
                "expect" | "expect_err" if dotted && called => {
                    finding(&mut out, t.line, "panic.expect", format!(".{text}(..)"));
                }
                "panic" | "todo" | "unimplemented" if banged => {
                    finding(&mut out, t.line, "panic.panic", format!("{text}!"));
                }
                "unreachable" if banged => {
                    finding(&mut out, t.line, "panic.unreachable", "unreachable!".into());
                }
                "assert" | "assert_eq" | "assert_ne" if banged => {
                    finding(&mut out, t.line, "panic.assert", format!("{text}!"));
                }
                _ => {}
            }
        }
        if policy.panic && text == "[" && t.kind == TokKind::Punct {
            let indexing = prev.is_some_and(|p| match p.kind {
                TokKind::Ident => !KEYWORDS.contains(&p.text.as_str()),
                TokKind::Num | TokKind::Str => true,
                TokKind::Punct => p.text == ")" || p.text == "]",
                _ => false,
            });
            if indexing {
                let base = prev.map(|p| p.text.clone()).unwrap_or_default();
                finding(&mut out, t.line, "panic.index", format!("{base}[..]"));
            }
        }

        // --- constant-time ------------------------------------------------
        if policy.ct && t.kind == TokKind::Punct && (text == "==" || text == "!=") {
            let lo = i.saturating_sub(8);
            let hi = (i + 9).min(toks.len());
            let secret = toks[lo..hi]
                .iter()
                .find(|w| w.kind == TokKind::Ident && ident_has_segment(&w.text, SECRET_SEGMENTS));
            if let Some(s) = secret {
                finding(
                    &mut out,
                    t.line,
                    "ct.secret_eq",
                    format!("`{text}` near secret operand `{}` (use ct_eq)", s.text),
                );
            }
        }
        if policy.ct
            && t.kind == TokKind::Ident
            && (text == "return" || text == "break")
            && in_ct_comparison_loop(&scopes)
        {
            finding(
                &mut out,
                t.line,
                "ct.early_exit",
                format!("data-dependent `{text}` inside a comparison loop"),
            );
        }

        // --- determinism --------------------------------------------------
        if policy.det && t.kind == TokKind::Ident {
            match text {
                "HashMap" | "HashSet" => finding(
                    &mut out,
                    t.line,
                    "det.hash_collection",
                    format!("{text} (iteration order is nondeterministic; use BTreeMap/BTreeSet)"),
                ),
                "SystemTime" => finding(
                    &mut out,
                    t.line,
                    "det.wall_clock",
                    "SystemTime (use slicer_telemetry::Clock)".into(),
                ),
                "Instant"
                    if next.is_some_and(|n| n.text == "::")
                        && toks.get(i + 2).is_some_and(|n| n.text == "now") =>
                {
                    finding(
                        &mut out,
                        t.line,
                        "det.wall_clock",
                        "Instant::now (use slicer_telemetry::Clock)".into(),
                    );
                }
                "thread"
                    if policy.thread
                        && (prev.is_some_and(|p| p.text == "::")
                            || next.is_some_and(|n| n.text == "::")) =>
                {
                    finding(
                        &mut out,
                        t.line,
                        "det.thread",
                        "std::thread (nondeterministic scheduling)".into(),
                    );
                }
                _ => {}
            }
        }

        i += 1;
    }
    out
}

/// Is the innermost function a comparison routine, with a loop opened
/// inside it? (`return`/`break` there leaks the mismatch position through
/// timing.)
fn in_ct_comparison_loop(scopes: &[Scope]) -> bool {
    let Some(fn_idx) = scopes
        .iter()
        .rposition(|s| matches!(s, Scope::Fn(_)))
        .filter(|&idx| match &scopes[idx] {
            Scope::Fn(name) => ident_has_segment(name, CT_FN_SEGMENTS),
            _ => false,
        })
    else {
        return false;
    };
    scopes[fn_idx..].contains(&Scope::Loop)
}

/// At a `#` token: does an attribute marking test code start here?
/// Recognizes `#[test]`, `#[cfg(test)]` and `#[cfg(any(test, ..))]` but
/// not `#[cfg(not(test))]`.
pub(crate) fn is_test_attr(toks: &[Tok], i: usize) -> bool {
    if toks.get(i + 1).is_none_or(|t| t.text != "[") {
        return false;
    }
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    for t in &toks[i + 1..] {
        match t.text.as_str() {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ if t.kind == TokKind::Ident => idents.push(&t.text),
            _ => {}
        }
    }
    match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// From a test attribute at `i`, returns the index just past the guarded
/// item (skipping any further attributes, then either a `;`-terminated
/// item or a braced body).
pub(crate) fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    // Skip consecutive attributes.
    while toks.get(i).is_some_and(|t| t.text == "#")
        && toks.get(i + 1).is_some_and(|t| t.text == "[")
    {
        let mut depth = 0usize;
        i += 1;
        while let Some(t) = toks.get(i) {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Consume the item: to the matching `}` of its first brace, or to a
    // top-level `;` (e.g. `#[cfg(test)] use super::*;`). Depth counts all
    // bracket kinds so `;` inside `[u8; 4]` or `(..)` does not end early.
    let mut depth = 0usize;
    while let Some(t) = toks.get(i) {
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            ")" | "]" => depth = depth.saturating_sub(1),
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            ";" if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Applies pragma suppression: a pragma covers findings of its rule on the
/// pragma's own line and the next line. Pragmas lacking a reason become
/// `pragma.missing_reason` findings; pragmas naming an unknown rule are
/// reported the same way (a typo must not silently disable coverage).
fn apply_pragmas(path: &str, pragmas: &[Pragma], findings: &mut Vec<Finding>) {
    for p in pragmas {
        let valid = !p.reason.is_empty() && ALL_RULES.contains(&p.rule.as_str());
        if valid {
            findings.retain(|f| f.rule != p.rule || (f.line != p.line && f.line != p.line + 1));
        } else {
            findings.push(Finding {
                file: path.to_string(),
                line: p.line,
                rule: "pragma.missing_reason",
                detail: if p.rule.is_empty() || !ALL_RULES.contains(&p.rule.as_str()) {
                    format!("malformed pragma or unknown rule `{}`", p.rule)
                } else {
                    "pragma must carry a justification after the rule".into()
                },
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHAIN: &str = "crates/chain/src/x.rs";
    const CRYPTO: &str = "crates/crypto/src/x.rs";

    fn rules_of(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn policy_selects_families_by_crate() {
        assert_eq!(
            policy_for("crates/chain/src/chain.rs"),
            Policy {
                panic: true,
                ct: false,
                det: true,
                thread: true
            }
        );
        assert_eq!(
            policy_for("crates/telemetry/src/clock.rs"),
            Policy {
                panic: false,
                ct: false,
                det: false,
                thread: false
            }
        );
        assert!(policy_for("crates/sore/src/tuple.rs").ct);
        assert!(policy_for("src/lib.rs").det);
        assert!(policy_for("src/lib.rs").thread);
        // The durable store and the serving daemon must survive corrupt
        // input without dying: both are panic-free layers.
        assert!(policy_for("crates/persist/src/store.rs").panic);
        assert!(policy_for("crates/daemon/src/lib.rs").panic);
    }

    #[test]
    fn par_is_thread_sanctioned_but_not_det_exempt() {
        let policy = policy_for("crates/par/src/lib.rs");
        assert!(!policy.thread, "par owns the sanctioned thread pool");
        assert!(policy.det, "other det rules still apply to par");
        let src = "fn f() { std::thread::scope(|s| { let _ = s; }); }";
        assert!(rules_of("crates/par/src/lib.rs", src).is_empty());
        let clocky = "fn f() -> std::time::Instant { std::time::Instant::now() }";
        assert!(rules_of("crates/par/src/lib.rs", clocky).contains(&"det.wall_clock"));
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "
            fn f(x: Option<u8>) { x.unwrap(); }
            #[cfg(test)]
            mod tests { fn g(x: Option<u8>) { x.unwrap(); } }
        ";
        assert_eq!(rules_of(CHAIN, src), vec!["panic.unwrap"]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))] fn f(x: Option<u8>) { x.unwrap(); }";
        assert_eq!(rules_of(CHAIN, src), vec!["panic.unwrap"]);
    }

    #[test]
    fn indexing_heuristic_avoids_types_and_patterns() {
        let good = "
            fn f(x: &[u8]) -> [u8; 4] { *b }
            fn g() { let [a, b] = y; let v = vec![1]; }
            #[derive(Debug)]
            struct S;
        ";
        assert!(rules_of(CHAIN, good).is_empty());
        let bad = "fn f(x: &[u8], i: usize) -> u8 { x[i] }";
        assert_eq!(rules_of(CHAIN, bad), vec!["panic.index"]);
    }

    #[test]
    fn ct_early_exit_only_in_comparison_fns() {
        let bad = "fn ct_eq(a: &[u8], b: &[u8]) -> bool {
            for i in 0..a.len() { if a[i] != b[i] { return false; } } true }";
        let rules = rules_of(CRYPTO, bad);
        assert!(rules.contains(&"ct.early_exit"), "{rules:?}");
        let fine = "fn sum(a: &[u8]) -> u32 {
            let mut s = 0; for i in 0..a.len() { if a[i] == 0 { break; } s += 1; } s }";
        assert!(!rules_of(CRYPTO, fine).contains(&"ct.early_exit"));
    }

    #[test]
    fn pragma_suppresses_with_reason_only() {
        let with = "fn f() { m.get(k); } // slicer-lint: allow(det.hash_collection) — x\n\
                    fn g() { let m: HashMap<u8, u8> = HashMap::new(); }";
        // Pragma covers its line + the next: both HashMap hits are on line 2.
        assert!(rules_of(CHAIN, with).is_empty());
        let without = "// slicer-lint: allow(det.hash_collection)\n\
                       fn g(m: HashMap<u8, u8>) {}";
        let rules = rules_of(CHAIN, without);
        assert!(rules.contains(&"pragma.missing_reason"));
        assert!(rules.contains(&"det.hash_collection"));
    }
}
