//! Comparator over two bench-JSON documents (the [`Snapshot::to_json`]
//! schema shared by the metrics exporter, the micro-bench reporter and
//! the committed `BENCH_*.json` baselines).
//!
//! The diff model follows the workspace determinism contract: everything
//! the protocol *counts* — counters, gauges and histogram observation
//! counts — must match the baseline exactly, while everything the clock
//! *measures* — `.ns` sums, percentiles, `*_ns` gauges — is noise-prone
//! and stays informational. That split is what lets `repro --diff` (the
//! gate in `scripts/ci.sh`) regenerate a bench run on any machine and
//! still fail hard on a real regression (a gas counter or event count
//! drifting from the committed baseline) without flaking on wall-clock
//! jitter.
//!
//! [`Snapshot::to_json`]: slicer_telemetry::Snapshot::to_json

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A parse or shape error, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchDiffError {
    /// Byte offset into the input at the point of failure.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for BenchDiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bench json error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for BenchDiffError {}

/// A parsed bench document: three sorted name→value sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchDoc {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → summary fields
    /// (`count`/`sum`/`min`/`max`/`mean`/`p50`/`p90`/`p99`).
    pub histograms: BTreeMap<String, BTreeMap<String, u64>>,
}

/// Parses one bench-JSON document.
///
/// This is a value-producing parser for the exporter's schema subset:
/// an object of three sections, each an object whose values are either
/// unsigned integers (counters, gauges) or flat objects of unsigned
/// integers (histogram summaries). Anything outside that subset —
/// arrays, floats, booleans, nested depth — is rejected with an offset,
/// which doubles as a shape check on the files CI commits.
///
/// # Errors
///
/// [`BenchDiffError`] naming the first offending byte.
pub fn parse_bench_json(input: &str) -> Result<BenchDoc, BenchDiffError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let doc = p.document()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(doc)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> BenchDiffError {
        BenchDiffError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), BenchDiffError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, BenchDiffError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        _ => return Err(self.err("unsupported escape in metric name")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(&b) => {
                    // Metric names are ASCII in practice; pass other
                    // UTF-8 bytes through untouched.
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, BenchDiffError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected an unsigned integer"));
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point values are not part of the bench schema"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.err("integer out of u64 range"))
    }

    /// `{ "name": <u64>, ... }`
    fn scalar_map(&mut self) -> Result<BTreeMap<String, u64>, BenchDiffError> {
        self.object(|p| p.number())
    }

    fn object<T>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<T, BenchDiffError>,
    ) -> Result<BTreeMap<String, T>, BenchDiffError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let v = value(self)?;
            if out.insert(key, v).is_some() {
                return Err(self.err("duplicate key"));
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn document(&mut self) -> Result<BenchDoc, BenchDiffError> {
        let mut doc = BenchDoc::default();
        let sections = self.object(|p| {
            // Defer section-typed parsing: peek one byte past the colon
            // to decide between a scalar map and a histogram map is not
            // needed — both are objects; histograms nest one level.
            p.raw_section()
        })?;
        for (name, section) in sections {
            match (name.as_str(), section) {
                ("counters", Section::Scalars(m)) => doc.counters = m,
                ("gauges", Section::Scalars(m)) => doc.gauges = m,
                ("histograms", Section::Histograms(m)) => doc.histograms = m,
                ("counters" | "gauges", Section::Histograms(m)) if m.is_empty() => {}
                ("histograms", Section::Scalars(m)) if m.is_empty() => {}
                (other, _) => {
                    return Err(self.err(&format!("unexpected section {other:?} or wrong shape")))
                }
            }
        }
        Ok(doc)
    }

    /// A section body: either `{name: u64, ...}` or `{name: {..}, ...}`.
    fn raw_section(&mut self) -> Result<Section, BenchDiffError> {
        // Remember where the section object starts, look one key/colon
        // ahead to learn the value shape, then rewind and parse the
        // whole object with the matching value parser.
        self.skip_ws();
        let start = self.pos;
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Section::Scalars(BTreeMap::new()));
        }
        let _ = self.string()?;
        self.expect(b':')?;
        let nested = self.peek() == Some(b'{');
        self.pos = start;
        if nested {
            Ok(Section::Histograms(self.object(|p| p.scalar_map())?))
        } else {
            Ok(Section::Scalars(self.scalar_map()?))
        }
    }
}

enum Section {
    Scalars(BTreeMap<String, u64>),
    Histograms(BTreeMap<String, BTreeMap<String, u64>>),
}

/// One metric whose value changed between the two documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDelta {
    /// Fully-qualified metric key, e.g. `histograms/chain.tx.ns/count`.
    pub name: String,
    /// Baseline value.
    pub old: u64,
    /// Candidate value.
    pub new: u64,
}

impl MetricDelta {
    /// Relative change in percent (positive = grew).
    pub fn percent(&self) -> f64 {
        if self.old == 0 {
            if self.new == 0 {
                0.0
            } else {
                100.0
            }
        } else {
            (self.new as f64 - self.old as f64) * 100.0 / self.old as f64
        }
    }
}

/// The typed outcome of one [`diff`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Hard failures: exact-class metrics that drifted in either
    /// direction.
    pub regressions: Vec<MetricDelta>,
    /// Informational timing drift; never fails the gate.
    pub timing: Vec<MetricDelta>,
    /// Metrics present in the baseline but absent from the candidate —
    /// always a failure (coverage must not silently shrink).
    pub missing: Vec<String>,
    /// Metrics present in the candidate but absent from the baseline —
    /// informational (new instrumentation is allowed).
    pub added: Vec<String>,
    /// Total metric values compared.
    pub compared: u64,
}

impl DiffReport {
    /// Whether the candidate passes the gate.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }

    /// Renders the report as stable, grep-able `bench-diff` lines, one
    /// finding per line, ending with a summary verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.regressions {
            out.push_str(&format!(
                "bench-diff REGRESSION {} old={} new={} ({:+.1}%)\n",
                d.name,
                d.old,
                d.new,
                d.percent()
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("bench-diff MISSING {name}\n"));
        }
        for d in &self.timing {
            out.push_str(&format!(
                "bench-diff timing {} old={} new={} ({:+.1}%)\n",
                d.name,
                d.old,
                d.new,
                d.percent()
            ));
        }
        for name in &self.added {
            out.push_str(&format!("bench-diff added {name}\n"));
        }
        out.push_str(&format!(
            "bench-diff {} compared={} regressions={} missing={} timing={} added={}\n",
            if self.ok() { "ok" } else { "FAILED" },
            self.compared,
            self.regressions.len(),
            self.missing.len(),
            self.timing.len(),
            self.added.len()
        ));
        out
    }
}

/// Whether a metric key carries wall-clock weight (noise) rather than a
/// deterministic count. Histogram `count` fields are deterministic; all
/// other histogram fields summarize observed durations. Counter/gauge
/// names ending in `.ns` or `_ns` (the bench reporter's `mean_ns` /
/// `min_ns` gauges) are timing too, as are `.iters` counters — the
/// bench runner sizes iteration batches off the clock.
fn is_timing(name: &str) -> bool {
    name.ends_with(".ns") || name.ends_with("_ns") || name.ends_with(".iters") || {
        // histogram field keys: "histograms/<metric>.ns/<field>"
        match name.rsplit_once('/') {
            Some((prefix, field)) => {
                (prefix.ends_with(".ns") || prefix.ends_with("_ns")) && field != "count"
            }
            None => false,
        }
    }
}

/// Compares `new` (the fresh run) against `old` (the committed
/// baseline), returning the typed report.
pub fn diff(old: &BenchDoc, new: &BenchDoc) -> DiffReport {
    let mut report = DiffReport::default();

    for (section, old_map, new_map) in [
        ("counters", &old.counters, &new.counters),
        ("gauges", &old.gauges, &new.gauges),
    ] {
        let names: BTreeSet<&String> = old_map.keys().chain(new_map.keys()).collect();
        for name in names {
            compare(
                &mut report,
                format!("{section}/{name}"),
                old_map.get(name).copied(),
                new_map.get(name).copied(),
            );
        }
    }

    let hist_names: BTreeSet<&String> =
        old.histograms.keys().chain(new.histograms.keys()).collect();
    for name in hist_names {
        match (old.histograms.get(name), new.histograms.get(name)) {
            (Some(o), Some(n)) => {
                let fields: BTreeSet<&String> = o.keys().chain(n.keys()).collect();
                for field in fields {
                    compare(
                        &mut report,
                        format!("histograms/{name}/{field}"),
                        o.get(field).copied(),
                        n.get(field).copied(),
                    );
                }
            }
            (Some(_), None) => report.missing.push(format!("histograms/{name}")),
            (None, Some(_)) => report.added.push(format!("histograms/{name}")),
            (None, None) => {}
        }
    }
    report
}

/// Classifies one shared-or-one-sided metric value pair into the report.
fn compare(report: &mut DiffReport, name: String, old_v: Option<u64>, new_v: Option<u64>) {
    match (old_v, new_v) {
        (Some(o), Some(n)) => {
            report.compared += 1;
            if o == n {
                return;
            }
            let delta = MetricDelta {
                name,
                old: o,
                new: n,
            };
            if is_timing(&delta.name) {
                report.timing.push(delta);
            } else {
                report.regressions.push(delta);
            }
        }
        (Some(_), None) => report.missing.push(name),
        (None, Some(_)) => report.added.push(name),
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "counters": {
    "phase.build.gas": 63654,
    "phase.setup.gas": 745280
  },
  "gauges": {},
  "histograms": {
    "chain.tx.ns": {"count": 1, "sum": 15497, "min": 15497, "max": 15497, "mean": 15497, "p50": 15497, "p90": 15497, "p99": 15497}
  }
}
"#;

    #[test]
    fn parses_the_exporter_schema() {
        let doc = parse_bench_json(SAMPLE).expect("sample parses");
        assert_eq!(doc.counters["phase.build.gas"], 63654);
        assert!(doc.gauges.is_empty());
        assert_eq!(doc.histograms["chain.tx.ns"]["count"], 1);
        assert_eq!(doc.histograms["chain.tx.ns"]["p99"], 15497);
    }

    #[test]
    fn rejects_out_of_schema_documents() {
        for (input, what) in [
            ("{\"counters\": {\"a\": 1.5}}", "float"),
            ("{\"counters\": {\"a\": [1]}}", "array"),
            ("{\"counters\": {\"a\": 1}} extra", "trailing data"),
            ("{\"counters\": {\"a\": 1, \"a\": 2}}", "duplicate key"),
            ("{\"bogus\": {\"a\": 1}}", "unknown section"),
            ("{\"counters\": {\"a\": 1}", "unterminated object"),
        ] {
            assert!(parse_bench_json(input).is_err(), "accepted {what}: {input}");
        }
    }

    #[test]
    fn identical_documents_diff_clean() {
        let doc = parse_bench_json(SAMPLE).unwrap();
        let report = diff(&doc, &doc);
        assert!(report.ok());
        assert!(report.regressions.is_empty());
        assert!(report.timing.is_empty());
        assert_eq!(report.compared, 2 + 8);
        assert!(report.render().contains("bench-diff ok"));
    }

    #[test]
    fn counter_drift_is_a_regression_in_either_direction() {
        let old = parse_bench_json(SAMPLE).unwrap();
        for new_value in [63653u64, 63655] {
            let mut new = old.clone();
            new.counters.insert("phase.build.gas".into(), new_value);
            let report = diff(&old, &new);
            assert!(!report.ok());
            assert_eq!(report.regressions.len(), 1);
            assert_eq!(report.regressions[0].name, "counters/phase.build.gas");
            assert!(report.render().contains("bench-diff REGRESSION"));
        }
    }

    #[test]
    fn histogram_count_is_exact_but_sums_are_informational() {
        let old = parse_bench_json(SAMPLE).unwrap();
        let mut new = old.clone();
        new.histograms
            .get_mut("chain.tx.ns")
            .unwrap()
            .insert("sum".into(), 99_999);
        let report = diff(&old, &new);
        assert!(report.ok(), "timing drift alone must not fail the gate");
        assert_eq!(report.timing.len(), 1);

        let mut new = old.clone();
        new.histograms
            .get_mut("chain.tx.ns")
            .unwrap()
            .insert("count".into(), 2);
        let report = diff(&old, &new);
        assert!(
            !report.ok(),
            "observation-count drift is deterministic and must fail"
        );
        assert_eq!(report.regressions[0].name, "histograms/chain.tx.ns/count");
    }

    #[test]
    fn missing_metrics_fail_and_added_metrics_do_not() {
        let old = parse_bench_json(SAMPLE).unwrap();
        let mut new = old.clone();
        new.counters.remove("phase.setup.gas");
        new.counters.insert("phase.extra.gas".into(), 7);
        new.histograms.remove("chain.tx.ns");
        let report = diff(&old, &new);
        assert!(!report.ok());
        assert_eq!(
            report.missing,
            vec!["counters/phase.setup.gas", "histograms/chain.tx.ns"]
        );
        assert_eq!(report.added, vec!["counters/phase.extra.gas"]);

        let mut grown = old.clone();
        grown.counters.insert("phase.extra.gas".into(), 7);
        assert!(diff(&old, &grown).ok());
    }

    #[test]
    fn bench_reporter_gauges_are_classified_as_timing() {
        assert!(is_timing("gauges/bench.core.sha256.mean_ns"));
        assert!(is_timing("gauges/bench.core.sha256.min_ns"));
        assert!(is_timing("counters/bench.core.sha256.iters"));
        assert!(is_timing("histograms/phase.search.ns/p99"));
        assert!(!is_timing("histograms/phase.search.ns/count"));
        assert!(!is_timing("counters/phase.verify.gas"));
    }
}
