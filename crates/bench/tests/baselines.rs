//! The committed counter baselines (`results/BENCH_{build,search}.json`)
//! must match a fresh telemetry run exactly on everything the protocol
//! counts. This is the same comparison as the `repro --diff` gate in
//! `scripts/ci.sh`, run here at the baselines' own scale (`--scale 0.01
//! --queries 2`) so `cargo test` catches a drifted baseline too.

use slicer_bench::{experiments, load_bench_json};
use slicer_testkit::{diff, BenchDoc};
use std::path::Path;
use std::sync::OnceLock;

const FILES: [&str; 2] = ["BENCH_build.json", "BENCH_search.json"];

fn committed(name: &str) -> BenchDoc {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    load_bench_json(&path).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs the telemetry experiment at the baselines' scale into a temp
/// directory named after `tag` and returns the documents of [`FILES`],
/// in order.
fn run(tag: &str) -> Vec<BenchDoc> {
    let dir = std::env::temp_dir().join(format!("slicer-baselines-{}-{tag}", std::process::id()));
    experiments::telemetry_experiment(0.01, 2, Some(&dir));
    let docs = FILES
        .iter()
        .map(|f| load_bench_json(&dir.join(f)).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    std::fs::remove_dir_all(&dir).expect("temp directory is removable");
    docs
}

/// One fresh run, shared by the cases that only read it. Each run
/// records through its own telemetry handles, so it may overlap with any
/// other run in the process.
fn fresh_run() -> &'static [BenchDoc] {
    static RUN: OnceLock<Vec<BenchDoc>> = OnceLock::new();
    RUN.get_or_init(|| run("shared"))
}

fn assert_matches_committed(docs: &[BenchDoc]) {
    for (name, fresh) in FILES.iter().zip(docs) {
        let baseline = committed(name);
        assert!(!baseline.counters.is_empty(), "{name} has counters");
        let report = diff(&baseline, fresh);
        assert!(
            report.ok(),
            "results/{name} drifted from a fresh run; regenerate with \
             repro --experiment bench --scale 0.01 --queries 2 --csv results\n{}",
            report.render()
        );
    }
}

#[test]
fn committed_baselines_match_a_fresh_run() {
    assert_matches_committed(fresh_run());
}

#[test]
fn concurrent_runs_each_match_the_committed_baselines() {
    // Both runs start together, so their protocol phases overlap.
    let start = std::sync::Barrier::new(2);
    let runs: Vec<Vec<BenchDoc>> = std::thread::scope(|s| {
        let workers: Vec<_> = ["concurrent-a", "concurrent-b"]
            .map(|tag| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    run(tag)
                })
            })
            .into_iter()
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("telemetry run completes"))
            .collect()
    });
    for docs in &runs {
        assert_matches_committed(docs);
    }
}

#[test]
fn a_changed_baseline_counter_fails_the_gate() {
    let mut baseline = committed("BENCH_search.json");
    let gas = baseline
        .counters
        .get_mut("phase.verify.gas")
        .expect("search baseline counts verify gas");
    *gas += 1;
    let report = diff(&baseline, &fresh_run()[1]);
    assert!(!report.ok());
    assert_eq!(report.regressions.len(), 1);
    assert_eq!(report.regressions[0].name, "counters/phase.verify.gas");
}
