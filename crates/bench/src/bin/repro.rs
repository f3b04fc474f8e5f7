//! Reproduction driver: regenerates every table and figure of the paper,
//! and compares bench-JSON baselines.
//!
//! ```text
//! cargo run -p slicer-bench --release --bin repro -- [--experiment ID] [--scale F] [--queries N] [--csv DIR]
//! cargo run -p slicer-bench --release --bin repro -- --diff <baseline.json> <candidate.json>
//! ```
//!
//! * `--experiment` — `all` (default), `fig3`, `fig4` (runs with fig3),
//!   `fig5`, `fig6` (runs with fig5), `fig7`, `table2`, `bench`
//!   (telemetry phase profile; writes `BENCH_build.json` /
//!   `BENCH_search.json` into the `--csv` directory).
//! * `--scale` — multiplier on the paper's 10K–160K record sweep
//!   (default 0.05; use 1.0 for the full-size runs).
//! * `--queries` — queries averaged per search data point (default 3).
//! * `--csv` — also write each table as CSV into this directory.
//! * `--diff` — compare two bench-JSON documents instead of running an
//!   experiment: counters, gauges and histogram counts must match
//!   exactly, timing is informational. Exit 0 when clean, 1 on a
//!   regression or a missing metric.
//!
//! Malformed arguments print the usage line and exit 2.

use slicer_bench::{experiments, load_bench_json, Table};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: repro [--experiment all|fig3|fig5|fig7|table2|bench] [--scale F] [--queries N] [--csv DIR]\n       repro --diff <baseline.json> <candidate.json>";

enum Command {
    Run(Args),
    Diff(PathBuf, PathBuf),
}

struct Args {
    experiment: String,
    scale: f64,
    queries: usize,
    csv: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut args = Args {
        experiment: "all".into(),
        scale: 0.05,
        queries: 3,
        csv: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--experiment" | "-e" => args.experiment = value("--experiment")?,
            "--scale" | "-s" => {
                let v = value("--scale")?;
                args.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale must be a positive number, got {v:?}"))?;
            }
            "--queries" | "-q" => {
                let v = value("--queries")?;
                args.queries =
                    v.parse().ok().filter(|q| *q > 0).ok_or_else(|| {
                        format!("--queries must be a positive integer, got {v:?}")
                    })?;
            }
            "--csv" => args.csv = Some(PathBuf::from(value("--csv")?)),
            "--diff" => {
                return match (it.next(), it.next(), it.next()) {
                    (Some(baseline), Some(candidate), None) => {
                        Ok(Command::Diff(baseline.into(), candidate.into()))
                    }
                    _ => Err("--diff takes exactly two files".into()),
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Command::Run(args))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Command::Run(args)) => run(&args),
        Ok(Command::Diff(baseline, candidate)) => match diff(&baseline, &candidate) {
            Ok(code) => std::process::exit(code),
            Err(e) => {
                eprintln!("repro: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// `--diff`: prints the report; 0 when clean, 1 on a regression.
fn diff(baseline: &Path, candidate: &Path) -> Result<i32, String> {
    let report = slicer_testkit::diff(&load_bench_json(baseline)?, &load_bench_json(candidate)?);
    print!("{}", report.render());
    Ok(if report.ok() { 0 } else { 1 })
}

fn run(args: &Args) {
    println!(
        "Slicer reproduction — experiment={} scale={} queries={}",
        args.experiment, args.scale, args.queries
    );
    println!(
        "(record sweep: {:?})",
        slicer_bench::record_sweep(args.scale)
    );

    let tables: Vec<Table> = match args.experiment.as_str() {
        "all" => experiments::all(args.scale, args.queries),
        "fig3" | "fig4" | "fig3a" | "fig3b" | "fig4a" | "fig4b" => {
            experiments::build_experiments(args.scale, &[8, 16, 24])
        }
        "fig5" | "fig6" | "fig5a" | "fig5b" | "fig5c" | "fig5d" | "fig6a" | "fig6b" | "fig6c"
        | "fig6d" => experiments::search_experiments(args.scale, &[8, 16], args.queries),
        "fig7" => experiments::insert_experiment(args.scale, &[8, 16, 24]),
        "table2" => experiments::gas_experiment(),
        "bench" | "telemetry" => {
            experiments::telemetry_experiment(args.scale, args.queries, args.csv.as_deref())
        }
        other => {
            eprintln!("repro: unknown experiment {other}\n{USAGE}");
            std::process::exit(2);
        }
    };

    for t in &tables {
        print!("{t}");
        if let Some(dir) = &args.csv {
            t.write_csv(dir).expect("CSV directory is writable");
        }
    }
    if let Some(dir) = &args.csv {
        println!("\nCSV written to {}", dir.display());
    }
}
