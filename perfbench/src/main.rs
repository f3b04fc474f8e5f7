//! `perfbench` — the end-to-end and per-layer benchmark of `slicerd`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds this package first and pins it to one CPU; the run fails
//! when the process may use more than one). The pool size under test is
//! the host's CPU count. `--trace 0` measures the
//! end-to-end metrics of a `slicerd` process; `--trace 1` replays the
//! same seeded stream in-process and reports the per-layer metrics.
//! The last line of standard output is one JSON object; the lines before
//! it give every metric by name with its unit. The exit code is non-zero
//! when any operation failed or returned records that differ from the
//! plaintext oracle.

mod gen;
mod host;
mod stats;
mod traced;
mod untraced;

use std::path::PathBuf;
use std::time::Duration;

/// Where a run keeps its data directories, sockets and spans (relative to
/// the repository root, so socket paths stay short).
const WORK_DIR: &str = ".perfbench";

/// Shared run context.
#[derive(Debug)]
pub struct Ctx {
    /// Scratch directory of this run; removed at the end.
    pub run_dir: PathBuf,
    /// Directory holding the `slicerd` binary built beside this one.
    pub exe_dir: PathBuf,
    /// `SLICER_THREADS` of every deployment under test: the host's CPU
    /// count.
    pub threads: usize,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Deterministic quantities of every operation; the same seed and
    /// `--seconds` give the same lines. Their digest is printed.
    pub det: Vec<String>,
}

/// Longest a measured window may take before the run fails: four times
/// `--seconds` per replica it drives (the window is a fixed operation
/// count sized to take about `--seconds`), and never more than 150 s.
pub fn window_cap(seconds: u64, replicas: u64) -> Duration {
    Duration::from_secs((4 * seconds * replicas).min(150))
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Short fingerprint of a sorted id list.
pub fn ids_digest(ids: &[u64]) -> String {
    let bytes: Vec<u8> = ids.iter().flat_map(|id| id.to_be_bytes()).collect();
    hex(&slicer_crypto::sha256(&bytes)[..8])
}

struct Args {
    workload: gen::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = get("--workload")?;
    let workload = gen::workload(name).ok_or_else(|| {
        let names: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a whole number"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace,
    })
}

/// CPUs online on the host, from `/sys/devices/system/cpu/online`
/// (a list of ranges such as `0-3,6`).
fn host_cpus() -> Result<usize, String> {
    const ONLINE: &str = "/sys/devices/system/cpu/online";
    let list = std::fs::read_to_string(ONLINE).map_err(|e| format!("{ONLINE}: {e}"))?;
    let mut cpus = 0;
    for range in list.trim().split(',') {
        let bad = || format!("{ONLINE}: cannot parse {range:?}");
        let (lo, hi) = range.split_once('-').unwrap_or((range, range));
        let lo: usize = lo.parse().map_err(|_| bad())?;
        let hi: usize = hi.parse().map_err(|_| bad())?;
        cpus += hi.checked_sub(lo).ok_or_else(bad)? + 1;
    }
    Ok(cpus)
}

fn run(args: &Args) -> Result<Outcome, String> {
    // The client, the daemon and the reference loop that scales wall
    // times (see `host`) share one CPU. The pool size under test is the
    // host's nproc, whatever the caller's environment says: its workers
    // take turns on that CPU, so its parallel speed-up is not measured.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc != 1 {
        return Err(format!(
            "the process may use {nproc} CPUs; run it pinned to one (perfbench/run.py does, or taskset -c <cpu>)"
        ));
    }
    let threads = host_cpus()?;
    std::env::set_var("SLICER_THREADS", threads.to_string());
    let exe_dir = std::env::current_exe()
        .map_err(|e| format!("current exe: {e}"))?
        .parent()
        .ok_or("executable has no directory")?
        .to_path_buf();
    let run_dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    if run_dir.exists() {
        std::fs::remove_dir_all(&run_dir).map_err(|e| format!("{run_dir:?}: {e}"))?;
    }
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{run_dir:?}: {e}"))?;
    let ctx = Ctx {
        run_dir,
        exe_dir,
        threads,
    };
    let w = &args.workload;
    let outcome = if args.trace {
        let dir = PathBuf::from(WORK_DIR).join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{dir:?}: {e}"))?;
        let path = dir.join(format!("{}-seed{}.jsonl", w.name, args.seed));
        traced::run(&ctx, w, args.seed, args.seconds, &path)
    } else {
        untraced::run(&ctx, w, args.seed, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    let mut outcome = outcome?;
    outcome.notes.insert(
        0,
        format!(
            "environment: host_cpus={threads} pinned_cpu={} nproc={nproc} SLICER_THREADS={threads} profile={} commit={} data_fs={} connections=1 client_threads=1",
            std::env::var("PERFBENCH_CPU").unwrap_or_else(|_| "unknown".into()),
            if cfg!(debug_assertions) { "debug" } else { "release" },
            std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
            std::env::var("PERFBENCH_FS").unwrap_or_else(|_| "unknown".into()),
        ),
    );
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let det = outcome.det.join("\n");
    outcome.notes.push(format!(
        "fingerprint: {} over {} deterministic lines (same seed and --seconds must give the same)",
        hex(&slicer_crypto::sha256(det.as_bytes())[..8]),
        outcome.det.len()
    ));
    println!(
        "workload {} seed {} trace {}",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("  {name} = {value} {unit}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
