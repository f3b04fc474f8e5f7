//! The untraced run: end-to-end metrics of a `slicerd` process driven
//! over a Unix socket by one closed-loop client on one connection. Every
//! wall time is scaled to the nominal host (see [`crate::host`]).

use crate::gen::{self, Op, OpStream, Oracle, Workload, PAYMENT};
use crate::host::HostClock;
use crate::stats::{self, Summary};
use crate::{ids_digest, Ctx, Outcome};
use slicer_daemon::{DaemonClient, DaemonError, Endpoint};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Fresh deployments per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Leading window operations that the first deployment also runs: their
/// deterministic quantities must match the measured deployment's.
const DET_OPS: usize = 8;

/// A `slicerd` child process; killed and reaped on drop.
struct Slicerd {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Slicerd {
    fn spawn(ctx: &Ctx, data: &Path, sock: &Path, w: &Workload, seed: u64) -> Result<Self, String> {
        let mut child = Command::new(ctx.exe_dir.join("slicerd"))
            .arg("--listen")
            .arg(sock)
            .arg("--data")
            .arg(data)
            .args(["--seed", &gen::deploy_seed(seed).to_string()])
            .args(["--bits", &w.bits.to_string()])
            .args(["--log-level", "warn", "--slow-ms", "3600000"])
            .env("SLICER_THREADS", ctx.threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start slicerd: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("slicerd stdout not captured".into());
        };
        let mut daemon = Slicerd {
            child,
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading slicerd handshake: {e}"))?;
        if !line.starts_with("READY") {
            return Err(format!("slicerd did not come up: {line:?}"));
        }
        Ok(daemon)
    }

    /// Peak resident set (`VmHWM`) of the daemon process, in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading slicerd status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in slicerd status".into())
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(mut self, client: &mut DaemonClient) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for slicerd: {e}"))?;
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).unwrap_or(0) > 0 {}
        if status.success() {
            Ok(())
        } else {
            Err(format!("slicerd exited with {status}"))
        }
    }
}

impl Drop for Slicerd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Bytes of the sealed segments and manifests in a data directory, or of
/// one generation's only.
pub fn store_bytes(dir: &Path, generation: Option<u64>) -> Result<u64, String> {
    let tag = generation.map(|g| format!("-{g:010}"));
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {dir:?}: {e}"))? {
        let entry = entry.map_err(|e| format!("listing {dir:?}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let sealed = name.starts_with("seg-") || name.starts_with("manifest-");
        if sealed && tag.as_deref().is_none_or(|t| name.contains(t)) {
            total += entry.metadata().map_err(|e| format!("{name}: {e}"))?.len();
        }
    }
    Ok(total)
}

fn build_gas(client: &mut DaemonClient) -> Result<u64, String> {
    let m = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    Ok(m.counters
        .iter()
        .find(|(name, _)| name == "phase.build.gas")
        .map_or(0, |(_, v)| *v))
}

/// Latency and gas samples of one run.
#[derive(Debug, Default)]
struct Samples {
    /// Round trips scaled to the nominal host.
    search_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// The same round trips as measured.
    raw_search_ms: Vec<f64>,
    raw_ingest_ms: Vec<f64>,
    /// Sum of the scaled round trips.
    busy_ms: f64,
    search_gas: Vec<f64>,
    /// Ingests acknowledged since setup, warm-up included.
    ingests: u64,
    attempted: u64,
    failed: u64,
    det: Vec<String>,
}

impl Samples {
    /// Runs one operation, checks it against the oracle and records it;
    /// its round trip is recorded when a clock is given. Returns `Err`
    /// only when the connection itself is gone.
    fn run(
        &mut self,
        client: &mut DaemonClient,
        oracle: &mut Oracle,
        op: &Op,
        clock: Option<&mut HostClock>,
    ) -> Result<(), String> {
        self.attempted += 1;
        let t0 = Instant::now();
        let line = match op {
            Op::Search(q) => {
                let reply = client.search(q.clone(), PAYMENT);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let scale = clock.map(HostClock::scale);
                let reply = match reply {
                    Ok(r) => r,
                    Err(e) => return self.fail(format!("search {q:?}: {e}"), &e),
                };
                let mut ids = reply.ids.clone();
                ids.sort_unstable();
                if !reply.verified || ids != oracle.expect(q) {
                    self.failed += 1;
                    eprintln!(
                        "perfbench: search {q:?} wrong: verified={} got {} ids, want {}",
                        reply.verified,
                        ids.len(),
                        oracle.expect(q).len()
                    );
                }
                if let Some(scale) = scale {
                    self.search_ms.push(ms * scale);
                    self.raw_search_ms.push(ms);
                    self.busy_ms += ms * scale;
                    self.search_gas
                        .push((reply.request_gas + reply.verify_gas) as f64);
                }
                format!(
                    "search n={} ids={} gas={}+{}",
                    ids.len(),
                    ids_digest(&ids),
                    reply.request_gas,
                    reply.verify_gas
                )
            }
            Op::Ingest(batch) => {
                let reply = client.ingest(batch.clone());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let scale = clock.map(HostClock::scale);
                let (records, generation, _) = match reply {
                    Ok(r) => r,
                    Err(e) => return self.fail(format!("ingest: {e}"), &e),
                };
                if records != batch.len() as u64 {
                    self.failed += 1;
                    eprintln!(
                        "perfbench: ingest acknowledged {records} of {}",
                        batch.len()
                    );
                }
                oracle.insert(batch);
                self.ingests += 1;
                if let Some(scale) = scale {
                    self.ingest_ms.push(ms * scale);
                    self.raw_ingest_ms.push(ms);
                    self.busy_ms += ms * scale;
                }
                format!("ingest n={records} generation={generation}")
            }
        };
        self.det.push(format!("op{} {line}", self.det.len()));
        Ok(())
    }

    fn fail(&mut self, what: String, e: &DaemonError) -> Result<(), String> {
        self.failed += 1;
        eprintln!("perfbench: {what}");
        match e {
            DaemonError::Io(_) => Err(what),
            _ => Ok(()),
        }
    }
}

pub fn run(ctx: &Ctx, w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let data = gen::dataset(w, seed);
    let window = w.window_ops(seconds);
    let mut setup_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut setup_det: Option<Vec<String>> = None;
    // The start of the stream, run on the first deployment.
    let mut replay = Samples::default();
    let mut live: Option<(Slicerd, DaemonClient, PathBuf)> = None;
    for i in 0..SETUPS {
        let dir = ctx.run_dir.join(format!("data{i}"));
        let sock = ctx.run_dir.join(format!("s{i}.sock"));
        let mut clock = HostClock::start();
        let t0 = Instant::now();
        let daemon = Slicerd::spawn(ctx, &dir, &sock, w, seed)?;
        let mut client = DaemonClient::connect(&Endpoint::Unix(sock))
            .map_err(|e| format!("connecting to slicerd: {e}"))?;
        let (records, generation, digest) = client
            .ingest(data.clone())
            .map_err(|e| format!("initial ingest: {e}"))?;
        let elapsed = t0.elapsed().as_secs_f64();
        setup_s.push(elapsed * clock.scale());
        raw_setup_s.push(elapsed);
        if records != data.len() as u64 || generation != 1 {
            return Err(format!(
                "initial ingest acknowledged {records} records, generation {generation}"
            ));
        }
        let stat = client.stat().map_err(|e| format!("stat: {e}"))?;
        let det = vec![
            format!("setup digest={}", crate::hex(&digest)),
            format!(
                "setup index_entries={} primes={}",
                stat.index_entries, stat.primes
            ),
            format!("setup store_bytes={}", store_bytes(&dir, None)?),
            format!("setup gas={}", build_gas(&mut client)?),
        ];
        // Every fresh deployment from the same seed must be identical.
        match &setup_det {
            Some(first) if *first != det => {
                return Err(format!(
                    "setup {i} differs from setup 0: {det:?} vs {first:?}"
                ))
            }
            _ => setup_det = Some(det),
        }
        if i == 0 {
            let mut oracle = Oracle::new(w, &data);
            let stream = OpStream::new(w, seed, &data);
            let mut ops = stream.warmup(seed);
            ops.extend(stream.take(DET_OPS));
            for op in &ops {
                replay.run(&mut client, &mut oracle, op, None)?;
            }
        }
        if i + 1 < SETUPS {
            daemon.shutdown(&mut client)?;
            std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
        } else {
            live = Some((daemon, client, dir));
        }
    }
    let (daemon, mut client, dir) = live.ok_or("no deployment")?;
    let gas_before = build_gas(&mut client)?;

    let mut oracle = Oracle::new(w, &data);
    let mut stream = OpStream::new(w, seed, &data);
    let mut s = Samples::default();
    for op in stream.warmup(seed) {
        s.run(&mut client, &mut oracle, &op, None)?;
    }
    let cap = crate::window_cap(seconds, 1);
    let start = Instant::now();
    let mut clock = HostClock::start();
    for op in stream.by_ref().take(window) {
        s.run(&mut client, &mut oracle, &op, Some(&mut clock))?;
        if start.elapsed() > cap {
            return Err(format!(
                "the window of {window} operations passed its {} s cap",
                cap.as_secs()
            ));
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let window_busy_s = s.busy_ms / 1e3;
    for op in stream.probe(seed) {
        s.run(&mut client, &mut oracle, &op, Some(&mut clock))?;
    }
    let (chain_ok, height, _) = client.verify().map_err(|e| format!("verify: {e}"))?;
    s.attempted += 1;
    if !chain_ok {
        s.failed += 1;
        eprintln!("perfbench: chain verification failed at height {height}");
    }
    let ingest_gas = build_gas(&mut client)? - gas_before;
    let peak_rss_mb = daemon.peak_rss_mb()?;
    let disk = store_bytes(&dir, None)?;
    daemon.shutdown(&mut client)?;

    // Determinism: the first deployment ran the same leading operations.
    s.attempted += replay.attempted;
    s.failed += replay.failed;
    let replayed = replay.det.len();
    let determinism = if s.det.get(..replayed) == Some(replay.det.as_slice()) {
        format!("determinism: the first {replayed} operations match on a second deployment")
    } else {
        s.failed += 1;
        eprintln!(
            "perfbench: determinism: a second deployment differs\n--- replay\n{}\n--- measured\n{}",
            replay.det.join("\n"),
            s.det[..replayed.min(s.det.len())].join("\n")
        );
        "determinism: FAILED".to_string()
    };

    let search = stats::summarize(&s.search_ms);
    let ingest = stats::summarize(&s.ingest_ms);
    if search.samples == 0 || ingest.samples == 0 {
        return Err("the run completed no search or no ingest".into());
    }
    let notes = vec![
        tail_note("search", &search),
        tail_note("ingest", &ingest),
        format!(
            "window: {window} ops in {window_s:.3} s wall, {window_busy_s:.3} s of round trips on the nominal host; {} records live",
            oracle.live()
        ),
        format!(
            "host: reference loop median {:.4} ms over {} runs (nominal {} ms); as measured: search_p50 {:.3} ms, ingest_p50 {:.3} ms, setup {:.3} s",
            stats::median(&clock.refs),
            clock.refs.len(),
            crate::host::REF_NOMINAL_MS,
            stats::median(&s.raw_search_ms),
            stats::median(&s.raw_ingest_ms),
            stats::median(&raw_setup_s)
        ),
        format!(
            "error_rate = {} ({} failed of {} attempted)",
            s.failed as f64 / s.attempted as f64,
            s.failed,
            s.attempted
        ),
        format!("setup_s samples (nominal host): {setup_s:?}"),
        determinism,
    ];
    let mut det = setup_det.unwrap_or_default();
    det.append(&mut s.det);
    det.push(format!("gas ingest={ingest_gas}"));
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        metrics: vec![
            ("setup_s", stats::median(&setup_s), "s"),
            ("search_p50_ms", search.p50, "ms"),
            ("search_tail_ms", search.tail, "ms"),
            ("ingest_p50_ms", ingest.p50, "ms"),
            ("ingest_tail_ms", ingest.tail, "ms"),
            ("ops_per_s", window as f64 / window_busy_s, "1/s"),
            ("gas_per_search", stats::mean(&s.search_gas), "gas"),
            (
                "gas_per_ingest",
                ingest_gas as f64 / s.ingests as f64,
                "gas",
            ),
            (
                "disk_bytes_per_record",
                disk as f64 / oracle.live() as f64,
                "B",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
        notes,
        det,
    })
}

fn tail_note(kind: &str, s: &Summary) -> String {
    format!(
        "{kind}_tail_ms is p{:.1} of {} samples ({kind}_p50_ms over the same samples)",
        s.tail_pct, s.samples
    )
}
