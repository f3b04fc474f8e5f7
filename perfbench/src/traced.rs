//! The traced run: the same seeded request stream, replayed in-process
//! with spans around the calls into each layer.
//!
//! Three replicas of the deployment advance in lockstep, one operation at
//! a time:
//!
//! * **daemon** — a real `slicer_daemon::Daemon`, served on a Unix socket
//!   by a thread of this process and driven by the same single-connection
//!   client as the untraced run. Spans: `rpc` (client round trip) and its
//!   child `daemon.handle` (`Daemon::handle`, timed on the serving thread).
//! * **program** — the calls `Daemon::handle` makes, made here:
//!   `SlicerInstance::search`, whose `SearchProfile` gives the `core.*`
//!   phase times, and `SlicerInstance::insert`, `Snapshot::capture` and
//!   `SegmentStore::commit`. Spans: `program.search`, and
//!   `program.ingest` over `core.insert`, `persist.capture` and
//!   `persist.commit`.
//! * **layers** — a deployment on which this file performs each search
//!   and insert itself, through the public functions of each crate, in
//!   the order `SlicerInstance` runs them with its default
//!   `WitnessStrategy::Batched`. Every call is a span, so the layer self
//!   times are measured where the work happens.
//!
//! All three must return the same records, gas and digests for every
//! operation, and the daemon's records must match the plaintext oracle.
//! The layers must also add up to the program: per operation, the layer
//! spans of each `SearchProfile` phase (of the insert, on an ingest), and
//! the daemon's `handle`, must agree with the program's time within the
//! tolerance kept in `layers.json`. A program that stops doing what the
//! layered replica times fails that check.
//!
//! Each measured operation is bracketed by the reference loop of
//! [`crate::host`], and its span times (and its `SearchProfile` phases)
//! are scaled to the nominal host as in the untraced run; so are the
//! kernel micro-loops.

use crate::gen::{self, Op, OpStream, Oracle, Workload, PAYMENT};
use crate::host::HostClock;
use crate::stats;
use crate::untraced::store_bytes;
use crate::{hex, ids_digest, Ctx, Outcome};
use slicer_accumulator::{hash_to_prime, witness, RsaParams, DEFAULT_PRIME_BITS};
use slicer_bignum::{BigUint, MontgomeryCtx};
use slicer_chain::{Blockchain, GasBreakdown, SlicerCall, Transaction, TxReceipt};
use slicer_core::{
    DataOwner, Query, RecordId, SearchOutcome, SlicerConfig, SlicerInstance, WitnessStrategy,
};
use slicer_crypto::codec::to_bytes;
use slicer_crypto::{sha256, HmacDrbg};
use slicer_daemon::proto::{read_message, write_message};
use slicer_daemon::{
    instrumented_telemetry, Daemon, DaemonConfig, Endpoint, Request, RequestBody, Response,
    ResponseBody, DEFAULT_EVENT_RING,
};
use slicer_par::Pool;
use slicer_persist::{SegmentStore, Snapshot};
use slicer_store::PrimeList;
use slicer_telemetry::{Level, TelemetryHandle};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The companion file that records the accounting tolerance.
const LAYERS_JSON: &str = include_str!("../layers.json");

/// The accounting tolerance, read from the `accounting` block of
/// `layers.json`. Per op, two times agree when they differ by at most
/// `op_share` of the larger plus `abs_ms`, and at most `outliers` of the
/// operations (rounded up) may have a pair that does not. Over the run,
/// each pair's totals must agree within `total_share` plus `abs_ms` per
/// op.
#[derive(Debug, Clone, Copy)]
struct Tolerance {
    op_share: f64,
    total_share: f64,
    abs_ms: f64,
    outliers: f64,
}

impl Tolerance {
    fn load() -> Result<Self, String> {
        let field = |key: &str| -> Result<f64, String> {
            let pat = format!("\"{key}\":");
            let at = LAYERS_JSON
                .find(&pat)
                .ok_or_else(|| format!("layers.json has no {key}"))?;
            LAYERS_JSON[at + pat.len()..]
                .split([',', '}', '\n'])
                .next()
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("layers.json: {key} is not a number"))
        };
        Ok(Tolerance {
            op_share: field("op_share")?,
            total_share: field("total_share")?,
            abs_ms: field("abs_ms")?,
            outliers: field("outlier_share")?,
        })
    }

    /// Whether one op's pair agrees.
    fn agree(&self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.op_share * a.max(b) + self.abs_ms
    }
}

/// One timed interval.
#[derive(Debug, Clone)]
struct Span {
    op: u64,
    parent: Option<usize>,
    name: &'static str,
    start: u64,
    end: u64,
}

/// In-memory span recorder; written out once at the end of the run.
#[derive(Debug)]
struct Tracer {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start = self.now();
        self.record(op, parent, name, start, start)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            op,
            parent,
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    fn time<R>(&mut self, op: u64, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(op, Some(parent), name, start, end);
        out
    }

    /// Writes the spans as JSON lines; `ops` gives each op's kind and
    /// host scale.
    fn write(&self, path: &Path, ops: &[OpRecord]) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = &ops[s.op as usize];
            out.push_str(&format!(
                "{{\"op\":{},\"kind\":\"{}\",\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"host_scale\":{:?}}}\n",
                s.op, op.kind, s.name, s.start, s.end, op.host_scale
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path:?}: {e}"))
    }
}

/// What the layered replica's search returned, for the cross-replica
/// check.
#[derive(Debug, Default)]
struct Found {
    ids: Vec<u64>,
    verified: bool,
    request_gas: u64,
    verify_gas: u64,
    gas: GasBreakdown,
    tokens: usize,
    hits: usize,
    generations: u64,
}

fn setup_instance(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
) -> Result<(SlicerInstance, Blockchain), String> {
    let mut chain = Blockchain::new();
    let config = SlicerConfig::with_bits(w.bits).with_workers(ctx.threads);
    let instance =
        SlicerInstance::try_setup_with(config, seed, &mut chain, TelemetryHandle::disabled())
            .map_err(|e| format!("setup: {e}"))?;
    Ok((instance, chain))
}

fn accumulator_digest(instance: &SlicerInstance) -> Vec<u8> {
    let owner = &instance.owner;
    owner
        .accumulator()
        .to_bytes_be_padded(owner.config().accumulator.element_bytes())
}

fn to_records(batch: &[(u64, u64)]) -> Vec<(RecordId, u64)> {
    batch
        .iter()
        .map(|&(id, v)| (RecordId::from_u64(id), v))
        .collect()
}

/// The calls `Daemon::handle` makes, timed as whole calls.
#[derive(Debug)]
struct Program {
    instance: SlicerInstance,
    chain: Blockchain,
    store: SegmentStore,
    dir: PathBuf,
    seed: u64,
}

impl Program {
    fn new(ctx: &Ctx, w: &Workload, seed: u64) -> Result<Self, String> {
        let (instance, chain) = setup_instance(ctx, w, seed)?;
        let dir = ctx.run_dir.join("program");
        Ok(Program {
            instance,
            chain,
            store: SegmentStore::open(&dir).map_err(|e| format!("program store: {e}"))?,
            dir,
            seed,
        })
    }

    /// `Daemon::search`: `SlicerInstance::search`.
    fn search(&mut self, t: &mut Tracer, op: u64, q: &Query) -> Result<SearchOutcome, String> {
        let root = t.open(op, None, "program.search");
        let outcome = self.instance.search(&mut self.chain, q, PAYMENT);
        t.close(root);
        outcome.map_err(|e| format!("program search: {e}"))
    }

    /// `Daemon::ingest`: `SlicerInstance::insert`, then capture and commit.
    /// Returns the generation and its bytes on disk.
    fn ingest(
        &mut self,
        t: &mut Tracer,
        op: u64,
        batch: &[(u64, u64)],
    ) -> Result<(u64, u64), String> {
        let root = t.open(op, None, "program.ingest");
        let records = to_records(batch);
        let (inst, chain) = (&mut self.instance, &mut self.chain);
        t.time(op, root, "core.insert", || inst.insert(chain, &records))
            .map_err(|e| format!("program insert: {e}"))?;
        let seed = self.seed;
        let snapshot = t.time(op, root, "persist.capture", || {
            Snapshot::capture(seed, &inst.owner, &inst.cloud)
        });
        let store = &self.store;
        let generation = t
            .time(op, root, "persist.commit", || store.commit(&snapshot))
            .map_err(|e| format!("commit: {e}"))?;
        t.close(root);
        Ok((generation, store_bytes(&self.dir, Some(generation))?))
    }
}

/// The deployment the layers are timed on.
#[derive(Debug)]
struct Layers {
    instance: SlicerInstance,
    chain: Blockchain,
    /// `X` in cloud order, for `PrimeList::position`; the cloud keeps its
    /// own copy private.
    primes: PrimeList,
    pool: Pool,
    requests: u64,
}

impl Layers {
    fn new(ctx: &Ctx, w: &Workload, seed: u64) -> Result<Self, String> {
        let (instance, chain) = setup_instance(ctx, w, seed)?;
        Ok(Layers {
            instance,
            chain,
            primes: PrimeList::new(),
            pool: Pool::new(ctx.threads),
            requests: 0,
        })
    }

    fn send(chain: &mut Blockchain, tx: Transaction) -> Result<TxReceipt, String> {
        chain
            .send_transaction(tx)
            .map_err(|e| format!("chain: {e}"))
    }

    /// `SlicerInstance::search`, one layer call at a time; each
    /// `SearchProfile` phase is a `phase.*` span over its calls.
    fn search(&mut self, t: &mut Tracer, op: u64, q: &Query) -> Result<Found, String> {
        let root = t.open(op, None, "layers.search");
        let (_, user_addr, cloud_addr) = self.instance.addresses();
        let contract = self.instance.contract_address();
        let inst = &mut self.instance;
        let chain = &mut self.chain;

        let phase = t.open(op, Some(root), "phase.token");
        let tokens = t.time(op, phase, "user.tokens", || inst.user.tokens_for(q));
        if tokens.is_empty() {
            t.close(phase);
            t.close(root);
            return Ok(Found {
                verified: true,
                ..Found::default()
            });
        }
        self.requests += 1;
        let rid = sha256(&[user_addr.0.as_slice(), &self.requests.to_be_bytes()].concat());
        let width = inst.owner.keys().trapdoor().public().trapdoor_bytes();
        let request = t.time(op, phase, "chain.request", || {
            let call = SlicerCall::RequestSearch {
                request_id: rid,
                cloud: cloud_addr,
                tokens: tokens.iter().map(|t| t.to_chain(width)).collect(),
            };
            Self::send(
                chain,
                Transaction::call(user_addr, contract, PAYMENT, call.encode()),
            )
        })?;
        t.close(phase);

        let phase = t.open(op, Some(root), "phase.search");
        let cloud = &inst.cloud;
        let results = t.time(op, phase, "cloud.walk", || cloud.search(&tokens));
        let pool = &self.pool;
        let xs = t
            .time(op, phase, "cloud.prime", || {
                pool.run(&results, |r| cloud.prime_for(r))
                    .into_iter()
                    .collect::<Result<Vec<BigUint>, _>>()
            })
            .map_err(|e| format!("prime_for: {e}"))?;
        let primes = &mut self.primes;
        let targets = t
            .time(op, phase, "store.locate", || {
                xs.iter()
                    .map(|x| primes.position(x))
                    .collect::<Option<Vec<usize>>>()
            })
            .ok_or("a result prime is missing from X")?;
        let params = &inst.owner.config().accumulator;
        let all = cloud.storage().primes.as_slice();
        let witnesses = t
            .time(op, phase, "accumulator.witness", || {
                witness::witness_batch_pooled(params, all, &targets, pool)
            })
            .map_err(|e| format!("witness_batch: {e}"))?;
        let elem = params.element_bytes();
        let entries = results
            .iter()
            .zip(&witnesses)
            .enumerate()
            .map(|(i, (r, w))| slicer_chain::VerifyEntry {
                token_idx: i as u16,
                er: r.er.clone(),
                vo: w.to_bytes_be_padded(elem),
            })
            .collect();
        t.close(phase);

        let phase = t.open(op, Some(root), "phase.verify");
        let submit = t.time(op, phase, "chain.verify", || {
            let call = SlicerCall::SubmitResult {
                request_id: rid,
                entries,
            };
            let mut tx = Transaction::call(cloud_addr, contract, 0, call.encode());
            tx.gas_limit = 100_000_000;
            Self::send(chain, tx)
        })?;
        t.close(phase);

        let phase = t.open(op, Some(root), "phase.settle");
        t.time(op, phase, "chain.seal", || chain.seal_block());
        let user = &inst.user;
        let records = t
            .time(op, phase, "user.decrypt", || user.decrypt(&results))
            .map_err(|e| format!("decrypt: {e}"))?;
        t.close(phase);
        t.close(root);

        let mut gas = request.gas_breakdown.clone();
        gas.merge(&submit.gas_breakdown);
        let mut ids: Vec<u64> = records.iter().filter_map(RecordId::as_u64).collect();
        ids.sort_unstable();
        Ok(Found {
            ids,
            verified: submit.status.is_success() && submit.output == [1],
            request_gas: request.gas_used,
            verify_gas: submit.gas_used,
            gas,
            tokens: tokens.len(),
            hits: results.iter().map(|r| r.er.len()).sum(),
            generations: tokens.iter().map(|t| u64::from(t.updates) + 1).sum(),
        })
    }

    /// `SlicerInstance::insert`, one layer call at a time. Returns the
    /// number of primes added to `X`.
    fn insert(&mut self, t: &mut Tracer, op: u64, batch: &[(u64, u64)]) -> Result<usize, String> {
        let root = t.open(op, None, "layers.insert");
        let (owner_addr, _, _) = self.instance.addresses();
        let contract = self.instance.contract_address();
        let inst = &mut self.instance;
        let chain = &mut self.chain;
        let records = to_records(batch);
        let out = t
            .time(op, root, "owner.insert", || inst.owner.insert(&records))
            .map_err(|e| format!("insert: {e}"))?;
        t.time(op, root, "cloud.ingest", || inst.cloud.ingest(&out))
            .map_err(|e| format!("cloud ingest: {e}"))?;
        t.time(op, root, "user.sync", || {
            inst.user.sync_state(inst.owner.state().user_view())
        });
        let owner = &inst.owner;
        t.time(op, root, "chain.publish", || {
            let elem = owner.config().accumulator.element_bytes();
            let call = SlicerCall::SetAccumulator(owner.accumulator().to_bytes_be_padded(elem));
            Self::send(
                chain,
                Transaction::call(owner_addr, contract, 0, call.encode()),
            )
        })?;
        t.time(op, root, "chain.seal", || chain.seal_block());
        t.close(root);
        // The replica's own copy of X; not part of the insert.
        self.primes.extend(out.primes.iter().cloned());
        Ok(out.primes.len())
    }
}

/// `Daemon::handle` start and end on the serving thread.
type HandleTiming = (u64, u64);

/// Serves one connection with a real `Daemon`, timing each `handle`.
fn serve(
    dir: PathBuf,
    sock: PathBuf,
    config: DaemonConfig,
    base: Instant,
    ready: mpsc::Sender<Result<(), String>>,
    timings: mpsc::Sender<HandleTiming>,
) -> Result<(), String> {
    // The same telemetry stack slicerd boots with.
    let (telemetry, profile, events) = instrumented_telemetry(DEFAULT_EVENT_RING);
    telemetry.set_log_level(Level::Warn);
    let opened = Daemon::open_profiled(&dir, config, telemetry, Some(profile), Some(events))
        .map_err(|e| format!("daemon open: {e}"))
        .and_then(|d| {
            let listener = Endpoint::Unix(sock)
                .bind()
                .map_err(|e| format!("bind: {e}"))?;
            Ok((d, listener))
        });
    let (mut daemon, listener) = match opened {
        Ok(v) => {
            let _ = ready.send(Ok(()));
            v
        }
        Err(e) => {
            let _ = ready.send(Err(e.clone()));
            return Err(e);
        }
    };
    let mut stream = listener.accept().map_err(|e| format!("accept: {e}"))?;
    loop {
        let Some(request) =
            read_message::<Request>(&mut stream).map_err(|e| format!("read: {e}"))?
        else {
            return Ok(());
        };
        let shutdown = matches!(request.body, RequestBody::Shutdown);
        let start = base.elapsed().as_nanos() as u64;
        let response = daemon.handle(&request);
        let end = base.elapsed().as_nanos() as u64;
        let _ = timings.send((start, end));
        write_message(&mut stream, &response).map_err(|e| format!("write: {e}"))?;
        if shutdown {
            return Ok(());
        }
    }
}

/// The client half of the daemon replica.
struct Client {
    stream: slicer_daemon::Stream,
    timings: mpsc::Receiver<HandleTiming>,
}

impl Client {
    /// Sends one request; records `rpc` ⊃ `daemon.handle` spans and
    /// returns the response body and the frame bytes both ways.
    fn call(
        &mut self,
        t: &mut Tracer,
        op: u64,
        body: RequestBody,
    ) -> Result<(ResponseBody, u64), String> {
        let request = Request { trace_id: op, body };
        let start = t.now();
        write_message(&mut self.stream, &request).map_err(|e| format!("send: {e}"))?;
        let response: Response = read_message(&mut self.stream)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("daemon closed the connection")?;
        let end = t.now();
        let (h0, h1) = self
            .timings
            .recv_timeout(Duration::from_secs(60))
            .map_err(|e| format!("handle timing: {e}"))?;
        let rpc = t.record(op, None, "rpc", start, end);
        t.record(op, Some(rpc), "daemon.handle", h0, h1);
        let frame = |b: Result<Vec<u8>, _>| b.map_or(0, |v: Vec<u8>| v.len() as u64 + 4);
        let bytes = frame(to_bytes(&request)) + frame(to_bytes(&response));
        Ok((response.body, bytes))
    }
}

/// Fixed-input micro-loops of the kernels under the accumulator, H_prime
/// and trapdoor layers: median over batches of the per-call time, scaled
/// to the nominal host.
fn kernels() -> Vec<(&'static str, f64, &'static str)> {
    fn per_call(batches: usize, iters: usize, mut f: impl FnMut(usize)) -> f64 {
        let times: Vec<f64> = (0..batches)
            .map(|_| {
                let t0 = Instant::now();
                for i in 0..iters {
                    f(i);
                }
                t0.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        stats::median(&times)
    }
    let mut clock = HostClock::start();
    let params = RsaParams::fixed_512();
    let mont = MontgomeryCtx::new(params.modulus()).expect("the fixed modulus is odd");
    let exp = BigUint::from_bytes_be(&[sha256(b"perfbench-e0"), sha256(b"perfbench-e1")].concat());
    let modpow = per_call(5, 40, |_| {
        black_box(mont.modpow(black_box(params.generator()), black_box(&exp)));
    });
    let block = vec![0x5au8; 64 * 1024];
    let sha = per_call(5, 20, |_| {
        black_box(sha256(black_box(&block)));
    }) / (block.len() / 64 + 1) as f64;
    let h2p = per_call(5, 40, |i| {
        black_box(hash_to_prime(&(i as u64).to_be_bytes(), DEFAULT_PRIME_BITS).ok());
    });
    let owner = DataOwner::new(SlicerConfig::with_bits(8).with_workers(1), 0);
    let pk = owner.keys().trapdoor().public();
    let start = pk.random_trapdoor(&mut HmacDrbg::new(b"perfbench"));
    let forward = per_call(5, 40, |_| {
        black_box(pk.forward(black_box(&start)));
    });
    let scale = clock.scale();
    vec![
        ("bignum.modpow512_us", modpow * scale * 1e6, "us"),
        ("crypto.sha256_block_ns", sha * scale * 1e9, "ns"),
        ("accumulator.hash_to_prime_us", h2p * scale * 1e6, "us"),
        ("trapdoor.forward_us", forward * scale * 1e6, "us"),
    ]
}

/// What one operation of the replay recorded, besides its spans.
#[derive(Debug, Clone, Default)]
struct OpRecord {
    kind: &'static str,
    /// In the measured stream (not set-up, warm-up or the final verify).
    measured: bool,
    /// Request + response frame bytes on the daemon's connection.
    bytes: u64,
    tokens: usize,
    hits: usize,
    generations: u64,
    gas: GasBreakdown,
    /// The program's `SearchProfile` phase times, in ms: token, search,
    /// verify, settle.
    phases: [f64; 4],
    primes_added: usize,
    commit_bytes: u64,
    /// Factor that scales the op's wall times to the nominal host (1 for
    /// ops outside the measured stream).
    host_scale: f64,
}

const PHASES: [&str; 4] = [
    "phase.token",
    "phase.search",
    "phase.verify",
    "phase.settle",
];

/// The lockstep replay of one workload on the three replicas.
struct Replay<'a> {
    t: Tracer,
    /// One record per op id; op 0 is the initial dataset.
    ops: Vec<OpRecord>,
    measured: bool,
    client: Client,
    program: Program,
    layers: Layers,
    oracle: Oracle,
    attempted: u64,
    failed: u64,
    det: Vec<String>,
    /// Median time of the reference loop over the measured stream, in ms.
    host_ref_ms: f64,
    w: &'a Workload,
}

impl Replay<'_> {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("perfbench: {what}");
    }

    fn next_op(&mut self, kind: &'static str) -> u64 {
        self.ops.push(OpRecord {
            kind,
            measured: self.measured,
            host_scale: 1.0,
            ..OpRecord::default()
        });
        self.ops.len() as u64 - 1
    }

    fn setup(&mut self, data: &[(u64, u64)]) -> Result<(), String> {
        let op = self.next_op("setup");
        let body = RequestBody::Ingest {
            records: data.to_vec(),
        };
        let (body, _) = self.client.call(&mut self.t, op, body)?;
        let (generation, bytes) = self.program.ingest(&mut self.t, op, data)?;
        self.layers.insert(&mut self.t, op, data)?;
        let digest = accumulator_digest(&self.program.instance);
        match body {
            ResponseBody::Ingested {
                digest: d,
                generation: g,
                ..
            } if d == digest
                && g == generation
                && digest == accumulator_digest(&self.layers.instance) => {}
            other => return Err(format!("initial ingest diverged: {other:?}")),
        }
        self.det.push(format!("setup digest={}", hex(&digest)));
        let primes = self.program.instance.cloud.storage().primes.len();
        self.det
            .push(format!("setup primes={primes} store_bytes={bytes}"));
        Ok(())
    }

    fn search(&mut self, q: &Query) -> Result<(), String> {
        let op = self.next_op("search");
        self.attempted += 1;
        let body = RequestBody::Search {
            query: q.clone(),
            payment: PAYMENT,
        };
        let (body, bytes) = self.client.call(&mut self.t, op, body)?;
        let outcome = self.program.search(&mut self.t, op, q)?;
        let found = self.layers.search(&mut self.t, op, q)?;
        let ResponseBody::Found {
            mut ids,
            verified,
            request_gas,
            verify_gas,
            ..
        } = body
        else {
            self.fail(format!("search {q:?}: daemon answered {body:?}"));
            return Ok(());
        };
        ids.sort_unstable();
        let mut program_ids: Vec<u64> = outcome
            .records
            .iter()
            .filter_map(RecordId::as_u64)
            .collect();
        program_ids.sort_unstable();
        let profile = &outcome.profile;
        if ids != self.oracle.expect(q) || !verified {
            self.fail(format!(
                "search {q:?}: daemon result differs from the oracle"
            ));
        } else if ids != program_ids
            || ids != found.ids
            || !outcome.verified
            || !found.verified
            || (request_gas, verify_gas) != (outcome.request_gas, outcome.verify_gas)
            || (request_gas, verify_gas) != (found.request_gas, found.verify_gas)
            || found.gas != profile.gas
        {
            self.fail(format!("search {q:?}: replicas diverge"));
        }
        let ms = |p: slicer_core::PhaseStat| p.wall.as_secs_f64() * 1e3;
        let record = &mut self.ops[op as usize];
        record.bytes = bytes;
        record.tokens = found.tokens;
        record.hits = found.hits;
        record.generations = found.generations;
        record.gas = found.gas.clone();
        record.phases = [
            ms(profile.token),
            ms(profile.search),
            ms(profile.verify),
            ms(profile.settle),
        ];
        let gas: Vec<String> = found
            .gas
            .entries()
            .iter()
            .filter(|(_, g)| *g > 0)
            .map(|(c, g)| format!("{c}:{g}"))
            .collect();
        self.det.push(format!(
            "op{op} search tokens={} hits={} generations={} ids={} gas={}",
            found.tokens,
            found.hits,
            found.generations,
            ids_digest(&ids),
            gas.join(",")
        ));
        Ok(())
    }

    fn ingest(&mut self, batch: &[(u64, u64)]) -> Result<(), String> {
        let op = self.next_op("ingest");
        self.attempted += 1;
        let body = RequestBody::Ingest {
            records: batch.to_vec(),
        };
        let (body, bytes) = self.client.call(&mut self.t, op, body)?;
        let (generation, commit_bytes) = self.program.ingest(&mut self.t, op, batch)?;
        let added = self.layers.insert(&mut self.t, op, batch)?;
        self.oracle.insert(batch);
        let digest = accumulator_digest(&self.program.instance);
        match body {
            ResponseBody::Ingested {
                generation: g,
                digest: d,
                records,
            } if g == generation
                && d == digest
                && digest == accumulator_digest(&self.layers.instance)
                && records == batch.len() as u64 => {}
            other => self.fail(format!("ingest: replicas diverge: {other:?}")),
        }
        let record = &mut self.ops[op as usize];
        record.bytes = bytes;
        record.primes_added = added;
        record.commit_bytes = commit_bytes;
        self.det.push(format!(
            "op{op} ingest primes={added} commit_bytes={commit_bytes}"
        ));
        Ok(())
    }

    fn op(&mut self, op: &Op) -> Result<(), String> {
        match op {
            Op::Search(q) => self.search(q),
            Op::Ingest(batch) => self.ingest(batch),
        }
    }

    /// Runs a measured op between two reference loops.
    fn timed_op(&mut self, op: &Op, clock: &mut HostClock) -> Result<(), String> {
        self.op(op)?;
        let scale = clock.scale();
        if let Some(rec) = self.ops.last_mut() {
            rec.host_scale = scale;
        }
        Ok(())
    }

    /// Verifies the three chains, then stops the daemon thread.
    fn finish(&mut self) -> Result<(), String> {
        self.measured = false;
        let op = self.next_op("verify");
        self.attempted += 1;
        let (body, _) = self.client.call(&mut self.t, op, RequestBody::Verify)?;
        match body {
            ResponseBody::Verified { chain_ok: true, .. }
                if self.program.chain.verify_chain() && self.layers.chain.verify_chain() => {}
            other => self.fail(format!("chain verification failed: {other:?}")),
        }
        let op = self.next_op("shutdown");
        self.client.call(&mut self.t, op, RequestBody::Shutdown)?;
        Ok(())
    }
}

pub fn run(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace_path: &Path,
) -> Result<Outcome, String> {
    if WitnessStrategy::default() != WitnessStrategy::Batched {
        return Err(format!(
            "the layered replica times WitnessStrategy::Batched, but the program now defaults to {:?}",
            WitnessStrategy::default()
        ));
    }
    let tolerance = Tolerance::load()?;
    let data = gen::dataset(w, seed);
    let deploy = gen::deploy_seed(seed);
    let base = Instant::now();
    let (ready_tx, ready_rx) = mpsc::channel();
    let (timing_tx, timing_rx) = mpsc::channel();
    let sock = ctx.run_dir.join("traced.sock");
    let config = DaemonConfig {
        seed: deploy,
        value_bits: w.bits,
        ..DaemonConfig::default()
    };
    let (dir, listen) = (ctx.run_dir.join("daemon"), sock.clone());
    let server = std::thread::spawn(move || serve(dir, listen, config, base, ready_tx, timing_tx));
    let replay = (|| -> Result<Replay, String> {
        ready_rx
            .recv()
            .map_err(|_| "daemon thread exited before binding".to_string())??;
        let stream = Endpoint::Unix(sock.clone())
            .connect()
            .map_err(|e| format!("connect: {e}"))?;
        let mut r = Replay {
            t: Tracer {
                base,
                spans: Vec::new(),
            },
            ops: Vec::new(),
            measured: false,
            client: Client {
                stream,
                timings: timing_rx,
            },
            program: Program::new(ctx, w, deploy)?,
            layers: Layers::new(ctx, w, deploy)?,
            oracle: Oracle::new(w, &data),
            attempted: 0,
            failed: 0,
            det: Vec::new(),
            host_ref_ms: f64::NAN,
            w,
        };
        r.setup(&data)?;
        let mut stream = OpStream::new(w, seed, &data);
        for op in stream.warmup(seed) {
            r.op(&op)?;
        }
        r.measured = true;
        let window = w.window_ops(seconds);
        let cap = crate::window_cap(seconds, 3);
        let start = Instant::now();
        let mut clock = HostClock::start();
        for op in stream.by_ref().take(window) {
            r.timed_op(&op, &mut clock)?;
            if start.elapsed() > cap {
                return Err(format!(
                    "the window of {window} operations passed its {} s cap",
                    cap.as_secs()
                ));
            }
        }
        for op in stream.probe(seed) {
            r.timed_op(&op, &mut clock)?;
        }
        r.finish()?;
        r.host_ref_ms = stats::median(&clock.refs);
        Ok(r)
    })();
    // The daemon thread ends on Shutdown, or when the client hangs up
    // after an error; a failure before the client connected leaves it in
    // accept, which a throwaway connection releases.
    if replay.is_err() {
        let _ = Endpoint::Unix(sock).connect();
    }
    let served = server
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    let replay = replay?;
    served?;
    replay.t.write(trace_path, &replay.ops)?;
    let mut outcome = metrics(replay, tolerance);
    outcome
        .notes
        .push(format!("spans written to {}", trace_path.display()));
    Ok(outcome)
}

fn metrics(mut r: Replay, tol: Tolerance) -> Outcome {
    for o in &mut r.ops {
        for phase in &mut o.phases {
            *phase *= o.host_scale;
        }
    }
    let t = &r.t;
    let n_ops = r.ops.len();
    // Per op: inclusive time of each named span, and the sum of the leaf
    // spans under each layered root or phase span.
    let mut by_op: Vec<Vec<(&str, f64)>> = vec![Vec::new(); n_ops];
    let mut leaves: Vec<Vec<(&str, f64)>> = vec![Vec::new(); n_ops];
    let mut has_child = vec![false; t.spans.len()];
    for s in &t.spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    for (i, s) in t.spans.iter().enumerate() {
        let ms = (s.end - s.start) as f64 / 1e6 * r.ops[s.op as usize].host_scale;
        by_op[s.op as usize].push((s.name, ms));
        if !has_child[i] {
            // Credit the leaf to every span above it, so the leaf sum of a
            // phase or a root is a lookup.
            let mut p = s.parent;
            while let Some(id) = p {
                leaves[s.op as usize].push((t.spans[id].name, ms));
                p = t.spans[id].parent;
            }
        }
    }
    let span = |op: usize, name: &str| -> f64 {
        by_op[op]
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d)
            .sum()
    };
    let leaf = |op: usize, name: &str| -> f64 {
        leaves[op]
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d)
            .sum()
    };
    let measured = |kind: &str| -> Vec<usize> {
        (0..n_ops)
            .filter(|&op| r.ops[op].measured && r.ops[op].kind == kind)
            .collect()
    };
    let s = measured("search");
    let i = measured("ingest");
    let all: Vec<usize> = s.iter().chain(&i).copied().collect();
    let over = |ops: &[usize], f: &dyn Fn(usize) -> f64| {
        stats::mean(&ops.iter().map(|&op| f(op)).collect::<Vec<_>>())
    };
    let per = |ops: &[usize], name: &str| over(ops, &|op| span(op, name));
    let rec = |ops: &[usize], f: &dyn Fn(&OpRecord) -> f64| over(ops, &|op| f(&r.ops[op]));
    // The program's time for an op: the whole `SlicerInstance` call(s)
    // `Daemon::handle` makes.
    let program = |op: usize| span(op, "program.search") + span(op, "program.ingest");

    // Accounting: (layers, program) pairs that must agree per op.
    let pairs = |op: usize| -> Vec<(&'static str, f64, f64)> {
        let mut v = vec![("daemon.handle", span(op, "daemon.handle"), program(op))];
        if r.ops[op].kind == "search" {
            for (k, name) in PHASES.iter().enumerate() {
                v.push((name, leaf(op, name), r.ops[op].phases[k]));
            }
        } else {
            v.push((
                "core.insert",
                leaf(op, "layers.insert"),
                span(op, "core.insert"),
            ));
        }
        v
    };
    // Rule 1, per op: every pair agrees, but for a few outlier ops.
    let mut outside = 0;
    let mut worst: Option<(usize, &str, f64, f64)> = None;
    // Rule 2, over the run: each pair's totals agree, per op kind.
    let mut totals: Vec<(&str, &str, f64, f64, usize)> = Vec::new();
    for &op in &all {
        let kind = r.ops[op].kind;
        let mut off = false;
        for (name, a, b) in pairs(op) {
            if !tol.agree(a, b) {
                off = true;
                if worst.is_none_or(|(_, _, wa, wb)| (a - b).abs() > (wa - wb).abs()) {
                    worst = Some((op, name, a, b));
                }
            }
            match totals.iter_mut().find(|t| (t.0, t.1) == (kind, name)) {
                Some(t) => (t.2, t.3, t.4) = (t.2 + a, t.3 + b, t.4 + 1),
                None => totals.push((kind, name, a, b, 1)),
            }
        }
        outside += usize::from(off);
    }
    let allowed = (tol.outliers * all.len() as f64).ceil() as usize;
    let totals_off: Vec<String> = totals
        .iter()
        .filter(|&&(_, _, a, b, n)| {
            (a - b).abs() > tol.total_share * a.max(b) + tol.abs_ms * n as f64
        })
        .map(|(kind, name, a, b, _)| format!("{kind} {name} {a:.1} ms vs {b:.1} ms"))
        .collect();
    let layered = |op: usize| leaf(op, "layers.search") + leaf(op, "layers.insert");
    let core = |op: usize| -> f64 {
        if r.ops[op].kind == "search" {
            r.ops[op].phases.iter().sum()
        } else {
            span(op, "core.insert")
        }
    };
    let gap_pct = over(&all, &|op| {
        (layered(op) - core(op)).abs() / core(op).max(1e-9) * 100.0
    });
    let accounting = format!(
        "accounting: {outside} of {} ops have a pair off by more than {}% + {} ms (allowed: {allowed}){}; pair totals off by more than {}%: {}; mean |layers - program| {gap_pct:.2}%",
        all.len(),
        tol.op_share * 100.0,
        tol.abs_ms,
        worst.map_or(String::new(), |(op, name, a, b)| format!(
            ", largest op {op} {name} {a:.3} ms vs program {b:.3} ms"
        )),
        tol.total_share * 100.0,
        if totals_off.is_empty() {
            "none".to_string()
        } else {
            totals_off.join(", ")
        }
    );

    let mut rtt: Vec<f64> = s.iter().map(|&op| span(op, "rpc")).collect();
    rtt.sort_by(f64::total_cmp);
    let phase = |k: usize| rec(&s, &|o| o.phases[k]);
    let mut m: Vec<(&'static str, f64, &'static str)> = vec![
        (
            "daemon.wire_ms",
            over(&all, &|op| span(op, "rpc") - span(op, "daemon.handle")),
            "ms",
        ),
        (
            "daemon.overhead_ms",
            over(&all, &|op| span(op, "daemon.handle") - program(op)),
            "ms",
        ),
        ("daemon.bytes_per_op", rec(&all, &|o| o.bytes as f64), "B"),
        ("core.token_ms", phase(0), "ms"),
        ("core.search_ms", phase(1), "ms"),
        ("core.verify_ms", phase(2), "ms"),
        ("core.settle_ms", phase(3), "ms"),
        ("core.insert_ms", per(&i, "core.insert"), "ms"),
        ("user.tokens_ms", per(&s, "user.tokens"), "ms"),
        ("user.decrypt_ms", per(&s, "user.decrypt"), "ms"),
        ("user.sync_ms", per(&i, "user.sync"), "ms"),
        (
            "user.tokens_per_search",
            rec(&s, &|o| o.tokens as f64),
            "count",
        ),
        ("cloud.walk_ms", per(&s, "cloud.walk"), "ms"),
        (
            "cloud.index_hits_per_search",
            rec(&s, &|o| o.hits as f64),
            "count",
        ),
        (
            "cloud.generations_per_search",
            rec(&s, &|o| o.generations as f64),
            "count",
        ),
        ("cloud.prime_ms", per(&s, "cloud.prime"), "ms"),
        ("cloud.ingest_ms", per(&i, "cloud.ingest"), "ms"),
        ("store.locate_ms", per(&s, "store.locate"), "ms"),
        (
            "accumulator.witness_ms",
            per(&s, "accumulator.witness"),
            "ms",
        ),
        (
            "accumulator.primes",
            r.program.instance.cloud.storage().primes.len() as f64,
            "count",
        ),
        ("chain.request_ms", per(&s, "chain.request"), "ms"),
        ("chain.verify_ms", per(&s, "chain.verify"), "ms"),
        ("chain.seal_ms", per(&all, "chain.seal"), "ms"),
        ("chain.publish_ms", per(&i, "chain.publish"), "ms"),
    ];
    let mut gas = GasBreakdown::default();
    for &op in &s {
        gas.merge(&r.ops[op].gas);
    }
    let searches = s.len().max(1) as f64;
    for (cat, g) in gas.entries() {
        if let Some(name) = gas_metric(cat) {
            m.push((name, g as f64 / searches, "gas"));
        }
    }
    m.extend([
        ("owner.insert_ms", per(&i, "owner.insert"), "ms"),
        (
            "owner.primes_per_ingest",
            rec(&i, &|o| o.primes_added as f64),
            "count",
        ),
        ("persist.capture_ms", per(&i, "persist.capture"), "ms"),
        ("persist.commit_ms", per(&i, "persist.commit"), "ms"),
        (
            "persist.bytes_per_commit",
            rec(&i, &|o| o.commit_bytes as f64),
            "B",
        ),
    ]);
    m.extend(kernels());
    m.push(("trace.rtt_p50_ms", stats::percentile(&rtt, 50.0), "ms"));
    m.push(("trace.gap_pct", gap_pct, "%"));
    let notes = vec![
        format!(
            "traced {}: {} searches, {} ingests measured; reference loop median {:.4} ms (nominal {} ms)",
            r.w.name,
            s.len(),
            i.len(),
            r.host_ref_ms,
            crate::host::REF_NOMINAL_MS
        ),
        accounting,
        format!(
            "means: daemon handle {:.3} ms, program {:.3} ms (SlicerInstance calls {:.3} ms, layer spans {:.3} ms)",
            over(&all, &|op| span(op, "daemon.handle")),
            over(&all, &program),
            over(&all, &core),
            over(&all, &layered)
        ),
    ];
    // The deterministic totals of the whole run.
    r.det.push(format!(
        "totals primes={} gas={}",
        r.program.instance.cloud.storage().primes.len(),
        gas.entries()
            .iter()
            .map(|(c, g)| format!("{c}:{g}"))
            .collect::<Vec<_>>()
            .join(",")
    ));
    if outside > allowed || !totals_off.is_empty() {
        r.fail("the layers do not add up to the program".into());
    }
    Outcome {
        attempted: r.attempted,
        failed: r.failed,
        metrics: m,
        notes,
        det: r.det,
    }
}

/// The per-search gas metric of each reported `GasCategory`.
fn gas_metric(category: &str) -> Option<&'static str> {
    Some(match category {
        "intrinsic" => "chain.gas.intrinsic_per_search",
        "sstore" => "chain.gas.sstore_per_search",
        "sload" => "chain.gas.sload_per_search",
        "hash" => "chain.gas.hash_per_search",
        "field_mul" => "chain.gas.field_mul_per_search",
        "hprime" => "chain.gas.hprime_per_search",
        "miller_rabin" => "chain.gas.miller_rabin_per_search",
        "modexp" => "chain.gas.modexp_per_search",
        "transfer" => "chain.gas.transfer_per_search",
        _ => return None,
    })
}
