#!/usr/bin/env bash
# Tier-1 verification: hermetic build + full test suite + formatting.
#
# The workspace has zero external dependencies (every workspace dependency
# is a path crate), so everything below runs with --offline from a clean
# checkout — no network, no registry cache.
set -euo pipefail
cd "$(dirname "$0")/.."

# CI must never rewrite committed files: record the working tree now and
# require it unchanged at the end (every stage writes into temp dirs).
tree_state() {
  git status --porcelain --untracked-files=all
  git diff HEAD --binary | cksum
}
in_git=""
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  in_git=yes
  tree_before="$(tree_state)"
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> slicer-lint --format json (static analysis, no finding allowed)"
# Nothing is grandfathered: any finding fails. The JSON report is the CI
# artifact; print it when the run fails.
lint_out="$(./target/release/slicer-lint --format json --root .)" || {
  echo "$lint_out"
  echo "slicer-lint FAILED: findings reported (see report above)" >&2
  exit 1
}
grep -q '"status":"ok"' <<<"$lint_out" || {
  echo "$lint_out"
  echo "slicer-lint FAILED: report status is not ok" >&2
  exit 1
}
# Negative self-test: the linter has to actually bite. A panic-free crate
# with an unwrap() in non-test code must exit 1 naming the site.
lint_tmp="$(mktemp -d)"
mkdir -p "$lint_tmp/crates/chain/src"
printf 'pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n' >"$lint_tmp/crates/chain/src/lib.rs"
lint_rc=0
lint_bad="$(./target/release/slicer-lint --root "$lint_tmp" 2>&1)" || lint_rc=$?
rm -rf "$lint_tmp"
if [ "$lint_rc" -ne 1 ] || ! grep -q "crates/chain/src/lib.rs:2" <<<"$lint_bad"; then
  echo "$lint_bad"
  echo "slicer-lint FAILED: injected unwrap() was not reported (exit $lint_rc)" >&2
  exit 1
fi
echo "slicer-lint OK (clean workspace passes, injected unwrap() fails)"

echo "==> cargo test -q --offline (SLICER_THREADS=1)"
SLICER_THREADS=1 cargo test -q --offline --workspace --release

echo "==> cargo test -q --offline (SLICER_THREADS=4)"
SLICER_THREADS=4 cargo test -q --offline --workspace --release

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> pool determinism (bench metrics agree across SLICER_THREADS)"
# The slicer-par contract: worker count is a throughput knob, never a
# semantic one. Run the telemetry experiment single-threaded and
# four-threaded. The four-threaded transcripts must pass the same exact
# `repro --diff` against the committed baselines that the gate below
# applies to the single-threaded ones: counters, gauges and histogram
# counts. Timing values legitimately differ; everything the protocol
# counts must not.
bench_tmp="$(mktemp -d)"
trap 'rm -rf "$bench_tmp"' EXIT
for threads in 1 4; do
  mkdir -p "$bench_tmp/t$threads"
  SLICER_THREADS=$threads cargo run -q --release --offline -p slicer-bench \
    --bin repro -- --experiment telemetry --scale 0.01 --queries 2 \
    --csv "$bench_tmp/t$threads" >/dev/null
done
for f in BENCH_build.json BENCH_search.json; do
  if ! ./target/release/repro --diff "results/$f" "$bench_tmp/t4/$f"; then
    echo "pool determinism FAILED: $f under SLICER_THREADS=4 differs from results/$f" >&2
    exit 1
  fi
done
echo "pool determinism OK"

echo "==> bench-diff regression gate (counters vs committed results/BENCH_*.json)"
# results/BENCH_{build,search}.json are the committed baselines, generated
# at this stage's scale. Every counter and gauge in them is machine- and
# thread-invariant (the pool-determinism stage above proves thread
# invariance), so `repro --diff` demands exact agreement on those, while
# timing metrics (.ns / .iters) stay informational. Reuses the
# single-threaded transcripts generated above.
for f in BENCH_build.json BENCH_search.json; do
  if ! ./target/release/repro --diff "results/$f" "$bench_tmp/t1/$f"; then
    echo "bench-diff gate FAILED: results/$f drifted from a fresh run" >&2
    echo "  (intentional protocol change? regenerate the baselines with" >&2
    echo "   cargo run --release -p slicer-bench --bin repro -- \\" >&2
    echo "     --experiment bench --scale 0.01 --queries 2 --csv results)" >&2
    exit 1
  fi
done
# Negative self-tests: the gate has to actually bite, on both sides.
# Inject a gas regression into a copy of the fresh candidate, then into a
# copy of the committed baseline, and require `repro --diff` to reject
# each with exit 1, naming the counter.
inject() {
  sed 's/"phase.verify.gas": \([0-9]*\)/"phase.verify.gas": 9\1/' "$1" >"$2"
  if cmp -s "$1" "$2"; then
    echo "bench-diff gate FAILED: regression injection into $1 was a no-op" >&2
    exit 1
  fi
}
expect_regression() {
  local rc=0 out
  out="$(./target/release/repro --diff "$1" "$2")" || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -q "REGRESSION counters/phase.verify.gas" <<<"$out"; then
    echo "$out"
    echo "bench-diff gate FAILED: injected regression in $3 was not detected (exit $rc)" >&2
    exit 1
  fi
}
inject "$bench_tmp/t1/BENCH_search.json" "$bench_tmp/regressed.json"
expect_regression results/BENCH_search.json "$bench_tmp/regressed.json" candidate
inject results/BENCH_search.json "$bench_tmp/tampered.json"
expect_regression "$bench_tmp/tampered.json" "$bench_tmp/t1/BENCH_search.json" baseline
echo "bench-diff gate OK (clean inputs pass, tampered candidate and baseline fail)"

echo "==> Table II drift gate (repro --experiment table2 vs results/table2.csv)"
# Table II is deterministic (gas is an operation-count model), so the
# committed CSV, which EXPERIMENTS.md quotes, must match a fresh run
# exactly.
mkdir -p "$bench_tmp/table2"
cargo run -q --release --offline -p slicer-bench --bin repro -- \
  --experiment table2 --csv "$bench_tmp/table2" >/dev/null
if ! diff -u results/table2.csv "$bench_tmp/table2/table2.csv"; then
  echo "Table II drift gate FAILED: results/table2.csv differs from a fresh run" >&2
  echo "  (regenerate with repro --experiment table2 --csv results and update" >&2
  echo "   the Table II block of EXPERIMENTS.md)" >&2
  exit 1
fi
echo "Table II drift gate OK"

echo "==> telemetry smoke (protocol_trace phase profile + JSON export)"
trace_out="$(cargo run -q --release --offline --example protocol_trace)"
for phase in setup build token search verify settle; do
  if ! grep -q "slicer_phase_${phase}_gas" <<<"$trace_out"; then
    echo "telemetry smoke FAILED: phase '${phase}' missing from the export" >&2
    exit 1
  fi
done
# The example validates its own JSON export (slicer_telemetry::json::parse)
# and prints this marker only if parsing succeeded with all six phases.
grep -q "TELEMETRY JSON OK" <<<"$trace_out" || {
  echo "telemetry smoke FAILED: JSON export did not validate" >&2
  exit 1
}
# The Chrome trace-event export round-trips through the in-crate RFC 8259
# parser and the six protocol phases are verified as parent spans.
grep -q "CHROME TRACE OK" <<<"$trace_out" || {
  echo "telemetry smoke FAILED: Chrome trace export did not validate" >&2
  exit 1
}
# The LeakageAuditor re-derives the access pattern from span attributes
# and matches it against the declared Theorem 2 profiles.
grep -q "LEAKAGE AUDIT OK" <<<"$trace_out" || {
  echo "telemetry smoke FAILED: leakage audit did not pass" >&2
  exit 1
}
echo "telemetry smoke OK"

echo "==> slicerd smoke (kill -9 crash/restart, byte-identical digest, no rebuild)"
# Boot a daemon on a temp Unix socket, ingest + search + verify through
# the CLI, SIGKILL it mid-flight, restart on the same data directory and
# require (a) the accumulator digest to be byte-identical and (b) the
# restored index to keep serving verifiable searches — the durability
# contract of crates/persist + crates/daemon, end to end over real
# processes.
smoke_tmp="$(mktemp -d)"
slicerd_pid=""
cleanup_smoke() {
  if [ -n "$slicerd_pid" ]; then kill -9 "$slicerd_pid" 2>/dev/null || true; fi
  rm -rf "$smoke_tmp"
}
trap 'cleanup_smoke; rm -rf "$bench_tmp"' EXIT
sock="$smoke_tmp/slicerd.sock"
cli() { ./target/release/slicer-cli --connect "unix://$sock" "$@"; }
wait_ready() {
  for _ in $(seq 1 200); do
    if cli stat >/dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "slicerd smoke FAILED: daemon never became reachable" >&2
  exit 1
}

./target/release/slicerd --listen "unix://$sock" --data "$smoke_tmp/data" \
  --seed 11 --bits 8 >/dev/null &
slicerd_pid=$!
wait_ready
cli ingest 1:10 2:20 3:30 >/dev/null
cli search lt 25 | grep -q "verified=true" || {
  echo "slicerd smoke FAILED: first-life search not verified" >&2
  exit 1
}
cli verify | grep -q "chain_ok=true" || {
  echo "slicerd smoke FAILED: chain verification failed" >&2
  exit 1
}
digest_before="$(cli stat | grep -o 'digest=[0-9a-f]*')"

kill -9 "$slicerd_pid"
wait "$slicerd_pid" 2>/dev/null || true

./target/release/slicerd --listen "unix://$sock" --data "$smoke_tmp/data" >/dev/null &
slicerd_pid=$!
wait_ready
digest_after="$(cli stat | grep -o 'digest=[0-9a-f]*')"
if [ -z "$digest_before" ] || [ "$digest_before" != "$digest_after" ]; then
  echo "slicerd smoke FAILED: digest diverged across kill -9 restart" >&2
  echo "  before: $digest_before" >&2
  echo "  after:  $digest_after" >&2
  exit 1
fi
cli search lt 25 | grep -q "verified=true" || {
  echo "slicerd smoke FAILED: restored search not verified" >&2
  exit 1
}
cli shutdown >/dev/null
wait "$slicerd_pid"
slicerd_pid=""
echo "slicerd smoke OK"

echo "==> observability smoke (metrics scrape + tail + crash flight recorder)"
# Boot a daemon, drive traffic, scrape the Metrics surface and validate
# both exports (the CLI runs the in-crate RFC 8259 parser over the JSON
# and shape-checks the Prometheus text), read the log ring via tail, then
# SIGKILL the daemon mid-ingest and require a checksum-valid flight
# recorder segment on disk naming the in-flight request.
obs_tmp="$(mktemp -d)"
obs_pid=""
cleanup_obs() {
  if [ -n "$obs_pid" ]; then kill -9 "$obs_pid" 2>/dev/null || true; fi
  rm -rf "$obs_tmp"
}
trap 'cleanup_obs; cleanup_smoke; rm -rf "$bench_tmp"' EXIT
osock="$obs_tmp/slicerd.sock"
ocli() { ./target/release/slicer-cli --connect "unix://$osock" "$@"; }
owait_ready() {
  for _ in $(seq 1 200); do
    if ocli stat >/dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "observability smoke FAILED: daemon never became reachable" >&2
  exit 1
}

./target/release/slicerd --listen "unix://$osock" --data "$obs_tmp/data" \
  --seed 11 --bits 8 >/dev/null 2>&1 &
obs_pid=$!
owait_ready
ocli ingest 1:10 2:20 3:30 >/dev/null
ocli search lt 25 >/dev/null

ocli metrics | grep -q "slicer_rpc_search_ns" || {
  echo "observability smoke FAILED: search histogram missing from scrape" >&2
  exit 1
}
check_out="$(ocli metrics --check)" || {
  echo "observability smoke FAILED: metrics --check rejected an export" >&2
  echo "$check_out" >&2
  exit 1
}
grep -q "metrics-check json=ok" <<<"$check_out" || {
  echo "observability smoke FAILED: JSON export did not validate" >&2
  exit 1
}
grep -q "metrics-check prometheus=ok" <<<"$check_out" || {
  echo "observability smoke FAILED: Prometheus export did not validate" >&2
  exit 1
}
ocli tail 50 | grep -q '"target":"slicerd.boot"' || {
  echo "observability smoke FAILED: boot record missing from tail" >&2
  exit 1
}

# Profiling plane: the live Profile RPC must render a well-formed SVG
# flamegraph and its totals must reconcile with the metrics surface —
# wall root within the rpc.*.ns histogram sums, gas total exactly equal
# to the phase.*.gas counters (gas rides on the phase spans only, never
# on the chain.* spans beneath them).
prof_out="$(ocli profile --check)" || {
  echo "observability smoke FAILED: profile --check rejected the profile plane" >&2
  echo "$prof_out" >&2
  exit 1
}
for marker in "profile-check svg=ok" "profile-check wall=ok" "profile-check gas=ok"; do
  grep -q "$marker" <<<"$prof_out" || {
    echo "observability smoke FAILED: missing '$marker' in profile --check" >&2
    echo "$prof_out" >&2
    exit 1
  }
done
ocli profile --svg | grep -q "</svg>" || {
  echo "observability smoke FAILED: profile --svg did not render a document" >&2
  exit 1
}
ocli profile --gas | grep -q "daemon.request" || {
  echo "observability smoke FAILED: gas profile missing the request root" >&2
  exit 1
}

# kill -9 mid-ingest. The recorder persists an in-flight entry at request
# start (atomic tmp+rename, so concurrent reads always see a whole
# segment), so the script polls the on-disk recording and pulls the
# trigger the moment the ingest shows up mid-dispatch. A large batch
# keeps the request in flight for hundreds of milliseconds — far wider
# than the poll interval — but retry with a bigger one just in case.
in_flight_ok=""
base_id=1000
for n in 2700 8000; do
  batch=""
  for i in $(seq "$base_id" $((base_id + n))); do
    batch="$batch $i:$((i % 256))"
  done
  base_id=$((base_id + n + 1))
  # shellcheck disable=SC2086
  ocli ingest $batch >/dev/null 2>&1 &
  ingest_pid=$!
  for _ in $(seq 1 400); do
    # The decoder exits 1 when something is in flight; under pipefail
    # that would mask grep's verdict, so fold it to 0 inside the pipe.
    if { ./target/release/slicer-cli flightrec "$obs_tmp/data/flightrec.slc" 2>/dev/null || true; } \
      | grep -q "kind=ingest .*outcome=in-flight"; then
      break
    fi
    sleep 0.01
  done
  kill -9 "$obs_pid" 2>/dev/null || true
  wait "$obs_pid" 2>/dev/null || true
  wait "$ingest_pid" 2>/dev/null || true
  obs_pid=""
  # Exit 1 here means "in-flight request found" — exactly what we want.
  rec_out="$(./target/release/slicer-cli flightrec "$obs_tmp/data/flightrec.slc")" || true
  if grep -q "kind=ingest .*outcome=in-flight" <<<"$rec_out"; then
    in_flight_ok=yes
    break
  fi
  ./target/release/slicerd --listen "unix://$osock" --data "$obs_tmp/data" >/dev/null 2>&1 &
  obs_pid=$!
  owait_ready
done
if [ -z "$in_flight_ok" ]; then
  echo "observability smoke FAILED: no in-flight ingest in the flight recording" >&2
  echo "$rec_out" >&2
  exit 1
fi
echo "observability smoke OK"

if [ -n "$in_git" ]; then
  echo "==> working tree unchanged"
  if [ "$(tree_state)" != "$tree_before" ]; then
    git status --short >&2
    echo "CI FAILED: the run changed files in the working tree" >&2
    exit 1
  fi
  echo "working tree unchanged OK"
fi

echo "CI OK"
