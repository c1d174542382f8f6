#!/usr/bin/env bash
# Repo-local CI gate: formatting, lints, release build, and the full test
# suite (tier-1 is the root-package subset of `cargo test`). Run from
# anywhere; everything executes at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
# --workspace matters: the root manifest is a package, so a bare build
# would skip coign-cli and coign-bench and the smoke blocks below would
# run stale `target/release/coign` / `perfsuite` binaries.
cargo build --release --workspace

echo "==> cargo build perfbench (the benchmark's own workspace)"
# perfbench is a workspace of its own and the only consumer of the pinned
# runtime entry points outside this one; nothing else compiles it, so build
# it here to catch an API break before the benchmark runs.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test --workspace (empty TMPDIR)"
# Each run gets an empty TMPDIR, so a test that passes only on state some
# other process left behind (such as a profiled shared `gen:` image) fails
# here instead of passing by accident.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/tests"
TMPDIR="$TMP/tests" cargo test -q --workspace

echo "==> fault-injection determinism (two seeds vs committed expectations)"
# The fault layer's whole value is reproducibility: the same image, plan,
# and fault seed must yield a byte-identical run summary on every machine.
# Build a realized octarine image from scratch, run the demo fault plan
# under two distinct seeds, and diff each summary against the committed
# expectation. Regenerate after an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
BIN=target/release/coign
IMG="$TMP/octarine.cimg"
"$BIN" instrument octarine "$IMG" >/dev/null
"$BIN" profile "$IMG" o_oldtb3 >/dev/null
"$BIN" analyze "$IMG" ethernet >/dev/null
for seed in 7 11; do
  "$BIN" run "$IMG" o_oldtb3 ethernet \
    --fault-plan examples/faults/demo.fplan --fault-seed "$seed" --summary \
    > "$TMP/fault_run_seed_${seed}.txt"
  if [[ "${1:-}" == "--regen-fault-expectations" ]]; then
    cp "$TMP/fault_run_seed_${seed}.txt" "scripts/expected/fault_run_seed_${seed}.txt"
    echo "regenerated scripts/expected/fault_run_seed_${seed}.txt"
  else
    diff -u "scripts/expected/fault_run_seed_${seed}.txt" "$TMP/fault_run_seed_${seed}.txt" \
      || { echo "fault run summary drifted for seed ${seed}"; exit 1; }
  fi
done
# The two seeds must schedule different faults — otherwise the seed is
# not actually feeding the fault RNG and the determinism check is vacuous.
if cmp -s "$TMP/fault_run_seed_7.txt" "$TMP/fault_run_seed_11.txt"; then
  echo "fault seeds 7 and 11 produced identical summaries; seed is ignored"
  exit 1
fi

echo "==> chaos harness determinism (two seeds vs committed expectations, --jobs cross-check)"
# The chaos summary must be byte-identical for a given seed — across
# machines (the committed expectations), across runs, and across worker
# counts. Five trials at seed 7 include machine-death trials, so the
# expectation also pins that the self-healing path actually fires.
# Regenerate after an intentional change with the same flag as above.
for seed in 7 11; do
  "$BIN" chaos "$IMG" o_oldtb3 ethernet --seed "$seed" --trials 5 \
    > "$TMP/chaos_seed_${seed}.txt"
  if [[ "${1:-}" == "--regen-fault-expectations" ]]; then
    cp "$TMP/chaos_seed_${seed}.txt" "scripts/expected/chaos_seed_${seed}.txt"
    echo "regenerated scripts/expected/chaos_seed_${seed}.txt"
  else
    diff -u "scripts/expected/chaos_seed_${seed}.txt" "$TMP/chaos_seed_${seed}.txt" \
      || { echo "chaos summary drifted for seed ${seed}"; exit 1; }
  fi
done
if cmp -s "$TMP/chaos_seed_7.txt" "$TMP/chaos_seed_11.txt"; then
  echo "chaos seeds 7 and 11 produced identical summaries; seed is ignored"
  exit 1
fi
"$BIN" chaos "$IMG" o_oldtb3 ethernet --seed 7 --trials 5 --jobs 4 \
  > "$TMP/chaos_seed_7_jobs4.txt"
cmp "$TMP/chaos_seed_7.txt" "$TMP/chaos_seed_7_jobs4.txt" \
  || { echo "chaos summary differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q "outcome=recovered" "$TMP/chaos_seed_7.txt" \
  || { echo "chaos seed 7 never exercised the recovery path"; exit 1; }
grep -q "invariants: ok" "$TMP/chaos_seed_7.txt" \
  || { echo "chaos invariants violated at seed 7"; exit 1; }
grep -q "invariants: ok" "$TMP/chaos_seed_11.txt" \
  || { echo "chaos invariants violated at seed 11"; exit 1; }

echo "==> chaos & explore over generated applications (two gen seeds vs committed expectations)"
# The generator is deterministic per seed, so the whole downstream pipeline
# must be too: emit two generated images, profile + analyze them, run the
# chaos harness over each, and diff against committed expectations. The
# schedule-space explorer must likewise be byte-identical across --jobs
# and report zero invariant violations on a healthy generated app.
# Regenerate after an intentional change with the same flag as above.
for gseed in 3 16; do
  "$BIN" gen --seed "$gseed" --emit "$TMP" >/dev/null
  GIMG="$TMP/gen-${gseed}-small.cimg"
  "$BIN" profile "$GIMG" g_main g_doc g_idle >/dev/null
  "$BIN" analyze "$GIMG" ethernet >/dev/null
  "$BIN" chaos "$GIMG" g_main ethernet --seed 7 --trials 5 > "$TMP/chaos_gen_${gseed}.txt"
  if [[ "${1:-}" == "--regen-fault-expectations" ]]; then
    cp "$TMP/chaos_gen_${gseed}.txt" "scripts/expected/chaos_gen_${gseed}.txt"
    echo "regenerated scripts/expected/chaos_gen_${gseed}.txt"
  else
    diff -u "scripts/expected/chaos_gen_${gseed}.txt" "$TMP/chaos_gen_${gseed}.txt" \
      || { echo "generated chaos summary drifted for gen seed ${gseed}"; exit 1; }
  fi
  grep -q "invariants: ok" "$TMP/chaos_gen_${gseed}.txt" \
    || { echo "chaos invariants violated on generated seed ${gseed}"; exit 1; }
done
"$BIN" chaos "$TMP/gen-3-small.cimg" g_main ethernet --seed 7 --trials 5 --jobs 4 \
  > "$TMP/chaos_gen_3_jobs4.txt"
cmp "$TMP/chaos_gen_3.txt" "$TMP/chaos_gen_3_jobs4.txt" \
  || { echo "generated chaos summary differs between --jobs 1 and --jobs 4"; exit 1; }
"$BIN" explore gen:3 g_main --faults-at 4000,9000,14000 --thresholds 1,3 > "$TMP/explore_a.txt"
"$BIN" explore gen:3 g_main --faults-at 4000,9000,14000 --thresholds 1,3 --jobs 4 \
  > "$TMP/explore_b.txt"
cmp "$TMP/explore_a.txt" "$TMP/explore_b.txt" \
  || { echo "explore summary differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q "invariants: ok" "$TMP/explore_a.txt" \
  || { echo "explore found invariant violations on gen seed 3"; exit 1; }

echo "==> observability smoke (--trace/--metrics, byte-identical across runs)"
# Same image, plan, and seed must export byte-identical trace and metrics
# files — the whole point of keeping host time out of the default export.
for tag in a b; do
  "$BIN" run "$IMG" o_oldtb3 ethernet \
    --fault-plan examples/faults/demo.fplan --fault-seed 7 \
    --trace "$TMP/trace_${tag}.json" --metrics "$TMP/metrics_${tag}.json" \
    > /dev/null
done
cmp "$TMP/trace_a.json" "$TMP/trace_b.json" \
  || { echo "same-seed runs exported different traces"; exit 1; }
cmp "$TMP/metrics_a.json" "$TMP/metrics_b.json" \
  || { echo "same-seed runs exported different metrics"; exit 1; }
grep -q '"name":"run","cat":"pipeline","ph":"B"' "$TMP/trace_a.json" \
  || { echo "trace is missing the run phase span"; exit 1; }
grep -q '"name":"icc_call"' "$TMP/trace_a.json" \
  || { echo "trace is missing cut-crossing call instants"; exit 1; }
grep -q '"name":"fault_drop"' "$TMP/trace_a.json" \
  || { echo "trace is missing fault-injection instants"; exit 1; }
grep -q '"coign_cross_machine_calls_total":' "$TMP/metrics_a.json" \
  || { echo "metrics snapshot is missing the run counters"; exit 1; }

echo "==> replication placement smoke (coign place, 3 machines vs committed expectations)"
# The multiway solver must be deterministic, and replication must be
# opt-in and legality-gated: without `--replicate` the output carries no
# replicas and matches the committed plain placement byte for byte; with
# it, the base placement is unchanged and only the replica section grows.
# Regenerate after an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
PIMG="$TMP/octarine_place.cimg"
"$BIN" instrument octarine "$PIMG" >/dev/null
"$BIN" profile "$PIMG" o_oldwp7 >/dev/null
"$BIN" place "$PIMG" o_oldwp7 ethernet --machines 3 > "$TMP/place_plain.txt"
"$BIN" place "$PIMG" o_oldwp7 ethernet --machines 3 --replicate > "$TMP/place_replicate.txt"
for name in place_plain place_replicate; do
  if [[ "${1:-}" == "--regen-fault-expectations" ]]; then
    cp "$TMP/${name}.txt" "scripts/expected/${name}.txt"
    echo "regenerated scripts/expected/${name}.txt"
  else
    diff -u "scripts/expected/${name}.txt" "$TMP/${name}.txt" \
      || { echo "placement output drifted for ${name}"; exit 1; }
  fi
done
"$BIN" place "$PIMG" o_oldwp7 ethernet --machines 3 > "$TMP/place_plain_2.txt"
cmp "$TMP/place_plain.txt" "$TMP/place_plain_2.txt" \
  || { echo "plain placement differs between two identical runs"; exit 1; }
grep -q "replicas: none" "$TMP/place_plain.txt" \
  || { echo "plain placement placed replicas without --replicate"; exit 1; }
diff <(grep '^  machine' "$TMP/place_plain.txt") <(grep '^  machine' "$TMP/place_replicate.txt") \
  || { echo "--replicate moved the base placement"; exit 1; }
grep -q "replicas: [1-9]" "$TMP/place_replicate.txt" \
  || { echo "--replicate found no legal replica on the annotated app"; exit 1; }

echo "==> serving-harness smoke (coign serve vs committed expectation, --jobs cross-check)"
# The serve summary is fully simulated, so it must be byte-identical for a
# given seed — across machines (the committed expectation) and across
# worker counts. Reuses the gen-3 image profiled above. Regenerate after
# an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  > "$TMP/serve_gen_3.txt"
if [[ "${1:-}" == "--regen-fault-expectations" ]]; then
  cp "$TMP/serve_gen_3.txt" "scripts/expected/serve_gen_3.txt"
  echo "regenerated scripts/expected/serve_gen_3.txt"
else
  diff -u "scripts/expected/serve_gen_3.txt" "$TMP/serve_gen_3.txt" \
    || { echo "serve summary drifted for gen seed 3"; exit 1; }
fi
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --jobs 4 \
  > "$TMP/serve_gen_3_jobs4.txt"
cmp "$TMP/serve_gen_3.txt" "$TMP/serve_gen_3_jobs4.txt" \
  || { echo "serve summary differs between --jobs 1 and --jobs 4"; exit 1; }
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --no-batch \
  > "$TMP/serve_gen_3_nobatch.txt"
if cmp -s "$TMP/serve_gen_3.txt" "$TMP/serve_gen_3_nobatch.txt"; then
  echo "serve --no-batch produced an identical summary; batching is inert"
  exit 1
fi

echo "==> serve telemetry smoke (--timeline bytes, --jobs cross-check, --slo-p99-us)"
# The timeline is recorded on the simulated clock and merged in shard
# order, so its bytes are pinned exactly like the summary. Regenerate
# after an intentional change with scripts/ci.sh --regen-fault-expectations.
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --timeline "$TMP/serve_gen_3_timeline.json" > /dev/null
if [[ "${1:-}" == "--regen-fault-expectations" ]]; then
  cp "$TMP/serve_gen_3_timeline.json" "scripts/expected/serve_gen_3_timeline.json"
  echo "regenerated scripts/expected/serve_gen_3_timeline.json"
else
  diff -u "scripts/expected/serve_gen_3_timeline.json" "$TMP/serve_gen_3_timeline.json" \
    || { echo "serve timeline drifted for gen seed 3"; exit 1; }
fi
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 --jobs 4 \
  --timeline "$TMP/serve_gen_3_timeline_jobs4.json" > /dev/null
cmp "$TMP/serve_gen_3_timeline.json" "$TMP/serve_gen_3_timeline_jobs4.json" \
  || { echo "serve timeline differs between --jobs 1 and --jobs 4"; exit 1; }
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --slo-p99-us 1 > "$TMP/serve_gen_3_slo.txt"
grep -q "^slo: target p99<=1us:" "$TMP/serve_gen_3_slo.txt" \
  || { echo "serve --slo-p99-us printed no SLO block"; exit 1; }
grep -q "worst window" "$TMP/serve_gen_3_slo.txt" \
  || { echo "serve --slo-p99-us attributed no worst window"; exit 1; }

echo "==> degraded-serve smoke (fault injection + replica failover, --jobs cross-check)"
# Under a seeded fault plan the serve summary must stay byte-identical per
# seed — the fault RNG rides the shard seed, never the worker schedule —
# and the run must actually exercise the failover path: a machine dies,
# replica-covered calls re-resolve without a solve, and recovery epochs
# land in the summary. Regenerate after an intentional change with:
#   scripts/ci.sh --regen-fault-expectations
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --fault-seed 7 --replicate > "$TMP/serve_gen_3_faults.txt"
if [[ "${1:-}" == "--regen-fault-expectations" ]]; then
  cp "$TMP/serve_gen_3_faults.txt" "scripts/expected/serve_gen_3_faults.txt"
  echo "regenerated scripts/expected/serve_gen_3_faults.txt"
else
  diff -u "scripts/expected/serve_gen_3_faults.txt" "$TMP/serve_gen_3_faults.txt" \
    || { echo "degraded serve summary drifted for gen seed 3"; exit 1; }
fi
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --fault-seed 7 --replicate --jobs 4 > "$TMP/serve_gen_3_faults_jobs4.txt"
cmp "$TMP/serve_gen_3_faults.txt" "$TMP/serve_gen_3_faults_jobs4.txt" \
  || { echo "degraded serve summary differs between --jobs 1 and --jobs 4"; exit 1; }
grep -q "^failover: " "$TMP/serve_gen_3_faults.txt" \
  || { echo "degraded serve reported no failover line"; exit 1; }
grep -Eq "^recovery: [1-9][0-9]* epoch" "$TMP/serve_gen_3_faults.txt" \
  || { echo "degraded serve recorded no recovery epoch"; exit 1; }
# The zero-fault seed is the explicit transparency case: byte-identical to
# the committed clean-wire expectation, inject line and all counters absent.
"$BIN" serve "$TMP/gen-3-small.cimg" g_main ethernet --sessions 2000 --seed 7 \
  --fault-seed 0 > "$TMP/serve_gen_3_fs0.txt"
cmp "$TMP/serve_gen_3.txt" "$TMP/serve_gen_3_fs0.txt" \
  || { echo "--fault-seed 0 perturbed the zero-fault serve summary"; exit 1; }

echo "==> perf smoke (BENCH_coign.json)"
# Records the perf trajectory: profile replay (sequential vs parallel
# workers), marshal-size cache hit rate, and the network sweep cold vs
# warm. The binary itself asserts the correctness half (byte-identical
# profiles, identical cut values, warm strictly faster).
target/release/perfsuite BENCH_coign.json
cat BENCH_coign.json

echo "CI OK"
