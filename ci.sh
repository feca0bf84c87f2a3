#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, and the full test suite.
#
# Everything runs --offline against the vendored dev-dependency stubs in
# vendor/ — no network access is required (or attempted).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test =="
cargo test --workspace --offline -q

echo "== perf-smoke (lp-perf ledger) =="
# lp-perf is a package of its own (BENCHMARK.json runs it from its own
# manifest), so nothing above compiles it. Its unit tests must pass and
# every workload must run end to end and traced at smoke scale: exit 0
# means every operation and output check held (decomposition == run_job,
# farm estimate == in-process, one compute per key, ...).
# `selfcheck --smoke` is not the gate: it also wants the timings of two
# runs within 25 % of each other, which a noisy host breaks at this scale.
cargo test --offline -q --manifest-path lp-perf/Cargo.toml
PERF=(cargo run --release --offline --quiet --manifest-path lp-perf/Cargo.toml --)
for workload in twophase-train fulldetail-train live-train farm-sweep ring-sweep; do
  for traced in 0 1; do
    PERF_LOG="$PWD/target/ci-perf-$workload-$traced.log"
    "${PERF[@]}" --smoke --seconds 1 --workload "$workload" --trace "$traced" > "$PERF_LOG" 2>&1 \
      || { cat "$PERF_LOG" >&2; echo "perf-smoke: $workload --trace $traced failed" >&2; exit 1; }
  done
done
# Floor, off the traced twophase-train result line: constrained replay
# stays within 2x of the bare VM (3.35x before the zero-copy retirement
# stream, ~1.3x since).
grep '^{' "$PWD/target/ci-perf-twophase-train-1.log" | tail -n1 | python3 -c "
import json, sys
x = json.load(sys.stdin)['metrics']['pinball.replay_overhead_x']['value']
assert 0 < x <= 2.0, f'pinball.replay_overhead_x {x:.2f} breaches the 2.0 floor'
print(f'perf-smoke: constrained replay at {x:.2f}x the bare VM')
" || { echo "perf-smoke: replay floor failed" >&2; exit 1; }
# Floor, off the traced fulldetail-train result line: fast-forward with
# cache and predictor warming stays within 2.3x of the bare VM (2.5-2.6x
# at smoke scale before the retire-path budget, ~2.0x since).
grep '^{' "$PWD/target/ci-perf-fulldetail-train-1.log" | tail -n1 | python3 -c "
import json, sys
m = json.load(sys.stdin)['metrics']
vm, ff = m['isa.vm_mips']['value'], m['sim.ff_mips']['value']
assert vm > 0 and ff > 0 and vm / ff <= 2.3, f'isa.vm_mips / sim.ff_mips = {vm:.1f} / {ff:.1f} breaches the 2.3 floor'
print(f'perf-smoke: fast-forward with warming at {vm / ff:.2f}x the bare VM')
" || { echo "perf-smoke: fast-forward floor failed" >&2; exit 1; }

echo "== store-smoke (artifact store) =="
# Cold run populates a fresh store; warm run must hit and print the
# served-from-store lines; a flipped byte in a cached artifact must be
# detected (store.corrupt / quarantine) and transparently recomputed.
STORE_DIR="$PWD/target/ci-store"
STORE_LOG="$PWD/target/ci-store.log"
rm -rf "$STORE_DIR"
RUNNER=(cargo run --release --offline -q --bin run-looppoint --)
STORE_METRICS="$PWD/target/ci-store-metrics.json"
"${RUNNER[@]}" -p demo-matrix-1 -n 2 --slice-base 4000 --store-dir "$STORE_DIR" \
  --metrics-out "$STORE_METRICS" > "$STORE_LOG" 2>&1 \
  || { cat "$STORE_LOG" >&2; echo "store-smoke: cold run failed" >&2; exit 1; }
grep -Eq 'store: 0 hits, [0-9]+ misses' "$STORE_LOG" || { echo "store-smoke: cold run should only miss" >&2; exit 1; }
# The pass budget, as counts that repeat exactly: a cold run replays its
# recording once (the DCFG rides the recording; 2x before) and makes no
# checkpoint pass (the slicing replay keeps every slice-boundary state).
python3 - "$STORE_METRICS" <<'PY' || { echo "store-smoke: pass budget breached" >&2; exit 1; }
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
recorded, replayed = c["pinball.recorded_instructions"], c["pinball.replayed_instructions"]
assert recorded > 0 and replayed == recorded, f"replayed {replayed} of {recorded} recorded instructions"
passes = c.get("pinball.checkpoint_replays", 0)
assert passes == 0, f"{passes} checkpoint passes"
print(f"store-smoke: cold run recorded {recorded} instructions, replayed them once, no checkpoint pass")
PY
# Chained regions, as counts: this config's looppoints all lie within two
# slices of each other, so they form one chain on one simulator, which
# fast-forwards once and far less than the program (7 segments and 104 422
# instructions against 69 161 recorded when each region warmed on its own).
python3 - "$STORE_METRICS" <<'PY' || { echo "store-smoke: regions not chained" >&2; exit 1; }
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
segments, ff = c.get("sim.ff.segments", 0), c.get("sim.ff.instructions", 0)
recorded = c["pinball.recorded_instructions"]
assert segments == 1, f"{segments} fast-forward segments"
assert ff < recorded / 4, f"fast-forwarded {ff} of {recorded} recorded instructions"
print(f"store-smoke: one chain, {ff} instructions fast-forwarded of {recorded} recorded")
PY
COLD_ERR=$(grep 'runtime error' "$STORE_LOG")
# The directory is the store's only index, checked by exact count: the
# five containers of this config and nothing beside them (no index, lock
# or temp file).
COLD_FILES=$(ls -A "$STORE_DIR")
[ "$(grep -Ecx '[0-9a-f]{32}-[a-z]+\.lpa' <<<"$COLD_FILES")" = 5 ] && [ "$(wc -l <<<"$COLD_FILES")" = 5 ] \
  || { echo "$COLD_FILES" >&2; echo "store-smoke: cold store should hold exactly 5 containers and nothing else" >&2; exit 1; }
"${RUNNER[@]}" -p demo-matrix-1 -n 2 --slice-base 4000 --store-dir "$STORE_DIR" > "$STORE_LOG" 2>&1 \
  || { cat "$STORE_LOG" >&2; echo "store-smoke: warm run failed" >&2; exit 1; }
grep -q 'analysis served from the artifact store' "$STORE_LOG" || { echo "store-smoke: warm run did not hit" >&2; exit 1; }
grep -Eq 'store: [1-9][0-9]* hits, 0 misses' "$STORE_LOG" || { echo "store-smoke: warm run should only hit" >&2; exit 1; }
WARM_ERR=$(grep 'runtime error' "$STORE_LOG")
[ "$COLD_ERR" = "$WARM_ERR" ] || { echo "store-smoke: warm result differs from cold ($COLD_ERR vs $WARM_ERR)" >&2; exit 1; }
[ "$(ls -A "$STORE_DIR")" = "$COLD_FILES" ] || { ls -A "$STORE_DIR" >&2; echo "store-smoke: warm run changed the store's file set" >&2; exit 1; }
# Checkpoints gone, analysis cached: the one path that still makes a
# checkpoint pass, and it must land on the cold run's answer. This
# config's one chain starts from reset, so its rebuilt checkpoints need no
# pass at all (the config with checkpointed chain heads follows below).
rm "$STORE_DIR"/*-checkpoints.lpa
"${RUNNER[@]}" -p demo-matrix-1 -n 2 --slice-base 4000 --store-dir "$STORE_DIR" \
  --metrics-out "$STORE_METRICS" > "$STORE_LOG" 2>&1 \
  || { cat "$STORE_LOG" >&2; echo "store-smoke: checkpoint-less run failed" >&2; exit 1; }
grep -q 'analysis served from the artifact store' "$STORE_LOG" || { echo "store-smoke: checkpoint-less run did not hit the analysis" >&2; exit 1; }
python3 - "$STORE_METRICS" 0 <<'PY' || { echo "store-smoke: checkpoint-less run made the wrong number of checkpoint passes" >&2; exit 1; }
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c.get("pinball.checkpoint_replays", 0) == int(sys.argv[2]), c.get("pinball.checkpoint_replays", 0)
PY
[ "$(grep 'runtime error' "$STORE_LOG")" = "$COLD_ERR" ] || { echo "store-smoke: checkpoint-less result differs from cold" >&2; exit 1; }
# Corrupt one cached artifact in place (flip a mid-file byte) and re-run.
VICTIM=$(ls "$STORE_DIR"/*-clustering.lpa | head -n1)
SIZE=$(wc -c < "$VICTIM")
printf '\x5a' | dd of="$VICTIM" bs=1 seek=$((SIZE / 2)) count=1 conv=notrunc status=none
"${RUNNER[@]}" -p demo-matrix-1 -n 2 --slice-base 4000 --store-dir "$STORE_DIR" > "$STORE_LOG" 2>&1 \
  || { cat "$STORE_LOG" >&2; echo "store-smoke: corrupt-recovery run failed" >&2; exit 1; }
grep -q 'quarantining corrupt artifact' "$STORE_LOG" || { echo "store-smoke: corruption not detected" >&2; exit 1; }
grep -Eq 'store: .* 1 corruptions' "$STORE_LOG" || { echo "store-smoke: store.corrupt not counted" >&2; exit 1; }
ls "$STORE_DIR"/*.corrupt >/dev/null 2>&1 || { echo "store-smoke: no quarantined file" >&2; exit 1; }
RECOVERED_ERR=$(grep 'runtime error' "$STORE_LOG")
[ "$COLD_ERR" = "$RECOVERED_ERR" ] || { echo "store-smoke: recovery result differs from cold" >&2; exit 1; }
rm -rf "$STORE_DIR"
# The checkpoint-less path where chain heads carry checkpoints
# (demo-matrix-3: three chains): exactly one checkpoint pass, and the cold
# run's answer.
"${RUNNER[@]}" -p demo-matrix-3 -n 2 --slice-base 4000 --store-dir "$STORE_DIR" > "$STORE_LOG" 2>&1 \
  || { cat "$STORE_LOG" >&2; echo "store-smoke: demo-matrix-3 cold run failed" >&2; exit 1; }
COLD_ERR=$(grep 'runtime error' "$STORE_LOG")
rm "$STORE_DIR"/*-checkpoints.lpa
"${RUNNER[@]}" -p demo-matrix-3 -n 2 --slice-base 4000 --store-dir "$STORE_DIR" \
  --metrics-out "$STORE_METRICS" > "$STORE_LOG" 2>&1 \
  || { cat "$STORE_LOG" >&2; echo "store-smoke: demo-matrix-3 checkpoint-less run failed" >&2; exit 1; }
grep -q 'analysis served from the artifact store' "$STORE_LOG" || { echo "store-smoke: demo-matrix-3 checkpoint-less run did not hit the analysis" >&2; exit 1; }
python3 - "$STORE_METRICS" 1 <<'PY' || { echo "store-smoke: demo-matrix-3 checkpoint-less run should make one checkpoint pass" >&2; exit 1; }
import json, sys
c = json.load(open(sys.argv[1]))["counters"]
assert c.get("pinball.checkpoint_replays", 0) == int(sys.argv[2]), c.get("pinball.checkpoint_replays", 0)
PY
[ "$(grep 'runtime error' "$STORE_LOG")" = "$COLD_ERR" ] || { echo "store-smoke: demo-matrix-3 checkpoint-less result differs from cold" >&2; exit 1; }
rm -rf "$STORE_DIR"

echo "== help-smoke (generated help) =="
# Top-level help and every subcommand's: exit 0 and something on stdout.
for cmd in "" live serve submit status trace top shutdown farm-load; do
  HELP_OUT=$("${RUNNER[@]}" $cmd --help) && [ -n "$HELP_OUT" ] \
    || { echo "help-smoke: '$cmd --help' failed or printed nothing" >&2; exit 1; }
done

echo "== one-path (one sampled-simulation path, one estimator) =="
# Regions are simulated one way: run_pipeline, or its two halves
# prepare_region_checkpoints + simulate_prepared (binary-driven is the
# FROM_RESET warm-up window). Both modes build one looppoint::Estimate
# that the summary, the progress stream and diagnose read. Counts, not
# timings: the deleted second paths stay deleted, and lp-bench's library
# calls no simulate_* but the full-detail reference. The estimator names
# match whole words only: the live attribution tests keep their
# `diagnose_live_*` names.
SECOND_PATH=$( (grep -rEc --include='*.rs' --exclude-dir=target \
  'simulate_representatives|evaluate_app_mode|\b(diagnose_live|LiveClusterSummary|extrapolate_naive)\b' \
  crates src tests examples lp-perf || true) \
  | awk -F: '{ n += $NF } END { print n + 0 }')
BENCH_SIMS=$(grep -rEoh --include='*.rs' '\bsimulate_[a-z_]+\(' crates/bench/src \
  | grep -vc '^simulate_whole($' || true)
[ "$SECOND_PATH" = 0 ] && [ "$BENCH_SIMS" = 0 ] \
  || { echo "one-path: $SECOND_PATH second-path name(s); $BENCH_SIMS lp-bench simulate_* call(s) besides simulate_whole" >&2; exit 1; }

echo "== bench-smoke (store reuse) =="
# Quick variant of the store-reuse benchmark: asserts warm==cold bytewise
# and replay_passes==0 internally; validate the JSON schema here. Writes
# to target/ so the committed baseline BENCH_store.json is not clobbered.
STORE_SMOKE_OUT="$PWD/target/BENCH_store.smoke.json"
cargo bench --offline -p lp-bench --bench store_reuse -- --smoke --out "$STORE_SMOKE_OUT"
[ -s "$STORE_SMOKE_OUT" ] || { echo "store-bench-smoke: $STORE_SMOKE_OUT missing or empty" >&2; exit 1; }
for key in workload nthreads slice_base cold sweep store smoke; do
  grep -q "\"$key\"" "$STORE_SMOKE_OUT" || { echo "store-bench-smoke: missing key $key" >&2; exit 1; }
done
for key in cold_ms warm_ms speedup configs artifacts bytes_raw bytes_stored compression_ratio; do
  grep -q "\"$key\"" "$STORE_SMOKE_OUT" || { echo "store-bench-smoke: missing key $key" >&2; exit 1; }
done
# And the committed full-scale baseline keeps the >= 5x warm speedup claim.
python3 - <<'PY'
import json, sys
with open("BENCH_store.json") as f:
    j = json.load(f)
for section in ("cold", "sweep"):
    s = j[section]["speedup"]
    if s < 5.0:
        sys.exit(f"BENCH_store.json: {section} speedup {s} < 5x")
PY

echo "== telemetry-smoke (live endpoint) =="
# Start a run with the live endpoint on an ephemeral port, poll /healthz
# while it is in flight, assert /metrics is Prometheus text with the
# pipeline's series, and require a clean exit afterwards.
SERVE_LOG="$PWD/target/ci-serve.log"
"${RUNNER[@]}" -p demo-matrix-1,demo-matrix-2 -n 4 --slice-base 4000 \
  --serve-metrics 127.0.0.1:0 --serve-linger-ms 4000 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^telemetry: listening on \([0-9.:]*\).*/\1/p' "$SERVE_LOG" | head -n1)
  [ -n "$ADDR" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG" >&2; echo "telemetry-smoke: driver died before binding" >&2; exit 1; }
  sleep 0.1
done
[ -n "$ADDR" ] || { cat "$SERVE_LOG" >&2; echo "telemetry-smoke: no listening line" >&2; exit 1; }
HEALTH=$(curl -sf --max-time 5 "http://$ADDR/healthz")
echo "$HEALTH" | grep -q '"status":"ok"' || { echo "telemetry-smoke: bad /healthz: $HEALTH" >&2; exit 1; }
echo "$HEALTH" | grep -q '"phase"' || { echo "telemetry-smoke: /healthz lacks phase" >&2; exit 1; }
# Let the run get past analysis so sim_* series exist, then scrape.
METRICS=""
for _ in $(seq 1 200); do
  METRICS=$(curl -sf --max-time 5 "http://$ADDR/metrics" || true)
  echo "$METRICS" | grep -q '^sim_' && echo "$METRICS" | grep -q '^analyze_' && break
  sleep 0.1
done
echo "$METRICS" | grep -q '^# TYPE ' || { echo "telemetry-smoke: /metrics lacks # TYPE lines" >&2; exit 1; }
echo "$METRICS" | grep -Eq '^analyze_[a-z_]+ [0-9]' || { echo "telemetry-smoke: no analyze_ series" >&2; exit 1; }
echo "$METRICS" | grep -Eq '^sim_[a-z_]+' || { echo "telemetry-smoke: no sim_ series" >&2; exit 1; }
echo "$METRICS" | grep -q '_bucket{le="+Inf"}' || { echo "telemetry-smoke: no histogram bucket series" >&2; exit 1; }
wait "$SERVE_PID" || { cat "$SERVE_LOG" >&2; echo "telemetry-smoke: driver exited non-zero" >&2; exit 1; }
# Clean shutdown released the port.
curl -sf --max-time 2 "http://$ADDR/healthz" >/dev/null 2>&1 && { echo "telemetry-smoke: endpoint still up after exit" >&2; exit 1; }

echo "== diag-smoke (accuracy attribution) =="
# Two workloads through --diag-report; validate the document against the
# minimal schema and the exact-sum acceptance invariant: per-cluster
# attributed errors sum to the end-to-end extrapolation error, and each
# cluster's cause components sum to its error. live-smoke runs the same
# checks on its live-mode report.
# check_diag_reports FILE COUNT
check_diag_reports() {
python3 - "$1" "$2" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    reports = json.load(f)
n = int(sys.argv[2])
assert isinstance(reports, list) and len(reports) == n, f"expected {n} reports, got {reports!r:.80}"
REPORT_KEYS = {"schema_version", "workload", "nthreads", "k", "predicted_cycles",
               "actual_cycles", "error_cycles", "error_pct", "clusters", "profile"}
CLUSTER_KEYS = {"cluster", "slice_index", "multiplier", "weight", "predicted_cycles",
                "attributed_actual_cycles", "error_cycles", "error_pct",
                "rep_distance", "mean_member_distance", "components"}
for r in reports:
    missing = REPORT_KEYS - r.keys()
    assert not missing, f"{r.get('workload')}: missing report keys {missing}"
    assert r["schema_version"] == 1, r["schema_version"]
    assert r["k"] == len(r["clusters"]) > 0
    tol = 1e-6 * max(abs(r["error_cycles"]), 1.0)
    total = sum(c["error_cycles"] for c in r["clusters"])
    assert abs(total - r["error_cycles"]) <= tol, \
        f"{r['workload']}: cluster errors {total} != end-to-end {r['error_cycles']}"
    for c in r["clusters"]:
        missing = CLUSTER_KEYS - c.keys()
        assert not missing, f"cluster {c.get('cluster')}: missing keys {missing}"
        comp = c["components"]
        s = comp["representativeness"] + comp["warmup"] + comp["extrapolation"]
        ctol = 1e-6 * max(abs(c["error_cycles"]), 1.0)
        assert abs(s - c["error_cycles"]) <= ctol, \
            f"{r['workload']} cluster {c['cluster']}: components {s} != {c['error_cycles']}"
    assert r["profile"]["wall_us"] > 0 and r["profile"]["phases"], "empty self-profile"
print(f"diag-smoke: {len(reports)} reports in {sys.argv[1]}, attribution sums exact")
PY
}
DIAG_OUT="$PWD/target/ci-diag.json"
DIAG_LOG="$PWD/target/ci-diag.log"
"${RUNNER[@]}" -p demo-matrix-1,demo-matrix-2 -n 4 --slice-base 4000 \
  --diag-report "$DIAG_OUT" > "$DIAG_LOG" 2>&1 \
  || { cat "$DIAG_LOG" >&2; echo "diag-smoke: run failed" >&2; exit 1; }
grep -q 'accuracy attribution:' "$DIAG_LOG" || { echo "diag-smoke: no attribution table printed" >&2; exit 1; }
check_diag_reports "$DIAG_OUT" 2

echo "== farm-smoke (analysis service) =="
# Start the lp-farm daemon on an ephemeral port, submit three jobs of
# which two are identical, and assert from /metrics that the service ran
# exactly 2 computes and served the duplicate by dedup. A drain shutdown
# must finish all work and leave the daemon with exit code 0.
FARM_LOG="$PWD/target/ci-farm.log"
FARM_SUBMIT_LOG="$PWD/target/ci-farm-submit.log"
"${RUNNER[@]}" serve --farm-listen 127.0.0.1:0 --workers 2 > "$FARM_LOG" 2>&1 &
FARM_PID=$!
FARM_ADDR=""
for _ in $(seq 1 100); do
  FARM_ADDR=$(sed -n 's/^farm: listening on \([0-9.:]*\).*/\1/p' "$FARM_LOG" | head -n1)
  [ -n "$FARM_ADDR" ] && break
  kill -0 "$FARM_PID" 2>/dev/null || { cat "$FARM_LOG" >&2; echo "farm-smoke: daemon died before binding" >&2; exit 1; }
  sleep 0.1
done
[ -n "$FARM_ADDR" ] || { cat "$FARM_LOG" >&2; echo "farm-smoke: no listening line" >&2; exit 1; }
"${RUNNER[@]}" submit --farm "$FARM_ADDR" -p demo-matrix-1,demo-matrix-2,demo-matrix-1 \
  --slice-base 4000 --wait > "$FARM_SUBMIT_LOG" 2>&1 \
  || { cat "$FARM_SUBMIT_LOG" >&2; echo "farm-smoke: submit failed" >&2; exit 1; }
grep -q '"dedup_of"' "$FARM_SUBMIT_LOG" || { cat "$FARM_SUBMIT_LOG" >&2; echo "farm-smoke: duplicate was not deduplicated" >&2; exit 1; }
FARM_METRICS=$(curl -sf --max-time 5 "http://$FARM_ADDR/metrics")
for want in 'farm_computes 2' 'farm_dedup_hits 1' 'farm_done 3' 'farm_submitted 3'; do
  echo "$FARM_METRICS" | grep -q "^$want\$" \
    || { echo "$FARM_METRICS" | grep '^farm_' >&2; echo "farm-smoke: /metrics missing '$want'" >&2; exit 1; }
done
echo "$FARM_METRICS" | grep -q '^farm_queue_wait_us_bucket{le="+Inf"}' \
  || { echo "farm-smoke: no queue-wait histogram" >&2; exit 1; }
"${RUNNER[@]}" shutdown --farm "$FARM_ADDR" > /dev/null \
  || { echo "farm-smoke: shutdown request failed" >&2; exit 1; }
wait "$FARM_PID" || { cat "$FARM_LOG" >&2; echo "farm-smoke: daemon exited non-zero" >&2; exit 1; }
grep -q 'farm: stopped (3 done, 0 failed, 0 cancelled, 0 requeued' "$FARM_LOG" \
  || { cat "$FARM_LOG" >&2; echo "farm-smoke: bad shutdown summary" >&2; exit 1; }
# Clean shutdown released the port.
curl -sf --max-time 2 "http://$FARM_ADDR/healthz" >/dev/null 2>&1 && { echo "farm-smoke: endpoint still up after exit" >&2; exit 1; }

echo "== trace-smoke (distributed tracing) =="
# Start the daemon with a store and a small flight-recorder ring, submit
# two identical jobs (job 1 computes, job 2 dedups onto it), and assert:
# /jobs/1/trace is a valid Chrome trace_event document with at least one
# span per lifecycle stage, job 2's trace links back to job 1's trace id
# via the dedup marker, /trace/recent is parseable NDJSON, /healthz
# surfaces the recorder occupancy, and the CLI renders the span tree.
TRACE_STORE="$PWD/target/ci-trace-store"
TRACE_LOG="$PWD/target/ci-trace.log"
TRACE_SUBMIT_LOG="$PWD/target/ci-trace-submit.log"
TRACE_DOC="$PWD/target/ci-trace-job1.json"
TRACE_DOC2="$PWD/target/ci-trace-job2.json"
rm -rf "$TRACE_STORE"
"${RUNNER[@]}" serve --farm-listen 127.0.0.1:0 --workers 2 --trace-capacity 8 \
  --store-dir "$TRACE_STORE" > "$TRACE_LOG" 2>&1 &
TRACE_PID=$!
TRACE_ADDR=""
for _ in $(seq 1 100); do
  TRACE_ADDR=$(sed -n 's/^farm: listening on \([0-9.:]*\).*/\1/p' "$TRACE_LOG" | head -n1)
  [ -n "$TRACE_ADDR" ] && break
  kill -0 "$TRACE_PID" 2>/dev/null || { cat "$TRACE_LOG" >&2; echo "trace-smoke: daemon died before binding" >&2; exit 1; }
  sleep 0.1
done
[ -n "$TRACE_ADDR" ] || { cat "$TRACE_LOG" >&2; echo "trace-smoke: no listening line" >&2; exit 1; }
"${RUNNER[@]}" submit --farm "$TRACE_ADDR" -p demo-matrix-3,demo-matrix-3 \
  --slice-base 4000 --wait > "$TRACE_SUBMIT_LOG" 2>&1 \
  || { cat "$TRACE_SUBMIT_LOG" >&2; echo "trace-smoke: submit failed" >&2; exit 1; }
grep -q '"trace_id"' "$TRACE_SUBMIT_LOG" || { echo "trace-smoke: submit response lacks trace_id" >&2; exit 1; }
curl -sf --max-time 5 "http://$TRACE_ADDR/jobs/1/trace" > "$TRACE_DOC" \
  || { echo "trace-smoke: GET /jobs/1/trace failed" >&2; exit 1; }
curl -sf --max-time 5 "http://$TRACE_ADDR/jobs/2/trace" > "$TRACE_DOC2" \
  || { echo "trace-smoke: GET /jobs/2/trace failed" >&2; exit 1; }
python3 - "$TRACE_DOC" "$TRACE_DOC2" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
evs = doc["traceEvents"]
assert isinstance(evs, list) and evs, "empty traceEvents"
names = [e["name"] for e in evs]
# One span or marker per lifecycle stage: enqueue, queue wait, worker
# attempt, the farm's execute span, the pipeline root, analysis phases,
# region simulation, store writes, and the terminal marker.
for want in ("farm.job", "farm.job.queue_wait", "enqueue", "attempt_start",
             "farm.execute", "job.run", "analyze", "region.sim",
             "store.save", "terminal"):
    assert want in names, f"missing lifecycle span/marker {want!r}: {sorted(set(names))}"
root = next(e for e in evs if e["name"] == "farm.job")
assert root["ph"] == "X" and root["dur"] > 0, "root must be a Complete span"
trace1 = root["args"]["trace_id"]
# Every event that carries a trace id carries the job's.
for e in evs:
    args = e.get("args", {})
    if "trace_id" in args:
        assert args["trace_id"] == trace1, f"{e['name']} leaked into another trace"
# Pipeline spans are parented (transitively) under the root span.
spans = {e["args"]["span_id"]: e for e in evs
         if e.get("ph") == "X" and "span_id" in e.get("args", {})}
jr = next(e for e in evs if e["name"] == "job.run")
hops = 0
cur = jr["args"].get("parent_span_id")
while cur in spans and hops < 20:
    if spans[cur]["name"] == "farm.job":
        break
    cur = spans[cur]["args"].get("parent_span_id")
    hops += 1
assert cur in spans and spans[cur]["name"] == "farm.job", "job.run not under farm.job"
# The follower's trace is distinct but links to the primary's trace id.
with open(sys.argv[2]) as f:
    doc2 = json.load(f)
evs2 = doc2["traceEvents"]
root2 = next(e for e in evs2 if e["name"] == "farm.job")
assert root2["args"]["trace_id"] != trace1, "follower must have its own trace"
link = next(e for e in evs2 if e["name"] == "farm.job.dedup_of")
assert link["args"]["primary"] == 1 and link["args"]["primary_trace_id"] == trace1, link
print(f"trace-smoke: {len(evs)} primary events, follower linked to {trace1[:8]}…")
PY
curl -sf --max-time 5 "http://$TRACE_ADDR/trace/recent?limit=4" | python3 -c "
import json, sys
lines = [l for l in sys.stdin.read().splitlines() if l.strip()]
assert len(lines) == 2, f'expected 2 recent traces, got {len(lines)}'
for l in lines:
    s = json.loads(l)
    assert {'id', 'trace_id', 'state'} <= s.keys(), s
" || { echo "trace-smoke: bad /trace/recent" >&2; exit 1; }
curl -sf --max-time 5 "http://$TRACE_ADDR/healthz" | grep -q '"flight_recorder":{"live":0,"finished":2,"capacity":8' \
  || { echo "trace-smoke: /healthz lacks flight-recorder occupancy" >&2; exit 1; }
TRACE_TREE=$("${RUNNER[@]}" trace 1 --farm "$TRACE_ADDR") \
  || { echo "trace-smoke: CLI trace subcommand failed" >&2; exit 1; }
for want in 'farm.job' 'farm.execute' 'job.run' 'ms'; do
  echo "$TRACE_TREE" | grep -q "$want" || { echo "$TRACE_TREE" >&2; echo "trace-smoke: tree lacks $want" >&2; exit 1; }
done
"${RUNNER[@]}" shutdown --farm "$TRACE_ADDR" > /dev/null \
  || { echo "trace-smoke: shutdown request failed" >&2; exit 1; }
wait "$TRACE_PID" || { cat "$TRACE_LOG" >&2; echo "trace-smoke: daemon exited non-zero" >&2; exit 1; }
# Restart over the same store: the resubmitted job is a store hit, and its
# trace shows it — store.load spans, no checkpoint regeneration.
"${RUNNER[@]}" serve --farm-listen 127.0.0.1:0 --workers 2 --trace-capacity 8 \
  --store-dir "$TRACE_STORE" > "$TRACE_LOG" 2>&1 &
TRACE_PID=$!
TRACE_ADDR=""
for _ in $(seq 1 100); do
  TRACE_ADDR=$(sed -n 's/^farm: listening on \([0-9.:]*\).*/\1/p' "$TRACE_LOG" | head -n1)
  [ -n "$TRACE_ADDR" ] && break
  kill -0 "$TRACE_PID" 2>/dev/null || { cat "$TRACE_LOG" >&2; echo "trace-smoke: restarted daemon died" >&2; exit 1; }
  sleep 0.1
done
"${RUNNER[@]}" submit --farm "$TRACE_ADDR" -p demo-matrix-3 --slice-base 4000 --wait > "$TRACE_SUBMIT_LOG" 2>&1 \
  || { cat "$TRACE_SUBMIT_LOG" >&2; echo "trace-smoke: warm submit failed" >&2; exit 1; }
curl -sf --max-time 5 "http://$TRACE_ADDR/jobs/1/trace" | python3 -c "
import json, sys
evs = json.load(sys.stdin)['traceEvents']
names = [e['name'] for e in evs]
assert 'store.load' in names, f'warm trace has no store.load: {sorted(set(names))}'
assert 'store_hit' in names, 'warm trace lacks the store_hit marker'
" || { echo "trace-smoke: warm trace missing store-hit evidence" >&2; exit 1; }
"${RUNNER[@]}" shutdown --farm "$TRACE_ADDR" > /dev/null
wait "$TRACE_PID" || { cat "$TRACE_LOG" >&2; echo "trace-smoke: restarted daemon exited non-zero" >&2; exit 1; }
rm -rf "$TRACE_STORE"

echo "== farm-load-smoke (keep-alive burst) =="
# One daemon with a journal, four concurrent keep-alive clients pushing a
# mixed batch/single burst through the multiplexed server. The farm-load
# subcommand itself exits non-zero on any dropped request or a failed
# drain; on top of that, /metrics must show connection reuse and strictly
# fewer group-committed journal fsyncs than journaled transitions
# (one enqueue + one terminal per job, one start per compute).
LOAD_DIR="$PWD/target/ci-farm-load"
LOAD_LOG="$PWD/target/ci-farm-load.log"
LOAD_OUT="$PWD/target/ci-farm-load-out.log"
rm -rf "$LOAD_DIR"
"${RUNNER[@]}" serve --farm-listen 127.0.0.1:0 --workers 2 --queue-capacity 64 \
  --farm-dir "$LOAD_DIR" > "$LOAD_LOG" 2>&1 &
LOAD_PID=$!
LOAD_ADDR=""
for _ in $(seq 1 100); do
  LOAD_ADDR=$(sed -n 's/^farm: listening on \([0-9.:]*\).*/\1/p' "$LOAD_LOG" | head -n1)
  [ -n "$LOAD_ADDR" ] && break
  kill -0 "$LOAD_PID" 2>/dev/null || { cat "$LOAD_LOG" >&2; echo "farm-load-smoke: daemon died before binding" >&2; exit 1; }
  sleep 0.1
done
[ -n "$LOAD_ADDR" ] || { cat "$LOAD_LOG" >&2; echo "farm-load-smoke: no listening line" >&2; exit 1; }
"${RUNNER[@]}" farm-load --farm "$LOAD_ADDR" --clients 4 --jobs 24 \
  -p demo-matrix-1,demo-matrix-2 --slice-base 4000 > "$LOAD_OUT" 2>&1 \
  || { cat "$LOAD_OUT" >&2; echo "farm-load-smoke: burst dropped requests or failed to drain" >&2; exit 1; }
grep -Eq 'farm-load: jobs=24 accepted=24 dropped=0 .* drained=true' "$LOAD_OUT" \
  || { cat "$LOAD_OUT" >&2; echo "farm-load-smoke: bad summary line" >&2; exit 1; }
LOAD_METRICS=$(curl -sf --max-time 5 "http://$LOAD_ADDR/metrics")
echo "$LOAD_METRICS" | grep -Eq '^serve_http_keepalive_reuses [1-9][0-9]*$' \
  || { echo "$LOAD_METRICS" | grep '^serve_' >&2; echo "farm-load-smoke: no keep-alive reuse" >&2; exit 1; }
echo "$LOAD_METRICS" | python3 -c "
import sys
m = dict(l.split() for l in sys.stdin if l[:1].isalpha())
fsyncs = int(m['farm_journal_fsyncs'])
transitions = 2 * int(m['farm_done']) + int(m['farm_computes'])
assert fsyncs >= 1, 'journal never fsynced'
assert fsyncs < transitions, f'group commit did not batch: {fsyncs} fsyncs / {transitions} transitions'
print(f'farm-load-smoke: {fsyncs} fsyncs for {transitions} transitions')
" || { echo "farm-load-smoke: journal group-commit gate failed" >&2; exit 1; }
"${RUNNER[@]}" shutdown --farm "$LOAD_ADDR" > /dev/null \
  || { echo "farm-load-smoke: shutdown request failed" >&2; exit 1; }
wait "$LOAD_PID" || { cat "$LOAD_LOG" >&2; echo "farm-load-smoke: daemon exited non-zero" >&2; exit 1; }
rm -rf "$LOAD_DIR"

echo "== cluster-smoke (3-node ring, dedup, failover) =="
# Three real daemon processes form a consistent-hash ring over one shared
# --store-dir. Asserts the three cluster claims end to end: (1) the same
# spec submitted to all three nodes forwards to its key owner and
# computes exactly once cluster-wide, and a non-owner made to run it
# anyway reads the owner's result from the shared store, (2) forwarded
# ids are minted from the owner's id range, and (3) after kill -9 on a
# node with a journaled queue, the agreed survivor re-adopts every
# accepted job under its original id, completes it, and quarantines the
# dead journal.
CLUSTER_ROOT="$PWD/target/ci-cluster"
rm -rf "$CLUSTER_ROOT"
mkdir -p "$CLUSTER_ROOT"
read -r CL_PORT_A CL_PORT_B CL_PORT_C <<<"$(python3 - <<'PY'
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks: s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in socks))
for s in socks: s.close()
PY
)"
CL_ADDR_A="127.0.0.1:$CL_PORT_A"; CL_ADDR_B="127.0.0.1:$CL_PORT_B"; CL_ADDR_C="127.0.0.1:$CL_PORT_C"
CL_DIR_A="$CLUSTER_ROOT/a"; CL_DIR_B="$CLUSTER_ROOT/b"; CL_DIR_C="$CLUSTER_ROOT/c"
cluster_node() { # self-addr self-dir peer1 dir1 peer2 dir2 log
  "${RUNNER[@]}" serve --node-addr "$1" --farm-dir "$2" --store-dir "$CLUSTER_ROOT/store" \
    --workers 1 --heartbeat-ms 100 --failure-threshold 3 --history-interval-ms 100 \
    --cluster-peer "$3=$4" --cluster-peer "$5=$6" > "$7" 2>&1 &
}
cluster_node "$CL_ADDR_A" "$CL_DIR_A" "$CL_ADDR_B" "$CL_DIR_B" "$CL_ADDR_C" "$CL_DIR_C" "$CLUSTER_ROOT/a.log"; CL_PID_A=$!
cluster_node "$CL_ADDR_B" "$CL_DIR_B" "$CL_ADDR_A" "$CL_DIR_A" "$CL_ADDR_C" "$CL_DIR_C" "$CLUSTER_ROOT/b.log"; CL_PID_B=$!
cluster_node "$CL_ADDR_C" "$CL_DIR_C" "$CL_ADDR_A" "$CL_DIR_A" "$CL_ADDR_B" "$CL_DIR_B" "$CLUSTER_ROOT/c.log"; CL_PID_C=$!
for node in a b c; do
  ok=""
  for _ in $(seq 1 150); do
    grep -q '^cluster: node .* in a 3-member ring' "$CLUSTER_ROOT/$node.log" && { ok=1; break; }
    sleep 0.1
  done
  [ -n "$ok" ] || { cat "$CLUSTER_ROOT/$node.log" >&2; echo "cluster-smoke: node $node never formed the ring" >&2; exit 1; }
done
# (1)+(2): one spec, three tenants, one compute, owner-range ids.
for addr in "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C"; do
  "${RUNNER[@]}" submit --farm "$addr" -p demo-matrix-1 --slice-base 4000 --wait \
    >> "$CLUSTER_ROOT/submit.log" 2>&1 \
    || { cat "$CLUSTER_ROOT/submit.log" >&2; echo "cluster-smoke: submit to $addr failed" >&2; exit 1; }
done
grep -q '"forwarded_to"' "$CLUSTER_ROOT/submit.log" \
  || { cat "$CLUSTER_ROOT/submit.log" >&2; echo "cluster-smoke: no submission was forwarded to the key owner" >&2; exit 1; }
cl_sum() { # METRIC ADDR...: a /metrics counter summed over the nodes
  local metric=$1 addr
  shift
  for addr in "$@"; do
    curl -sf --max-time 5 "http://$addr/metrics" | sed -n "s/^$metric \([0-9]*\)$/\1/p"
  done | awk '{s+=$1} END {print s+0}'
}
CL_COMPUTES=$(cl_sum farm_computes "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C")
[ "$CL_COMPUTES" = "1" ] || { echo "cluster-smoke: expected 1 cluster-wide compute, got $CL_COMPUTES" >&2; exit 1; }
python3 - "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C" "$CLUSTER_ROOT/submit.log" <<'PY'
import json, sys
addrs = sorted(sys.argv[1:4], key=lambda a: (a.split(":")[0], int(a.split(":")[1])))
outcomes = [json.loads(l) for l in open(sys.argv[4]) if l.strip().startswith("{")]
fwd = [o for o in outcomes if o.get("forwarded_to")]
assert fwd, "no forwarded outcome recorded"
for o in fwd:
    want = addrs.index(o["forwarded_to"]) + 1
    got = o["id"] >> 40
    assert got == want, f"id {o['id']} range {got} != owner ordinal {want}"
print(f"cluster-smoke: 1 compute for 3 tenants, {len(fwd)} forwarded in owner id range")
PY
# (1), the shared store: pin the same spec onto a non-owner (the
# forwarded marker bypasses ring forwarding). Its worker runs the job,
# but the pipeline's first step, the summary load, hits the file the
# owner wrote, so no node records a new store miss.
read -r CL_OWNER CL_SPEC <<<"$(python3 - "$CLUSTER_ROOT/submit.log" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip().startswith("{")]
owner = next(o["forwarded_to"] for o in lines if o.get("forwarded_to"))
print(owner, json.dumps(next(r["spec"] for r in lines if "spec" in r), separators=(",", ":")))
PY
)"
for addr in "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C"; do
  [ "$addr" != "$CL_OWNER" ] && { CL_PIN=$addr; break; }
done
CL_MISSES=$(cl_sum store_miss "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C")
CL_PIN_HITS=$(cl_sum store_hit "$CL_PIN")
CL_PIN_ID=$(curl -sf --max-time 10 -H 'x-lp-forwarded: 1' \
  --data-binary "$CL_SPEC" \
  "http://$CL_PIN/jobs" | python3 -c 'import json, sys; print(json.loads(sys.stdin.readline())["id"])') \
  || { echo "cluster-smoke: pinned duplicate to $CL_PIN failed" >&2; exit 1; }
python3 - "$CL_PIN" "$CL_PIN_ID" <<'PY' || { echo "cluster-smoke: pinned duplicate $CL_PIN_ID did not finish" >&2; exit 1; }
import json, sys, time, urllib.request
addr, job = sys.argv[1], sys.argv[2]
for _ in range(150):
    body = urllib.request.urlopen(f"http://{addr}/jobs/{job}", timeout=5).read().decode()
    rec = json.loads(body.strip().splitlines()[-1])
    if rec["state"] in ("done", "failed", "cancelled"):
        break
    time.sleep(0.1)
assert rec["state"] == "done", rec
PY
CL_MISSES_AFTER=$(cl_sum store_miss "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C")
CL_PIN_HITS_AFTER=$(cl_sum store_hit "$CL_PIN")
[ "$CL_MISSES_AFTER" = "$CL_MISSES" ] && [ "$CL_PIN_HITS_AFTER" -gt "$CL_PIN_HITS" ] \
  || { echo "cluster-smoke: pinned duplicate on $CL_PIN recomputed (store misses $CL_MISSES -> $CL_MISSES_AFTER, hits there $CL_PIN_HITS -> $CL_PIN_HITS_AFTER)" >&2; exit 1; }
echo "cluster-smoke: pinned duplicate on non-owner $CL_PIN served from the shared store (0 new misses)"
# Observability plane, checked while the ring is still three nodes
# wide: the federated rollup is the exact sum of the per-node counters,
# the Prometheus rendering labels every node, each node serves >= 2
# time-series samples, a non-owner proxies /jobs/{id}/trace to the id's
# home node, the cluster-assembled trace holds the submitter's forward
# span and the owner's job root in one document, and two frames of the
# top dashboard render every node row.
curl -sf --max-time 10 "http://$CL_ADDR_A/cluster/metrics" > "$CLUSTER_ROOT/federated.json" \
  || { echo "cluster-smoke: GET /cluster/metrics failed" >&2; exit 1; }
python3 - "$CLUSTER_ROOT/federated.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    j = json.load(f)
assert len(j["nodes"]) == 3, f"expected 3 federated nodes, got {len(j['nodes'])}"
assert not j["errors"], f"federation errors: {j['errors']}"
per_node = [n["metrics"]["counters"].get("farm.submitted", 0) for n in j["nodes"]]
total = j["rollup"]["counters"]["farm.submitted"]
assert total == sum(per_node) >= 3, f"rollup {total} != sum of per-node {per_node}"
ords = sorted(n["ordinal"] for n in j["nodes"])
assert ords == [0, 1, 2], f"bad node ordinals {ords}"
print(f"cluster-smoke: federated farm.submitted rollup {total} == sum{per_node}")
PY
CL_FED_PROM=$(curl -sf --max-time 10 "http://$CL_ADDR_B/cluster/metrics?format=prometheus") \
  || { echo "cluster-smoke: federated Prometheus scrape failed" >&2; exit 1; }
for addr in "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C"; do
  echo "$CL_FED_PROM" | grep -q "cluster_peers_alive{node=\"$addr\"}" \
    || { echo "cluster-smoke: federated Prometheus lacks node label $addr" >&2; exit 1; }
done
echo "$CL_FED_PROM" | grep -q '^farm_submitted{node="' \
  || { echo "cluster-smoke: no labelled farm_submitted series" >&2; exit 1; }
echo "$CL_FED_PROM" | grep -Eq '^farm_submitted [0-9]+$' \
  || { echo "cluster-smoke: no unlabelled farm_submitted rollup line" >&2; exit 1; }
for addr in "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C"; do
  CL_HIST_N=$(curl -sf --max-time 5 "http://$addr/metrics/history?since=0" | grep -c '"seq"' || true)
  [ "$CL_HIST_N" -ge 2 ] || { echo "cluster-smoke: $addr served $CL_HIST_N history samples, want >= 2" >&2; exit 1; }
done
read -r CL_FWD_ID CL_FWD_OWNER CL_FWD_TRACE <<<"$(python3 - "$CLUSTER_ROOT/submit.log" <<'PY'
import json, sys
outcomes = [json.loads(l) for l in open(sys.argv[1]) if l.strip().startswith("{")]
o = next(o for o in outcomes if o.get("forwarded_to"))
print(o["id"], o["forwarded_to"], o["trace_id"])
PY
)"
CL_PROXY_VIA=""
for addr in "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C"; do
  [ "$addr" != "$CL_FWD_OWNER" ] && { CL_PROXY_VIA=$addr; break; }
done
curl -sf --max-time 10 "http://$CL_PROXY_VIA/jobs/$CL_FWD_ID/trace" | python3 -c "
import json, sys
evs = json.load(sys.stdin)['traceEvents']
assert any(e['name'] == 'farm.job' for e in evs), 'proxied trace lacks the farm.job root'
print(f'cluster-smoke: non-owner proxied job $CL_FWD_ID trace ({len(evs)} events) from $CL_FWD_OWNER')
" || { echo "cluster-smoke: proxied /jobs/$CL_FWD_ID/trace via $CL_PROXY_VIA failed" >&2; exit 1; }
CL_TRACE_OK=""
for _ in $(seq 1 50); do
  if curl -sf --max-time 10 "http://$CL_ADDR_A/cluster/trace/$CL_FWD_TRACE" \
      > "$CLUSTER_ROOT/merged-trace.json" 2>/dev/null \
    && python3 - "$CLUSTER_ROOT/merged-trace.json" <<'PY' 2>/dev/null
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
evs = doc["traceEvents"]
names = {e["name"] for e in evs}
assert "cluster.forward" in names and "farm.job" in names, sorted(names)
assert doc["otherData"]["nodes"] >= 2, doc["otherData"]
pids = {e["pid"] for e in evs if e["name"] in ("cluster.forward", "farm.job")}
assert len(pids) == 2, f"forward and job root should sit in different node lanes: {pids}"
PY
  then CL_TRACE_OK=1; break; fi
  sleep 0.2
done
[ -n "$CL_TRACE_OK" ] || { cat "$CLUSTER_ROOT/merged-trace.json" >&2; \
  echo "cluster-smoke: merged /cluster/trace/$CL_FWD_TRACE never spanned 2 nodes" >&2; exit 1; }
CL_TOP=$("${RUNNER[@]}" top --farm "$CL_ADDR_A" --iterations 2 --interval-ms 200) \
  || { echo "cluster-smoke: top dashboard exited non-zero" >&2; exit 1; }
echo "$CL_TOP" | grep -q 'lp-farm top — 3 nodes' \
  || { echo "$CL_TOP" >&2; echo "cluster-smoke: top header missing" >&2; exit 1; }
for addr in "$CL_ADDR_A" "$CL_ADDR_B" "$CL_ADDR_C"; do
  echo "$CL_TOP" | grep -q "$addr" \
    || { echo "$CL_TOP" >&2; echo "cluster-smoke: top lacks a row for $addr" >&2; exit 1; }
done
# (3): pin eight unique jobs onto C (forwarded marker bypasses ring
# forwarding), SIGKILL it the moment the 202 lands — acceptance implies
# the batch is durable in C's journal, and one worker cannot have
# drained eight pipeline runs yet.
CL_BODY=""
for sb in 6100 6200 6300 6400 6500 6600 6700 6800; do
  CL_BODY+="{\"program\": \"demo-matrix-2\", \"slice_base\": $sb}"$'\n'
done
curl -sf --max-time 10 -H 'x-lp-forwarded: 1' --data-binary "$CL_BODY" \
  "http://$CL_ADDR_C/jobs" > "$CLUSTER_ROOT/kill-submit.ndjson" \
  || { echo "cluster-smoke: pinned burst to node C failed" >&2; exit 1; }
kill -9 "$CL_PID_C"
CL_IDS=$(python3 -c "
import json
print(' '.join(str(json.loads(l)['id']) for l in open('$CLUSTER_ROOT/kill-submit.ndjson') if l.strip()))
")
CL_DONE=""
for _ in $(seq 1 300); do
  all_done=1
  for id in $CL_IDS; do
    state=$(for addr in "$CL_ADDR_A" "$CL_ADDR_B"; do
      curl -sf --max-time 5 "http://$addr/jobs/$id" 2>/dev/null | python3 -c 'import json,sys
try: print(json.load(sys.stdin).get("state",""))
except Exception: pass' 2>/dev/null
    done | grep -m1 done || true)
    [ "$state" = "done" ] || { all_done=0; break; }
  done
  [ "$all_done" = "1" ] && { CL_DONE=1; break; }
  sleep 0.2
done
[ -n "$CL_DONE" ] || { cat "$CLUSTER_ROOT"/a.log "$CLUSTER_ROOT"/b.log >&2; echo "cluster-smoke: adopted jobs did not complete on a survivor" >&2; exit 1; }
CL_ADOPTED=$(for addr in "$CL_ADDR_A" "$CL_ADDR_B"; do
  curl -sf --max-time 5 "http://$addr/metrics" | sed -n 's/^cluster_adopted \([0-9]*\)$/\1/p'
done | awk '{s+=$1} END {print s+0}')
[ "$CL_ADOPTED" -ge 1 ] || { echo "cluster-smoke: no survivor adopted the dead queue (cluster_adopted=$CL_ADOPTED)" >&2; exit 1; }
ls "$CL_DIR_C"/*.adopted >/dev/null 2>&1 \
  || { ls -la "$CL_DIR_C" >&2; echo "cluster-smoke: dead journal not quarantined" >&2; exit 1; }
curl -sf --max-time 5 "http://$CL_ADDR_A/cluster/healthz" | python3 -c '
import json, sys
h = json.load(sys.stdin)
assert h["ring_nodes"] == 2, h
assert h["peers_dead"] == 1, h
print("cluster-smoke: all adopted jobs done; ring rebalanced to 2 nodes, 1 dead peer")'
"${RUNNER[@]}" shutdown --farm "$CL_ADDR_A" > /dev/null \
  || { echo "cluster-smoke: node A shutdown failed" >&2; exit 1; }
"${RUNNER[@]}" shutdown --farm "$CL_ADDR_B" > /dev/null \
  || { echo "cluster-smoke: node B shutdown failed" >&2; exit 1; }
wait "$CL_PID_A" || { cat "$CLUSTER_ROOT/a.log" >&2; echo "cluster-smoke: node A exited non-zero" >&2; exit 1; }
wait "$CL_PID_B" || { cat "$CLUSTER_ROOT/b.log" >&2; echo "cluster-smoke: node B exited non-zero" >&2; exit 1; }
wait "$CL_PID_C" 2>/dev/null || true
rm -rf "$CLUSTER_ROOT"

echo "== live-smoke (one-pass online sampling) =="
# One-pass live run with no profiling prequel: the acceptance workload
# must finish with fewer than 40% of its regions simulated in detail
# (i.e. most regions predicted online, never 100% detailed) and a final
# cycle estimate within the pinned 10% error bound of the full-detail
# reference the subcommand computes alongside it. The same run writes its
# accuracy report: diag-smoke's checks hold on it, and its prediction is
# the summary's estimate, bit for bit (one estimator). Its region-start
# timing checkpoints copy only the cache chunks the hierarchy has filled:
# a count that repeats exactly, 27.1 % of the dense model here (100 % when
# every checkpoint was a dense clone), gated below 35 %.
LIVE_LOG="$PWD/target/ci-live.log"
LIVE_DIAG_OUT="$PWD/target/ci-live-diag.json"
"${RUNNER[@]}" live -p npb-cg -n 2 --slice-base 2000 --log-level quiet \
  --diag-report "$LIVE_DIAG_OUT" > "$LIVE_LOG" 2>&1 \
  || { cat "$LIVE_LOG" >&2; echo "live-smoke: live run failed" >&2; exit 1; }
check_diag_reports "$LIVE_DIAG_OUT" 1
grep '^{' "$LIVE_LOG" | tail -n1 | python3 -c "
import json, sys
j = json.loads(sys.stdin.read())
with open(sys.argv[1]) as f:
    report = json.load(f)[0]
assert report['predicted_cycles'] == j['est_cycles'], \
    f'live report predicts {report[\"predicted_cycles\"]!r}, summary estimates {j[\"est_cycles\"]!r}'
assert j['mode'] == 'live', j
assert j['regions'] > 0 and j['clusters'] > 0, j
assert 0 < j['detailed_regions'] < j['regions'], \
    f'live run must mix detail and prediction: {j[\"detailed_regions\"]}/{j[\"regions\"]}'
assert j['detailed_pct'] < 0.40, \
    f'detailed fraction {j[\"detailed_pct\"]:.3f} breaches the 40% ceiling'
assert j['err_pct'] < 10.0, \
    f'live estimate error {j[\"err_pct\"]:.2f}% breaches the pinned 10% bound'
copied = j['checkpoint_kib'] / j['checkpoint_dense_kib']
assert copied < 0.35, \
    f'timing checkpoints copied {copied:.3f} of the dense model, over the 0.35 ceiling'
print(f'live-smoke: {j[\"detailed_regions\"]}/{j[\"regions\"]} regions detailed '
      f'({j[\"detailed_pct\"]*100:.1f}%), err {j[\"err_pct\"]:.2f}% vs full detail, '
      f'checkpoints copy {copied*100:.1f}% of the dense model')
" "$LIVE_DIAG_OUT" || { cat "$LIVE_LOG" >&2; echo "live-smoke: acceptance gate failed" >&2; exit 1; }

echo "== bench-smoke (live sampling) =="
# Quick variant of the live-sampling benchmark (full detail vs two-phase
# vs live on one workload); validate the JSON schema here. Writes to
# target/ so the committed baseline BENCH_live.json is not clobbered.
LIVE_SMOKE_OUT="$PWD/target/BENCH_live.smoke.json"
cargo bench --offline -p lp-bench --bench live_sampling -- --smoke --out "$LIVE_SMOKE_OUT"
[ -s "$LIVE_SMOKE_OUT" ] || { echo "live-bench-smoke: $LIVE_SMOKE_OUT missing or empty" >&2; exit 1; }
for key in slice_base rows smoke workload full two_phase live \
            est_cycles err_pct detailed_regions detailed_pct predicted_cycles; do
  grep -q "\"$key\"" "$LIVE_SMOKE_OUT" || { echo "live-bench-smoke: missing key $key" >&2; exit 1; }
done
# And the committed full-scale baseline keeps the live-mode claims: every
# workload's live estimate within the 10% bound with a sub-100% detailed
# fraction, and the acceptance workload under the 40% ceiling.
python3 - <<'PY'
import json, sys
with open("BENCH_live.json") as f:
    j = json.load(f)
if j.get("smoke"):
    sys.exit("BENCH_live.json: committed baseline must be a full run")
rows = j["rows"]
if len(rows) < 3:
    sys.exit(f"BENCH_live.json: expected >= 3 workloads, got {len(rows)}")
for r in rows:
    live = r["live"]
    if not 0 < live["detailed_regions"] < live["regions"]:
        sys.exit(f"BENCH_live.json: {r['workload']} live run did not mix detail and prediction")
    if live["err_pct"] >= 10.0:
        sys.exit(f"BENCH_live.json: {r['workload']} live err {live['err_pct']}% >= 10%")
cg = next((r for r in rows if r["workload"] == "npb-cg"), None)
if cg is None:
    sys.exit("BENCH_live.json: acceptance workload npb-cg missing")
if cg["live"]["detailed_pct"] >= 0.40:
    sys.exit(f"BENCH_live.json: npb-cg detailed fraction {cg['live']['detailed_pct']} >= 40%")
PY

echo "== loc (informational) =="
# Tracked .rs lines per crate, library source against tests + benches (+
# examples for the root package): the trend ROADMAP item 3 ("One pipeline,
# less code") asks for, as one table. Never fails the gate.
{
  rs_lines() { git ls-files -z -- "$@" | xargs -0 -r cat | wc -l; }
  SRC_TOTAL=0
  ALL_TOTAL=0
  # row NAME SRC_PATHSPEC ALL_PATHSPEC...
  row() {
    local name=$1 src all
    src=$(rs_lines "$2")
    shift 2
    all=$(rs_lines "$@")
    printf '%-16s %8d %14d\n' "$name" "$src" "$((all - src))"
    SRC_TOTAL=$((SRC_TOTAL + src))
    ALL_TOTAL=$((ALL_TOTAL + all))
  }
  printf '%-16s %8s %14s\n' package src tests+benches
  for dir in crates/*; do
    row "$(basename "$dir")" "$dir/src/*.rs" "$dir/*.rs"
  done
  row "(root)" 'src/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs'
  printf '%-16s %8d %14d   (all: %d)\n' total "$SRC_TOTAL" "$((ALL_TOTAL - SRC_TOTAL))" "$ALL_TOTAL"
} || echo "loc: skipped (not a git checkout?)"

echo "CI green."
