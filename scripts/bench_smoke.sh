#!/usr/bin/env bash
# Smoke test for the parallel sweep engine (tier-1, wired into ctest).
#
# Runs a tiny fig2 sweep with per-interval records on 2 threads, then
# counts its records by type. Also re-runs on 1 thread and asserts the
# output is byte-identical — the engine's core determinism guarantee.
# Malformed sweep numbers (NaN, trailing text, a negative count) must be
# rejected at parse time, naming the flag.
#
# Field names of the simulator's JSONL records are not checked here: the
# MetricsSchema tests (tests/sim/metrics_sink_test.cpp) check the formatter's
# field tables against every conditional group and against
# docs/metrics_schema.md. This script checks record counts, lifecycles and
# values carried through.
#
# When a bench_victim_select binary is passed as the second argument, its
# timing records are schema-validated too and the indexed-vs-scan speedups
# are reported (the metrics go to stdout as JSONL for the sink; no hard
# ratio gate here — machine load would make that flaky in CI).
#
# When a jitgc_cli binary is passed as the third argument, a 4-device array
# run exercises both GC modes, asserts byte-identical output across --jobs 1
# and --jobs 4 and across re-runs, and counts the array_interval /
# device_interval records. A second, fault-
# injected parity cell kills one device mid-run and validates the full
# degraded -> rebuilding -> restored lifecycle: array_state / rebuild_progress
# records and the failure/rebuild counts on the run record — again
# byte-identical across thread counts. Malformed array flags
# must be rejected with enumerated messages.
#
# When a sim_throughput binary is passed as the fourth argument, the absolute
# throughput cells run too: records are schema-validated and, when the
# recorded baseline JSONL is passed as the seventh argument, the 8-device
# array throughput ratio is gated against a regression floor
# (JITGC_MIN_SIM_SPEEDUP, default 0.5 — relaxed for shared CI runners).
#
# When a precondition_reuse binary is passed as the fifth argument, the
# warm-state snapshot bench runs and its records are schema-validated; when
# the baseline is passed too, its cold/warm speedup is gated against
# JITGC_MIN_SNAPSHOT_SPEEDUP (default 2.0; dev-box measurement is >10x).
#
# Both wall-clock gates are calibrated for optimised builds: builds they do
# not hold for (Debug, sanitizers) omit the baseline, and both benches still
# run and are schema-checked, without a gate.
#
# A sweep-level cold-miss -> warm-hit smoke (second --snapshot-cache sweep
# restores from disk and matches the cold output byte-for-byte after
# stripping the wall-clock snapshot fields) and corrupt-cache-file fallback
# checks run whenever the sweep binary alone is available.
#
# The multi-tenant front-end smoke always runs against the sweep binary
# (tenant_interval counts, weights and QoS targets carried into the run-level
# tenants[] block, threads 1 vs 2 byte-identical); with a jitgc_cli binary
# the tenant CLI path runs too (array --jobs 1 vs 4 determinism, enumerated
# rejections for malformed --tenant-* flags). When a tenant_isolation binary
# is passed as the sixth argument, the noisy-neighbor cell runs and its
# isolation ratio is gated against JITGC_MIN_ISOLATION_RATIO (default 0.5 —
# deliberately relaxed for short CI cells; dev-box measurement at full
# duration is > 1).
#
# Usage: bench_smoke.sh <jitgc_sweep> [bench_victim_select] [jitgc_cli]
#                       [sim_throughput] [precondition_reuse] [tenant_isolation]
#                       [throughput_baseline.jsonl]
set -euo pipefail

SWEEP_BIN=${1:?usage: bench_smoke.sh <jitgc_sweep> [bench_victim_select] [jitgc_cli] [sim_throughput] [precondition_reuse] [tenant_isolation] [baseline.jsonl]}
VICTIM_BENCH_BIN=${2:-}
CLI_BIN=${3:-}
SIM_THROUGHPUT_BIN=${4:-}
PRECOND_BENCH_BIN=${5:-}
TENANT_BENCH_BIN=${6:-}
THROUGHPUT_BASELINE=${7:-}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# Removes the cache-only run fields (wall-clock, inherently nondeterministic)
# so cache-attached output can be byte-compared against cache-less output.
strip_snapshot_fields() {
  sed -E 's/,"snapshot":"[a-z_]+","precondition_wall_s":[0-9eE.+-]+\}$/}/' "$1"
}

# Asserts `file` holds exactly the given records per type (type=count ...)
# and no record of any other type.
expect_record_counts() {
  local file=$1 total=0 pair type want got
  shift
  for pair in "$@"; do
    type=${pair%=*}
    want=${pair#*=}
    got=$(grep -c "^{\"type\":\"$type\"" "$file" || true)
    if [ "$got" -ne "$want" ]; then
      echo "FAIL: $file has $got $type records, expected $want" >&2
      exit 1
    fi
    total=$((total + want))
  done
  if [ "$(wc -l < "$file")" -ne "$total" ]; then
    echo "FAIL: $file has records of an unexpected type" >&2
    exit 1
  fi
}

# Malformed numbers are rejected at parse time, before any run or thread
# exists, with a message naming the flag; a count beyond its 32-bit field
# is refused, never wrapped.
for bad in --seconds=nan --seconds=10abc --seeds=-1 --spare-blocks=4294967552 \
    --tenants=4294967296; do
  if "$SWEEP_BIN" --matrix=fig2 --workload=ycsb "$bad" > /dev/null 2> "$WORKDIR/err.txt"; then
    echo "FAIL: jitgc_sweep accepted $bad" >&2
    exit 1
  fi
  if ! head -n 1 "$WORKDIR/err.txt" | grep -q -- "${bad%%=*}"; then
    echo "FAIL: rejection of $bad does not name the flag:" >&2
    cat "$WORKDIR/err.txt" >&2
    exit 1
  fi
done
echo "bench_smoke: malformed sweep numbers rejected, naming the flag"

ARGS=(--matrix=fig2 --workload=ycsb --seconds=10 --seeds=1 --intervals)

"$SWEEP_BIN" "${ARGS[@]}" --threads=2 > "$WORKDIR/t2.jsonl"
"$SWEEP_BIN" "${ARGS[@]}" --threads=1 > "$WORKDIR/t1.jsonl"

if ! cmp -s "$WORKDIR/t1.jsonl" "$WORKDIR/t2.jsonl"; then
  echo "FAIL: sweep output differs between --threads=1 and --threads=2" >&2
  diff "$WORKDIR/t1.jsonl" "$WORKDIR/t2.jsonl" >&2 || true
  exit 1
fi

# fig2 x ycsb = 3 fixed-reserve cells; 10 s at p=5 s = 2 intervals per run,
# and no fault records in a fault-free sweep.
expect_record_counts "$WORKDIR/t2.jsonl" run=3 interval=6
echo "bench_smoke: OK (3 runs, 6 interval records)"

# -- Fault injection: deterministic across thread counts ------------------------
FAULT_ARGS=("${ARGS[@]}" --fault-program=0.0001 --fault-erase=0.001 --spare-blocks=8)
"$SWEEP_BIN" "${FAULT_ARGS[@]}" --threads=2 > "$WORKDIR/f2.jsonl"
"$SWEEP_BIN" "${FAULT_ARGS[@]}" --threads=1 > "$WORKDIR/f1.jsonl"
if ! cmp -s "$WORKDIR/f1.jsonl" "$WORKDIR/f2.jsonl"; then
  echo "FAIL: fault-injected sweep differs between --threads=1 and --threads=2" >&2
  diff "$WORKDIR/f1.jsonl" "$WORKDIR/f2.jsonl" >&2 || true
  exit 1
fi
echo "bench_smoke: fault-injected sweep deterministic across thread counts"

# -- Checkpoint / resume: interrupted sweep reproduces the same bytes ----------
"$SWEEP_BIN" "${ARGS[@]}" --threads=2 --checkpoint="$WORKDIR/ckpt" > "$WORKDIR/full.jsonl"
cmp "$WORKDIR/full.jsonl" "$WORKDIR/t2.jsonl"   # checkpointing changes nothing
rm "$WORKDIR/ckpt/run_000001"                    # simulate a kill mid-sweep
"$SWEEP_BIN" "${ARGS[@]}" --threads=2 --checkpoint="$WORKDIR/ckpt" --resume \
  > "$WORKDIR/resumed.jsonl"
if ! cmp -s "$WORKDIR/resumed.jsonl" "$WORKDIR/full.jsonl"; then
  echo "FAIL: resumed sweep output differs from the uninterrupted run" >&2
  diff "$WORKDIR/full.jsonl" "$WORKDIR/resumed.jsonl" >&2 || true
  exit 1
fi
echo "bench_smoke: killed-then-resumed sweep is byte-identical"

# -- Warm-state snapshots: cold miss fills the cache, warm hit restores --------
SNAPDIR="$WORKDIR/snapcache"
"$SWEEP_BIN" "${ARGS[@]}" --threads=2 --snapshot-cache="$SNAPDIR" > "$WORKDIR/snap_cold.jsonl"
if ! grep -q '"snapshot":"cold"' "$WORKDIR/snap_cold.jsonl"; then
  echo "FAIL: first --snapshot-cache sweep did not report cold preconditioning" >&2
  exit 1
fi
strip_snapshot_fields "$WORKDIR/snap_cold.jsonl" > "$WORKDIR/snap_cold_stripped.jsonl"
if ! cmp -s "$WORKDIR/snap_cold_stripped.jsonl" "$WORKDIR/t2.jsonl"; then
  echo "FAIL: cache-filling sweep output differs from the cache-less sweep" >&2
  diff "$WORKDIR/t2.jsonl" "$WORKDIR/snap_cold_stripped.jsonl" >&2 || true
  exit 1
fi
"$SWEEP_BIN" "${ARGS[@]}" --threads=2 --snapshot-cache="$SNAPDIR" > "$WORKDIR/snap_warm.jsonl"
if ! grep -q '"snapshot":"warm_disk"' "$WORKDIR/snap_warm.jsonl" ||
   grep -q '"snapshot":"cold"' "$WORKDIR/snap_warm.jsonl"; then
  echo "FAIL: second --snapshot-cache sweep did not restore every run from disk" >&2
  exit 1
fi
strip_snapshot_fields "$WORKDIR/snap_warm.jsonl" > "$WORKDIR/snap_warm_stripped.jsonl"
if ! cmp -s "$WORKDIR/snap_warm_stripped.jsonl" "$WORKDIR/t2.jsonl"; then
  echo "FAIL: warm-restored sweep output differs from the cold sweep" >&2
  diff "$WORKDIR/t2.jsonl" "$WORKDIR/snap_warm_stripped.jsonl" >&2 || true
  exit 1
fi
echo "bench_smoke: cold-miss -> warm-hit snapshot sweep is byte-identical"

# A truncated cache file must fall back to cold replay with a one-line
# warning — same bytes, never a crash.
FIRST_SNAP=$(ls "$SNAPDIR"/*.snap | head -n 1)
head -c 16 "$FIRST_SNAP" > "$FIRST_SNAP.tmp" && mv "$FIRST_SNAP.tmp" "$FIRST_SNAP"
"$SWEEP_BIN" "${ARGS[@]}" --threads=2 --snapshot-cache="$SNAPDIR" \
  > "$WORKDIR/snap_corrupt.jsonl" 2> "$WORKDIR/snap_corrupt.err"
if ! grep -q "falling back to cold preconditioning" "$WORKDIR/snap_corrupt.err"; then
  echo "FAIL: truncated snapshot file was not rejected with a warning" >&2
  cat "$WORKDIR/snap_corrupt.err" >&2
  exit 1
fi
strip_snapshot_fields "$WORKDIR/snap_corrupt.jsonl" > "$WORKDIR/snap_corrupt_stripped.jsonl"
if ! cmp -s "$WORKDIR/snap_corrupt_stripped.jsonl" "$WORKDIR/t2.jsonl"; then
  echo "FAIL: cold fallback after a corrupt snapshot changed the output" >&2
  exit 1
fi
echo "bench_smoke: corrupt snapshot file falls back to cold replay"

if [ -n "$VICTIM_BENCH_BIN" ]; then
  "$VICTIM_BENCH_BIN" > "$WORKDIR/victim.jsonl"
  cat "$WORKDIR/victim.jsonl"
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$WORKDIR/victim.jsonl" << 'EOF'
import json
import sys

BENCH_FIELDS = {"type", "name", "block_mult", "blocks", "ops_per_sec"}
SUMMARY_FIELDS = {"type", "name", "block_mult", "blocks", "speedup"}

benches = summaries = 0
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        rec = json.loads(line)
        kind = rec.get("type")
        expected = {"bench": BENCH_FIELDS, "bench_summary": SUMMARY_FIELDS}.get(kind)
        if expected is None:
            sys.exit(f"line {lineno}: unknown record type {kind!r}")
        if set(rec) != expected:
            sys.exit(f"line {lineno}: schema mismatch (got {sorted(rec)})")
        if kind == "bench":
            if rec["ops_per_sec"] <= 0:
                sys.exit(f"line {lineno}: non-positive ops_per_sec")
            benches += 1
        else:
            print(f"bench_smoke: victim-select speedup at {rec['blocks']} blocks: "
                  f"{rec['speedup']:.1f}x")
            summaries += 1
if benches != 6 or summaries != 3:
    sys.exit(f"expected 6 bench + 3 summary records, got {benches} + {summaries}")
print("bench_smoke: victim-select timing records OK")
EOF
  else
    [ "$(grep -c '"type":"bench"' "$WORKDIR/victim.jsonl")" -eq 6 ]
    [ "$(grep -c '"type":"bench_summary"' "$WORKDIR/victim.jsonl")" -eq 3 ]
    echo "bench_smoke: victim-select timing records OK (grep fallback)"
  fi
fi

# -- Multi-SSD array: deterministic across thread counts, record counts -------
if [ -n "$CLI_BIN" ]; then
  ARRAY_ARGS=(--workload=ycsb --seconds=30 --array-devices=4 --stripe-chunk=8)
  for mode in naive staggered; do
    "$CLI_BIN" "${ARRAY_ARGS[@]}" --array-gc-mode="$mode" --jobs=1 \
      --metrics="$WORKDIR/arr_${mode}_j1.jsonl" > "$WORKDIR/arr_${mode}_j1.txt"
    "$CLI_BIN" "${ARRAY_ARGS[@]}" --array-gc-mode="$mode" --jobs=4 \
      --metrics="$WORKDIR/arr_${mode}_j4.jsonl" > "$WORKDIR/arr_${mode}_j4.txt"
    if ! cmp -s "$WORKDIR/arr_${mode}_j1.jsonl" "$WORKDIR/arr_${mode}_j4.jsonl" ||
       ! cmp -s "$WORKDIR/arr_${mode}_j1.txt" "$WORKDIR/arr_${mode}_j4.txt"; then
      echo "FAIL: array ($mode) output differs between --jobs=1 and --jobs=4" >&2
      diff "$WORKDIR/arr_${mode}_j1.jsonl" "$WORKDIR/arr_${mode}_j4.jsonl" >&2 || true
      exit 1
    fi
  done
  # Re-run determinism: same seed, same bytes.
  "$CLI_BIN" "${ARRAY_ARGS[@]}" --array-gc-mode=staggered --jobs=4 \
    --metrics="$WORKDIR/arr_rerun.jsonl" > /dev/null
  if ! cmp -s "$WORKDIR/arr_staggered_j4.jsonl" "$WORKDIR/arr_rerun.jsonl"; then
    echo "FAIL: array re-run with the same seed is not byte-identical" >&2
    exit 1
  fi
  echo "bench_smoke: array runs deterministic across thread counts and re-runs"

  # 30 s at p=5 s = 6 ticks; one device record per device per tick.
  expect_record_counts "$WORKDIR/arr_staggered_j1.jsonl" \
    array_interval=6 device_interval=24 run=1
  [ "$(grep -c '"devices":4,' "$WORKDIR/arr_staggered_j1.jsonl")" -eq 6 ]
  echo "bench_smoke: array records OK (6 array + 24 device intervals)"

  # -- Redundant array: scripted kill, spare rebuild, lifecycle records --------
  # Small devices so the rebuild completes well inside the 30 s run; the kill
  # lands at t=10 s and the spare-driven reconstruction must reach "restored".
  REBUILD_ARGS=(--workload=ycsb --seconds=30 --blocks-per-plane=64
    --pages-per-block=64 --array-devices=4 --stripe-chunk=8
    --array-gc-mode=staggered --array-redundancy=parity --array-spares=1
    --array-kill-device=1 --array-kill-at=10)
  "$CLI_BIN" "${REBUILD_ARGS[@]}" --jobs=1 \
    --metrics="$WORKDIR/reb_j1.jsonl" > "$WORKDIR/reb_j1.txt"
  "$CLI_BIN" "${REBUILD_ARGS[@]}" --jobs=4 \
    --metrics="$WORKDIR/reb_j4.jsonl" > "$WORKDIR/reb_j4.txt"
  if ! cmp -s "$WORKDIR/reb_j1.jsonl" "$WORKDIR/reb_j4.jsonl" ||
     ! cmp -s "$WORKDIR/reb_j1.txt" "$WORKDIR/reb_j4.txt"; then
    echo "FAIL: rebuild run differs between --jobs=1 and --jobs=4" >&2
    diff "$WORKDIR/reb_j1.jsonl" "$WORKDIR/reb_j4.jsonl" >&2 || true
    exit 1
  fi
  echo "bench_smoke: parity rebuild deterministic across thread counts"

  if command -v python3 > /dev/null 2>&1; then
    python3 - "$WORKDIR/reb_j1.jsonl" << 'EOF'
import json
import sys

arrays = devices = states = progress = runs = 0
state_seq = []
last_progress = None
run_rec = None
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        rec = json.loads(line)
        kind = rec.get("type")
        if kind == "array_interval":
            # Redundant runs annotate every array interval with the volume state.
            if "state" not in rec:
                sys.exit(f"line {lineno}: redundant array interval lacks state")
            arrays += 1
        elif kind == "device_interval":
            devices += 1
        elif kind == "array_state":
            state_seq.append(rec["state"])
            states += 1
        elif kind == "rebuild_progress":
            if not 0.0 <= rec["progress"] <= 1.0:
                sys.exit(f"line {lineno}: progress {rec['progress']} outside [0,1]")
            if last_progress is not None and rec["progress"] < last_progress:
                sys.exit(f"line {lineno}: rebuild progress went backwards")
            last_progress = rec["progress"]
            progress += 1
        elif kind == "run":
            run_rec = rec
            runs += 1
        else:
            sys.exit(f"line {lineno}: unexpected record type {kind!r} in rebuild run")

if arrays != 6 or devices != 24 or runs != 1:
    sys.exit(f"unexpected record counts: {arrays} array intervals, "
             f"{devices} device intervals, {runs} runs")
if state_seq != ["degraded", "rebuilding", "restored"]:
    sys.exit(f"unexpected lifecycle {state_seq} "
             f"(want degraded -> rebuilding -> restored)")
if progress == 0 or last_progress != 1.0:
    sys.exit(f"rebuild progress incomplete ({progress} records, last {last_progress})")
if "run_end_reason" in run_rec:
    sys.exit(f"rebuild run should complete, got {run_rec['run_end_reason']!r}")
failures = run_rec.get("device_failures")
rebuilds = run_rec.get("rebuilds_completed")
if failures != 1 or rebuilds != 1:
    sys.exit(f"expected 1 failure / 1 rebuild, got {failures} / {rebuilds}")
print(f"bench_smoke: rebuild lifecycle OK ({states} state changes, "
      f"{progress} progress records)")
EOF
  else
    [ "$(grep -c '"type":"array_state"' "$WORKDIR/reb_j1.jsonl")" -eq 3 ]
    [ "$(grep -c '"type":"rebuild_progress"' "$WORKDIR/reb_j1.jsonl")" -ge 1 ]
    grep -q '"state":"restored"' "$WORKDIR/reb_j1.jsonl"
    grep -q '"rebuilds_completed":1' "$WORKDIR/reb_j1.jsonl"
    echo "bench_smoke: rebuild lifecycle OK (grep fallback)"
  fi

  # -- Malformed array flags are rejected with enumerated messages -------------
  # REJECT_MODE is the mode each flag is checked in: a flag of the other mode
  # is refused for that alone.
  REJECT_MODE=(--array-devices=4)
  expect_rejection() {
    local flag=$1 needle=$2
    if "$CLI_BIN" --workload=ycsb --seconds=5 "${REJECT_MODE[@]}" "$flag" \
        > /dev/null 2> "$WORKDIR/err.txt"; then
      echo "FAIL: jitgc_cli accepted $flag" >&2
      exit 1
    fi
    if ! grep -q "$needle" "$WORKDIR/err.txt"; then
      echo "FAIL: rejection for $flag lacks enumerated message:" >&2
      cat "$WORKDIR/err.txt" >&2
      exit 1
    fi
  }
  expect_rejection --array-redundancy=raid6 "none|mirror|parity"
  expect_rejection --array-gc-mode=psychic "naive|staggered|maxk"
  expect_rejection --rebuild-rate-floor=1.5 "rebuild-rate-floor"
  expect_rejection --engine=event "unknown option"
  echo "bench_smoke: malformed array flags rejected with enumerated messages"

  # -- Sudden power-off: single-SSD recovery, deterministic across re-runs -----
  # Two cuts land mid-run; every recovery must report zero lost mappings and
  # the checkpoint must bound the scan (used_checkpoint on every record).
  SPO_ARGS=(--workload=ycsb --seconds=30 --blocks-per-plane=64
    --pages-per-block=64 --spo-at=8 --spo-every=10 --checkpoint-every-erases=16)
  "$CLI_BIN" "${SPO_ARGS[@]}" --metrics="$WORKDIR/spo_a.jsonl" > /dev/null
  "$CLI_BIN" "${SPO_ARGS[@]}" --metrics="$WORKDIR/spo_b.jsonl" > /dev/null
  if ! cmp -s "$WORKDIR/spo_a.jsonl" "$WORKDIR/spo_b.jsonl"; then
    echo "FAIL: SPO run with the same seed is not byte-identical across re-runs" >&2
    diff "$WORKDIR/spo_a.jsonl" "$WORKDIR/spo_b.jsonl" >&2 || true
    exit 1
  fi
  [ "$(grep -c '"type":"recovery"' "$WORKDIR/spo_a.jsonl")" -eq 3 ]
  [ "$(grep -c '"used_checkpoint":true' "$WORKDIR/spo_a.jsonl")" -eq 3 ]
  if grep '"type":"recovery"' "$WORKDIR/spo_a.jsonl" | grep -qv '"lost_mappings":0'; then
    echo "FAIL: an SPO recovery lost acknowledged mappings" >&2
    exit 1
  fi
  grep -q '"spo_events":3' "$WORKDIR/spo_a.jsonl"
  grep -q '"integrity_stale_reads":0' "$WORKDIR/spo_a.jsonl"
  echo "bench_smoke: single-SSD SPO recovery OK (3 cuts, checkpointed, no losses)"

  # -- Sudden power-off against one mirror slot: suspend -> recover -> resume --
  ARRAY_SPO_ARGS=(--workload=ycsb --seconds=30 --blocks-per-plane=64
    --pages-per-block=64 --array-devices=4 --stripe-chunk=8
    --array-redundancy=mirror --array-spo-device=1 --array-spo-at=10)
  "$CLI_BIN" "${ARRAY_SPO_ARGS[@]}" --jobs=1 \
    --metrics="$WORKDIR/aspo_j1.jsonl" > /dev/null
  "$CLI_BIN" "${ARRAY_SPO_ARGS[@]}" --jobs=4 \
    --metrics="$WORKDIR/aspo_j4.jsonl" > /dev/null
  if ! cmp -s "$WORKDIR/aspo_j1.jsonl" "$WORKDIR/aspo_j4.jsonl"; then
    echo "FAIL: array SPO run differs between --jobs=1 and --jobs=4" >&2
    diff "$WORKDIR/aspo_j1.jsonl" "$WORKDIR/aspo_j4.jsonl" >&2 || true
    exit 1
  fi
  grep -q '"state":"suspended"' "$WORKDIR/aspo_j1.jsonl"
  grep -q '"reason":"injected_spo"' "$WORKDIR/aspo_j1.jsonl"
  grep -q '"state":"resumed"' "$WORKDIR/aspo_j1.jsonl"
  if ! grep '"type":"recovery"' "$WORKDIR/aspo_j1.jsonl" | grep -q '"device":1'; then
    echo "FAIL: array SPO recovery record lacks the device tag" >&2
    exit 1
  fi
  grep -q '"spo_events":1' "$WORKDIR/aspo_j1.jsonl"
  echo "bench_smoke: array SPO slot lifecycle OK (suspended -> recovered -> resumed)"

  # -- Malformed --spo-* flags are rejected, naming the offending flag ---------
  # The single-SSD power-cut flags are checked in single-SSD mode.
  REJECT_MODE=()
  expect_rejection --spo-at=nan "spo-at"
  expect_rejection --spo-at=-3 "spo-at"
  expect_rejection --spo-at=inf "spo-at"
  expect_rejection --spo-every=0 "spo-every"
  expect_rejection --spo-every=5 "spo-every requires --spo-at"
  expect_rejection --spo-precondition-writes=0 "spo-precondition-writes"
  expect_rejection --snapshot-cache-limit=4 "snapshot-cache-limit requires --snapshot-cache"
  REJECT_MODE=(--array-devices=4)
  expect_rejection --array-spo-at=nan "array-spo-at"
  expect_rejection --spo-at=3 "spo-at applies only in single-SSD mode"
  echo "bench_smoke: malformed --spo-* flags rejected with enumerated messages"
fi

# -- End-to-end simulator throughput vs the recorded baseline ------------------
# When a sim_throughput binary is passed as the fourth argument, run the
# absolute wall-clock cells (single SSD + 8-device array), validate the
# bench/bench_summary JSONL, and — when the recorded baseline JSONL is passed
# as the seventh argument — gate the array throughput ratio against a
# regression floor. The ratio is current/baseline on different machines and
# load, so the default floor of 0.5 only catches gross regressions
# (override with JITGC_MIN_SIM_SPEEDUP).
if [ -n "${SIM_THROUGHPUT_BIN:-}" ]; then
  MIN_SPEEDUP=${JITGC_MIN_SIM_SPEEDUP:-0.5}
  "$SIM_THROUGHPUT_BIN" 10 ${THROUGHPUT_BASELINE:+"$THROUGHPUT_BASELINE"} \
    > "$WORKDIR/throughput.jsonl"
  cat "$WORKDIR/throughput.jsonl"

  if command -v python3 > /dev/null 2>&1; then
    python3 - "$WORKDIR/throughput.jsonl" "$MIN_SPEEDUP" "${THROUGHPUT_BASELINE:-}" << 'EOF'
import json
import sys

BENCH_FIELDS = {"type", "name", "config", "sim_seconds", "ops", "wall_s", "ops_per_sec",
                "setup_s", "ns_per_op"}
SUMMARY_FIELDS = {"type", "name", "config", "baseline_ops_per_sec", "ratio"}

ops_per_sec = {}  # config -> ops/sec
ratios = {}       # config -> current/baseline throughput ratio
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        rec = json.loads(line)
        if rec["type"] == "bench":
            if set(rec) != BENCH_FIELDS:
                sys.exit(f"line {lineno}: bench schema mismatch (got {sorted(rec)})")
            if rec["name"] != "sim_throughput":
                sys.exit(f"line {lineno}: unexpected bench name {rec['name']!r}")
            if rec["ops_per_sec"] <= 0:
                sys.exit(f"line {lineno}: non-positive ops_per_sec")
            if not 0 < rec["setup_s"] < rec["wall_s"] or rec["ns_per_op"] <= 0:
                sys.exit(f"line {lineno}: setup_s outside (0, wall_s) or non-positive ns_per_op")
            ops_per_sec[rec["config"]] = rec["ops_per_sec"]
        elif rec["type"] == "bench_summary":
            if set(rec) != SUMMARY_FIELDS:
                sys.exit(f"line {lineno}: bench_summary schema mismatch (got {sorted(rec)})")
            ratios[rec["config"]] = rec["ratio"]
        else:
            sys.exit(f"line {lineno}: unexpected record type {rec['type']!r}")

for config in ("single_ssd", "array_8dev"):
    if config not in ops_per_sec:
        sys.exit(f"missing bench record for {config}")

if sys.argv[3]:
    for config in ("single_ssd", "array_8dev"):
        if config not in ratios:
            sys.exit(f"missing bench_summary for {config}")
    floor = float(sys.argv[2])
    if ratios["array_8dev"] < floor:
        sys.exit(f"array_8dev throughput ratio {ratios['array_8dev']} below the "
                 f"regression floor {floor} (override with JITGC_MIN_SIM_SPEEDUP)")
    print(f"bench_smoke: sim throughput OK (array ratio {ratios['array_8dev']}x vs "
          f"baseline, floor {floor}x)")
else:
    print("bench_smoke: sim throughput OK (no baseline, no regression gate)")
EOF
  else
    grep -q '"type":"bench"' "$WORKDIR/throughput.jsonl"
    echo "bench_smoke: sim throughput OK (grep fallback, no regression gate)"
  fi
fi

# -- Warm-state snapshot speedup: the acceptance bench -------------------------
# When a precondition_reuse binary is passed as the fifth argument, validate
# its records and, in a build with the throughput baseline (a calibrated
# one), gate the cold/warm sweep wall-clock speedup against a budget floor.
# The dev-box measurement is >10x; the default floor of 2.0 leaves room for
# shared CI runners (override with JITGC_MIN_SNAPSHOT_SPEEDUP).
if [ -n "${PRECOND_BENCH_BIN:-}" ]; then
  MIN_SNAPSHOT_SPEEDUP=${JITGC_MIN_SNAPSHOT_SPEEDUP:-2.0}
  "$PRECOND_BENCH_BIN" 10 > "$WORKDIR/precond.jsonl"
  cat "$WORKDIR/precond.jsonl"

  if command -v python3 > /dev/null 2>&1; then
    python3 - "$WORKDIR/precond.jsonl" "$MIN_SNAPSHOT_SPEEDUP" "${THROUGHPUT_BASELINE:-}" << 'EOF'
import json
import sys

BENCH_FIELDS = {"type", "name", "policy", "mode", "precondition_wall_s", "wall_s"}
SUMMARY_FIELDS = {"type", "name", "cold_wall_s", "warm_wall_s", "speedup"}

modes = {"cold": 0, "warm_clone": 0}
speedup = None
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        rec = json.loads(line)
        if rec["type"] == "bench":
            if set(rec) != BENCH_FIELDS:
                sys.exit(f"line {lineno}: bench schema mismatch (got {sorted(rec)})")
            if rec["mode"] not in modes:
                sys.exit(f"line {lineno}: unknown mode {rec['mode']!r}")
            modes[rec["mode"]] += 1
        elif rec["type"] == "bench_summary":
            if set(rec) != SUMMARY_FIELDS:
                sys.exit(f"line {lineno}: bench_summary schema mismatch (got {sorted(rec)})")
            speedup = rec["speedup"]
        else:
            sys.exit(f"line {lineno}: unexpected record type {rec['type']!r}")

if modes["cold"] != 4 or modes["warm_clone"] != 4:
    sys.exit(f"expected 4 cold + 4 warm_clone records, got {modes}")
if speedup is None:
    sys.exit("missing precondition_reuse_speedup summary")
if not sys.argv[3]:
    print(f"bench_smoke: precondition reuse OK ({speedup}x speedup, no budget gate)")
    sys.exit(0)
floor = float(sys.argv[2])
if speedup < floor:
    sys.exit(f"precondition reuse speedup {speedup}x below budget {floor}x "
             f"(override with JITGC_MIN_SNAPSHOT_SPEEDUP)")
print(f"bench_smoke: precondition reuse OK ({speedup}x speedup, budget {floor}x)")
EOF
  else
    grep -q '"type":"bench_summary"' "$WORKDIR/precond.jsonl"
    echo "bench_smoke: precondition reuse OK (grep fallback, no budget gate)"
  fi
fi

# -- Multi-tenant front-end: deterministic tenant records, settings carried ---
TENANT_ARGS=(--matrix=fig2 --workload=ycsb --seconds=10 --seeds=1 --intervals
  --tenants=2 --tenant-weight=2,1 --tenant-qos-p99=50)
"$SWEEP_BIN" "${TENANT_ARGS[@]}" --threads=2 > "$WORKDIR/mt2.jsonl"
"$SWEEP_BIN" "${TENANT_ARGS[@]}" --threads=1 > "$WORKDIR/mt1.jsonl"
if ! cmp -s "$WORKDIR/mt1.jsonl" "$WORKDIR/mt2.jsonl"; then
  echo "FAIL: tenant sweep differs between --threads=1 and --threads=2" >&2
  diff "$WORKDIR/mt1.jsonl" "$WORKDIR/mt2.jsonl" >&2 || true
  exit 1
fi
if command -v python3 > /dev/null 2>&1; then
  python3 - "$WORKDIR/mt2.jsonl" << 'EOF'
import json
import sys

intervals = tenant_intervals = runs = predicted = 0
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        rec = json.loads(line)
        kind = rec.get("type")
        if kind == "interval":
            intervals += 1
        elif kind == "tenant_interval":
            # Prediction attribution appears only under multi-stream JIT-GC.
            if "predicted_demand_bytes" in rec:
                predicted += 1
            if rec["tenant"] not in (0, 1):
                sys.exit(f"line {lineno}: unexpected tenant id {rec['tenant']}")
            tenant_intervals += 1
        elif kind == "run":
            tenants = rec.get("tenants")
            if not isinstance(tenants, list) or len(tenants) != 2:
                sys.exit(f"line {lineno}: run record lacks a 2-entry tenants[] block")
            if any(t["qos_p99_ms"] != 50 for t in tenants):
                sys.exit(f"line {lineno}: QoS target not carried through")
            if [t["weight"] for t in tenants] != [2, 1]:
                sys.exit(f"line {lineno}: tenant weights not carried through")
            runs += 1
        else:
            sys.exit(f"line {lineno}: unexpected record type {kind!r} in tenant sweep")

# fig2 x ycsb = 3 cells; 10 s at p=5 s = 2 intervals x 2 tenants per run.
if runs != 3 or intervals != 6 or tenant_intervals != 12:
    sys.exit(f"unexpected tenant record counts: {runs} runs, {intervals} intervals, "
             f"{tenant_intervals} tenant intervals")
print(f"bench_smoke: tenant records OK ({tenant_intervals} tenant intervals, "
      f"{predicted} with prediction attribution)")
EOF
else
  [ "$(grep -c '"type":"tenant_interval"' "$WORKDIR/mt2.jsonl")" -eq 12 ]
  grep -q '"tenants":\[' "$WORKDIR/mt2.jsonl"
  echo "bench_smoke: tenant records OK (grep fallback)"
fi
# Single-stream sweeps must not mention tenants at all (legacy byte-identity
# is asserted against the tenant-free runs at the top of this script).
if grep -q 'tenant' "$WORKDIR/t2.jsonl"; then
  echo "FAIL: tenant fields leaked into a single-stream sweep" >&2
  exit 1
fi

if [ -n "$CLI_BIN" ]; then
  # -- Tenant array run: byte-identical across --jobs 1 and --jobs 4 -----------
  MT_ARRAY_ARGS=(--seconds=20 --array-devices=4 --stripe-chunk=8
    --tenants=2 --tenant-mix=ycsb-a,ycsb-b --tenant-weight=2,1)
  "$CLI_BIN" "${MT_ARRAY_ARGS[@]}" --jobs=1 \
    --metrics="$WORKDIR/mtarr_j1.jsonl" > "$WORKDIR/mtarr_j1.txt"
  "$CLI_BIN" "${MT_ARRAY_ARGS[@]}" --jobs=4 \
    --metrics="$WORKDIR/mtarr_j4.jsonl" > "$WORKDIR/mtarr_j4.txt"
  if ! cmp -s "$WORKDIR/mtarr_j1.jsonl" "$WORKDIR/mtarr_j4.jsonl" ||
     ! cmp -s "$WORKDIR/mtarr_j1.txt" "$WORKDIR/mtarr_j4.txt"; then
    echo "FAIL: tenant array run differs between --jobs=1 and --jobs=4" >&2
    diff "$WORKDIR/mtarr_j1.jsonl" "$WORKDIR/mtarr_j4.jsonl" >&2 || true
    exit 1
  fi
  [ "$(grep -c '"type":"tenant_interval"' "$WORKDIR/mtarr_j1.jsonl")" -ge 2 ]
  grep -q '"tenants":\[' "$WORKDIR/mtarr_j1.jsonl"
  echo "bench_smoke: tenant array run deterministic across thread counts"

  # -- Malformed --tenant-* flags rejected, naming the offending flag ----------
  expect_tenant_rejection() {
    local needle=$1
    shift
    if "$CLI_BIN" --seconds=5 "$@" > /dev/null 2> "$WORKDIR/err.txt"; then
      echo "FAIL: jitgc_cli accepted $*" >&2
      exit 1
    fi
    if ! grep -q "$needle" "$WORKDIR/err.txt"; then
      echo "FAIL: rejection for '$*' lacks enumerated message ($needle):" >&2
      cat "$WORKDIR/err.txt" >&2
      exit 1
    fi
  }
  printf '1000,host,0,Write,4096,4096,90\n2000,host,1,Read,8192,4096,80\n' \
    > "$WORKDIR/tiny_trace.csv"
  expect_tenant_rejection "one shared value or one per tenant" \
    --tenants=3 --tenant-weight=1,2
  expect_tenant_rejection "tenant-weight needs finite weights > 0" \
    --tenants=2 --tenant-weight=0
  expect_tenant_rejection "tenant-weight needs finite weights > 0" \
    --tenants=2 --tenant-weight=nan
  expect_tenant_rejection "tenant-rate needs finite rates" \
    --tenants=2 --tenant-rate=-1
  expect_tenant_rejection "requires --tenants" --tenant-mix=ycsb-a,ycsb-b
  expect_tenant_rejection "requires --trace-volume-map" \
    --tenants=2 --trace="$WORKDIR/tiny_trace.csv"
  expect_tenant_rejection "give exactly one per tenant" \
    --tenants=2 --trace="$WORKDIR/tiny_trace.csv" --trace-volume-map=0
  expect_tenant_rejection "trace-volume-map requires --trace" \
    --tenants=2 --trace-volume-map=0,1
  echo "bench_smoke: malformed --tenant-* flags rejected with enumerated messages"
fi

# -- Noisy-neighbor isolation: JIT-GC must degrade the victim least ------------
# The cell is short for CI, so the default floor is deliberately relaxed
# (0.5 admits run-to-run noise); dev-box measurement at full duration is > 1.
if [ -n "${TENANT_BENCH_BIN:-}" ]; then
  MIN_ISOLATION=${JITGC_MIN_ISOLATION_RATIO:-0.5}
  "$TENANT_BENCH_BIN" --seconds=40 --seeds=1 > "$WORKDIR/isolation.txt"
  cat "$WORKDIR/isolation.txt"
  RATIO=$(awk '/^ISOLATION_RATIO/ { print $2 }' "$WORKDIR/isolation.txt")
  if [ -z "$RATIO" ]; then
    echo "FAIL: tenant_isolation printed no ISOLATION_RATIO line" >&2
    exit 1
  fi
  if ! awk -v r="$RATIO" -v floor="$MIN_ISOLATION" 'BEGIN { exit !(r >= floor) }'; then
    echo "FAIL: isolation ratio $RATIO below the floor $MIN_ISOLATION" \
         "(override with JITGC_MIN_ISOLATION_RATIO)" >&2
    exit 1
  fi
  echo "bench_smoke: noisy-neighbor isolation OK (ratio $RATIO, floor $MIN_ISOLATION)"
fi
