#!/usr/bin/env bash
# Golden-output check: runs a fixed list of jitgc_cli / jitgc_sweep
# invocations and compares their --metrics JSONL byte-for-byte against the
# files committed under tests/golden/.
#
# The other byte-identity suites compare two runs of the same build (cold vs
# warm snapshot, --jobs 1 vs 4); a change that shifts the output on both
# sides passes them. These files pin the output itself, so a refactor that
# claims "no behaviour change" is checked against recorded bytes.
#
# Every duration is a multiple of the 5 s flush period, so the last tick lands
# exactly on the cut-off.
#
# Usage: golden_jsonl.sh <jitgc_cli> <jitgc_sweep> <golden-dir> [--update]
#   --update rewrites the golden files from the given binaries instead of
#   comparing (only for a deliberate, reviewed behaviour change).
set -euo pipefail

CLI_BIN=${1:?usage: golden_jsonl.sh <jitgc_cli> <jitgc_sweep> <golden-dir> [--update]}
SWEEP_BIN=${2:?usage: golden_jsonl.sh <jitgc_cli> <jitgc_sweep> <golden-dir> [--update]}
GOLDEN_DIR=${3:?usage: golden_jsonl.sh <jitgc_cli> <jitgc_sweep> <golden-dir> [--update]}
UPDATE=${4:-}
WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

# name | tool | arguments. The cli cases write --metrics; the sweep case's
# JSONL is its stdout.
CASES=(
  # Single SSD.
  "ssd_ycsb_jit_closed|cli|--workload=ycsb --policy=jit --seconds=20"
  "ssd_ycsb_jit_open|cli|--workload=ycsb --policy=jit --arrival=open --seconds=20"
  "ssd_ycsb_jit_nosip|cli|--workload=ycsb --policy=jit --no-sip --seconds=20"
  "ssd_tpcc_lazy|cli|--workload=tpcc --policy=lazy --seconds=20"
  "ssd_spo|cli|--workload=ycsb --policy=jit --spo-at=5 --spo-every=5 --seconds=20"
  # A power cut while the device is aged: write 150000 falls inside the
  # footprint fill, before the scramble.
  "ssd_spo_precondition|cli|--workload=ycsb --policy=jit --spo-precondition-writes=150000 --seconds=20"
  "ssd_fault|cli|--workload=ycsb --policy=aggressive --fault-program=0.00002 --spare-blocks=16 --seconds=20"
  "ssd_fault_worn_out|cli|--workload=ycsb --policy=aggressive --fault-program=0.0001 --spare-blocks=16 --seconds=20"
  # Cost-benefit victims, hot/cold write streams and mapping checkpoints.
  "ssd_ycsb_costbenefit_hotcold_ckpt|cli|--workload=ycsb --policy=jit --victim=cost-benefit --hot-cold --checkpoint-every-erases=16 --seconds=30"
  # Multi-tenant front-end on one SSD.
  "tenants_open|cli|--tenants=2 --tenant-mix=ycsb,tpcc --tenant-arrival=open --policy=jit --seconds=20"
  "tenants_closed_rate|cli|--tenants=2 --tenant-mix=ycsb --tenant-arrival=closed --tenant-rate=0,2000000 --policy=jit --seconds=20"
  "tenants_closed_nosip|cli|--tenants=2 --tenant-mix=ycsb --tenant-arrival=closed --policy=jit --no-sip --seconds=20"
  # Long enough for the SIP counts to steer JIT victim selection.
  "tenants_closed_40s|cli|--tenants=2 --tenant-mix=ycsb --tenant-arrival=closed --policy=jit --seconds=40"
  # RAID-0 arrays.
  "array_staggered|cli|--array-devices=4 --array-gc-mode=staggered --workload=ycsb --seconds=20 --jobs=2"
  "array_naive|cli|--array-devices=4 --array-gc-mode=naive --workload=tpcc --seconds=20 --jobs=2"
  # RAID-0 failure paths: a device wears out mid-op at 49.11 s and ends the
  # run; a scripted kill ends it at the 15 s tick (YCSB's first 5 s are idle);
  # a scripted power cut recovers the device in place.
  "array_raid0_worn_out|cli|--array-devices=4 --endurance=3 --workload=tpcc --seconds=60 --jobs=2"
  "array_raid0_kill|cli|--array-devices=4 --array-kill-device=1 --array-kill-at=12 --workload=ycsb --seconds=20 --jobs=2"
  "array_raid0_spo|cli|--array-devices=4 --array-spo-device=0 --array-spo-at=10 --workload=ycsb --seconds=20 --jobs=2"
  # Redundant arrays.
  "array_parity_kill|cli|--array-devices=4 --array-redundancy=parity --array-spares=1 --array-kill-device=1 --array-kill-at=5 --workload=ycsb --seconds=30 --jobs=2"
  "array_mirror_outage|cli|--array-devices=4 --array-redundancy=mirror --array-outage-device=2 --array-outage-at=5 --array-outage-restore-at=15 --workload=ycsb --seconds=25 --jobs=2"
  "array_parity_spo|cli|--array-devices=4 --array-redundancy=parity --array-spo-device=0 --array-spo-at=10 --workload=ycsb --seconds=20 --jobs=2"
  # Array plus tenants.
  "array_tenants|cli|--array-devices=4 --tenants=2 --tenant-mix=ycsb,tpcc --seconds=20 --jobs=2"
  # Multi-policy sweep (the four fig7 policies on one benchmark).
  "sweep_fig7_ycsb|sweep|--matrix=fig7 --workload=ycsb --seconds=30 --threads=2"
  # Sweep serializer write order: each interval, its tenant records, the
  # run's faults, then the run record.
  "sweep_fig2_intervals|sweep|--matrix=fig2 --workload=ycsb --seconds=20 --intervals --tenants=2 --tenant-weight=2,1 --fault-program=0.00002 --spare-blocks=16 --threads=2"
)

run_case() {
  local tool=$1 args=$2 out=$3
  # shellcheck disable=SC2086  # args is a deliberate word list
  if [[ $tool == cli ]]; then
    "$CLI_BIN" $args --metrics="$out" >/dev/null
  else
    "$SWEEP_BIN" $args >"$out" 2>/dev/null
  fi
}

failures=0
for entry in "${CASES[@]}"; do
  IFS='|' read -r name tool args <<<"$entry"
  actual="$WORKDIR/$name.jsonl"
  expected="$GOLDEN_DIR/$name.jsonl"
  run_case "$tool" "$args" "$actual"
  if [[ $UPDATE == --update ]]; then
    mkdir -p "$GOLDEN_DIR"
    cp "$actual" "$expected"
    echo "golden: wrote $expected ($(wc -c <"$expected") bytes)"
    continue
  fi
  if [[ ! -f $expected ]]; then
    echo "golden: $name: missing $expected" >&2
    failures=$((failures + 1))
    continue
  fi
  if cmp -s "$expected" "$actual"; then
    echo "golden: $name ok"
    continue
  fi
  failures=$((failures + 1))
  # cmp reports "... differ: byte B, line L"; when one file is a prefix of
  # the other it reports EOF instead, so fall back to the shorter length + 1.
  # cmp exits 1 on a difference; under pipefail that must not end the script.
  line=$(cmp "$expected" "$actual" 2>&1 | sed -n 's/.*line \([0-9]*\).*/\1/p' || true)
  if [[ -z $line ]]; then
    exp_lines=$(wc -l <"$expected")
    act_lines=$(wc -l <"$actual")
    line=$(((exp_lines < act_lines ? exp_lines : act_lines) + 1))
  fi
  echo "golden: $name: first difference at line $line" >&2
  echo "  expected: $(sed -n "${line}p" "$expected")" >&2
  echo "  actual:   $(sed -n "${line}p" "$actual")" >&2
done

if ((failures > 0)); then
  echo "golden: $failures case(s) differ from $GOLDEN_DIR" >&2
  exit 1
fi
echo "golden: all ${#CASES[@]} cases match"
