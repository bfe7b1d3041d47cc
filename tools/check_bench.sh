#!/usr/bin/env bash
# Bench regression gate: runs each capacity bench in smoke mode and
# diffs its JSON against the checked-in baseline, byte for byte.
#
# Smoke runs are deterministic, so a changed byte is a changed result. A
# pure refactor or speed-up shows no diff; a model change shows exactly
# the rows it moved and re-captures them (BENCH_<b>.json copied over
# BENCH_<b>_baseline.json) in the same commit. Each bench also asserts
# its own headline result and exits 1 if it no longer holds, which
# still guards a re-captured baseline.
#
# Usage: tools/check_bench.sh [bench ...]   (default: all six)
#
# Run it from anywhere; it cds to the repo root. In CI wrap it with
# `opam exec --`. All BENCH_*.json outputs are left in the repo root so
# the always-upload artifact step can collect them even on failure.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bench/main.exe
# The baselines are smoke runs: an exact diff against a full run would
# mean nothing, so the gate always runs in smoke mode.
export SEA_BENCH_SMOKE=1

benches=("$@")
[ ${#benches[@]} -eq 0 ] && benches=(fleet cost vtpm churn backend autoscale)

fail=0
for b in "${benches[@]}"; do
  echo "=== bench: $b ==="
  rm -f "BENCH_$b.json"
  if ! dune exec bench/main.exe -- "$b" >/dev/null; then
    echo "$b: bench run failed"
    fail=1
  fi
  if ! diff -u "BENCH_${b}_baseline.json" "BENCH_$b.json"; then
    echo "$b: BENCH_$b.json differs from BENCH_${b}_baseline.json"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "bench gate FAILED"
  exit 1
fi
echo "bench gate passed"
