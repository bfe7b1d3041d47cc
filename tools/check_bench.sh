#!/usr/bin/env bash
# Bench regression gate: runs each capacity bench in smoke mode and
# diffs its JSON against the checked-in baseline, byte for byte, then
# checks the SHA-256 of every virtual-time table against
# tools/bench_tables.sha256.
#
# Smoke runs are deterministic, so a changed byte is a changed result. A
# pure refactor or speed-up shows no diff; a model change shows exactly
# the rows it moved and re-captures them (BENCH_<b>.json copied over
# BENCH_<b>_baseline.json) in the same commit. Each bench also asserts
# its own headline result and exits 1 if it no longer holds, which
# still guards a re-captured baseline.
#
# The tables are the paper's reproductions (Tables 1-2, Figures 2-3 and
# the experiments built on them), printed in virtual time only. `micro`
# and `analyzer` print host time and are not pinned. A change that
# moves a table on purpose re-captures the manifest in the same commit:
#   tools/check_bench.sh --update
#
# Usage: tools/check_bench.sh [--update | name ...]
#   (default: all six benches and all twelve tables; a name is either)
#
# Run it from anywhere; it cds to the repo root. In CI wrap it with
# `opam exec --`. All BENCH_*.json outputs are left in the repo root so
# the always-upload artifact step can collect them even on failure.
set -euo pipefail

cd "$(dirname "$0")/.."
dune build bench/main.exe
bench=_build/default/bench/main.exe
# The baselines are smoke runs: an exact diff against a full run would
# mean nothing, so the gate always runs in smoke mode.
export SEA_BENCH_SMOKE=1

all_benches=(fleet cost vtpm churn backend autoscale)
all_tables=(table1 table2 figure2 figure3 impact concurrency faster-tpm
  io-loss multicore serving degradation trace)

update=false
benches=()
tables=()
case "${1:-}" in
  --update)
    update=true
    tables=("${all_tables[@]}")
    ;;
  "")
    benches=("${all_benches[@]}")
    tables=("${all_tables[@]}")
    ;;
  *)
    for name in "$@"; do
      if [[ " ${all_benches[*]} " == *" $name "* ]]; then
        benches+=("$name")
      elif [[ " ${all_tables[*]} " == *" $name "* ]]; then
        tables+=("$name")
      else
        echo "usage: $0 [--update | name ...]; unknown name $name" >&2
        exit 2
      fi
    done
    ;;
esac

fail=0
for b in "${benches[@]}"; do
  echo "=== bench: $b ==="
  rm -f "BENCH_$b.json"
  if ! "$bench" "$b" >/dev/null; then
    echo "$b: bench run failed"
    fail=1
  fi
  if ! diff -u "BENCH_${b}_baseline.json" "BENCH_$b.json"; then
    echo "$b: BENCH_$b.json differs from BENCH_${b}_baseline.json"
    fail=1
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for t in "${tables[@]}"; do
  code=0
  "$bench" "$t" >"$tmp/out" || code=$?
  if [ "$code" -ne 0 ]; then
    echo "$t: table run failed (exit $code)" >&2
    fail=1
  fi
  printf '%s  %s\n' "$(sha256sum "$tmp/out" | cut -d' ' -f1)" "$t"
done >"$tmp/tables"

if [ ${#tables[@]} -gt 0 ]; then
  if $update; then
    if [ "$fail" -eq 0 ]; then
      cp "$tmp/tables" tools/bench_tables.sha256
      echo "bench tables: recorded ${#tables[@]} digests in tools/bench_tables.sha256"
    fi
  else
    echo "=== tables: ${tables[*]} ==="
    for t in "${tables[@]}"; do
      grep -E "  $t\$" tools/bench_tables.sha256 || true
    done >"$tmp/pinned"
    if ! diff -u "$tmp/pinned" "$tmp/tables"; then
      echo "bench tables: output changed (- pinned, + this tree)"
      fail=1
    fi
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "bench gate FAILED"
  exit 1
fi
echo "bench gate passed"
