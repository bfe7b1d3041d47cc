#!/usr/bin/env bash
# Perfbench render gate: every workload of perfbench/harness.exe, at
# seeds 1, 7 and 42, must print the `# digest` line pinned in
# tools/perf_digests.txt.
#
# The digest covers the renders of a run's first six jobs, which every
# run makes whatever its time budget, so `--seconds 0` runs exactly
# those six, then the harness's own checks (job 0 re-run, and job 0 on
# 2 shards, must render the same bytes). A host-time optimisation
# leaves every digest as it is; a change that moves a render on purpose
# re-captures the file in the same commit:
#   tools/check_perf_digests.sh --update
#
# The harness is built the way perfbench/run.py builds it: a release
# profile into .bench_build/.
#
# Usage: tools/check_perf_digests.sh [--update]
#
# Run it from anywhere; it cds to the repo root. In CI wrap it with
# `opam exec --`.
set -euo pipefail

cd "$(dirname "$0")/.."
update=false
case "${1:-}" in
  --update) update=true ;;
  "") ;;
  *)
    echo "usage: $0 [--update]" >&2
    exit 2
    ;;
esac

dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/harness.exe
harness=.bench_build/default/perfbench/harness.exe

workloads=(current-sessions proposed-steady fleet-churn)
seeds=(1 7 42)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0
for w in "${workloads[@]}"; do
  for s in "${seeds[@]}"; do
    code=0
    "$harness" run --workload "$w" --seed "$s" --seconds 0 >"$tmp/out" ||
      code=$?
    d=$(sed -n 's/^# digest //p' "$tmp/out")
    if [ "$code" -ne 0 ] || [ -z "$d" ]; then
      echo "$w seed $s: harness run failed (exit $code)" >&2
      fail=1
    elif ! tail -n 1 "$tmp/out" | grep -q '"correct": true'; then
      grep '^# ' "$tmp/out" >&2
      echo "$w seed $s: a job failed or rendered different bytes" >&2
      fail=1
    fi
    printf '%s  %s %s\n' "${d:-none}" "$w" "$s"
  done
done >"$tmp/digests"

if $update; then
  if [ "$fail" -eq 0 ]; then
    cp "$tmp/digests" tools/perf_digests.txt
    echo "perf digests: recorded $(wc -l <"$tmp/digests") digests in tools/perf_digests.txt"
  fi
elif ! diff -u tools/perf_digests.txt "$tmp/digests"; then
  echo "perf digests: a render changed (- pinned, + this tree)"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "perf digest gate FAILED"
  exit 1
fi
echo "perf digest gate passed"
