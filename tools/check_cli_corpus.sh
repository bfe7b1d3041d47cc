#!/usr/bin/env bash
# CLI corpus gate: pins what sea_cli prints for a fixed set of runs.
#
# Each non-comment line of tools/cli_corpus.txt is one sea_cli argument
# list. For every line the script records the SHA-256 of stdout, the
# exit code, and, when the exit code is non-zero, the SHA-256 of stderr
# (a successful run may print wall-clock time there). An @TRACE@
# argument is replaced by a temporary path PREFIX, and every file the run
# writes whose name starts with PREFIX is hashed together with stdout, in
# byte-wise sorted order: a serve run writes PREFIX itself, a cluster run
# writes PREFIX.machine-<i>.json per machine. A file other than PREFIX is
# preceded by its name's suffix, so a trace that moves to another
# machine's file changes the digest. The records are then diffed against
# tools/cli_corpus.sha256, so a refactor of the CLI paths must show zero
# changed rows.
#
# A change that moves an output on purpose re-captures the manifest in
# the same commit:
#   tools/check_cli_corpus.sh --update
#
# Usage: tools/check_cli_corpus.sh [--update]
#
# Run it from anywhere; it cds to the repo root. In CI wrap it with
# `opam exec --`.
set -euo pipefail
shopt -s nullglob
export LC_ALL=C

cd "$(dirname "$0")/.."
dune build bin/sea_cli.exe
cli=_build/default/bin/sea_cli.exe

update=false
case "${1:-}" in
  "") ;;
  --update) update=true ;;
  *)
    echo "usage: $0 [--update]" >&2
    exit 2
    ;;
esac

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

digest() { sha256sum "$1" | cut -d' ' -f1; }

runs=0
while IFS= read -r line; do
  case "$line" in '' | '#'*) continue ;; esac
  rm -f "$tmp"/trace.json*
  read -r -a argv <<<"${line//@TRACE@/$tmp/trace.json}"
  code=0
  "$cli" "${argv[@]}" >"$tmp/out" 2>"$tmp/err" || code=$?
  for f in "$tmp"/trace.json*; do
    if [ "$f" != "$tmp/trace.json" ]; then
      printf '%s\n' "${f#"$tmp/trace.json"}" >>"$tmp/out"
    fi
    cat "$f" >>"$tmp/out"
  done
  err=-
  if [ "$code" -ne 0 ]; then err=$(digest "$tmp/err"); fi
  printf '%s %s %s  %s\n' "$(digest "$tmp/out")" "$code" "$err" "$line"
  runs=$((runs + 1))
done <tools/cli_corpus.txt >"$tmp/manifest"

if $update; then
  cp "$tmp/manifest" tools/cli_corpus.sha256
  echo "cli corpus: recorded $runs runs in tools/cli_corpus.sha256"
elif diff -u tools/cli_corpus.sha256 "$tmp/manifest"; then
  echo "cli corpus: all $runs runs match tools/cli_corpus.sha256"
else
  echo "cli corpus: output changed (- pinned, + this tree)" >&2
  exit 1
fi
