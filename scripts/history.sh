#!/usr/bin/env bash
# Append one label's benchmark readings to BENCH_HISTORY.md: a full
# `benchmark set` untraced and one traced, at the defaults (seed 1, the
# run length BENCHMARK.json fixes; about five minutes), rendered by
# scripts/history.jq. The commit in each row is the checkout's HEAD, so a
# dirty tree is refused; `set` exits non-zero on a failed check or a
# digest that differs from benchmark/golden.json, and then nothing is
# appended. Keep the machine idle meanwhile.
#
# Usage: scripts/history.sh LABEL        e.g. scripts/history.sh "PR 18"
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -ne 1 ]]; then
    echo "usage: scripts/history.sh LABEL" >&2
    exit 2
fi
if [[ -n "$(git status --porcelain)" ]]; then
    echo "history.sh: the tree is dirty; commit first, every row names a commit" >&2
    exit 1
fi

out=benchmark/target/history
mkdir -p "$out"
benchmark() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
benchmark set --out "$out/untraced.json"
benchmark set --out "$out/traced.json" --trace 1

rows=$(jq -r --slurp --arg tag "$1" -f scripts/history.jq "$out/untraced.json" "$out/traced.json")
# The per-layer table ends at the marker; the end-to-end table ends the file.
layer_row=$(head -n 1 <<<"$rows")
sed -i "/^<!-- per-layer rows end -->$/i $layer_row" BENCH_HISTORY.md
tail -n +2 <<<"$rows" >>BENCH_HISTORY.md
