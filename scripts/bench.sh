#!/usr/bin/env bash
# What `cargo test -q` does not run. Every gate is a Tier-1 test; these
# two stages regenerate the record and check the measuring instrument:
#
#   experiments  every paper experiment in one process (`cargo bench -p
#                qi-bench`), which rewrites results/*.csv; the committed
#                record must come out unchanged (about a minute at full
#                scale). --smoke runs them at reduced scale, printing
#                their rows and leaving results/ alone.
#   benchmark    the benchmark/ package BENCHMARK.json declares (outside
#                the workspace): its tests, then every workload once at
#                the golden seed, so a change that breaks its build or
#                moves a digest is found here and not by the pipeline.
#                Speed is read with scripts/ab.sh and scripts/history.sh.
#
# Usage: scripts/bench.sh [--smoke] [--only experiments|benchmark]
set -euo pipefail
cd "$(dirname "$0")/.."
# Before either stage: the formatting, the lints and the docs of every
# workspace crate, vendored ones included, with every clippy warning and
# every rustdoc warning (a broken or ambiguous intra-doc link) an error.
cargo fmt --check
cargo clippy --offline --workspace --all-targets --quiet -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

usage() {
    echo "usage: scripts/bench.sh [--smoke] [--only experiments|benchmark]" >&2
    exit 2
}
only=
while [[ $# -gt 0 ]]; do
    case "$1" in
    --smoke) export QI_SMOKE=1 ;;
    --only)
        only="${2:-}"
        [[ $only == experiments || $only == benchmark ]] || usage
        shift
        ;;
    *) usage ;;
    esac
    shift
done

if [[ $only != benchmark ]]; then
    start=$SECONDS
    cargo bench -p qi-bench
    echo "bench.sh: experiments stage took $((SECONDS - start)) s (build included)"
    if [[ -n "$(git status --porcelain -- results/)" ]]; then
        git status --short -- results/ >&2
        echo "bench.sh: results/ no longer matches the committed record" >&2
        exit 1
    fi
fi

# `set` exits non-zero when a run's checks fail or a digest differs from
# benchmark/golden.json; the timings of so short a set mean nothing, so
# no `--out` file is kept.
if [[ $only != experiments ]]; then
    cargo test --offline --manifest-path benchmark/Cargo.toml
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        set --seed 1 --seconds 2
fi
