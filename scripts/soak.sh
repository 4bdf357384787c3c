#!/usr/bin/env bash
# Many short runs of one benchmark workload, one seed each, to catch a
# check that fails only now and then: BENCHMARK.json's `command` with
# `--workload WORKLOAD --seed i --seconds 2` for i = 1..N. Prints one
# line per run, then the exit tally and the first failing run's check
# message (or the tail of its stderr when it printed none).
#
# Usage: scripts/soak.sh WORKLOAD N     e.g. scripts/soak.sh sim_big_sharded 25
#
# Exits 1 if any run exited non-zero, 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ $# -ne 2 || ! $2 =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/soak.sh WORKLOAD N" >&2
    exit 2
fi
workload=$1
n=$2
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)

logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
declare -A tally=()
first_failed=
for ((i = 1; i <= n; i++)); do
    code=0
    "${command[@]}" --workload "$workload" --seed "$i" --seconds 2 \
        >"$logs/$i.out" 2>"$logs/$i.err" || code=$?
    tally[$code]=$((${tally[$code]:-0} + 1))
    echo "seed $i: exit $code"
    if [[ $code -ne 0 && -z $first_failed ]]; then
        first_failed=$i
    fi
done

echo "$workload: $n runs, exit codes:"
for code in $(printf '%s\n' "${!tally[@]}" | sort -n); do
    echo "  exit $code: ${tally[$code]}"
done
if [[ -n $first_failed ]]; then
    echo "first failing run: seed $first_failed"
    grep 'check failed' "$logs/$first_failed.err" || tail -n 20 "$logs/$first_failed.err"
    exit 1
fi
