#!/usr/bin/env bash
# The pairs of runs a change that claims a gain (or claims to move
# nothing) has to show: PAIRS alternating runs of one benchmark workload
# on two builds of the `benchmark/` package, read by the rule of the
# choosing-metrics guide, section 8.
#
# Usage:
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SEED=4]
#
# PARENT_BIN and CHANGE_BIN are the `benchmark` executables of the two
# commits, each built from its own checkout into its own target
# directory (see README "Testing"):
#
#   git clone -q . /tmp/parent && git -C /tmp/parent checkout -q HEAD~1
#   CARGO_TARGET_DIR=/tmp/t-parent cargo build --release --offline \
#       --manifest-path /tmp/parent/benchmark/Cargo.toml
#   CARGO_TARGET_DIR=/tmp/t-change cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
#   scripts/ab.sh /tmp/t-parent/release/benchmark /tmp/t-change/release/benchmark train_fit
#
# The run length (`run_seconds`) and each end-to-end metric's direction
# and bound come from BENCHMARK.json; odd pairs run the parent first,
# even pairs the change. Prints one row per run, then per metric both
# sides' medians with quartiles, the pairs the change won (in the
# metric's better direction, ties counting for neither), and a verdict:
#
#   gain        the change won at least 9/10 of the pairs and the medians
#               lie further apart than the parent's own quartiles
#   no worse    the change's median is inside the metric's bound
#   worse       it is outside
#   unresolved  either side's quartiles lie further apart than the bound
#               and the two sides' runs overlap: these runs cannot tell
#
# Exits 1 if any metric reads `worse` or the change failed more
# operations than the parent, 2 on a usage error or a run that did not
# finish.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 5 ]]; then
    echo "usage: scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS=10] [SEED=4]" >&2
    exit 2
fi
parent=$1
change=$2
workload=$3
pairs=${4:-10}
seed=${5:-4}
manifest="$(dirname "$0")/../BENCHMARK.json"
for bin in "$parent" "$change"; do
    if [[ ! -x $bin ]]; then
        echo "ab.sh: $bin is not an executable" >&2
        exit 2
    fi
done

seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$manifest")
# "name better bound" per end-to-end metric, in the file's order.
metrics=$(awk '
    function value(line) {
        sub(/^[^:]*: */, "", line)
        gsub(/[",]/, "", line)
        return line
    }
    /"end_to_end"/ { on = 1; next }
    on && /^  \]/ { on = 0 }
    on && /"name"/ { name = value($0) }
    on && /"better"/ { better = value($0) }
    on && /"bound"/ { print name, better, value($0) }
' "$manifest")
names=$(awk '{ printf "%s ", $1 }' <<<"$metrics")
metrics=$(tr '\n' ';' <<<"$metrics")

rows=$(mktemp)
trap 'rm -f "$rows"' EXIT
printf '%-7s %4s %6s' side pair failed
for n in $names; do printf ' %14s' "$n"; done
printf '\n'
for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        bin=${!side}
        if ! out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
            echo "$out" | tail -n 5 >&2
            echo "ab.sh: the $side run of pair $p did not finish" >&2
            exit 2
        fi
        tail -n 1 <<<"$out" | awk -v side="$side" -v pair="$p" -v names="$names" '
            function after(prefix,   s) {
                if (!match($0, prefix)) return "nan"
                s = substr($0, RSTART + RLENGTH)
                match(s, /^[-+0-9.eE]+/)
                return substr(s, 1, RLENGTH)
            }
            {
                printf "%-7s %4d %6s", side, pair, after("\"failed\": *")
                n = split(names, name, " ")
                for (i = 1; i <= n; i++)
                    printf " %14.4f", after("\"" name[i] "\": *\\{\"value\": *")
                printf "\n"
            }' | tee -a "$rows"
    done
done

awk -v metrics="$metrics" -v pairs="$pairs" '
    function sort(a, n,   i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # Quantile q of sorted a[1..n], interpolating between neighbours.
    function quantile(a, n, q,   h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        if (lo >= n) return a[n]
        return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function abs(x) { return x < 0 ? -x : x }
    # x as a share of |of|; 0 where there is nothing to take a share of.
    function share(x, of) {
        if (of == 0) return 0
        return x / abs(of)
    }
    {
        side = $1; pair = $2
        failed[side] += $3
        for (i = 4; i <= NF; i++) v[side, i - 3, pair] = $i
    }
    END {
        nm = split(metrics, line, ";") - 1
        bad = 0
        printf "\n%-14s %-40s %-40s %6s  %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "wins", "verdict"
        for (m = 1; m <= nm; m++) {
            split(line[m], f, " ")
            name = f[1]; sign = (f[2] == "higher") ? 1 : -1; bound = f[3]
            wins = 0
            for (p = 1; p <= pairs; p++) {
                P[p] = v["parent", m, p]; C[p] = v["change", m, p]
                if (sign * (C[p] - P[p]) > 0) wins++
            }
            sort(P, pairs); sort(C, pairs)
            pm = quantile(P, pairs, 0.5); cm = quantile(C, pairs, 0.5)
            piqr = quantile(P, pairs, 0.75) - quantile(P, pairs, 0.25)
            ciqr = quantile(C, pairs, 0.75) - quantile(C, pairs, 0.25)
            # How much worse the change reads, and how far either side
            # spreads, each as a share of its own median.
            worse_by = share(sign * (pm - cm), pm)
            spread = share(piqr, pm)
            if (share(ciqr, cm) > spread) spread = share(ciqr, cm)
            all_better = (sign > 0) ? (C[1] >= P[pairs]) : (C[pairs] <= P[1])
            all_worse = (sign > 0) ? (C[pairs] < P[1]) : (C[1] > P[pairs])
            if (wins * 10 >= pairs * 9 && abs(cm - pm) > piqr) verdict = "gain"
            else if (spread > bound && !all_better && !all_worse) verdict = "unresolved"
            else if (worse_by > bound) verdict = "worse"
            else verdict = "no worse"
            if (verdict == "worse") bad = 1
            printf "%-14s %-40s %-40s %3d/%-2d  %s (%+.1f%%, bound %g%%)\n", name, \
                sprintf("%.4f / %.4f / %.4f", quantile(P, pairs, 0.25), pm, quantile(P, pairs, 0.75)), \
                sprintf("%.4f / %.4f / %.4f", quantile(C, pairs, 0.25), cm, quantile(C, pairs, 0.75)), \
                wins, pairs, verdict, 100 * share(cm - pm, pm), 100 * bound
        }
        printf "failed operations: parent %d, change %d\n", failed["parent"], failed["change"]
        if (failed["change"] > failed["parent"]) bad = 1
        exit bad
    }' "$rows"
