#!/usr/bin/env bash
# Reproduce BENCH_parallel.json, BENCH_serve.json, BENCH_sim.json,
# BENCH_control.json, and BENCH_anomaly.json: build in release mode,
# run the fault-injection smoke sweep, the online-serving loop, the
# simulator-core differential replay harness (including the parallel
# shard sweep), and the anomaly-detection differential harness (all
# replay-determinism gates), then the parallel execution bench at
# 1/2/N threads, the serving-throughput bench, the simulator-core
# scaling bench, the closed-loop control bench, and the anomaly-scale
# bench, leaving the JSON reports at the repository root. Last, the
# `benchmark/` package (the harness BENCHMARK.json declares, outside the
# workspace): its tests, then a short seed-1 set checked against
# benchmark/golden.json, so a change that breaks its build or moves a
# digest is found here and not by the pipeline.
#
# Usage:
#   scripts/bench.sh            # full run (5 samples per point, 512^3 matmul)
#   scripts/bench.sh --smoke    # quick run (2 samples, 192^3 matmul)
#   scripts/bench.sh --only sim --only serve   # just these stages
#   scripts/bench.sh --no-timing-gates         # e.g. re-baselining on new hardware
#
# Options:
#   --smoke            reduced scale; the wall-clock gates that are pure
#                      noise at smoke iteration counts (serving throughput,
#                      sharded overhead) waive themselves
#   --only STAGE       run only STAGE (repeatable); stages, in run order:
#                        faults    fault-injection smoke sweep
#                        serve     serve-loop gate + serving-throughput bench
#                        parallel  parallel-execution bench
#                        sim       sim-equivalence harness + scaling bench
#                        control   control-determinism harness + closed-loop bench
#                        anomaly   anomaly differential harness + anomaly-scale bench
#                        benchmark benchmark/ package tests + seed-1 digests vs golden.json
#   --no-timing-gates  run every bench but waive its pass/fail thresholds
#                      (serving throughput / batching / p95, sharded
#                      overhead, closed-loop, anomaly), recording the
#                      waiver in the JSON; exports QI_NO_TIMING_GATES=1,
#                      the one variable the benches read. Determinism and
#                      replay gates are NEVER waived.
#
# Environment:
#   QI_BENCH_THREADS=1,2,8   thread counts for the parallel bench
#   QI_SERVE_SHARDS=1,2,4,8  shard counts for the serving sweep
#   QI_BENCH_OUT=path.json   where to write the parallel report
#   QI_SERVE_OUT=path.json   where to write the serving report
#   QI_SIM_OUT=path.json     where to write the simulator-scaling report
#   QI_CONTROL_OUT=path.json where to write the closed-loop report
#   QI_ANOMALY_OUT=path.json where to write the anomaly report
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES=(faults serve parallel sim control anomaly benchmark)
only=()
while [[ $# -gt 0 ]]; do
    case "$1" in
    --smoke) export QI_SMOKE=1 ;;
    --no-timing-gates) export QI_NO_TIMING_GATES=1 ;;
    --only)
        if [[ " ${STAGES[*]} " != *" ${2:-} "* ]]; then
            echo "bench.sh: --only takes one of: ${STAGES[*]}" >&2
            exit 2
        fi
        only+=("$2")
        shift
        ;;
    *)
        echo "bench.sh: unknown argument $1 (see the header comment)" >&2
        exit 2
        ;;
    esac
    shift
done

# True when stage $1 should run: no --only given, or $1 was named.
wanted() {
    [[ ${#only[@]} -eq 0 || " ${only[*]} " == *" $1 "* ]]
}

# One gated report stage, run when `wanted`: each `--test` determinism
# harness in release mode, then the named qi-bench bench with
# QI_BENCH_OUT pointed at the per-report override named by $2 (or
# scrubbed, so the bench falls back to its default report path —
# QI_BENCH_OUT itself names the *parallel* report and must not leak
# into the other benches).
#
#   stage NAME OUT_VAR BENCH [--test NAME]...
stage() {
    local name="$1" out_var="$2" bench="$3"
    shift 3
    wanted "$name" || return 0
    while [[ $# -gt 0 ]]; do
        case "$1" in
        --test)
            cargo test --release -q --test "$2"
            shift 2
            ;;
        *)
            echo "stage: unknown argument $1" >&2
            return 1
            ;;
        esac
    done
    if [[ -n "${!out_var:-}" ]]; then
        QI_BENCH_OUT="${!out_var}" cargo bench -p qi-bench --bench "$bench"
    else
        env -u QI_BENCH_OUT cargo bench -p qi-bench --bench "$bench"
    fi
}

# Hygiene gate: benchmark numbers are only worth recording from a tree
# that passes the same formatting bar CI holds the code to.
cargo fmt --check

# Fault-injection smoke sweep: exercises every fault event type plus the
# retry path and exits non-zero if a faulted replay is not byte-identical.
if wanted faults; then
    cargo run --release --example fault_sweep
fi

# Online-serving gate: trains, serves a faulted interfered run through
# the micro-batching engine with a mid-stream hot swap and an
# overloaded Shed replay; exits non-zero if the accounting invariant
# breaks or the serving telemetry differs across shard counts.
if wanted serve; then
    cargo run --release --example serve_loop
fi

if wanted parallel; then
    cargo bench -p qi-bench --bench parallel
fi

# Simulator core (BENCH_sim.json): the differential replay harness
# (calendar vs the reference queue double, healthy + faulted + sharded +
# controlled, 1/2/8 threads, byte-identical traces and feature blocks),
# then the scaling bench: end-to-end events/sec at 4..32 OSS plus the
# parallel shard sweep at sim_shards 1/2/4/8. The bench enforces sharded
# overhead <= 10% at 1 thread (a timing gate); the shard-count
# determinism assertions are never waived.
stage sim QI_SIM_OUT sim_scale --test sim_equivalence

# Closed-loop control (BENCH_control.json): the controlled-replay
# determinism harness (guided + uniform controllers, healthy + faulted,
# byte-identical traces, directive sequences, and telemetry across
# 1/2/8 threads and reruns, plus the hysteresis-gate property test),
# then the closed-loop bench: guided vs uniform throttling across three
# interference regimes with a hard gate — in every regime the guided
# run must not be slower than the unmitigated run, must emit
# directives, and must cost less background throughput than uniform
# throttling (waived by --no-timing-gates).
stage control QI_CONTROL_OUT control_loop --test control_determinism

# Anomaly detection & adaptive monitoring (BENCH_anomaly.json): the
# differential harness (scorer bit-determinism across reruns and
# 1/2/8-thread pools, unbounded-sampler pass-through equivalence,
# ring-store vs unbounded read-back equivalence, faulted-above-healthy
# p95 ROC separation), then the scale bench: isolation-forest scoring
# throughput, sampler ingest reduction, and the RLE ring's memory
# proxy. The bench enforces >=30% ingest saved at zero window-boundary
# counter drift (waived by --no-timing-gates).
stage anomaly QI_ANOMALY_OUT anomaly_scale --test anomaly_detection

# Serving throughput (BENCH_serve.json): max_batch {1,8,32} at one
# shard, plus the shard sweep (QI_SERVE_SHARDS, default 1,2,4,8)
# driving every shard from its own rayon worker. Classes are asserted
# identical across every batch size and shard count (never waived).
# Timing gates: batch 32 must beat batch 1, each row's p95 stays within
# +10% of the recorded baseline, and the sweep reaches >= 1M aggregate
# preds/s on multi-core hosts — auto-degraded on a single hardware
# thread and waived in smoke runs, with the reason recorded in the
# JSON's "gate" object.
stage serve QI_SERVE_OUT serve_throughput

# The benchmark package (BENCHMARK.json; see benchmark/README.md): its
# own test suite, including a smoke pass over all five workloads, then
# every workload once at the golden seed. `set` exits non-zero when a
# run's checks fail or a digest differs from benchmark/golden.json; the
# timings of so short a set mean nothing, so no `--out` file is kept.
if wanted benchmark; then
    cargo test --offline --manifest-path benchmark/Cargo.toml
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        set --seed 1 --seconds 2
fi
