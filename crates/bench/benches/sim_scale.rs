//! **Simulator-core scaling bench** (DESIGN.md — simulator core).
//!
//! End-to-end curves, written to `BENCH_sim.json` at the repository
//! root:
//!
//! 1. `cluster_run` — a real simulation (every client streaming 1 MiB
//!    writes) at 4/8/16/32 OSS, measuring delivered events/second from
//!    [`RunTrace::events_processed`].
//! 2. `cluster_run_sharded_1t` / `cluster_run_sharded` — the
//!    parallel-simulator shard sweep (DESIGN.md — parallel simulation):
//!    a dense staggered-write run at the largest grid point, at
//!    `sim_shards` 1/2/4/8, timed both on a single-thread rayon pool
//!    (the overhead gate point) and on the ambient pool (the scaling
//!    curve).
//!
//! **Parallel-simulation gate:** every sharded run must leave the
//! observable trace (ops, RPCs, samples, end time, telemetry JSON)
//! bit-identical to the one-shard run — never waived — and on a
//! one-thread pool the sharded runs must cost at most 10% more wall
//! time than the sequential run, best-sample basis (the workload is
//! deterministic, so scheduler noise is strictly additive and the best
//! sample is the cleanest estimate). `QI_NO_TIMING_GATES=1` waives the
//! overhead bound only, and smoke/quick runs waive it automatically.
//!
//! Knobs: `QI_BENCH_OUT=path.json`, `QI_BENCH_QUICK=1` / `QI_SMOKE=1`
//! (smaller grid and sizes), `QI_NO_TIMING_GATES=1`.

use std::time::Duration;

use criterion::Criterion;
use qi_bench::{is_smoke, no_timing_gates};
use qi_pfs::prelude::*;
use qi_simkit::time::SimTime;

/// OSS counts of the scaling curve (clients scale with them).
const OSS_GRID: [u32; 4] = [4, 8, 16, 32];
/// Shard counts of the parallel sweep and the one-thread overhead bound.
const SHARD_GRID: [u32; 4] = [1, 2, 4, 8];
const PARSIM_MAX_OVERHEAD_PCT: f64 = 10.0;

/// A cluster where every client streams 1 MiB writes to its own file.
fn streaming_cluster(oss: u32, mib_per_client: u64) -> Cluster {
    let cfg = ClusterConfig {
        oss_nodes: oss,
        osts_per_oss: 1,
        client_nodes: 2 * oss,
        ..ClusterConfig::default()
    };
    let clients = cfg.client_nodes;
    let mut cl = Cluster::builder()
        .config(cfg)
        .seed(7)
        .build()
        .expect("valid scaling config");
    for c in 0..clients {
        let file = FileKey {
            app: AppId(c),
            num: 1,
        };
        let mut left = mib_per_client;
        let prog = move |_now: SimTime| {
            if left == 0 {
                return ProgramStep::Finished;
            }
            left -= 1;
            ProgramStep::Op(IoOp::Write {
                file,
                offset: (mib_per_client - left - 1) * 1024 * 1024,
                len: 1024 * 1024,
            })
        };
        cl.add_app(&format!("w{c}"), vec![Box::new(prog)], &[NodeId(c)]);
    }
    cl
}

/// The shard-sweep workload: like `streaming_cluster` but denser (more
/// data, short deadline — no idle sampler tail) and with each client's
/// start staggered by a distinct sub-RPC delay. The stagger breaks the
/// perfect client symmetry of the streaming workload, which otherwise
/// completes whole cohorts of ops at identical instants — and record
/// order *within* one instant is the one surface the parallel merge
/// does not reproduce (DESIGN.md, parallel simulation, residual ties).
fn sharded_cluster(shards: u32, oss: u32, mib_per_client: u64) -> Cluster {
    let cfg = ClusterConfig {
        oss_nodes: oss,
        osts_per_oss: 1,
        client_nodes: 2 * oss,
        sim_shards: shards,
        ..ClusterConfig::default()
    };
    let clients = cfg.client_nodes;
    let mut cl = Cluster::builder()
        .config(cfg)
        .seed(7)
        .build()
        .expect("valid shard-sweep config");
    for c in 0..clients {
        let file = FileKey {
            app: AppId(c),
            num: 1,
        };
        let mut left = mib_per_client;
        let mut started = false;
        let prog = move |_now: SimTime| {
            if !started {
                started = true;
                let stagger = qi_simkit::time::SimDuration::from_nanos(1_300 * c as u64 + 1);
                return ProgramStep::Compute(stagger);
            }
            if left == 0 {
                return ProgramStep::Finished;
            }
            left -= 1;
            ProgramStep::Op(IoOp::Write {
                file,
                offset: (mib_per_client - left - 1) * 1024 * 1024,
                len: 1024 * 1024,
            })
        };
        cl.add_app(&format!("w{c}"), vec![Box::new(prog)], &[NodeId(c)]);
    }
    cl
}

/// Bit equality of everything a run observes. `events_processed` is
/// deliberately absent: shard counts differ in bookkeeping events (one
/// sampler chain per shard) while every observable stays identical.
fn assert_observably_identical(a: &RunTrace, b: &RunTrace, ctx: &str) {
    assert_eq!(a.ops, b.ops, "{ctx}: op records diverged");
    assert_eq!(a.rpcs, b.rpcs, "{ctx}: rpc records diverged");
    assert_eq!(a.samples, b.samples, "{ctx}: server samples diverged");
    assert_eq!(a.app_completion, b.app_completion, "{ctx}: completions");
    assert_eq!(a.failed_ops, b.failed_ops, "{ctx}: failed ops diverged");
    assert_eq!(a.end, b.end, "{ctx}: end time diverged");
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "{ctx}: telemetry JSON diverged"
    );
}

struct Row {
    kind: &'static str,
    oss: u32,
    shards: u32,
    median_ms: f64,
    events_per_sec: f64,
}

/// What the one-thread overhead gate decided, recorded in the JSON.
struct ParsimGate {
    point_oss: u32,
    worst_overhead_pct: f64,
    enforced: bool,
    passed: bool,
}

fn write_json(rows: &[Row], hw: usize, gate: &ParsimGate, out: &std::path::Path) {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    s.push_str("  \"generated_by\": \"cargo bench -p qi-bench --bench sim_scale\",\n");
    s.push_str(&format!(
        "  \"parsim_gate\": {{\"point_oss\": {}, \"threads\": 1, \
         \"max_overhead_pct\": {PARSIM_MAX_OVERHEAD_PCT:.1}, \
         \"worst_overhead_pct\": {:.2}, \"basis\": \"best_sample\", \
         \"determinism\": \"passed\", \"enforced\": {}, \"passed\": {}}},\n",
        gate.point_oss, gate.worst_overhead_pct, gate.enforced, gate.passed,
    ));
    s.push_str("  \"curves\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kind\": \"{}\", \"oss\": {}, \"shards\": {}, \
             \"median_ms\": {:.3}, \"events_per_sec\": {:.0}}}{}\n",
            r.kind,
            r.oss,
            r.shards,
            r.median_ms,
            r.events_per_sec,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(out, s).expect("write BENCH_sim.json");
}

fn main() {
    let quick = is_smoke()
        || std::env::var("QI_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let grid: Vec<u32> = if quick {
        OSS_GRID.iter().copied().filter(|&o| o >= 8).collect()
    } else {
        OSS_GRID.to_vec()
    };
    let samples = if quick { 3 } else { 5 };
    let mib_per_client = if quick { 4 } else { 8 };

    println!("sim_scale: OSS grid {grid:?} on {hw} hardware thread(s)");

    let mut c = Criterion::default()
        .with_budget(Duration::ZERO, Duration::ZERO)
        .min_samples(samples);

    // Curve 1: end-to-end cluster events/second.
    let mut cluster_events: Vec<(u32, u64)> = Vec::new();
    for &oss in &grid {
        let mut events = 0u64;
        c.bench_function(&format!("cluster_run/{oss}oss"), |bench| {
            bench.iter(|| {
                let trace = streaming_cluster(oss, mib_per_client).run(SimTime::from_secs(120));
                events = trace.events_processed;
                events
            })
        });
        cluster_events.push((oss, events));
    }

    // Curve 2: the parallel shard sweep at the largest grid point. The
    // determinism leg runs first and is never waived: every shard count
    // must reproduce the sequential run's observables bit-for-bit.
    let sweep_oss = *grid.last().expect("non-empty grid");
    let shard_grid: Vec<u32> = SHARD_GRID.into_iter().filter(|&s| s <= sweep_oss).collect();
    let sweep_mib = if quick { 16 } else { 64 };
    let sweep_deadline = SimTime::from_secs(10);
    let mut sweep_events: Vec<(u32, u64)> = Vec::new();
    let mut sweep_golden: Option<RunTrace> = None;
    for &shards in &shard_grid {
        let trace = sharded_cluster(shards, sweep_oss, sweep_mib).run(sweep_deadline);
        sweep_events.push((shards, trace.events_processed));
        match &sweep_golden {
            None => sweep_golden = Some(trace),
            Some(golden) => assert_observably_identical(
                golden,
                &trace,
                &format!("{shards} shards vs sequential @ {sweep_oss} OSS"),
            ),
        }
    }
    println!("shard sweep @ {sweep_oss} OSS: observables bit-identical at {shard_grid:?} shards");

    for &shards in &shard_grid {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("one-thread pool builds");
        let name = format!("cluster_shards/{shards}shards/1t");
        c.bench_function(&name, |bench| {
            bench.iter(|| {
                pool.install(|| {
                    sharded_cluster(shards, sweep_oss, sweep_mib)
                        .run(sweep_deadline)
                        .events_processed
                })
            })
        });
        let name = format!("cluster_shards/{shards}shards/ambient");
        c.bench_function(&name, |bench| {
            bench.iter(|| {
                sharded_cluster(shards, sweep_oss, sweep_mib)
                    .run(sweep_deadline)
                    .events_processed
            })
        });
    }

    let stats = c.results();
    let stat_of = |name: &str| stats.iter().find(|s| s.name == name).expect("bench ran");

    let mut rows = Vec::new();
    for &(oss, events) in &cluster_events {
        let m = stat_of(&format!("cluster_run/{oss}oss")).median_ms();
        rows.push(Row {
            kind: "cluster_run",
            oss,
            shards: 1,
            median_ms: m,
            events_per_sec: events as f64 / (m / 1e3),
        });
    }
    for &(shards, events) in &sweep_events {
        for (kind, pool) in [
            ("cluster_run_sharded_1t", "1t"),
            ("cluster_run_sharded", "ambient"),
        ] {
            let m = stat_of(&format!("cluster_shards/{shards}shards/{pool}")).median_ms();
            rows.push(Row {
                kind,
                oss: sweep_oss,
                shards,
                median_ms: m,
                events_per_sec: events as f64 / (m / 1e3),
            });
        }
    }

    // Parallel-simulation gate: sharded runs on a one-thread pool must
    // stay within the overhead bound of the sequential run, compared on
    // best (p05 ≈ min at these sample counts) wall time.
    let best_1t = |shards: u32| stat_of(&format!("cluster_shards/{shards}shards/1t")).p05_ns / 1e6;
    let seq_1t = best_1t(1);
    let mut worst_overhead = 0.0f64;
    for &shards in shard_grid.iter().filter(|&&s| s > 1) {
        let t = best_1t(shards);
        let overhead = (t / seq_1t - 1.0) * 100.0;
        println!(
            "parsim @ {shards} shards, 1 thread (best-sample): {t:.3} ms vs sequential \
             {seq_1t:.3} ms → {overhead:+.1}%"
        );
        worst_overhead = worst_overhead.max(overhead);
    }
    let gate = ParsimGate {
        point_oss: sweep_oss,
        worst_overhead_pct: worst_overhead,
        enforced: !quick && !no_timing_gates(),
        passed: worst_overhead <= PARSIM_MAX_OVERHEAD_PCT,
    };

    let out = std::env::var("QI_BENCH_OUT").map_or_else(
        |_| {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_sim.json")
        },
        std::path::PathBuf::from,
    );
    write_json(&rows, hw, &gate, &out);
    println!("wrote {}", out.display());

    if gate.enforced && !gate.passed {
        panic!(
            "parallel-simulation overhead gate failed: worst sharded run is \
             {worst_overhead:+.1}% vs sequential at 1 thread (bound \
             {PARSIM_MAX_OVERHEAD_PCT}%); set QI_NO_TIMING_GATES=1 to waive \
             on constrained machines — determinism is asserted regardless"
        );
    }
}
