//! **Anomaly-detection scale bench** (DESIGN.md — anomaly detection &
//! adaptive monitoring).
//!
//! Three costs of the PR-9 subsystems, measured on the canonical
//! anomaly session and on a synthetic quiet cluster:
//!
//! 1. `score_throughput` — isolation-forest scoring rate: fit on the
//!    healthy session windows, then score a large tiled probe batch
//!    through the rayon batch path (best-of-N wall time, vectors/sec
//!    and µs per window-vector).
//! 2. `sampler` — adaptive-sampler ingest reduction. Two regimes: a
//!    *quiet* synthetic cluster (devices idle 4 windows out of 5) and
//!    the real faulted session. For the quiet regime the bench also
//!    checks feature drift: the newest sample of every
//!    `(device, window)` group — the cumulative-counter boundary the
//!    window features are computed from — must survive sampling
//!    bit-identically.
//! 3. `ring` — trace-store memory proxy: stored cells and approximate
//!    bytes of the unbounded `Vec` store vs the RLE ring on the same
//!    faulted run, plus a tight ring's eviction accounting.
//!
//! **Anomaly gate** (non-zero exit on failure, `QI_NO_TIMING_GATES=1`
//! to waive — recorded in the JSON): the sampler must save ≥30% of
//! ingest on both regimes, with zero boundary-counter drift on the
//! quiet regime, and detection on the session must survive sampling
//! (same windows flagged with and without the sampler).
//!
//! Knobs: `QI_BENCH_OUT=path.json` (default `BENCH_anomaly.json` at the
//! repository root), `QI_SMOKE=1` (smaller probe batch, fewer timing
//! samples), `QI_NO_TIMING_GATES=1`.

use std::time::Instant;

use qi_bench::{is_smoke, no_timing_gates};
use qi_pfs::ids::DeviceId;
use qi_pfs::ops::ServerSample;
use qi_pfs::queue::DeviceCounters;
use qi_pfs::store::TraceStoreConfig;
use qi_simkit::time::{SimDuration, SimTime};
use quanterference::prelude::*;

/// The canonical anomaly-session scenario (mirrors
/// `anomaly_demo::session_scenario` in the root crate, which the bench
/// crate cannot depend on): smoke-scale target under steady background
/// interference, 100 ms server monitor, and — when `faulted` — every
/// OST slowed 7× plus an MDS lock storm.
fn session_scenario(seed: u64, faulted: bool) -> Scenario {
    let mut cluster = ClusterConfig::small();
    cluster.sample_interval = SimDuration::from_millis(100);
    let scenario = Scenario {
        cluster,
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, seed)
    }
    .with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyWrite,
        instances: 2,
        ranks: 2,
    });
    if !faulted {
        return scenario;
    }
    let mut plan = FaultPlan::new().with(FaultEvent::MdsLockStorm {
        from: SimTime::ZERO,
        until: SimTime::ZERO + SimDuration::from_secs(40),
        revoke_factor: 4.0,
    });
    for dev in 0..scenario.cluster.n_osts() {
        plan = plan.with(FaultEvent::SlowDisk {
            dev,
            factor: 7.0,
            from: SimTime::ZERO,
            until: SimTime::ZERO + SimDuration::from_secs(40),
        });
    }
    scenario.with_fault_plan(plan)
}

fn session_cfgs() -> (WindowConfig, FeatureConfig) {
    (
        WindowConfig::seconds(1),
        FeatureConfig {
            client: false,
            server: true,
        },
    )
}

/// Best-of-`samples` wall time of `f`, in milliseconds.
fn best_ms<T>(samples: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..samples {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(v);
    }
    (best, last.expect("at least one sample"))
}

/// A quiet synthetic cluster: `n_dev` devices sampled every 100 ms for
/// `n_windows` one-second windows, each device active in only one
/// window out of five (staggered), idle — cumulative counters frozen —
/// everywhere else.
fn quiet_stream(n_dev: usize, n_windows: usize) -> Vec<ServerSample> {
    let mut cum = vec![DeviceCounters::default(); n_dev];
    let mut out = Vec::new();
    for w in 0..n_windows {
        for tick in 0..10u64 {
            let time = SimTime::ZERO + SimDuration::from_millis((w as u64 * 10 + tick + 1) * 100);
            for (d, c) in cum.iter_mut().enumerate() {
                if w % 5 == d % 5 {
                    c.writes_completed += 3;
                    c.sectors_written += 24;
                    c.busy_ns += 40_000_000;
                }
                out.push(ServerSample {
                    time,
                    dev: DeviceId(d as u32),
                    counters: *c,
                    dirty_bytes: 0,
                    throttled_now: 0,
                });
            }
        }
    }
    out
}

/// The window a sample belongs to (a sample on an exact boundary closes
/// the window ending there) — mirrors the sampler's grouping.
fn window_of(wcfg: WindowConfig, s: &ServerSample) -> u64 {
    let t = s.time.as_nanos();
    if t == 0 {
        0
    } else {
        wcfg.index_of(SimTime(t - 1))
    }
}

/// How many `(device, window)` boundary samples — the newest sample of
/// each group, whose cumulative counters the window features are
/// derived from — changed or vanished under sampling. Zero means the
/// sampler cannot have moved any window feature.
fn boundary_drift(wcfg: WindowConfig, raw: &[ServerSample], kept: &[ServerSample]) -> usize {
    let newest = |stream: &[ServerSample]| {
        let mut m = std::collections::HashMap::new();
        for s in stream {
            m.insert((s.dev.0, window_of(wcfg, s)), *s);
        }
        m
    };
    let want = newest(raw);
    let got = newest(kept);
    want.iter().filter(|(k, s)| got.get(k) != Some(s)).count()
}

struct SamplerRow {
    regime: &'static str,
    seen: u64,
    kept: u64,
    savings: f64,
    boundary_drift: Option<usize>,
}

fn main() {
    let small = is_smoke();
    let skip_gate = no_timing_gates();
    let samples = if small { 2 } else { 5 };
    let t0 = Instant::now();
    let mut failures: Vec<String> = Vec::new();

    let (wcfg, fcfg) = session_cfgs();
    let n_devices = session_scenario(1, false).cluster.n_devices();

    // ------------------------------------------------------------ traces
    println!("running the anomaly-session scenarios...");
    let healthy_traces: Vec<RunTrace> = [1u64, 2, 3]
        .iter()
        .map(|&seed| session_scenario(seed, false).run().expect("healthy run").1)
        .collect();
    let (_, faulted_trace) = session_scenario(11, true).run().expect("faulted run");

    // -------------------------------------------------- score throughput
    let forest = ForestConfig {
        n_trees: 50,
        sample_size: 64,
        seed: 7,
    };
    let detector =
        AnomalyDetector::fit_healthy(forest, wcfg, fcfg, n_devices, &healthy_traces, 95.0);
    let rows: Vec<Vec<f32>> = healthy_traces
        .iter()
        .flat_map(|t| feature_rows(t, wcfg, fcfg, n_devices))
        .collect();
    let probe_n = if small { 20_000 } else { 100_000 };
    let probes: Vec<Vec<f32>> = (0..probe_n).map(|i| rows[i % rows.len()].clone()).collect();
    let (fit_ms, _) = best_ms(samples, || AnomalyScorer::fit_healthy(forest, &rows, 95.0));
    let (score_ms, scored) = best_ms(samples, || detector.scorer().forest().score_batch(&probes));
    assert_eq!(scored.len(), probe_n);
    let vectors_per_s = probe_n as f64 / (score_ms / 1e3);
    let us_per_vector = score_ms * 1e3 / probe_n as f64;
    println!(
        "score throughput: {probe_n} window-vectors in {score_ms:.1} ms \
         ({vectors_per_s:.0}/s, {us_per_vector:.2} us/vector; fit {fit_ms:.1} ms \
         on {} windows)",
        rows.len()
    );

    // ------------------------------------------------------------ sampler
    let mut sampler_rows: Vec<SamplerRow> = Vec::new();

    // Quiet regime: only quiet-window thinning, so ingest reduction must
    // come at zero boundary drift.
    let quiet = quiet_stream(8, if small { 60 } else { 240 });
    let (kept, stats) = AdaptiveSampler::run(
        SamplerConfig {
            budget: 8,
            quiet_keep: 1,
            seed: 9,
        },
        wcfg,
        quiet.clone(),
    );
    let drift = boundary_drift(wcfg, &quiet, &kept);
    sampler_rows.push(SamplerRow {
        regime: "quiet-synthetic",
        seen: stats.seen,
        kept: stats.kept,
        savings: stats.savings(),
        boundary_drift: Some(drift),
    });
    if stats.savings() < 0.30 {
        failures.push(format!(
            "quiet regime saved only {:.1}% of ingest (floor 30%)",
            stats.savings() * 100.0
        ));
    }
    if drift != 0 {
        failures.push(format!(
            "quiet regime drifted {drift} (device, window) boundary counters"
        ));
    }

    // Session regime: the faulted run behind the session's budget — the
    // savings the golden and the differential suite pin.
    let plain = detector.analyze(&faulted_trace);
    let sampled = detector
        .clone()
        .with_sampler(SamplerConfig {
            budget: 4,
            quiet_keep: 1,
            seed: 9,
        })
        .analyze(&faulted_trace);
    let sstats = sampled.sampler.expect("sampled report carries stats");
    sampler_rows.push(SamplerRow {
        regime: "session-faulted",
        seen: sstats.seen,
        kept: sstats.kept,
        savings: sstats.savings(),
        boundary_drift: None,
    });
    if sstats.savings() < 0.30 {
        failures.push(format!(
            "session regime saved only {:.1}% of ingest (floor 30%)",
            sstats.savings() * 100.0
        ));
    }
    let plain_flagged: Vec<u64> = plain.flagged().map(|ws| ws.window).collect();
    let sampled_flagged: Vec<u64> = sampled.flagged().map(|ws| ws.window).collect();
    if plain_flagged != sampled_flagged {
        failures.push(format!(
            "sampling changed the flagged set: {plain_flagged:?} vs {sampled_flagged:?}"
        ));
    }
    for r in &sampler_rows {
        println!(
            "sampler [{}]: {} -> {} samples ({:.1}% saved{})",
            r.regime,
            r.seen,
            r.kept,
            r.savings * 100.0,
            r.boundary_drift
                .map(|d| format!(", boundary drift {d}"))
                .unwrap_or_default(),
        );
    }

    // ---------------------------------------------------- ring memory
    let run_with_store = |store: TraceStoreConfig| {
        let mut scn = session_scenario(11, true);
        scn.cluster.trace_store = store;
        scn.run().expect("store-backed run").1
    };
    let unbounded = run_with_store(TraceStoreConfig::Unbounded);
    let ring = run_with_store(TraceStoreConfig::RleRing { capacity: 4096 });
    let tight = run_with_store(TraceStoreConfig::RleRing { capacity: 64 });
    assert_eq!(ring.samples.to_vec(), unbounded.samples.to_vec());
    let n = unbounded.samples.len();
    let cell_ratio = ring.samples.storage_cells() as f64 / n.max(1) as f64;
    println!(
        "ring memory: {} samples; unbounded ~{} B; rle ring {} cells ~{} B \
         ({:.2}x cells); tight ring held {} / evicted {}",
        n,
        unbounded.samples.approx_bytes(),
        ring.samples.storage_cells(),
        ring.samples.approx_bytes(),
        cell_ratio,
        tight.samples.len(),
        tight.samples.evicted(),
    );

    // --------------------------------------------------------------- JSON
    let out = std::env::var("QI_BENCH_OUT").map_or_else(
        |_| {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_anomaly.json")
        },
        std::path::PathBuf::from,
    );
    let passed = failures.is_empty();
    let mut s = String::from("{\n");
    s.push_str("  \"generated_by\": \"cargo bench -p qi-bench --bench anomaly_scale\",\n");
    s.push_str(&format!(
        "  \"gate\": {{\"basis\": \"sampler saves >=30% ingest on both regimes, zero \
         boundary drift on the quiet regime, flagged set unchanged\", \
         \"enforced\": {}, \"passed\": {passed}}},\n",
        !skip_gate
    ));
    s.push_str(&format!(
        "  \"score_throughput\": {{\"training_windows\": {}, \"probe_vectors\": {probe_n}, \
         \"fit_ms\": {fit_ms:.3}, \"score_ms\": {score_ms:.3}, \
         \"vectors_per_s\": {vectors_per_s:.0}, \"us_per_vector\": {us_per_vector:.3}, \
         \"n_trees\": {}, \"sample_size\": {}}},\n",
        rows.len(),
        forest.n_trees,
        forest.sample_size,
    ));
    s.push_str("  \"sampler\": [\n");
    for (i, r) in sampler_rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"regime\": \"{}\", \"seen\": {}, \"kept\": {}, \"savings\": {:.4}, \
             \"boundary_drift\": {}}}{}\n",
            r.regime,
            r.seen,
            r.kept,
            r.savings,
            r.boundary_drift
                .map(|d| d.to_string())
                .unwrap_or_else(|| "null".into()),
            if i + 1 < sampler_rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"ring\": {{\"samples\": {n}, \"unbounded_bytes\": {}, \"ring_cells\": {}, \
         \"ring_bytes\": {}, \"cell_ratio\": {cell_ratio:.4}, \"tight_capacity\": 64, \
         \"tight_held\": {}, \"tight_evicted\": {}}}\n",
        unbounded.samples.approx_bytes(),
        ring.samples.storage_cells(),
        ring.samples.approx_bytes(),
        tight.samples.len(),
        tight.samples.evicted(),
    ));
    s.push_str("}\n");
    std::fs::write(&out, s).expect("write BENCH_anomaly.json");
    println!("generated in {:.1?}; JSON: {}", t0.elapsed(), out.display());

    if !passed {
        for f in &failures {
            eprintln!("anomaly gate: {f}");
        }
        if !skip_gate {
            panic!(
                "anomaly gate failed ({} violation(s)); set QI_NO_TIMING_GATES=1 to waive",
                failures.len()
            );
        }
        eprintln!("QI_NO_TIMING_GATES=1: gate waived (recorded in the JSON)");
    }
}
