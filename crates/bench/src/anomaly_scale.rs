//! **Anomaly detection & adaptive monitoring — what it catches and
//! what it costs** (DESIGN.md — anomaly detection & adaptive
//! monitoring):
//!
//! 1. Detection — the session's forest, plain and behind the sampler,
//!    against three one-metric thresholds (a server feature's device
//!    max at its healthy p95: LASSi's kind of flag), all fitted on the
//!    same healthy runs and scored per window over seven fault
//!    conditions on twenty held-out seeds. `results/anomaly_detection.csv`
//!    holds AUC, precision, recall and false-flag rate;
//!    `tests/gates.rs` pins and gates it.
//! 2. Isolation-forest rate — fit on the healthy session windows, then
//!    score a large tiled probe batch. Wall-clock, so printed with the
//!    host's thread count and kept out of the CSV; `benchmark/` has no
//!    forest row, which is why this one line stays.
//! 3. Adaptive-sampler ingest reduction on a *quiet* synthetic cluster
//!    (devices idle 4 windows out of 5) and on the faulted session, and
//!    for the quiet regime the boundary drift: how many newest samples
//!    of a `(device, window)` group — the cumulative counters the
//!    window features are computed from — sampling changed or lost.
//!
//! 3's rows are simulated-time counts and go to
//! `results/anomaly_monitoring.csv`. What must hold of them is asserted
//! in Tier-1: `crates/monitor/tests/sampler_props.rs` (the newest sample
//! of every group survives; the quiet regime saves ≥ 30 %) and
//! `tests/anomaly_detection.rs` (the session saves ≥ 30 % with the same
//! windows flagged).

use std::time::Instant;

use qi_monitor::features::feature_names;
use qi_pfs::ids::DeviceId;
use qi_pfs::ops::ServerSample;
use qi_pfs::queue::DeviceCounters;
use qi_simkit::stats::percentile;
use qi_simkit::table::AsciiTable;
use qi_simkit::time::{SimDuration, SimTime};
use quanterference::prelude::*;
use quanterference_repro::anomaly_demo::{
    fit_session_detector, healthy_baselines, run_anomaly_session, session_featurization,
    session_scenario, storm_plan, SESSION_FOREST, SESSION_SAMPLER,
};

use crate::Context;

/// Each faulted condition degrades seconds `[FAULT_FROM_S, FAULT_FROM_S
/// + FAULT_DUR_S)` of its run.
const FAULT_FROM_S: u64 = 2;
const FAULT_DUR_S: u64 = 8;

/// The held-out session seeds (the detectors fit on seeds 1–3).
const HELD_OUT_SEEDS: std::ops::Range<u64> = 11..31;

/// The server features the one-metric threshold detectors read.
const THRESHOLD_FEATURES: [&str; 3] = [
    "srv_wait_time_ms_mean",
    "srv_busy_ms_mean",
    "srv_queue_depth_ms_mean",
];

/// The fault conditions in row order: name, whether every OST slows
/// (the AUC gate's rows), and the plan.
fn conditions(cluster: &ClusterConfig) -> [(&'static str, bool, Option<FaultPlan>); 7] {
    let (from_s, dur_s) = (FAULT_FROM_S, FAULT_DUR_S);
    let all = |factor| FaultSpec::SlowOsts {
        factor,
        from_s,
        dur_s,
    };
    let ost0 = |factor| FaultSpec::SlowOst {
        dev: 0,
        factor,
        from_s,
        dur_s,
    };
    let storm = Some(storm_plan(cluster, from_s, dur_s));
    [
        ("healthy", false, None),
        ("all OSTs 2x", true, all(2.0).plan(cluster)),
        ("all OSTs 4x", true, all(4.0).plan(cluster)),
        ("all OSTs 7x", true, all(7.0).plan(cluster)),
        ("OST 0 4x", false, ost0(4.0).plan(cluster)),
        ("OST 0 7x", false, ost0(7.0).plan(cluster)),
        ("session storm", true, storm),
    ]
}

/// One (condition, detector) row of `results/anomaly_detection.csv`,
/// counted in windows. A faulted condition's negatives are its own
/// windows outside the fault plus every held-out healthy window. A rate
/// whose denominator is empty is `None`.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectionRow {
    pub condition: &'static str,
    /// Whether the condition slows every OST.
    pub all_osts: bool,
    pub detector: String,
    /// Held-out runs that differ from every earlier seed's run.
    pub distinct_runs: usize,
    pub positives: usize,
    pub negatives: usize,
    pub flagged: usize,
    /// Flagged negatives over negatives.
    pub false_flag_rate: Option<f64>,
    pub auc: Option<f64>,
    pub precision: Option<f64>,
    pub recall: Option<f64>,
}

/// One window's `(score, flagged, positive)`.
type Scored = (f64, bool, bool);

impl DetectionRow {
    fn new(key: (&'static str, bool, usize), detector: &str, scored: &[Scored]) -> Self {
        let ratio = |num: usize, den: usize| (den > 0).then(|| num as f64 / den as f64);
        let (pos, neg): (Vec<Scored>, Vec<Scored>) = scored.iter().partition(|s| s.2);
        let hits = pos.iter().filter(|s| s.1).count();
        let false_flags = neg.iter().filter(|s| s.1).count();
        // Mann–Whitney: the chance a positive outscores a negative, ties
        // counting half.
        let wins: f64 = pos
            .iter()
            .flat_map(|p| neg.iter().map(move |n| (p.0, n.0)))
            .map(|(p, n)| f64::from(u8::from(p > n)) + if p == n { 0.5 } else { 0.0 })
            .sum();
        DetectionRow {
            condition: key.0,
            all_osts: key.1,
            detector: detector.to_string(),
            distinct_runs: key.2,
            positives: pos.len(),
            negatives: neg.len(),
            flagged: hits + false_flags,
            false_flag_rate: ratio(false_flags, neg.len()),
            auc: ratio(1, pos.len() * neg.len()).map(|r| wins * r),
            precision: ratio(hits, hits + false_flags),
            recall: ratio(hits, pos.len()),
        }
    }
}

/// Fold per-vector `(window, score, flagged)` triples, in window order,
/// into one entry a window: its highest score, flagged when any of its
/// vectors is, positive when `faulted` and it overlaps the fault.
fn per_window(
    vectors: impl IntoIterator<Item = (u64, f64, bool)>,
    faulted: bool,
    wcfg: WindowConfig,
) -> Vec<Scored> {
    let len = wcfg.window.as_secs_f64();
    let (from, until) = (FAULT_FROM_S as f64, (FAULT_FROM_S + FAULT_DUR_S) as f64);
    let mut out: Vec<(u64, Scored)> = Vec::new();
    for (w, score, flagged) in vectors {
        match out.last_mut() {
            Some((last, s)) if *last == w => *s = (s.0.max(score), s.1 || flagged, s.2),
            _ => {
                let start = w as f64 * len;
                let positive = faulted && start < until && start + len > from;
                out.push((w, (score, flagged, positive)));
            }
        }
    }
    out.into_iter().map(|(_, s)| s).collect()
}

/// Run every condition on the held-out seeds and score it with every
/// detector. Simulated time throughout, so the rows are the same on
/// every host.
pub fn detection() -> Vec<DetectionRow> {
    let (wcfg, fcfg) = session_featurization();
    let cluster = session_scenario(1, false).cluster;
    let n_devices = cluster.n_devices();
    let healthy = healthy_baselines().expect("healthy runs");
    let forests = [
        ("forest", fit_session_detector(&healthy, None)),
        (
            "forest + sampler",
            fit_session_detector(&healthy, Some(SESSION_SAMPLER)),
        ),
    ];
    // A threshold scores a block by its feature's largest value over the
    // devices and cuts at that score's p95 over the healthy rows.
    let names = feature_names(fcfg);
    let device_max = |block: &[f32], col: usize| {
        let values = block.chunks_exact(names.len()).map(|v| f64::from(v[col]));
        values.fold(f64::NEG_INFINITY, f64::max)
    };
    let healthy_rows: Vec<Vec<f32>> = healthy
        .iter()
        .flat_map(|t| feature_rows(t, wcfg, fcfg, n_devices))
        .collect();
    let thresholds: Vec<(String, usize, f64)> = THRESHOLD_FEATURES
        .iter()
        .map(|f| {
            let col = names.iter().position(|n| n == f).expect("a server feature");
            let train: Vec<f64> = healthy_rows.iter().map(|b| device_max(b, col)).collect();
            (format!("max {f} > p95"), col, percentile(&train, 95.0))
        })
        .collect();

    let mut rows = Vec::new();
    let mut healthy_windows: Vec<Vec<Scored>> = Vec::new();
    for (condition, all_osts, plan) in conditions(&cluster) {
        let faulted = plan.is_some();
        let mut scored: Vec<Vec<Scored>> = vec![Vec::new(); forests.len() + thresholds.len()];
        let mut runs: Vec<RunTrace> = Vec::new();
        for seed in HELD_OUT_SEEDS {
            let mut scn = session_scenario(seed, false);
            if let Some(plan) = &plan {
                scn = scn.with_fault_plan(plan.clone());
            }
            let (_, trace) = scn.run().expect("held-out run");
            let reports = forests.each_ref().map(|(_, d)| d.analyze(&trace));
            for (out, report) in scored.iter_mut().zip(&reports) {
                let vectors = report
                    .scores
                    .iter()
                    .map(|s| (s.window, s.score, s.anomalous));
                out.extend(per_window(vectors, faulted, wcfg));
            }
            // `feature_rows` is the plain forest's input, row for row.
            let blocks = feature_rows(&trace, wcfg, fcfg, n_devices);
            assert_eq!(blocks.len(), reports[0].scores.len(), "one featurization");
            for (out, (_, col, cut)) in scored[forests.len()..].iter_mut().zip(&thresholds) {
                let vectors = blocks.iter().zip(&reports[0].scores).map(|(b, s)| {
                    let score = device_max(b, *col);
                    (s.window, score, score > *cut)
                });
                out.extend(per_window(vectors, faulted, wcfg));
            }
            let same = |t: &RunTrace| {
                t.ops == trace.ops && t.rpcs == trace.rpcs && t.samples == trace.samples
            };
            if !runs.iter().any(same) {
                runs.push(trace);
            }
        }
        if faulted {
            for (own, healthy) in scored.iter_mut().zip(&healthy_windows) {
                own.extend_from_slice(healthy);
            }
        } else {
            healthy_windows = scored.clone();
        }
        let names = forests
            .iter()
            .map(|f| f.0)
            .chain(thresholds.iter().map(|t| &t.0[..]));
        for (detector, scored) in names.zip(&scored) {
            let key = (condition, all_osts, runs.len());
            rows.push(DetectionRow::new(key, detector, scored));
        }
    }
    rows
}

/// The detection table: one row per (condition, detector).
pub fn detection_table(rows: &[DetectionRow]) -> AsciiTable {
    let header = "condition,detector,distinct_runs,positives,negatives,flagged,\
                  false_flag_rate,auc,precision,recall";
    let mut table = AsciiTable::new(header.split(',').collect());
    let rate = |r: Option<f64>| r.map_or("-".to_string(), |r| format!("{r:.4}"));
    for r in rows {
        let counts = [r.distinct_runs, r.positives, r.negatives, r.flagged];
        let rates = [r.false_flag_rate, r.auc, r.precision, r.recall];
        let names = [r.condition.to_string(), r.detector.clone()];
        let cells = counts
            .map(|n| n.to_string())
            .into_iter()
            .chain(rates.map(rate));
        table.add_row(names.into_iter().chain(cells).collect());
    }
    table
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

/// How many `(device, window)` boundary samples — the newest sample of
/// each group — changed or vanished under sampling. Zero means the
/// sampler cannot have moved any window feature.
fn boundary_drift(wcfg: WindowConfig, raw: &[ServerSample], kept: &[ServerSample]) -> usize {
    let newest = |stream: &[ServerSample]| {
        let mut m = std::collections::HashMap::new();
        for s in stream {
            m.insert((s.dev.0, wcfg.sample_index_of(s.time)), *s);
        }
        m
    };
    let want = newest(raw);
    let got = newest(kept);
    want.iter().filter(|(k, s)| got.get(k) != Some(s)).count()
}

pub fn run(ctx: &mut Context) {
    // --------------------------------------------------------- detection
    println!("scoring the fault conditions on the held-out seeds...");
    let rows = detection();
    let detection = detection_table(&rows);
    println!("{}", detection.render());
    ctx.write_results("anomaly_detection.csv", &detection);

    let (wcfg, fcfg) = session_featurization();
    let mut table = AsciiTable::new(vec!["metric", "value"]);
    let mut row = |metric: &str, value: String| table.add_row(vec![metric.to_string(), value]);

    // ------------------------------------------------------- forest rate
    let n_devices = session_scenario(1, false).cluster.n_devices();
    let rows: Vec<Vec<f32>> = healthy_baselines()
        .expect("healthy runs")
        .iter()
        .flat_map(|trace| feature_rows(trace, wcfg, fcfg, n_devices))
        .collect();
    let forest = SESSION_FOREST;
    let probe_n = 100_000;
    let probes: Vec<Vec<f32>> = (0..probe_n).map(|i| rows[i % rows.len()].clone()).collect();
    let t_fit = Instant::now();
    let scorer = AnomalyScorer::fit_healthy(forest, &rows, 95.0);
    let fit_ms = t_fit.elapsed().as_secs_f64() * 1e3;
    let t_score = Instant::now();
    let scored = scorer.forest().score_batch(&probes);
    let score_s = t_score.elapsed().as_secs_f64();
    assert_eq!(scored.len(), probe_n);
    println!(
        "forest ({} trees x {}): fit {fit_ms:.1} ms on {} windows; scored {probe_n} \
         window-vectors at {:.0}/s on {} hardware thread(s) (one run, ungated)",
        forest.n_trees,
        forest.sample_size,
        rows.len(),
        probe_n as f64 / score_s,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // ------------------------------------------------------------ sampler
    // Quiet regime: only quiet-window thinning, so the ingest reduction
    // must come at zero boundary drift.
    let quiet = quiet_stream(8, 240);
    let (kept, quiet_stats) = sampler::thin(
        SamplerConfig {
            budget: 8,
            quiet_keep: 1,
            seed: 9,
        },
        wcfg,
        &quiet,
    );
    let drift = boundary_drift(wcfg, &quiet, &kept);
    // Session regime: the faulted run behind the session's own budget.
    let session = run_anomaly_session().expect("anomaly session runs");
    let session_stats = session
        .sampled
        .sampler
        .expect("sampled report carries stats");
    for (regime, stats, drift) in [
        ("quiet-synthetic", quiet_stats, Some(drift)),
        ("session-faulted", session_stats, None),
    ] {
        println!(
            "sampler [{regime}]: {} -> {} samples ({:.1}% saved{})",
            stats.seen,
            stats.kept,
            stats.savings() * 100.0,
            drift.map_or(String::new(), |d| format!(", boundary drift {d}")),
        );
        row(&format!("sampler.{regime}.seen"), stats.seen.to_string());
        row(&format!("sampler.{regime}.kept"), stats.kept.to_string());
        row(
            &format!("sampler.{regime}.savings"),
            format!("{:.4}", stats.savings()),
        );
        if let Some(d) = drift {
            row(&format!("sampler.{regime}.boundary_drift"), d.to_string());
        }
    }
    println!(
        "session windows flagged: {} plain, {} behind the sampler",
        session.faulted.n_flagged(),
        session.sampled.n_flagged()
    );

    ctx.write_results("anomaly_monitoring.csv", &table);
}
