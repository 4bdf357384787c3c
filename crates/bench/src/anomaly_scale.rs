//! **Anomaly detection & adaptive monitoring — what it costs**
//! (DESIGN.md — anomaly detection & adaptive monitoring), on the
//! canonical anomaly session and on a synthetic quiet cluster:
//!
//! 1. Isolation-forest rate — fit on the healthy session windows, then
//!    score a large tiled probe batch. Wall-clock, so printed with the
//!    host's thread count and kept out of the CSV; `benchmark/` has no
//!    forest row, which is why this one line stays.
//! 2. Adaptive-sampler ingest reduction on a *quiet* synthetic cluster
//!    (devices idle 4 windows out of 5) and on the faulted session, and
//!    for the quiet regime the boundary drift: how many newest samples
//!    of a `(device, window)` group — the cumulative counters the
//!    window features are computed from — sampling changed or lost.
//!
//! 2's rows are simulated-time counts and go to
//! `results/anomaly_monitoring.csv`. What must hold of them is asserted
//! in Tier-1: `crates/monitor/tests/sampler_props.rs` (the newest sample
//! of every group survives; the quiet regime saves ≥ 30 %) and
//! `tests/anomaly_detection.rs` (the session saves ≥ 30 % with the same
//! windows flagged).

use std::time::Instant;

use qi_pfs::ids::DeviceId;
use qi_pfs::ops::ServerSample;
use qi_pfs::queue::DeviceCounters;
use qi_simkit::table::AsciiTable;
use qi_simkit::time::{SimDuration, SimTime};
use quanterference::prelude::*;
use quanterference_repro::anomaly_demo::{run_anomaly_session, session_scenario};

use crate::Context;

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
    let wcfg = WindowConfig::seconds(1);
    let fcfg = FeatureConfig {
        client: false,
        server: true,
    };
    let mut table = AsciiTable::new(vec!["metric", "value"]);
    let mut row = |metric: &str, value: String| table.add_row(vec![metric.to_string(), value]);

    // ------------------------------------------------------- forest rate
    println!("running the anomaly-session scenarios...");
    let n_devices = session_scenario(1, false).cluster.n_devices();
    let rows: Vec<Vec<f32>> = [1u64, 2, 3]
        .iter()
        .flat_map(|&seed| {
            let (_, trace) = session_scenario(seed, false).run().expect("healthy run");
            feature_rows(&trace, wcfg, fcfg, n_devices)
        })
        .collect();
    let forest = ForestConfig {
        n_trees: 50,
        sample_size: 64,
        seed: 7,
    };
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
    let (kept, quiet_stats) = AdaptiveSampler::run(
        SamplerConfig {
            budget: 8,
            quiet_keep: 1,
            seed: 9,
        },
        wcfg,
        quiet.clone(),
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
