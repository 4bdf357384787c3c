//! The differential harness for anomaly detection and adaptive
//! sampling: each proven equivalent to its reference path on real
//! simulator traces.
//!
//! Three gates:
//!
//! 1. **Scorer determinism** — fitting and scoring the isolation
//!    forest is bit-identical across reruns and across rayon pools of
//!    1, 2, and 8 worker threads.
//! 2. **Sampler-off equivalence** — an unbounded-budget
//!    [`sampler::thin`] is a pass-through: the feature pipeline
//!    emits byte-identical windows whether the sampler sits in front
//!    of it or not.
//! 3. **ROC separation** — on the canonical anomaly session, every
//!    faulted window (all OSTs slowed 7×, MDS lock storm) scores
//!    strictly above the healthy p95 threshold, no healthy held-out
//!    window does, and both hold behind budget-bounded sampling.

use quanterference_repro::anomaly_demo::{
    run_anomaly_session, session_featurization, session_scenario, SESSION_FOREST,
};
use quanterference_repro::framework::prelude::*;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool")
        .install(f)
}

/// Per emitted window: the window index and every app's feature block
/// as raw bits.
type WindowBits = (u64, Vec<(u32, Vec<u32>)>);

/// Canonical comparable form of a pipeline run.
fn window_fingerprint(
    ops: &[qi_pfs::ops::OpRecord],
    rpcs: &[qi_pfs::ops::RpcRecord],
    samples: &[qi_pfs::ops::ServerSample],
    wcfg: WindowConfig,
    fcfg: FeatureConfig,
    n_devices: u32,
) -> Vec<WindowBits> {
    qi_monitor::pipeline::FeaturePipeline::new(wcfg, fcfg, n_devices)
        .run_streams(ops, rpcs, samples)
        .iter()
        .map(|ew| {
            let blocks = ew
                .feature_blocks(fcfg, n_devices, wcfg.window)
                .into_iter()
                .map(|(app, block)| (app.0, block.iter().map(|f| f.to_bits()).collect()))
                .collect();
            (ew.window, blocks)
        })
        .collect()
}

// -------------------------------------------------------------- gate 1

#[test]
fn scorer_is_bit_deterministic_across_reruns_and_thread_pools() {
    let (wcfg, fcfg) = session_featurization();
    let scn = session_scenario(1, false);
    let n_devices = scn.cluster.n_devices();
    let (_, healthy) = scn.run().expect("healthy run");
    let (_, faulted) = session_scenario(1, true).run().expect("faulted run");
    let rows = feature_rows(&healthy, wcfg, fcfg, n_devices);
    let probe = feature_rows(&faulted, wcfg, fcfg, n_devices);
    assert!(!rows.is_empty() && !probe.is_empty());

    let run = || {
        let scorer = AnomalyScorer::fit_healthy(SESSION_FOREST, &rows, 95.0);
        let scores: Vec<u64> = scorer
            .forest()
            .score_batch(&probe)
            .iter()
            .map(|s| s.to_bits())
            .collect();
        (scorer.threshold().to_bits(), scores)
    };

    let reference = run();
    assert_eq!(reference, run(), "rerun in the ambient pool diverged");
    for threads in [1usize, 2, 8] {
        let other = in_pool(threads, run);
        assert_eq!(
            reference, other,
            "scorer diverged under a {threads}-thread rayon pool"
        );
    }
}

// -------------------------------------------------------------- gate 2

#[test]
fn unbounded_budget_sampler_is_equivalent_to_no_sampler() {
    let (wcfg, fcfg) = session_featurization();
    let scn = session_scenario(11, true);
    let n_devices = scn.cluster.n_devices();
    let (_, trace) = scn.run().expect("faulted run");
    let raw = &trace.samples;
    assert!(!raw.is_empty(), "scenario produced no server samples");

    let (kept, stats) = sampler::thin(
        SamplerConfig {
            budget: u32::MAX,
            quiet_keep: 1,
            seed: 9,
        },
        wcfg,
        raw,
    );
    assert_eq!(stats.seen, stats.kept, "unbounded budget dropped samples");
    assert_eq!(&kept, raw, "pass-through reordered or altered samples");

    let direct = window_fingerprint(&trace.ops, &trace.rpcs, raw, wcfg, fcfg, n_devices);
    let sampled = window_fingerprint(&trace.ops, &trace.rpcs, &kept, wcfg, fcfg, n_devices);
    assert_eq!(
        direct, sampled,
        "windows/features diverged behind the unbounded sampler"
    );
}

// -------------------------------------------------------------- gate 3

#[test]
fn faulted_windows_score_above_the_healthy_p95() {
    let session = run_anomaly_session().expect("anomaly session runs");
    session.check_detection().expect("detection invariant");

    // ROC separation, window by window: nothing healthy flags, every
    // faulted window clears the healthy-p95 threshold.
    assert_eq!(
        session.healthy.n_flagged(),
        0,
        "held-out healthy windows above threshold"
    );
    assert!(!session.faulted.scores.is_empty());
    for ws in &session.faulted.scores {
        assert!(
            ws.score > session.faulted.threshold,
            "faulted window {} (app {}) scored {:.4} <= threshold {:.4}",
            ws.window,
            ws.app.0,
            ws.score,
            session.faulted.threshold
        );
        assert!(ws.anomalous);
    }
    // The healthy manifold margin is real, not epsilon-thin.
    assert!(
        session.faulted.max_score() > session.faulted.threshold + 0.05,
        "margin too thin: {:.4} vs {:.4}",
        session.faulted.max_score(),
        session.faulted.threshold
    );

    // Detection survives budget-bounded sampling, and the sampler
    // actually paid for itself on this session (the 30% floor). The
    // sampled detector was fitted through the same sampler, so it
    // carries its own threshold.
    let stats = session.sampled.sampler.expect("sampler stats");
    assert!(
        stats.savings() >= 0.30,
        "sampler saved only {:.1}% of ingest",
        stats.savings() * 100.0
    );
    assert_eq!(
        session.sampled.scores.len(),
        session.faulted.scores.len(),
        "sampling changed the scored window set"
    );
    for ws in &session.sampled.scores {
        assert!(
            ws.score > session.sampled.threshold,
            "sampled faulted window {} scored {:.4} <= threshold {:.4}",
            ws.window,
            ws.score,
            session.sampled.threshold
        );
    }
    // Read through the sampler, the held-out healthy run stays as quiet
    // as it does without one. A forest fitted on unthinned windows
    // flags 12 of its 15 windows here.
    assert_eq!(
        session.sampled_healthy.scores.len(),
        session.healthy.scores.len(),
        "sampling changed the scored healthy window set"
    );
    assert_eq!(
        session.sampled_healthy.n_flagged(),
        0,
        "held-out healthy windows above threshold behind the sampler"
    );

    // Telemetry namespaces: anomaly.* appears only because a scorer
    // ran; sampler counters only on the sampled leg.
    for (prefix, report) in [
        ("healthy", &session.healthy),
        ("faulted", &session.faulted),
        ("sampled", &session.sampled),
    ] {
        assert_eq!(
            report.snapshot.counter("anomaly.windows_scored"),
            Some(report.scores.len() as u64),
            "{prefix} windows_scored"
        );
        assert_eq!(
            report.snapshot.counter("anomaly.flagged"),
            Some(report.n_flagged() as u64),
            "{prefix} flagged"
        );
    }
    assert_eq!(
        session.healthy.snapshot.counter("monitor.sampler.seen"),
        None
    );
    assert_eq!(
        session.sampled.snapshot.counter("monitor.sampler.seen"),
        Some(stats.seen)
    );
}
