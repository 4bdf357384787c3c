//! The canonical anomaly-detection session, shared by the golden
//! snapshot in `tests/telemetry_golden.rs` and the differential
//! harness in `tests/anomaly_detection.rs`.
//!
//! One fixed, smoke-scale story: fit a deterministic isolation forest
//! on three healthy baseline runs, then score (a) a *held-out* healthy
//! run the forest never saw, (b) the same held-out run executed under
//! an aggressive fault plan (every OST slowed 7×, plus an MDS lock
//! storm) — faults **outside** the supervised label space — and (c)
//! both held-out runs again through a second detector that reads every
//! trace, its healthy baselines included, behind the budget-bounded
//! adaptive sampler.
//! Everything is seeded and driven from simulated time, so the whole
//! session — scores, verdicts, sampler accounting, telemetry — is
//! byte-identical across reruns and worker-thread counts.

use qi_telemetry::MetricsSnapshot;

use crate::framework::prelude::*;
use qi_simkit::time::{SimDuration, SimTime};

/// Everything one anomaly session produced.
pub struct AnomalySession {
    /// Report on the held-out healthy run (no sampler).
    pub healthy: AnomalyReport,
    /// Report on the faulted run (no sampler).
    pub faulted: AnomalyReport,
    /// Report on the faulted run read through the adaptive sampler, by
    /// the detector fitted through the same sampler.
    pub sampled: AnomalyReport,
    /// Report on the held-out healthy run read through the adaptive
    /// sampler by that detector. Not part of [`AnomalySession::snapshot`].
    pub sampled_healthy: AnomalyReport,
    /// The three reports' telemetry folded under the `healthy.`,
    /// `faulted.`, and `sampled.` prefixes — the golden artefact.
    pub snapshot: MetricsSnapshot,
}

impl AnomalySession {
    /// The detection invariant of the session: the faulted run must
    /// stand out (its peak score clears the healthy threshold and at
    /// least one window is flagged, sampled or not), the held-out
    /// healthy run must stay mostly quiet, and the sampler must have
    /// actually saved ingest. Returns the first violation, if any.
    pub fn check_detection(&self) -> Result<(), String> {
        if self.faulted.max_score() <= self.faulted.threshold {
            return Err(format!(
                "faulted peak score {:.4} does not clear the healthy threshold {:.4}",
                self.faulted.max_score(),
                self.faulted.threshold
            ));
        }
        if self.faulted.n_flagged() == 0 {
            return Err("faulted run raised no anomaly verdicts".into());
        }
        if self.sampled.n_flagged() == 0 {
            return Err("sampled faulted run raised no anomaly verdicts".into());
        }
        // The held-out healthy run should look like the training
        // distribution: no more than a quarter of its windows flagged.
        if self.healthy.n_flagged() * 4 > self.healthy.scores.len() {
            return Err(format!(
                "held-out healthy run flagged {}/{} windows",
                self.healthy.n_flagged(),
                self.healthy.scores.len()
            ));
        }
        let stats = self
            .sampled
            .sampler
            .as_ref()
            .ok_or("sampled report carries no sampler stats")?;
        if stats.dropped() == 0 {
            return Err("adaptive sampler dropped nothing".into());
        }
        Ok(())
    }
}

/// The session's featurization: 1 s windows over server-side features
/// only. Hardware degradation lives in the device counters (§III-B),
/// while client blocks mostly add healthy cross-seed variance that
/// blunts the detector.
pub fn session_featurization() -> (WindowConfig, FeatureConfig) {
    let fcfg = FeatureConfig {
        client: false,
        server: true,
    };
    (WindowConfig::seconds(1), fcfg)
}

/// The session's seeded isolation forest.
pub const SESSION_FOREST: ForestConfig = ForestConfig {
    n_trees: 50,
    sample_size: 64,
    seed: 7,
};

/// The session's adaptive-sampler budget: quiet device-windows thin to
/// one sample, active ones keep up to four.
pub const SESSION_SAMPLER: SamplerConfig = SamplerConfig {
    budget: 4,
    quiet_keep: 1,
    seed: 9,
};

/// The scenario every leg of the session runs: the smoke-scale target
/// under steady background interference (normal operation for this
/// cluster), a dense 100 ms server monitor so 1 s windows hold ten
/// samples per device, and — for the faulted leg — the novel-fault
/// plan the supervised label space knows nothing about, for the whole
/// run.
pub fn session_scenario(seed: u64, faulted: bool) -> Scenario {
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
    let plan = storm_plan(&scenario.cluster, 0, 40);
    scenario.with_fault_plan(plan)
}

/// The session's novel fault over `dur_s` seconds from `from_s`: every
/// OST slows 7× (a RAID-rebuild-like event) while the MDS lock path
/// storms — nothing the supervised bins were trained to recognise.
pub fn storm_plan(cluster: &ClusterConfig, from_s: u64, dur_s: u64) -> FaultPlan {
    let from = SimTime::ZERO + SimDuration::from_secs(from_s);
    let storm = FaultEvent::MdsLockStorm {
        from,
        until: from + SimDuration::from_secs(dur_s),
        revoke_factor: 4.0,
    };
    let slow = FaultSpec::SlowOsts {
        factor: 7.0,
        from_s,
        dur_s,
    };
    slow.plan(cluster).unwrap_or_default().with(storm)
}

/// The healthy baselines: three seeded runs of the session scenario
/// (interference present — that IS normal operation here). These are
/// the ONLY data the session's detectors train on.
pub fn healthy_baselines() -> Result<Vec<RunTrace>, QiError> {
    [1, 2, 3]
        .into_iter()
        .map(|seed| Ok(session_scenario(seed, false).run()?.1))
        .collect()
}

/// Fit the session's detector on `healthy`: the seeded forest over the
/// session featurization, read through `sampler` when one is given,
/// verdict threshold at the p95 of the healthy training scores.
pub fn fit_session_detector(
    healthy: &[RunTrace],
    sampler: Option<SamplerConfig>,
) -> AnomalyDetector {
    let (wcfg, fcfg) = session_featurization();
    let n_devices = session_scenario(1, false).cluster.n_devices();
    AnomalyDetector::fit_healthy(
        SESSION_FOREST,
        wcfg,
        fcfg,
        n_devices,
        sampler,
        healthy,
        95.0,
    )
}

/// Run the whole session. The returned telemetry must be byte-identical
/// across reruns and rayon worker-thread counts — the golden test gates
/// on that at 1, 2, and 8 threads.
pub fn run_anomaly_session() -> Result<AnomalySession, QiError> {
    let healthy_traces = healthy_baselines()?;
    let detector = fit_session_detector(&healthy_traces, None);

    // Held-out runs the forest never saw: the same scenario at a fresh
    // seed, healthy and under the novel-fault plan.
    let (_, healthy_trace) = session_scenario(11, false).run()?;
    let (_, faulted_trace) = session_scenario(11, true).run()?;

    let healthy = detector.analyze(&healthy_trace);
    let faulted = detector.analyze(&faulted_trace);

    // The same held-out traces read through the adaptive sampler, by a
    // detector fitted on the healthy baselines thinned the same way:
    // detection must survive the thinning, and healthy windows must
    // stay quiet.
    let sampled_detector = fit_session_detector(&healthy_traces, Some(SESSION_SAMPLER));
    let sampled = sampled_detector.analyze(&faulted_trace);
    let sampled_healthy = sampled_detector.analyze(&healthy_trace);

    let mut snapshot = MetricsSnapshot::new();
    snapshot.absorb("healthy", &healthy.snapshot);
    snapshot.absorb("faulted", &faulted.snapshot);
    snapshot.absorb("sampled", &sampled.snapshot);

    Ok(AnomalySession {
        healthy,
        faulted,
        sampled,
        sampled_healthy,
        snapshot,
    })
}
