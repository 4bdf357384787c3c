//! Unsupervised novel-fault detection over pipeline window vectors
//! (the PR-9 wiring layer).
//!
//! The supervised predictor ([`crate::predict`]) can only recognise the
//! interference patterns it was trained on. This module closes the gap
//! for faults *outside* the label space: an [`AnomalyDetector`] holds a
//! deterministic isolation forest ([`qi_ml::anomaly`]) fitted on
//! healthy-baseline feature vectors and scores every `(window, app)`
//! vector of a fresh trace, flagging windows whose isolation score
//! exceeds the healthy percentile threshold.
//!
//! Two properties matter here:
//!
//! - **Determinism** — the forest is seeded, fitting canonicalises row
//!   order, and scoring is pure, so a detector run is byte-identical
//!   across reruns and worker-thread counts.
//! - **Opt-in telemetry** — `anomaly.*` metrics exist only in the
//!   snapshot a detector run produces. Nothing here touches the
//!   simulator or pipeline registries, so every pre-existing golden
//!   artefact stays byte-unchanged when no scorer is installed.
//!
//! When a [`SamplerConfig`] budget is configured, the detector thins
//! the per-device sample series *before* featurization and folds the
//! sampler's `monitor.sampler.*` accounting into the same snapshot —
//! the ingest-cost story of the adaptive-monitoring satellite. The
//! sampler is part of the fit: the healthy baselines are read through
//! it too, because thinned samples shift the window features, and a
//! forest fitted on unthinned windows flags thinned healthy ones.

use std::borrow::Cow;

use qi_ml::anomaly::{AnomalyScorer, ForestConfig};
use qi_monitor::features::FeatureConfig;
use qi_monitor::pipeline::FeaturePipeline;
use qi_monitor::sampler::{thin, SamplerConfig, SamplerStats};
use qi_monitor::window::WindowConfig;
use qi_pfs::ids::AppId;
use qi_pfs::ops::RunTrace;
use qi_simkit::stats::Histogram;
use qi_telemetry::{MetricValue, MetricsSnapshot};

/// One scored `(window, application)` feature vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowScore {
    /// Window index within the run.
    pub window: u64,
    /// Application the feature block belongs to.
    pub app: AppId,
    /// Isolation score in `[0, 1]` (higher = more anomalous).
    pub score: f64,
    /// `score > threshold` (strict).
    pub anomalous: bool,
}

/// Everything one detector pass produced.
#[derive(Clone, Debug)]
pub struct AnomalyReport {
    /// Per-`(window, app)` scores, in window order (apps sorted within
    /// a window).
    pub scores: Vec<WindowScore>,
    /// The healthy-percentile threshold the verdicts used.
    pub threshold: f64,
    /// Adaptive-sampler accounting, if a budget was configured.
    pub sampler: Option<SamplerStats>,
    /// `anomaly.*` counters/histogram/gauge, plus `monitor.sampler.*`
    /// when sampling was enabled. Only a detector run emits these.
    pub snapshot: MetricsSnapshot,
}

impl AnomalyReport {
    /// Scores flagged as anomalous.
    pub fn flagged(&self) -> impl Iterator<Item = &WindowScore> {
        self.scores.iter().filter(|s| s.anomalous)
    }

    /// How many `(window, app)` vectors were flagged.
    pub fn n_flagged(&self) -> usize {
        self.flagged().count()
    }

    /// Highest isolation score seen (0.0 on an empty report).
    pub fn max_score(&self) -> f64 {
        self.scores.iter().fold(0.0, |m, s| m.max(s.score))
    }
}

/// Every `(window, app, block)` a trace featurizes to.
type Blocks = Vec<(u64, AppId, Vec<f32>)>;

/// The one featurization every detector path runs: the trace's sample
/// stream, thinned by `sampler` when one is given, driven with its ops
/// and RPCs through the canonical [`FeaturePipeline`]. Returns every
/// emitted `(window, app, block)` in window order, apps sorted inside a
/// window, and the sampler's accounting.
fn featurize(
    trace: &RunTrace,
    wcfg: WindowConfig,
    fcfg: FeatureConfig,
    n_devices: u32,
    sampler: Option<SamplerConfig>,
) -> (Blocks, Option<SamplerStats>) {
    let (samples, stats) = match sampler {
        Some(cfg) => {
            let (kept, stats) = thin(cfg, wcfg, &trace.samples);
            (Cow::Owned(kept), Some(stats))
        }
        None => (Cow::Borrowed(trace.samples.as_slice()), None),
    };
    let blocks = FeaturePipeline::new(wcfg, fcfg, n_devices)
        .run_streams(&trace.ops, &trace.rpcs, &samples)
        .iter()
        .flat_map(|ew| {
            ew.feature_blocks(fcfg, n_devices, wcfg.window)
                .into_iter()
                .map(|(app, block)| (ew.window, app, block))
        })
        .collect();
    (blocks, stats)
}

/// Every per-`(window, app)` feature vector a trace featurizes to, in
/// window order with apps sorted inside each window — the rows a
/// detector without a sampler fits on and scores.
pub fn feature_rows(
    trace: &RunTrace,
    wcfg: WindowConfig,
    fcfg: FeatureConfig,
    n_devices: u32,
) -> Vec<Vec<f32>> {
    let blocks = featurize(trace, wcfg, fcfg, n_devices, None).0;
    blocks.into_iter().map(|(_, _, block)| block).collect()
}

/// A fitted isolation-forest detector bound to one featurization
/// configuration, with an optional adaptive-sampling front end.
#[derive(Clone, Debug)]
pub struct AnomalyDetector {
    scorer: AnomalyScorer,
    wcfg: WindowConfig,
    fcfg: FeatureConfig,
    n_devices: u32,
    sampler: Option<SamplerConfig>,
}

impl AnomalyDetector {
    /// Fit a detector on healthy-baseline traces: featurize every
    /// trace — through the budget-bounded adaptive `sampler` when one
    /// is given, as [`AnomalyDetector::analyze`] will read every later
    /// trace — fit the seeded forest on the pooled rows, and set the
    /// verdict threshold at the `threshold_pct` percentile of the
    /// healthy scores (e.g. `95.0`).
    pub fn fit_healthy(
        forest: ForestConfig,
        wcfg: WindowConfig,
        fcfg: FeatureConfig,
        n_devices: u32,
        sampler: Option<SamplerConfig>,
        healthy: &[RunTrace],
        threshold_pct: f64,
    ) -> AnomalyDetector {
        let rows: Vec<Vec<f32>> = healthy
            .iter()
            .flat_map(|t| featurize(t, wcfg, fcfg, n_devices, sampler).0)
            .map(|(_, _, block)| block)
            .collect();
        AnomalyDetector {
            scorer: AnomalyScorer::fit_healthy(forest, &rows, threshold_pct),
            wcfg,
            fcfg,
            n_devices,
            sampler,
        }
    }

    /// The healthy-percentile verdict threshold.
    pub fn threshold(&self) -> f64 {
        self.scorer.threshold()
    }

    /// The fitted scorer.
    pub fn scorer(&self) -> &AnomalyScorer {
        &self.scorer
    }

    /// Score every `(window, app)` vector of `trace`, featurized the
    /// way the detector's healthy baselines were (through its sampler,
    /// if it has one); each block gets an
    /// [`qi_ml::anomaly::AnomalyVerdict`].
    pub fn analyze(&self, trace: &RunTrace) -> AnomalyReport {
        let (blocks, sampler) =
            featurize(trace, self.wcfg, self.fcfg, self.n_devices, self.sampler);
        let mut scores = Vec::with_capacity(blocks.len());
        let mut hist = Histogram::new(0.0, 1.0, 20);
        let mut flagged = 0u64;
        for (window, app, block) in blocks {
            let v = self.scorer.verdict(&block);
            hist.record(v.score);
            flagged += u64::from(v.anomalous);
            scores.push(WindowScore {
                window,
                app,
                score: v.score,
                anomalous: v.anomalous,
            });
        }

        let mut snapshot = MetricsSnapshot::new();
        snapshot.put(
            "anomaly.windows_scored",
            MetricValue::Counter(scores.len() as u64),
        );
        snapshot.put("anomaly.flagged", MetricValue::Counter(flagged));
        snapshot.put("anomaly.score", MetricValue::Histogram(hist));
        snapshot.put(
            "anomaly.threshold",
            MetricValue::Gauge(self.scorer.threshold()),
        );
        if let Some(stats) = &sampler {
            snapshot.absorb("", &stats.metrics_snapshot());
        }

        AnomalyReport {
            scores,
            threshold: self.scorer.threshold(),
            sampler,
            snapshot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use qi_workloads::registry::WorkloadKind;

    fn tiny_scenario(seed: u64) -> Scenario {
        Scenario {
            cluster: qi_pfs::config::ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            ..Scenario::baseline(WorkloadKind::IorEasyRead, seed)
        }
    }

    fn cfgs() -> (WindowConfig, FeatureConfig) {
        (WindowConfig::seconds(5), FeatureConfig::default())
    }

    #[test]
    fn healthy_windows_mostly_pass() {
        let (wcfg, fcfg) = cfgs();
        let scn = tiny_scenario(3);
        let n_devices = scn.cluster.n_devices();
        let (_, trace) = scn.run().unwrap();
        let det = AnomalyDetector::fit_healthy(
            ForestConfig {
                n_trees: 30,
                sample_size: 64,
                seed: 7,
            },
            wcfg,
            fcfg,
            n_devices,
            None,
            std::slice::from_ref(&trace),
            95.0,
        );
        let report = det.analyze(&trace);
        assert!(!report.scores.is_empty());
        // By construction ~5% of the training windows sit above the
        // p95 threshold.
        assert!(report.n_flagged() * 10 <= report.scores.len() + 9);
        assert_eq!(
            report.snapshot.counter("anomaly.windows_scored"),
            Some(report.scores.len() as u64)
        );
        assert_eq!(
            report.snapshot.counter("anomaly.flagged"),
            Some(report.n_flagged() as u64)
        );
        // No sampler configured → no sampler namespace in the snapshot.
        assert_eq!(report.snapshot.counter("monitor.sampler.seen"), None);
        assert!(report.sampler.is_none());
    }

    #[test]
    fn feature_rows_match_detector_input() {
        let (wcfg, fcfg) = cfgs();
        let scn = tiny_scenario(4);
        let n_devices = scn.cluster.n_devices();
        let (_, trace) = scn.run().unwrap();
        let rows = feature_rows(&trace, wcfg, fcfg, n_devices);
        let det = AnomalyDetector::fit_healthy(
            ForestConfig {
                n_trees: 10,
                sample_size: 32,
                seed: 1,
            },
            wcfg,
            fcfg,
            n_devices,
            None,
            std::slice::from_ref(&trace),
            95.0,
        );
        let report = det.analyze(&trace);
        assert_eq!(rows.len(), report.scores.len());
        let direct: Vec<f64> = rows.iter().map(|r| det.scorer().score(r)).collect();
        let via: Vec<f64> = report.scores.iter().map(|s| s.score).collect();
        assert_eq!(direct, via);
    }

    #[test]
    fn sampler_accounting_lands_in_the_snapshot() {
        let (wcfg, fcfg) = cfgs();
        let scn = tiny_scenario(5);
        let n_devices = scn.cluster.n_devices();
        let (_, trace) = scn.run().unwrap();
        let det = AnomalyDetector::fit_healthy(
            ForestConfig {
                n_trees: 10,
                sample_size: 32,
                seed: 1,
            },
            wcfg,
            fcfg,
            n_devices,
            Some(SamplerConfig {
                budget: 4,
                quiet_keep: 1,
                seed: 9,
            }),
            std::slice::from_ref(&trace),
            95.0,
        );
        let report = det.analyze(&trace);
        let stats = report.sampler.expect("sampler was configured");
        assert_eq!(stats.seen, trace.samples.len() as u64);
        assert_eq!(
            report.snapshot.counter("monitor.sampler.kept"),
            Some(stats.kept)
        );
        assert_eq!(
            report.snapshot.counter("monitor.sampler.dropped"),
            Some(stats.dropped())
        );
    }
}
