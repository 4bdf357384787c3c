//! Prediction-guided interference mitigation — the use case the paper
//! motivates ("with such a capability, users can develop more effective
//! methods to mitigate such impacts", §II-B) but leaves to future work.
//!
//! This is the *closed-loop* evaluation harness over the `qi-control`
//! control plane: build a [`ControlLoop`] (a prediction-guided
//! [`GuidedThrottle`][qi_control::GuidedThrottle], the always-on
//! [`UniformThrottle`][qi_control::UniformThrottle] baseline, or any
//! custom [`MitigationPolicy`][qi_control::MitigationPolicy]), install
//! it on the scenario's cluster, and measure both sides of the trade —
//! how much of the interference-induced slowdown the target recovered,
//! and how much background throughput the actuation cost. Unlike the
//! retired one-shot schedule replay, the controller decides *online*,
//! window by window, from live predictions served inside the simulated
//! run; every decision it took is returned verbatim in
//! [`MitigationOutcome::directives`].

use std::collections::{BTreeMap, HashSet};

use qi_control::ControlLoop;
use qi_ml::serialize::model_to_text;
use qi_monitor::window::WindowConfig;
use qi_pfs::control::{ControlDirective, DirectiveRecord};
use qi_pfs::ids::AppId;
use qi_pfs::ops::RunTrace;
use qi_serve::{ModelRegistry, OverloadPolicy, ServeConfig, ShardedServeEngine};
use qi_simkit::error::QiError;
use qi_telemetry::MetricsSnapshot;

use crate::predict::Predictor;
use crate::scenario::{target_duration, Scenario};

/// What a mitigation controller achieved on one scenario.
#[derive(Clone, Debug)]
pub struct MitigationOutcome {
    /// Target duration with no interference at all (the ideal), seconds.
    pub baseline_s: f64,
    /// Target duration under unmitigated interference, seconds.
    pub unmitigated_s: f64,
    /// Target duration with the controller installed, seconds.
    pub mitigated_s: f64,
    /// Windows during which at least one noise app was rate-limited
    /// (derived from the applied directive sequence).
    pub throttled_windows: HashSet<u64>,
    /// Interference operations completed without mitigation.
    pub noise_ops_unmitigated: usize,
    /// Interference operations completed with mitigation (its cost).
    pub noise_ops_mitigated: usize,
    /// Every directive the controller applied, in application order.
    pub directives: Vec<DirectiveRecord>,
    /// The mitigated run's full telemetry snapshot (`pfs.control.*`
    /// actuator counters, `control.*` loop counters and per-directive
    /// histograms, `control.gate.*` hysteresis counters) — byte-stable,
    /// so closed-loop results are reproducible from telemetry alone.
    pub metrics: MetricsSnapshot,
}

impl MitigationOutcome {
    /// Fraction of the interference-induced slowdown removed:
    /// 1.0 = target fully recovered its baseline, 0.0 = no effect,
    /// negative = the mitigation hurt the target (clamped at -1.0).
    ///
    /// Degenerate-input convention: when there was no slowdown to
    /// recover (`unmitigated <= baseline`), or any duration is not
    /// finite, there is no meaningful fraction and this returns 0.0 —
    /// never NaN or ±inf.
    pub fn recovered_fraction(&self) -> f64 {
        let hurt = self.unmitigated_s - self.baseline_s;
        if !hurt.is_finite() || hurt <= 0.0 {
            return 0.0;
        }
        let frac = (self.unmitigated_s - self.mitigated_s) / hurt;
        if !frac.is_finite() {
            return 0.0;
        }
        frac.clamp(-1.0, 1.0)
    }

    /// Fraction of interference throughput lost to the mitigation:
    /// 0.0 = the noise was untouched, 1.0 = it was starved completely,
    /// negative = the noise somehow sped up (clamped at -1.0).
    ///
    /// Degenerate-input convention: with no unmitigated noise
    /// operations there is no throughput to lose and this returns 0.0.
    pub fn noise_cost_fraction(&self) -> f64 {
        if self.noise_ops_unmitigated == 0 {
            return 0.0;
        }
        let frac = 1.0 - self.noise_ops_mitigated as f64 / self.noise_ops_unmitigated as f64;
        frac.clamp(-1.0, 1.0)
    }
}

fn noise_ops(trace: &RunTrace, target: AppId) -> usize {
    trace.ops.iter().filter(|o| o.token.app != target).count()
}

/// Target duration in seconds, or [`QiError::Incomplete`] if `what`
/// never finished.
fn duration_of(trace: &RunTrace, app: AppId, what: &str) -> Result<f64, QiError> {
    target_duration(trace, app)
        .map(|d| d.as_secs_f64())
        .ok_or_else(|| QiError::Incomplete(format!("{what} run hit the deadline")))
}

/// The interference applications a scenario deploys: the target is app
/// 0, each interference instance gets the next id in deployment order.
pub fn noise_app_ids(scenario: &Scenario) -> Vec<AppId> {
    let n: u32 = scenario.interference.iter().map(|i| i.instances).sum();
    (1..=n).map(AppId).collect()
}

/// Wrap a trained [`Predictor`] as a sharded online prediction service
/// ready to drive a [`ControlLoop`]: its model enters a fresh
/// [`ModelRegistry`] through the QIMODEL text form (the same
/// serialization a deployment would ship) and is activated as version
/// 1, with a per-window batching configuration sized to `tenants`.
pub fn serve_predictor(
    predictor: Predictor,
    tenants: &[AppId],
    n_shards: usize,
) -> Result<ShardedServeEngine, QiError> {
    let window = predictor.window_config();
    let model = predictor.into_model();
    let mut registry = ModelRegistry::new(model.shape(), model.schema().clone());
    registry.load_text(1, &model_to_text(&model))?;
    registry.activate(1)?;
    let cfg = ServeConfig {
        max_batch: tenants.len().max(1),
        max_delay: window.window,
        queue_cap: 4 * tenants.len().max(1),
        admission: None,
        overload: OverloadPolicy::Shed,
        tenants: tenants.to_vec(),
        threads: None,
    };
    ShardedServeEngine::new(cfg, registry, n_shards)
}

/// Windows during which at least one app had a rate limit in force. A
/// limit applied at the close of window `w` acts from window `w + 1`
/// until the window its clearing directive closes (inclusive), or the
/// end of the run.
fn throttled_windows(trace: &RunTrace, wcfg: WindowConfig) -> HashSet<u64> {
    let mut engaged: BTreeMap<u32, u64> = BTreeMap::new();
    let mut out = HashSet::new();
    for rec in &trace.directives {
        match &rec.directive {
            ControlDirective::RateLimit { app, .. } => {
                engaged.entry(app.0).or_insert(rec.window);
            }
            ControlDirective::ClearRateLimit { app } => {
                if let Some(start) = engaged.remove(&app.0) {
                    out.extend(start + 1..=rec.window);
                }
            }
            _ => {}
        }
    }
    let end_window = wcfg.index_of(trace.end);
    for start in engaged.into_values() {
        out.extend(start + 1..=end_window);
    }
    out
}

/// Run the closed loop on `scenario` (which must have interference
/// configured): execute the ideal baseline, the unmitigated run, and a
/// run with `controller` installed on the cluster, then quantify both
/// sides of the trade. The controller decides online — predictions are
/// served at window boundaries *inside* the mitigated run, not replayed
/// from a previous execution.
pub fn evaluate_mitigation(
    scenario: &Scenario,
    controller: ControlLoop,
) -> Result<MitigationOutcome, QiError> {
    if scenario.interference.is_empty() {
        return Err(QiError::Config(
            "mitigation needs interference to mitigate".into(),
        ));
    }
    let wcfg = controller.window_config();
    let (app, baseline) = scenario.run_baseline()?;
    let (_, unmitigated) = scenario.run()?;
    let baseline_s = duration_of(&baseline, app, "baseline")?;
    let unmitigated_s = duration_of(&unmitigated, app, "unmitigated target")?;

    let (_, mitigated) = scenario.run_with(|cl| cl.install_controller(Box::new(controller)))?;
    let mitigated_s = duration_of(&mitigated, app, "mitigated target")?;

    Ok(MitigationOutcome {
        baseline_s,
        unmitigated_s,
        mitigated_s,
        throttled_windows: throttled_windows(&mitigated, wcfg),
        noise_ops_unmitigated: noise_ops(&unmitigated, app),
        noise_ops_mitigated: noise_ops(&mitigated, app),
        directives: mitigated.directives.clone(),
        metrics: mitigated.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::predict::train_and_evaluate;
    use crate::scenario::InterferenceSpec;
    use crate::{TrainConfig, WorkloadKind};
    use qi_control::{GuidedThrottle, UniformThrottle};
    use qi_pfs::config::ClusterConfig;

    fn outcome_shell() -> MitigationOutcome {
        MitigationOutcome {
            baseline_s: 10.0,
            unmitigated_s: 20.0,
            mitigated_s: 15.0,
            throttled_windows: HashSet::new(),
            noise_ops_unmitigated: 100,
            noise_ops_mitigated: 80,
            directives: Vec::new(),
            metrics: MetricsSnapshot::new(),
        }
    }

    #[test]
    fn fractions_on_healthy_inputs() {
        let o = outcome_shell();
        assert!((o.recovered_fraction() - 0.5).abs() < 1e-12);
        assert!((o.noise_cost_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn recovered_fraction_degenerate_inputs_never_nan() {
        // No slowdown to recover: unmitigated == baseline.
        let mut o = outcome_shell();
        o.unmitigated_s = o.baseline_s;
        assert_eq!(o.recovered_fraction(), 0.0);

        // Unmitigated FASTER than baseline (measurement noise).
        o.unmitigated_s = o.baseline_s - 1.0;
        assert_eq!(o.recovered_fraction(), 0.0);

        // Non-finite durations (a run that produced garbage upstream).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut o = outcome_shell();
            o.unmitigated_s = bad;
            let f = o.recovered_fraction();
            assert!(f.is_finite(), "unmitigated={bad}: got {f}");
            let mut o = outcome_shell();
            o.mitigated_s = bad;
            let f = o.recovered_fraction();
            assert!(f.is_finite(), "mitigated={bad}: got {f}");
        }

        // Mitigation made things worse: clamped, not unbounded.
        let mut o = outcome_shell();
        o.mitigated_s = 1000.0;
        assert_eq!(o.recovered_fraction(), -1.0);
    }

    #[test]
    fn noise_cost_fraction_degenerate_inputs_never_nan() {
        // No noise ops at all (e.g. the noise never got scheduled).
        let mut o = outcome_shell();
        o.noise_ops_unmitigated = 0;
        o.noise_ops_mitigated = 0;
        assert_eq!(o.noise_cost_fraction(), 0.0);

        // Noise sped up under mitigation: negative but clamped.
        let mut o = outcome_shell();
        o.noise_ops_mitigated = 1000;
        assert_eq!(o.noise_cost_fraction(), -1.0);

        // Noise starved completely.
        let mut o = outcome_shell();
        o.noise_ops_mitigated = 0;
        assert_eq!(o.noise_cost_fraction(), 1.0);
    }

    #[test]
    fn evaluate_requires_interference() {
        let scenario = Scenario::baseline(WorkloadKind::IorEasyRead, 1);
        let ctl = ControlLoop::builder()
            .policy(UniformThrottle::new(vec![AppId(1)], 1e6).expect("valid"))
            .window(WindowConfig::seconds(1))
            .build()
            .expect("valid loop");
        let err = evaluate_mitigation(&scenario, ctl).expect_err("no interference");
        assert!(err.to_string().contains("interference"), "{err}");
    }

    #[test]
    fn mis_sized_loop_is_refused_at_build() {
        // The registry fixes the server count; a loop sized otherwise
        // would have every request refused for its shape and, counting
        // the errors, never act. (The check needs a `ModelShape`, which
        // `qi-control` cannot name: hence this crate.)
        use qi_ml::train::ModelShape;
        use qi_monitor::{FeatureConfig, FeatureSchema, Imputation};
        let engine = || {
            let fcfg = FeatureConfig::default();
            let schema = FeatureSchema::current(WindowConfig::seconds(1), fcfg, Imputation::Zero);
            let shape = ModelShape {
                n_servers: 5,
                n_features: fcfg.len(),
                n_classes: 2,
            };
            let cfg = ServeConfig {
                max_batch: 1,
                max_delay: qi_simkit::time::SimDuration::from_secs(1),
                queue_cap: 4,
                admission: None,
                overload: OverloadPolicy::Shed,
                tenants: vec![AppId(0)],
                threads: None,
            };
            ShardedServeEngine::new(cfg, ModelRegistry::new(shape, schema), 1).expect("builds")
        };
        let sized = |n: u32| {
            ControlLoop::builder()
                .predictor(engine())
                .policy(GuidedThrottle::new(AppId(0), vec![AppId(1)], 1, 1e6).expect("valid"))
                .n_devices(n)
                .build()
        };
        let Err(err) = sized(4) else {
            panic!("four devices against five servers must not build");
        };
        assert!(matches!(err, QiError::Control(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains('4') && msg.contains('5'), "{msg}");
        assert!(sized(5).is_ok());
    }

    #[test]
    fn guided_throttling_recovers_target_performance() {
        // Train a quick model on the smoke grid, at 100 ms windows so
        // the online loop gets several decision points inside the short
        // smoke-scale target run.
        let mut spec = DatasetSpec::smoke();
        spec.seeds = (1..=4).collect();
        spec.window = WindowConfig::millis(100);
        let tcfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        let (_, predictor, _) = train_and_evaluate(&spec, &tcfg, 3).expect("pipeline runs");

        // A metadata target crushed ~7-12x per window by bulk writers:
        // strong enough interference that the model reliably flags it.
        let scenario = Scenario {
            cluster: ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            ..Scenario::baseline(WorkloadKind::MdtHardWrite, 55)
        }
        .with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyWrite,
            instances: 2,
            ranks: 2,
        });
        let target = AppId(0);
        let noise = noise_app_ids(&scenario);
        let mut tenants = vec![target];
        tenants.extend(noise.iter().copied());
        let service = serve_predictor(predictor, &tenants, 2).expect("service builds");
        let ctl = ControlLoop::builder()
            .predictor(service)
            .policy(GuidedThrottle::new(target, noise, 1, 5.0e6).expect("valid policy"))
            .n_devices(scenario.cluster.n_devices())
            .build()
            .expect("valid loop");
        let outcome = evaluate_mitigation(&scenario, ctl).expect("mitigation runs");
        assert!(outcome.unmitigated_s > outcome.baseline_s);
        // The loop must actually engage: predictions flagged hot windows
        // and the gate let rate limits through to the actuators.
        assert!(!outcome.directives.is_empty(), "loop never acted");
        assert!(!outcome.throttled_windows.is_empty(), "{outcome:?}");
        // Guided throttling must recover a real share of the slowdown
        // while taxing the background far less than always-on throttling
        // would (its cost stays well under half the noise throughput).
        assert!(
            outcome.recovered_fraction() > 0.3,
            "recovered too little: {outcome:?}"
        );
        assert!(
            outcome.noise_cost_fraction() < 0.5,
            "taxed the background too hard: {outcome:?}"
        );
        assert!(
            outcome.noise_ops_mitigated <= outcome.noise_ops_unmitigated,
            "{outcome:?}"
        );
        // Every applied directive shows up in both the directive log
        // and the actuator telemetry.
        let applied = outcome.metrics.counter("pfs.control.applied");
        assert_eq!(applied, Some(outcome.directives.len() as u64));
        assert!(outcome.metrics.counter("control.predictions").unwrap_or(0) > 0);
    }

    #[test]
    fn uniform_throttle_helps_the_target_but_taxes_the_noise() {
        let scenario = Scenario {
            cluster: ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            ..Scenario::baseline(WorkloadKind::IorEasyWrite, 57)
        }
        .with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyWrite,
            instances: 2,
            ranks: 2,
        });
        let ctl = ControlLoop::builder()
            .policy(UniformThrottle::new(noise_app_ids(&scenario), 5.0e6).expect("valid policy"))
            .window(WindowConfig::seconds(1))
            .build()
            .expect("valid loop");
        let outcome = evaluate_mitigation(&scenario, ctl).expect("mitigation runs");
        assert!(outcome.unmitigated_s > outcome.baseline_s);
        assert!(
            outcome.mitigated_s < outcome.unmitigated_s,
            "uniform throttle did not help: {outcome:?}"
        );
        assert!(
            outcome.noise_cost_fraction() > 0.1,
            "uniform throttle should visibly tax the noise: {outcome:?}"
        );
        // The uniform policy engages once per noise app and never
        // releases, so the throttled set covers the rest of the run.
        assert!(!outcome.throttled_windows.is_empty());
    }

    #[test]
    fn aggressive_uniform_throttle_recovers_most_of_the_slowdown() {
        // With an oracle-aggressive always-on throttle, the target must
        // recover the bulk of its lost performance — an upper bound on
        // what prediction-guided throttling can deliver.
        let scenario = Scenario {
            cluster: ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            ..Scenario::baseline(WorkloadKind::IorEasyRead, 56)
        }
        .with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyRead,
            instances: 2,
            ranks: 2,
        });
        let ctl = ControlLoop::builder()
            .policy(UniformThrottle::new(noise_app_ids(&scenario), 1.0e6).expect("valid policy"))
            .window(WindowConfig::seconds(1))
            .build()
            .expect("valid loop");
        let outcome = evaluate_mitigation(&scenario, ctl).expect("mitigation runs");
        assert!(
            outcome.unmitigated_s > outcome.baseline_s * 1.2,
            "scenario not interfered enough: {outcome:?}"
        );
        assert!(
            outcome.recovered_fraction() > 0.5,
            "oracle throttle recovered too little: {outcome:?}"
        );
    }
}
