//! The online control loop: trace deltas → features → predictions →
//! policy → gate → directives, once per closed window.
//!
//! [`ControlLoop`] implements [`ClusterController`], so the cluster
//! calls [`on_window`](ClusterController::on_window) at every window
//! close (1 ns after the boundary — after the boundary's own events,
//! before anything from the next window). Each tick:
//!
//! 1. **Ingest** ([`FeaturePipeline::ingest_until`]`(trace, B)`): every
//!    trace event the simulator appended since the last tick whose
//!    event time is at or before the closed window's boundary `B`, in
//!    the monitor's canonical merge order, then the watermark advances
//!    to `B` so the window closes even if it was quiet. Events past `B`
//!    (already recorded because the tick itself runs 1 ns later) stay
//!    for the next tick.
//! 2. **Predict** ([`WindowFeed::submit`], then `finish`): each emitted
//!    window yields one request per active app — the same function the
//!    offline replay driver submits through — at the tick instant, and
//!    the engine is flushed so every admitted request is answered
//!    within the tick.
//! 3. **Decide**: the policy states its desired posture from the
//!    closed window's predictions (sorted by window then tenant).
//! 4. **Gate**: hysteresis/cooldown filters the desires into the
//!    directives the cluster will apply.
//!
//! Everything is driven by simulated time and deterministic inputs, so
//! the directive sequence is a pure function of the run — byte-identical
//! across reruns and thread counts (locked in by the determinism suite).

use qi_monitor::{FeaturePipeline, WindowConfig};
use qi_pfs::control::{ClusterController, ControlDirective};
use qi_pfs::ops::RunTrace;
use qi_serve::{Prediction, ReplaySummary, ShardedServeEngine, WindowFeed};
use qi_simkit::error::QiError;
use qi_simkit::stats::Histogram;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::gate::{Hysteresis, HysteresisGate};
use crate::policy::{MitigationPolicy, WindowObservation};

/// Both directive labels, engage first, one counter each, so the
/// snapshot key set is the same whatever was emitted.
const DIRECTIVE_LABELS: [&str; 2] = ["rate_limit", "clear_rate_limit"];

/// The loop's own counters (`control.*`), written by
/// [`ClusterController::metrics_into`].
struct LoopStats {
    ticks: u64,
    predictions: u64,
    errors: u64,
    desired: u64,
    emitted: u64,
    /// Directives desired and emitted per tick.
    desired_per_tick: Histogram,
    emitted_per_tick: Histogram,
    /// Emitted engage and clear directives, in `DIRECTIVE_LABELS` order.
    directive: [u64; 2],
}

impl LoopStats {
    fn new() -> Self {
        LoopStats {
            ticks: 0,
            predictions: 0,
            errors: 0,
            desired: 0,
            emitted: 0,
            desired_per_tick: Histogram::new(0.0, 16.0, 16),
            emitted_per_tick: Histogram::new(0.0, 16.0, 16),
            directive: [0; 2],
        }
    }
}

/// The prediction-guided mitigation controller. Build one with
/// [`ControlLoop::builder`] and hand it to
/// [`Cluster::install_controller`](qi_pfs::cluster::Cluster::install_controller).
pub struct ControlLoop {
    wcfg: WindowConfig,
    /// The prediction service, with the monitor pipeline and window
    /// feed its registry prescribes.
    served: Option<(ShardedServeEngine, FeaturePipeline, WindowFeed)>,
    policy: Box<dyn MitigationPolicy>,
    gate: HysteresisGate,
    desired: Vec<ControlDirective>,
    stats: LoopStats,
}

impl ControlLoop {
    /// Start configuring a control loop.
    pub fn builder() -> ControlLoopBuilder {
        ControlLoopBuilder {
            predictor: None,
            policy: None,
            hysteresis: Hysteresis::default(),
            n_devices: None,
            window: None,
        }
    }

    /// The window configuration the loop ticks on.
    pub fn window_config(&self) -> WindowConfig {
        self.wcfg
    }

    /// One tick's observation: ingest the trace up to `bound`, submit
    /// each window that closed, and flush the engine within the tick so
    /// decisions never wait on a half-full batch. What was answered is
    /// in the feed's tally.
    fn observe(&mut self, now: SimTime, bound: SimTime, trace: &RunTrace) -> Result<(), QiError> {
        let Some((engine, pipeline, feed)) = self.served.as_mut() else {
            return Ok(());
        };
        for w in pipeline.ingest_until(trace, bound)? {
            feed.submit(engine, now, &w)?;
        }
        feed.summary.predictions.extend(engine.finish(now)?);
        Ok(())
    }
}

impl ClusterController for ControlLoop {
    fn interval(&self) -> SimDuration {
        self.wcfg.window
    }

    fn on_window(
        &mut self,
        now: SimTime,
        window: u64,
        trace: &RunTrace,
        out: &mut Vec<ControlDirective>,
    ) {
        self.stats.ticks += 1;
        let bound = self.wcfg.start_of(window + 1);
        if self.observe(now, bound, trace).is_err() {
            // A serving/pipeline failure must not stall the simulation:
            // count it and decide from whatever arrived (possibly
            // nothing — guided policies treat that as cool).
            self.stats.errors += 1;
        }
        let mut preds: Vec<Prediction> = match self.served.as_mut() {
            Some((_, _, feed)) => std::mem::take(&mut feed.summary.predictions),
            None => Vec::new(),
        };
        self.stats.predictions += preds.len() as u64;
        preds.sort_by_key(|p| (p.window, p.tenant.0));
        let this_window: Vec<Prediction> =
            preds.into_iter().filter(|p| p.window == window).collect();

        self.desired.clear();
        let obs = WindowObservation {
            window,
            now,
            predictions: &this_window,
        };
        self.policy.decide(&obs, &mut self.desired);
        self.stats.desired += self.desired.len() as u64;
        self.stats
            .desired_per_tick
            .record(self.desired.len() as f64);

        let before = out.len();
        self.gate.filter(&self.desired, out);
        let emitted = &out[before..];
        self.stats.emitted += emitted.len() as u64;
        self.stats.emitted_per_tick.record(emitted.len() as f64);
        for d in emitted {
            self.stats.directive[usize::from(!d.is_engage())] += 1;
        }
    }

    fn metrics_into(&self, snap: &mut MetricsSnapshot) {
        let st = &self.stats;
        for (name, v) in [
            ("ticks", st.ticks),
            ("predictions", st.predictions),
            ("errors", st.errors),
            ("desired", st.desired),
            ("emitted", st.emitted),
        ] {
            snap.put(&format!("control.{name}"), MetricValue::Counter(v));
        }
        for (label, &v) in DIRECTIVE_LABELS.iter().zip(&st.directive) {
            snap.put(
                &format!("control.directive.{label}"),
                MetricValue::Counter(v),
            );
        }
        for (name, h) in [
            ("desired_per_tick", &st.desired_per_tick),
            ("emitted_per_tick", &st.emitted_per_tick),
        ] {
            snap.put(
                &format!("control.{name}"),
                MetricValue::Histogram(h.clone()),
            );
        }
        let idle = ReplaySummary::default();
        let tally = (self.served.as_ref()).map_or(&idle, |(_, _, feed)| &feed.summary);
        snap.put("control.windows", MetricValue::Counter(tally.windows));
        snap.put("control.requests", MetricValue::Counter(tally.submitted));
        snap.put("control.stale", MetricValue::Counter(tally.stale));
        snap.put("control.shed", MetricValue::Counter(tally.shed));
        let s = self.gate.stats();
        snap.put("control.gate.engages", MetricValue::Counter(s.engages));
        snap.put("control.gate.releases", MetricValue::Counter(s.releases));
        snap.put("control.gate.updates", MetricValue::Counter(s.updates));
        snap.put(
            "control.gate.suppressed_hysteresis",
            MetricValue::Counter(s.suppressed_hysteresis),
        );
        snap.put(
            "control.gate.suppressed_cooldown",
            MetricValue::Counter(s.suppressed_cooldown),
        );
        snap.put("control.gate.conflicts", MetricValue::Counter(s.conflicts));
    }
}

/// Fluent configuration for [`ControlLoop`]; every invalid combination
/// is rejected by [`build`](ControlLoopBuilder::build) with a
/// [`QiError::Control`].
pub struct ControlLoopBuilder {
    predictor: Option<ShardedServeEngine>,
    policy: Option<Box<dyn MitigationPolicy>>,
    hysteresis: Hysteresis,
    n_devices: Option<u32>,
    window: Option<WindowConfig>,
}

impl ControlLoopBuilder {
    /// Attach the prediction service the loop consults each window. The
    /// loop's window/feature configuration is derived from the
    /// service's registry schema — the same guarantee the offline
    /// replay driver gives: serving can never disagree with training.
    pub fn predictor(mut self, service: ShardedServeEngine) -> Self {
        self.predictor = Some(service);
        self
    }

    /// Set the mitigation policy (required).
    pub fn policy(mut self, policy: impl MitigationPolicy + 'static) -> Self {
        self.policy = Some(Box::new(policy));
        self
    }

    /// Override the default hysteresis/cooldown configuration.
    pub fn hysteresis(mut self, h: Hysteresis) -> Self {
        self.hysteresis = h;
        self
    }

    /// Number of OSTs in the cluster (required with a predictor, and
    /// checked against the server count its registry expects: it fixes
    /// the feature-block width, exactly as in training).
    pub fn n_devices(mut self, n: u32) -> Self {
        self.n_devices = Some(n);
        self
    }

    /// Tick interval for a predictor-less loop. With a predictor the
    /// window comes from its schema; setting a conflicting one here is
    /// an error.
    pub fn window(mut self, wcfg: WindowConfig) -> Self {
        self.window = Some(wcfg);
        self
    }

    /// Validate and assemble the loop.
    pub fn build(self) -> Result<ControlLoop, QiError> {
        let policy = self
            .policy
            .ok_or_else(|| QiError::Control("control loop built without a policy".into()))?;
        if policy.needs_predictions() && self.predictor.is_none() {
            return Err(QiError::Control(format!(
                "policy `{}` consumes predictions but no predictor was attached",
                policy.name()
            )));
        }
        let (wcfg, served) = match self.predictor {
            Some(engine) => {
                let n_devices = self.n_devices.ok_or_else(|| {
                    QiError::Control(
                        "a predictor-driven loop needs n_devices(..) to size feature blocks".into(),
                    )
                })?;
                let (pipeline, feed) =
                    WindowFeed::bind(&engine, n_devices).map_err(QiError::Control)?;
                let wcfg = pipeline.window_config();
                if let Some(explicit) = self.window {
                    if explicit != wcfg {
                        return Err(QiError::Control(format!(
                            "explicit window {:?} conflicts with the predictor \
                             schema's window {:?}",
                            explicit.window, wcfg.window
                        )));
                    }
                }
                (wcfg, Some((engine, pipeline, feed)))
            }
            None => {
                let wcfg = self.window.ok_or_else(|| {
                    QiError::Control(
                        "a predictor-less loop needs an explicit window(..) tick interval".into(),
                    )
                })?;
                (wcfg, None)
            }
        };
        if wcfg.window == SimDuration::ZERO {
            return Err(QiError::Control(
                "control window must be a positive duration".into(),
            ));
        }
        let gate = HysteresisGate::new(self.hysteresis)?;

        Ok(ControlLoop {
            wcfg,
            served,
            policy,
            gate,
            desired: Vec::new(),
            stats: LoopStats::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::UniformThrottle;
    use qi_pfs::ids::AppId;

    fn assert_send<T: Send>() {}

    fn build_err(b: ControlLoopBuilder) -> QiError {
        match b.build() {
            Err(e) => e,
            Ok(_) => panic!("expected the build to fail"),
        }
    }

    #[test]
    fn control_loop_is_send() {
        // The cluster owns the controller across a run; the sharded
        // serve engine must ride along.
        assert_send::<ControlLoop>();
        assert_send::<ShardedServeEngine>();
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        let err = build_err(ControlLoop::builder());
        assert!(err.to_string().contains("without a policy"), "{err}");

        let uniform = || UniformThrottle::new(vec![AppId(1)], 1e6).expect("valid");
        let err = build_err(ControlLoop::builder().policy(uniform()));
        assert!(err.to_string().contains("window"), "{err}");

        let err = build_err(
            ControlLoop::builder()
                .policy(uniform())
                .window(WindowConfig {
                    window: SimDuration::ZERO,
                }),
        );
        assert!(err.to_string().contains("positive"), "{err}");

        let err = build_err(
            ControlLoop::builder()
                .policy(uniform())
                .window(WindowConfig::seconds(1))
                .hysteresis(Hysteresis {
                    engage_windows: 0,
                    release_windows: 1,
                    cooldown_windows: 0,
                }),
        );
        assert!(err.to_string().contains("hysteresis"), "{err}");
    }

    #[test]
    fn guided_policy_requires_a_predictor() {
        let guided = crate::policy::GuidedThrottle::new(AppId(0), vec![AppId(1)], 1, 1e6)
            .expect("valid policy");
        let err = build_err(
            ControlLoop::builder()
                .policy(guided)
                .window(WindowConfig::seconds(1)),
        );
        assert!(err.to_string().contains("no predictor"), "{err}");
    }

    #[test]
    fn predictorless_loop_decides_every_window() {
        let mut ctl = ControlLoop::builder()
            .policy(UniformThrottle::new(vec![AppId(2)], 2e6).expect("valid"))
            .window(WindowConfig::seconds(1))
            .build()
            .expect("valid loop");
        assert_eq!(ctl.interval(), SimDuration::from_secs(1));
        assert_eq!(ctl.window_config(), WindowConfig::seconds(1));

        let trace = RunTrace::default();
        let mut out = Vec::new();
        let tick = SimTime(SimDuration::from_secs(1).as_nanos() + 1);
        ctl.on_window(tick, 0, &trace, &mut out);
        assert_eq!(
            out,
            vec![ControlDirective::RateLimit {
                app: AppId(2),
                bytes_per_sec: 2e6
            }]
        );

        // Window 1: same desire, already applied → deduped.
        out.clear();
        ctl.on_window(
            SimTime(2 * SimDuration::from_secs(1).as_nanos() + 1),
            1,
            &trace,
            &mut out,
        );
        assert!(out.is_empty());

        let mut snap = MetricsSnapshot::new();
        ctl.metrics_into(&mut snap);
        assert_eq!(snap.counter("control.ticks"), Some(2));
        assert_eq!(snap.counter("control.desired"), Some(2));
        assert_eq!(snap.counter("control.emitted"), Some(1));
        assert_eq!(snap.counter("control.directive.rate_limit"), Some(1));
        assert_eq!(snap.counter("control.gate.engages"), Some(1));
        assert_eq!(snap.counter("control.errors"), Some(0));
    }
}
