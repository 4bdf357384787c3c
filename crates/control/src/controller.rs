//! The online control loop: trace deltas → features → predictions →
//! policy → gate → directives, once per closed window.
//!
//! [`ControlLoop`] implements [`ClusterController`], so the cluster
//! calls [`on_window`](ClusterController::on_window) at every window
//! close (1 ns after the boundary — after the boundary's own events,
//! before anything from the next window). Each tick:
//!
//! 1. **Ingest** every trace event the simulator appended since the
//!    last tick whose event time is at or before the closed window's
//!    boundary `B`, in the canonical merge order (samples → RPCs → ops
//!    at equal times), then [`FeaturePipeline::advance_to`]`(B)` so the
//!    window closes even if it was quiet. Events past `B` (already
//!    recorded because the tick itself runs 1 ns later) stay for the
//!    next tick — the pipeline watermark never passes the boundary.
//! 2. **Predict**: each emitted window yields one request per active
//!    app (ascending app id, exactly like the offline replay driver),
//!    submitted to the attached [`ShardedServeEngine`] at the tick instant,
//!    then flushed with `finish` so every admitted request is answered
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
use qi_serve::{Admission, PredictRequest, Prediction, ShardedServeEngine};
use qi_simkit::error::QiError;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricId, MetricValue, MetricsSnapshot, Registry};

use crate::gate::{GateStats, Hysteresis, HysteresisGate};
use crate::policy::{MitigationPolicy, WindowObservation};

/// All directive labels, for up-front counter registration (stable
/// snapshot key sets).
const DIRECTIVE_LABELS: [&str; 6] = [
    "rate_limit",
    "clear_rate_limit",
    "cap_inflight",
    "clear_cap_inflight",
    "avoid_osts",
    "clear_avoid_osts",
];

#[derive(Clone, Copy)]
struct Ids {
    ticks: MetricId,
    windows: MetricId,
    requests: MetricId,
    predictions: MetricId,
    stale: MetricId,
    shed: MetricId,
    errors: MetricId,
    desired: MetricId,
    emitted: MetricId,
    desired_per_tick: MetricId,
    emitted_per_tick: MetricId,
    directive: [MetricId; 6],
}

/// The prediction-guided mitigation controller. Build one with
/// [`ControlLoop::builder`] and hand it to
/// [`Cluster::install_controller`](qi_pfs::cluster::Cluster::install_controller).
pub struct ControlLoop {
    wcfg: WindowConfig,
    pipeline: Option<FeaturePipeline>,
    predictor: Option<ShardedServeEngine>,
    policy: Box<dyn MitigationPolicy>,
    gate: HysteresisGate,
    cur_op: usize,
    cur_rpc: usize,
    cur_sample: usize,
    desired: Vec<ControlDirective>,
    reg: Registry,
    ids: Ids,
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

    /// Cumulative hysteresis-gate counters.
    pub fn gate_stats(&self) -> GateStats {
        self.gate.stats()
    }

    /// Ingest trace deltas up to `bound` and run them through the
    /// pipeline and predictor; appends every prediction answered this
    /// tick to `preds`.
    fn observe(
        &mut self,
        now: SimTime,
        bound: SimTime,
        trace: &RunTrace,
        preds: &mut Vec<Prediction>,
    ) -> Result<(), QiError> {
        let Some(pipeline) = self.pipeline.as_mut() else {
            return Ok(());
        };
        let predictor = self
            .predictor
            .as_mut()
            .expect("a pipeline is only built alongside a predictor");
        // The tick runs 1 ns after the boundary, so the trace may
        // already hold events past `bound` (their events carried a
        // lower sequence number than the tick's). Ingest only up to the
        // boundary; each stream is time-sorted, so a partition point
        // splits it exactly.
        let ops = &trace.ops[self.cur_op..];
        let ops = &ops[..ops.partition_point(|o| o.completed <= bound)];
        let rpcs = &trace.rpcs[self.cur_rpc..];
        let rpcs = &rpcs[..rpcs.partition_point(|r| r.issued <= bound)];
        // The sample store may be a bounded ring; read it through the
        // logical-index accessor, which resumes exactly where the last
        // tick stopped regardless of representation.
        let samples: Vec<_> = trace
            .samples
            .iter_from(self.cur_sample as u64)
            .take_while(|s| s.time <= bound)
            .collect();
        let samples = &samples[..];
        self.cur_op += ops.len();
        self.cur_rpc += rpcs.len();
        self.cur_sample += samples.len();

        let mut ready = Vec::new();
        let (mut oi, mut ri, mut si) = (0usize, 0usize, 0usize);
        loop {
            let t_op = ops.get(oi).map(|o| o.completed);
            let t_rpc = rpcs.get(ri).map(|r| r.issued);
            let t_smp = samples.get(si).map(|s| s.time);
            let Some(next) = [t_smp, t_rpc, t_op].into_iter().flatten().min() else {
                break;
            };
            if t_smp == Some(next) {
                ready.extend(pipeline.push_sample(&samples[si])?);
                si += 1;
            } else if t_rpc == Some(next) {
                ready.extend(pipeline.push_rpc(&rpcs[ri])?);
                ri += 1;
            } else {
                ready.extend(pipeline.push_op(&ops[oi])?);
                oi += 1;
            }
        }
        ready.extend(pipeline.advance_to(bound)?);

        for ew in &ready {
            self.reg.inc(self.ids.windows);
            for (app, block, _avail) in pipeline.feature_blocks(ew) {
                self.reg.inc(self.ids.requests);
                let req = PredictRequest {
                    tenant: app,
                    window: ew.window,
                    block,
                };
                let (admission, done) = predictor.submit(now, req)?;
                preds.extend(done);
                match admission {
                    Admission::Enqueued => {}
                    Admission::Stale(_) => self.reg.inc(self.ids.stale),
                    Admission::Shed => self.reg.inc(self.ids.shed),
                }
            }
        }
        // Flush within the tick so decisions never wait on a half-full
        // batch: every admitted request is answered before the policy
        // runs.
        preds.extend(predictor.finish(now)?);
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
        self.reg.inc(self.ids.ticks);
        let bound = self.wcfg.start_of(window + 1);
        let mut preds: Vec<Prediction> = Vec::new();
        if self.observe(now, bound, trace, &mut preds).is_err() {
            // A serving/pipeline failure must not stall the simulation:
            // count it and decide from whatever arrived (possibly
            // nothing — guided policies treat that as cool).
            self.reg.inc(self.ids.errors);
        }
        self.reg.add(self.ids.predictions, preds.len() as u64);
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
        self.reg.add(self.ids.desired, self.desired.len() as u64);
        self.reg
            .observe(self.ids.desired_per_tick, self.desired.len() as f64);

        let before = out.len();
        self.gate.filter(&self.desired, out);
        let emitted = &out[before..];
        self.reg.add(self.ids.emitted, emitted.len() as u64);
        self.reg
            .observe(self.ids.emitted_per_tick, emitted.len() as f64);
        for d in emitted {
            let i = DIRECTIVE_LABELS
                .iter()
                .position(|&l| l == d.label())
                .expect("every directive label is registered");
            self.reg.inc(self.ids.directive[i]);
        }
    }

    fn metrics_into(&self, snap: &mut MetricsSnapshot) {
        snap.absorb("", &self.reg.snapshot());
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

    /// Number of OSTs in the cluster (required with a predictor: it
    /// fixes the feature-block width, exactly as in training).
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
        let (wcfg, pipeline) = match &self.predictor {
            Some(service) => {
                let schema = service.registry().expected_schema();
                let wcfg = schema.window_config().ok_or_else(|| {
                    QiError::Control(format!(
                        "predictor schema [{schema}] has no window length; \
                         the loop cannot derive its tick interval"
                    ))
                })?;
                if let Some(explicit) = self.window {
                    if explicit != wcfg {
                        return Err(QiError::Control(format!(
                            "explicit window {:?} conflicts with the predictor \
                             schema's window {:?}",
                            explicit.window, wcfg.window
                        )));
                    }
                }
                let n_devices = self.n_devices.ok_or_else(|| {
                    QiError::Control(
                        "a predictor-driven loop needs n_devices(..) to size feature blocks".into(),
                    )
                })?;
                let fcfg = schema.feature_config();
                (wcfg, Some(FeaturePipeline::new(wcfg, fcfg, n_devices)))
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

        let mut reg = Registry::new();
        let ids = Ids {
            ticks: reg.counter("control.ticks"),
            windows: reg.counter("control.windows"),
            requests: reg.counter("control.requests"),
            predictions: reg.counter("control.predictions"),
            stale: reg.counter("control.stale"),
            shed: reg.counter("control.shed"),
            errors: reg.counter("control.errors"),
            desired: reg.counter("control.desired"),
            emitted: reg.counter("control.emitted"),
            desired_per_tick: reg.histogram("control.desired_per_tick", 0.0, 16.0, 16),
            emitted_per_tick: reg.histogram("control.emitted_per_tick", 0.0, 16.0, 16),
            directive: DIRECTIVE_LABELS.map(|l| reg.counter(&format!("control.directive.{l}"))),
        };

        Ok(ControlLoop {
            wcfg,
            pipeline,
            predictor: self.predictor,
            policy,
            gate,
            cur_op: 0,
            cur_rpc: 0,
            cur_sample: 0,
            desired: Vec::new(),
            reg,
            ids,
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
