//! The typed control plane: directives a mitigation controller applies
//! to a running cluster, and the hook the cluster calls at each control
//! tick.
//!
//! A [`ClusterController`] is installed on a [`Cluster`] before the run
//! starts ([`Cluster::install_controller`]) and is invoked once per
//! control interval, 1 ns *after* each window boundary — strictly after
//! every event of the closed window, so the controller observes exactly
//! the window content a batch pipeline would. It answers with
//! [`ControlDirective`]s, which the cluster applies through one typed
//! entry point ([`Cluster::apply_directive`]) driving one actuator: a
//! per-app server-side token-bucket filter, the classful TBF QoS policy.
//! Every applied directive is recorded in [`RunTrace::directives`], so a
//! finished trace replays the full decision sequence.
//!
//! Inside the cluster, `ControlPlane` owns the controller and its tick
//! clock, the token-bucket table and the count of rejected directives;
//! it validates every directive and applies it to the TBF table, which
//! data RPCs clear on delivery before the OSS CPU stage.
//!
//! [`Cluster`]: crate::cluster::Cluster
//! [`Cluster::install_controller`]: crate::cluster::Cluster::install_controller
//! [`Cluster::apply_directive`]: crate::cluster::Cluster::apply_directive
//! [`RunTrace::directives`]: crate::ops::RunTrace::directives

use qi_simkit::error::QiError;
use qi_simkit::hash::IdMap;
use qi_simkit::ratelimit::TokenBucket;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::ids::AppId;
use crate::ops::RunTrace;
use crate::servers::{Ev, Fx};

/// One typed mitigation action: `RateLimit` engages an app's
/// token-bucket filter, `ClearRateLimit` removes it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControlDirective {
    /// Install a server-side token-bucket filter for `app`'s data RPCs
    /// (bytes of payload per second, burst of one second's worth) — the
    /// classful TBF NRS policy.
    RateLimit {
        /// Application to throttle.
        app: AppId,
        /// Admitted payload bytes per second; must be finite and > 0.
        bytes_per_sec: f64,
    },
    /// Remove `app`'s token-bucket filter.
    ClearRateLimit {
        /// Application to release.
        app: AppId,
    },
}

impl ControlDirective {
    /// The application this directive targets.
    pub fn app(&self) -> AppId {
        match self {
            ControlDirective::RateLimit { app, .. } | ControlDirective::ClearRateLimit { app } => {
                *app
            }
        }
    }

    /// True for directives that install an actuator (vs. clear one).
    pub fn is_engage(&self) -> bool {
        matches!(self, ControlDirective::RateLimit { .. })
    }

    /// Short stable label for telemetry keys and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ControlDirective::RateLimit { .. } => "rate_limit",
            ControlDirective::ClearRateLimit { .. } => "clear_rate_limit",
        }
    }
}

/// One applied directive, as recorded in [`RunTrace::directives`]: what
/// was done, at which simulated instant, closing which window.
///
/// [`RunTrace::directives`]: crate::ops::RunTrace::directives
#[derive(Clone, Debug, PartialEq)]
pub struct DirectiveRecord {
    /// Simulated time the directive took effect (window close + 1 ns).
    pub at: SimTime,
    /// Index of the window whose close triggered it.
    pub window: u64,
    /// The directive itself.
    pub directive: ControlDirective,
}

/// The hook a mitigation controller implements. Installed via
/// [`Cluster::install_controller`]; called once per [`interval`], 1 ns
/// after each window boundary, with the run's trace so far.
///
/// Implementations must be deterministic functions of their inputs (the
/// trace and their own state): the cluster's replay-determinism
/// guarantee extends to controlled runs only if the controller holds no
/// wall-clock or ambient randomness.
///
/// [`Cluster::install_controller`]: crate::cluster::Cluster::install_controller
/// [`interval`]: ClusterController::interval
pub trait ClusterController: Send {
    /// Control interval (typically the feature window length). Must be
    /// non-zero; sampled once at install time.
    fn interval(&self) -> SimDuration;

    /// One control tick: window `window` just closed at `now - 1 ns`.
    /// Push the directives to apply into `out` (applied in order;
    /// invalid ones are counted as rejected, not fatal).
    fn on_window(
        &mut self,
        now: SimTime,
        window: u64,
        trace: &RunTrace,
        out: &mut Vec<ControlDirective>,
    );

    /// Fold the controller's own metrics into the run snapshot (called
    /// once when the run ends). Default: nothing.
    fn metrics_into(&self, snap: &mut MetricsSnapshot) {
        let _ = snap;
    }
}

/// The cluster state outside the control plane that a directive or a
/// tick reads or writes, borrowed for one directive or one tick.
pub(crate) struct Plant<'a> {
    /// Applications registered so far (valid app ids are below this).
    pub(crate) n_apps: usize,
    /// The event queue the next tick is scheduled on.
    pub(crate) fx: &'a mut Fx,
    pub(crate) trace: &'a mut RunTrace,
}

/// The cluster's control plane: the installed controller and its tick
/// clock, the per-app token-bucket filters, and the rejected-directive
/// count.
#[derive(Default)]
pub(crate) struct ControlPlane {
    /// Per-application server-side token-bucket filters (bytes/s), the
    /// classful TBF NRS policy of Qian et al. — data RPCs of a limited
    /// app are admitted to the OSS only as tokens accrue. The buckets
    /// are consulted at delivery time, before the OSS CPU stage.
    tbf: IdMap<AppId, TokenBucket>,
    /// The installed mitigation controller, ticked once per control
    /// interval; `None` on uncontrolled runs.
    controller: Option<Box<dyn ClusterController>>,
    /// Controller tick interval, sampled at install time.
    interval: SimDuration,
    /// Index of the next window the controller will close.
    window: u64,
    /// True once a controller was installed or a directive applied;
    /// gates the `pfs.control.*` snapshot block so uncontrolled runs
    /// keep their historical (golden) key set.
    used: bool,
    /// Directive buffer reused across ticks.
    scratch: Vec<ControlDirective>,
    /// Controller directives rejected as invalid (unknown app, or a rate
    /// that is not finite and positive). The applied ones are counted from
    /// [`RunTrace::directives`], which records each of them.
    rejected: u64,
}

impl ControlPlane {
    /// A copy of this control plane. Fails when a controller is
    /// installed: a controller cannot be copied.
    pub(crate) fn try_clone(&self) -> Result<Self, QiError> {
        if self.controller.is_some() {
            return Err(QiError::Control(
                "a cluster with a controller installed cannot be copied".into(),
            ));
        }
        Ok(ControlPlane {
            tbf: self.tbf.clone(),
            controller: None,
            interval: self.interval,
            window: self.window,
            used: self.used,
            scratch: Vec::new(),
            rejected: self.rejected,
        })
    }

    /// Install the run's controller. At most one per run.
    pub(crate) fn install(&mut self, controller: Box<dyn ClusterController>) {
        let interval = controller.interval();
        assert!(interval > SimDuration::ZERO, "zero control interval");
        assert!(self.controller.is_none(), "controller already installed");
        self.interval = interval;
        self.controller = Some(controller);
        self.used = true;
    }

    /// When the first tick fires, if a controller is installed: 1 ns
    /// after the first window boundary, so every event of a window
    /// (boundary samples included) is handled before the tick that
    /// closes it and the controller sees exactly the batch-pipeline
    /// window content.
    pub(crate) fn first_tick(&self) -> Option<SimTime> {
        let at = SimTime::ZERO + self.interval + SimDuration::from_nanos(1);
        self.controller.as_ref().map(|_| at)
    }

    /// The instant `app`'s data RPC of `bytes` payload clears its
    /// token-bucket filter: `now` when the app is not rate-limited.
    #[inline]
    pub(crate) fn admit(&mut self, now: SimTime, app: AppId, bytes: u64) -> SimTime {
        match self.tbf.get_mut(&app) {
            Some(bucket) => bucket.earliest(now, bytes as f64),
            None => now,
        }
    }

    /// Validate and apply one directive at `at`, closing `window`; see
    /// [`Cluster::apply_directive`](crate::cluster::Cluster::apply_directive).
    pub(crate) fn apply(
        &mut self,
        at: SimTime,
        window: u64,
        directive: ControlDirective,
        p: &mut Plant,
    ) -> Result<(), QiError> {
        self.used = true;
        let app = directive.app();
        if app.0 as usize >= p.n_apps {
            return Err(QiError::Control(format!(
                "directive targets unknown app {}",
                app.0
            )));
        }
        match directive {
            ControlDirective::RateLimit { bytes_per_sec, .. } => {
                if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
                    return Err(QiError::Control(format!(
                        "rate limit must be finite and positive, got {bytes_per_sec}"
                    )));
                }
                self.tbf
                    .insert(app, TokenBucket::new(bytes_per_sec, bytes_per_sec));
            }
            ControlDirective::ClearRateLimit { .. } => {
                self.tbf.remove(&app);
            }
        }
        p.trace.directives.push(DirectiveRecord {
            at,
            window,
            directive,
        });
        Ok(())
    }

    /// One controller tick: close the next window, apply the
    /// controller's directives (counting the invalid ones), schedule
    /// the next tick.
    pub(crate) fn tick(&mut self, now: SimTime, p: &mut Plant) {
        let Some(mut ctl) = self.controller.take() else {
            return;
        };
        let window = self.window;
        self.window += 1;
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        ctl.on_window(now, window, p.trace, &mut out);
        for d in out.drain(..) {
            if self.apply(now, window, d, p).is_err() {
                self.rejected += 1;
            }
        }
        self.scratch = out;
        self.controller = Some(ctl);
        p.fx.schedule(now + self.interval, Ev::Control);
    }

    /// On controlled runs, put the directive counters
    /// (`pfs.control.*`) and the controller's own metrics into `snap`;
    /// `applied` is the run's [`RunTrace::directives`].
    pub(crate) fn metrics_into(&self, snap: &mut MetricsSnapshot, applied: &[DirectiveRecord]) {
        if !self.used {
            return;
        }
        let count = |label: &str| {
            let of_kind = applied.iter().filter(|r| r.directive.label() == label);
            of_kind.count() as u64
        };
        for (field, v) in [
            ("applied", applied.len() as u64),
            ("rate_clears", count("clear_rate_limit")),
            ("rate_limits", count("rate_limit")),
            ("rejected", self.rejected),
        ] {
            snap.put(&format!("pfs.control.{field}"), MetricValue::Counter(v));
        }
        if let Some(ctl) = &self.controller {
            ctl.metrics_into(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_introspection() {
        let d = ControlDirective::RateLimit {
            app: AppId(3),
            bytes_per_sec: 1e6,
        };
        assert_eq!(d.app(), AppId(3));
        assert!(d.is_engage());
        assert_eq!(d.label(), "rate_limit");
        let c = ControlDirective::ClearRateLimit { app: AppId(3) };
        assert!(!c.is_engage());
        assert_eq!(c.app(), AppId(3));
        assert_eq!(c.label(), "clear_rate_limit");
    }
}
