//! Mitigation policies: per-window decisions from predictions to
//! desired actuation.
//!
//! A [`MitigationPolicy`] is a pure decision function — it states the
//! *desired* posture for every subject it manages, every window, and
//! never worries about flapping: the [hysteresis gate](crate::gate)
//! between policy and cluster decides which desires actually turn into
//! directives. The two built-ins replace the retired free functions:
//! [`GuidedThrottle`] is the prediction-guided controller (throttle the
//! noise apps only while the target's predicted severity is at or above
//! a threshold), [`UniformThrottle`] the always-on baseline.

use qi_pfs::control::ControlDirective;
use qi_pfs::ids::AppId;
use qi_serve::Prediction;
use qi_simkit::error::QiError;
use qi_simkit::time::SimTime;

/// Everything a policy sees at one control tick.
pub struct WindowObservation<'a> {
    /// The window that just closed.
    pub window: u64,
    /// The tick instant (window close + 1 ns).
    pub now: SimTime,
    /// This window's predictions, ascending by tenant id. Empty when
    /// the loop runs without a predictor, or when no app was active.
    pub predictions: &'a [Prediction],
}

/// A mitigation policy: called once per closed window with that
/// window's predictions; pushes the *desired* directives (full posture,
/// engage or clear, for every subject it manages) into `out`. The
/// hysteresis gate downstream deduplicates, debounces, and resolves
/// conflicts — policies stay stateless about what is currently applied.
pub trait MitigationPolicy: Send {
    /// Short stable name, used in errors and telemetry.
    fn name(&self) -> &'static str;

    /// Whether the policy consumes model predictions.
    /// [`ControlLoop::builder`](crate::ControlLoop::builder) requires a
    /// predictor when true.
    fn needs_predictions(&self) -> bool {
        true
    }

    /// State the desired posture for this window.
    fn decide(&mut self, obs: &WindowObservation<'_>, out: &mut Vec<ControlDirective>);
}

/// Prediction-guided throttling: while the target's predicted severity
/// bin is ≥ `min_class`, rate-limit every noise app; otherwise desire
/// every noise app's limit cleared.
pub struct GuidedThrottle {
    target: AppId,
    noise: Vec<AppId>,
    min_class: usize,
    bytes_per_sec: f64,
}

impl GuidedThrottle {
    /// Throttle `noise` apps to `bytes_per_sec` whenever `target`'s
    /// predicted class is ≥ `min_class`. Fails on an empty noise set or
    /// a rate that is not finite and positive.
    pub fn new(
        target: AppId,
        noise: Vec<AppId>,
        min_class: usize,
        bytes_per_sec: f64,
    ) -> Result<Self, QiError> {
        if noise.is_empty() {
            return Err(QiError::Control(
                "guided throttle needs at least one noise app".into(),
            ));
        }
        if noise.contains(&target) {
            return Err(QiError::Control(format!(
                "guided throttle cannot throttle its own target (app {})",
                target.0
            )));
        }
        if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
            return Err(QiError::Control(format!(
                "throttle rate must be finite and positive, got {bytes_per_sec}"
            )));
        }
        Ok(GuidedThrottle {
            target,
            noise,
            min_class,
            bytes_per_sec,
        })
    }
}

impl MitigationPolicy for GuidedThrottle {
    fn name(&self) -> &'static str {
        "guided-throttle"
    }

    fn decide(&mut self, obs: &WindowObservation<'_>, out: &mut Vec<ControlDirective>) {
        let hot = obs
            .predictions
            .iter()
            .find(|p| p.tenant == self.target)
            .is_some_and(|p| p.class >= self.min_class);
        for &app in &self.noise {
            out.push(if hot {
                ControlDirective::RateLimit {
                    app,
                    bytes_per_sec: self.bytes_per_sec,
                }
            } else {
                ControlDirective::ClearRateLimit { app }
            });
        }
    }
}

/// The uniform baseline: rate-limit every noise app from the first
/// window, predictions unseen. What the guided policy must beat on
/// background-throughput cost.
pub struct UniformThrottle {
    noise: Vec<AppId>,
    bytes_per_sec: f64,
}

impl UniformThrottle {
    /// Throttle `noise` apps to `bytes_per_sec`, always. Fails on an
    /// empty noise set or a rate that is not finite and positive.
    pub fn new(noise: Vec<AppId>, bytes_per_sec: f64) -> Result<Self, QiError> {
        if noise.is_empty() {
            return Err(QiError::Control(
                "uniform throttle needs at least one noise app".into(),
            ));
        }
        if !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
            return Err(QiError::Control(format!(
                "throttle rate must be finite and positive, got {bytes_per_sec}"
            )));
        }
        Ok(UniformThrottle {
            noise,
            bytes_per_sec,
        })
    }
}

impl MitigationPolicy for UniformThrottle {
    fn name(&self) -> &'static str {
        "uniform-throttle"
    }

    fn needs_predictions(&self) -> bool {
        false
    }

    fn decide(&mut self, _obs: &WindowObservation<'_>, out: &mut Vec<ControlDirective>) {
        for &app in &self.noise {
            out.push(ControlDirective::RateLimit {
                app,
                bytes_per_sec: self.bytes_per_sec,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_simkit::time::SimDuration;

    fn pred(tenant: u32, window: u64, class: usize) -> Prediction {
        Prediction {
            tenant: AppId(tenant),
            window,
            class,
            queued: SimDuration::ZERO,
            batch: 1,
            done_at: SimTime::ZERO,
            version: 1,
        }
    }

    #[test]
    fn guided_constructor_validates() {
        assert!(GuidedThrottle::new(AppId(0), vec![], 1, 1e6).is_err());
        assert!(GuidedThrottle::new(AppId(0), vec![AppId(0)], 1, 1e6).is_err());
        assert!(GuidedThrottle::new(AppId(0), vec![AppId(1)], 1, 0.0).is_err());
        assert!(GuidedThrottle::new(AppId(0), vec![AppId(1)], 1, f64::NAN).is_err());
        assert!(GuidedThrottle::new(AppId(0), vec![AppId(1)], 1, 1e6).is_ok());
    }

    #[test]
    fn guided_engages_on_hot_prediction_only() {
        let mut p = GuidedThrottle::new(AppId(0), vec![AppId(1), AppId(2)], 2, 5e6).expect("valid");
        let mut out = Vec::new();
        let hot = [pred(0, 3, 2)];
        p.decide(
            &WindowObservation {
                window: 3,
                now: SimTime::from_secs(4),
                predictions: &hot,
            },
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| d.is_engage()));

        out.clear();
        let cool = [pred(0, 4, 1)];
        p.decide(
            &WindowObservation {
                window: 4,
                now: SimTime::from_secs(5),
                predictions: &cool,
            },
            &mut out,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|d| !d.is_engage()));

        // No prediction for the target at all → same as cool.
        out.clear();
        p.decide(
            &WindowObservation {
                window: 5,
                now: SimTime::from_secs(6),
                predictions: &[],
            },
            &mut out,
        );
        assert!(out.iter().all(|d| !d.is_engage()));
    }

    #[test]
    fn uniform_always_desires_throttling() {
        let mut p = UniformThrottle::new(vec![AppId(1)], 1e6).expect("valid");
        assert!(!p.needs_predictions());
        let mut out = Vec::new();
        p.decide(
            &WindowObservation {
                window: 0,
                now: SimTime::from_secs(1),
                predictions: &[],
            },
            &mut out,
        );
        assert_eq!(
            out,
            vec![ControlDirective::RateLimit {
                app: AppId(1),
                bytes_per_sec: 1e6
            }]
        );
    }
}
