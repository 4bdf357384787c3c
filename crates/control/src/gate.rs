//! The hysteresis gate between policy desire and cluster actuation.
//!
//! Policies restate their *desired* posture every window; the gate
//! decides which desires become directives. It deduplicates (an engage
//! identical to what is already applied emits nothing), debounces
//! (posture flips need `engage_windows` / `release_windows` consecutive
//! desires), enforces a cooldown after every flip (the next
//! `cooldown_windows` flip attempts in the opposite direction are
//! swallowed), and resolves conflicts (a policy desiring both engage
//! and release for one subject in one window: engage wins). A subject
//! is the app a directive targets. The emitted stream therefore never
//! contains an engage and a release for the same subject in the same
//! window, and never a release for a subject that is not engaged — the
//! determinism suite property-tests exactly this.

use std::collections::BTreeMap;

use qi_pfs::control::ControlDirective;
use qi_pfs::ids::AppId;
use qi_simkit::error::QiError;

/// Debounce configuration for the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hysteresis {
    /// Consecutive engage desires needed before a subject engages.
    pub engage_windows: u32,
    /// Consecutive release desires needed before a subject releases.
    pub release_windows: u32,
    /// After a posture flip, how many flip attempts in the opposite
    /// direction are swallowed before the streak counter may run.
    pub cooldown_windows: u32,
}

impl Default for Hysteresis {
    /// Engage on the first hot window, release after two cool ones,
    /// swallow two flip attempts after each transition.
    fn default() -> Self {
        Hysteresis {
            engage_windows: 1,
            release_windows: 2,
            cooldown_windows: 2,
        }
    }
}

#[derive(Default)]
struct SubjectState {
    engaged: bool,
    streak_engage: u32,
    streak_release: u32,
    cooldown_left: u32,
    active: Option<ControlDirective>,
}

/// Counters describing everything the gate did, folded into the
/// controller's telemetry.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct GateStats {
    /// Posture flips to engaged.
    pub engages: u64,
    /// Posture flips to released.
    pub releases: u64,
    /// Parameter changes emitted while already engaged.
    pub updates: u64,
    /// Flip desires swallowed because the streak was still short.
    pub suppressed_hysteresis: u64,
    /// Flip desires swallowed by a post-flip cooldown.
    pub suppressed_cooldown: u64,
    /// Windows in which a policy desired both engage and release for
    /// one subject (engage won).
    pub conflicts: u64,
}

/// The stateful gate. Feed it one window's desired directives at a
/// time via [`filter`](HysteresisGate::filter).
pub struct HysteresisGate {
    cfg: Hysteresis,
    /// Debounce state per subject: the app a directive targets.
    states: BTreeMap<AppId, SubjectState>,
    stats: GateStats,
}

impl HysteresisGate {
    /// Build a gate; fails if either streak length is zero (the gate
    /// could then never change posture).
    pub fn new(cfg: Hysteresis) -> Result<Self, QiError> {
        if cfg.engage_windows == 0 || cfg.release_windows == 0 {
            return Err(QiError::Control(format!(
                "hysteresis streaks must be >= 1 window (engage {}, release {})",
                cfg.engage_windows, cfg.release_windows
            )));
        }
        Ok(HysteresisGate {
            cfg,
            states: BTreeMap::new(),
            stats: GateStats::default(),
        })
    }

    /// The configuration the gate runs with.
    pub fn config(&self) -> Hysteresis {
        self.cfg
    }

    /// Cumulative gate counters.
    pub fn stats(&self) -> GateStats {
        self.stats
    }

    /// Pass one window's desired directives through the gate, appending
    /// the survivors to `out` in the order they were desired.
    pub fn filter(&mut self, desired: &[ControlDirective], out: &mut Vec<ControlDirective>) {
        // Conflict pre-pass: engage wins over release per subject, and
        // only the first directive per subject is processed.
        let mut posture: BTreeMap<AppId, (bool, bool)> = BTreeMap::new();
        for d in desired {
            let e = posture.entry(d.app()).or_insert((false, false));
            if d.is_engage() {
                e.0 = true;
            } else {
                e.1 = true;
            }
        }
        self.stats.conflicts += posture.values().filter(|&&(eng, rel)| eng && rel).count() as u64;

        let mut done: Vec<AppId> = Vec::new();
        for d in desired {
            let subj = d.app();
            let (eng, rel) = posture[&subj];
            if eng && rel && !d.is_engage() {
                continue; // engage wins; drop the conflicting release
            }
            if done.contains(&subj) {
                continue; // one decision per subject per window
            }
            done.push(subj);
            self.step(subj, d, out);
        }
    }

    fn step(&mut self, subj: AppId, d: &ControlDirective, out: &mut Vec<ControlDirective>) {
        let st = self.states.entry(subj).or_default();
        if d.is_engage() {
            if st.engaged {
                st.streak_release = 0;
                if st.active != Some(*d) {
                    st.active = Some(*d);
                    self.stats.updates += 1;
                    out.push(*d);
                }
            } else if st.cooldown_left > 0 {
                st.cooldown_left -= 1;
                self.stats.suppressed_cooldown += 1;
            } else {
                st.streak_engage += 1;
                st.streak_release = 0;
                if st.streak_engage >= self.cfg.engage_windows {
                    st.engaged = true;
                    st.streak_engage = 0;
                    st.active = Some(*d);
                    st.cooldown_left = self.cfg.cooldown_windows;
                    self.stats.engages += 1;
                    out.push(*d);
                } else {
                    self.stats.suppressed_hysteresis += 1;
                }
            }
        } else if !st.engaged {
            st.streak_engage = 0; // nothing active: drop silently
        } else if st.cooldown_left > 0 {
            st.cooldown_left -= 1;
            self.stats.suppressed_cooldown += 1;
        } else {
            st.streak_release += 1;
            st.streak_engage = 0;
            if st.streak_release >= self.cfg.release_windows {
                st.engaged = false;
                st.streak_release = 0;
                st.active = None;
                st.cooldown_left = self.cfg.cooldown_windows;
                self.stats.releases += 1;
                out.push(*d);
            } else {
                self.stats.suppressed_hysteresis += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_pfs::ids::AppId;

    fn rate(app: u32, r: f64) -> ControlDirective {
        ControlDirective::RateLimit {
            app: AppId(app),
            bytes_per_sec: r,
        }
    }

    fn clear(app: u32) -> ControlDirective {
        ControlDirective::ClearRateLimit { app: AppId(app) }
    }

    #[test]
    fn rejects_zero_streaks() {
        assert!(HysteresisGate::new(Hysteresis {
            engage_windows: 0,
            release_windows: 1,
            cooldown_windows: 0,
        })
        .is_err());
        assert!(HysteresisGate::new(Hysteresis {
            engage_windows: 1,
            release_windows: 0,
            cooldown_windows: 0,
        })
        .is_err());
    }

    #[test]
    fn dedupes_and_debounces() {
        let mut g = HysteresisGate::new(Hysteresis {
            engage_windows: 2,
            release_windows: 2,
            cooldown_windows: 0,
        })
        .expect("valid");
        let mut out = Vec::new();

        g.filter(&[rate(1, 1e6)], &mut out);
        assert!(out.is_empty(), "first desire debounced");
        g.filter(&[rate(1, 1e6)], &mut out);
        assert_eq!(out, vec![rate(1, 1e6)], "second consecutive engages");

        out.clear();
        g.filter(&[rate(1, 1e6)], &mut out);
        assert!(out.is_empty(), "identical re-desire deduped");
        g.filter(&[rate(1, 2e6)], &mut out);
        assert_eq!(out, vec![rate(1, 2e6)], "parameter change is an update");

        out.clear();
        g.filter(&[clear(1)], &mut out);
        assert!(out.is_empty(), "first release debounced");
        g.filter(&[clear(1)], &mut out);
        assert_eq!(out, vec![clear(1)]);

        let s = g.stats();
        assert_eq!(s.engages, 1);
        assert_eq!(s.releases, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.suppressed_hysteresis, 2);
    }

    #[test]
    fn release_without_engagement_is_silent() {
        let mut g = HysteresisGate::new(Hysteresis::default()).expect("valid");
        let mut out = Vec::new();
        g.filter(&[clear(3)], &mut out);
        g.filter(&[clear(3)], &mut out);
        g.filter(&[clear(3)], &mut out);
        assert!(out.is_empty());
        assert_eq!(g.stats(), GateStats::default());
    }

    #[test]
    fn cooldown_swallows_exactly_n_flip_attempts() {
        let mut g = HysteresisGate::new(Hysteresis {
            engage_windows: 1,
            release_windows: 1,
            cooldown_windows: 2,
        })
        .expect("valid");
        let mut out = Vec::new();

        g.filter(&[rate(0, 1e6)], &mut out);
        assert_eq!(out.len(), 1, "engages immediately");

        // Two release desires swallowed by the post-engage cooldown,
        // the third flips.
        out.clear();
        g.filter(&[clear(0)], &mut out);
        g.filter(&[clear(0)], &mut out);
        assert!(out.is_empty());
        assert_eq!(g.stats().suppressed_cooldown, 2);
        g.filter(&[clear(0)], &mut out);
        assert_eq!(out, vec![clear(0)]);
    }

    #[test]
    fn conflict_engage_wins() {
        let mut g = HysteresisGate::new(Hysteresis {
            engage_windows: 1,
            release_windows: 1,
            cooldown_windows: 0,
        })
        .expect("valid");
        let mut out = Vec::new();
        g.filter(&[clear(5), rate(5, 1e6)], &mut out);
        assert_eq!(out, vec![rate(5, 1e6)]);
        assert_eq!(g.stats().conflicts, 1);
        assert_eq!(g.stats().releases, 0);
    }
}
