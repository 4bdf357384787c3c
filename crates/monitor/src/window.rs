//! Time-window indexing shared by both monitors.

use qi_simkit::time::{SimDuration, SimTime};

/// Window configuration: the aggregation period used by both the
/// client-side and server-side monitors (paper: "a user-defined time
/// window size").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WindowConfig {
    /// Window length.
    pub window: SimDuration,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window: SimDuration::from_secs(1),
        }
    }
}

impl WindowConfig {
    /// A window of `secs` seconds.
    pub fn seconds(secs: u64) -> Self {
        WindowConfig {
            window: SimDuration::from_secs(secs),
        }
    }

    /// A window of `ms` milliseconds — sub-second windows give an online
    /// controller several decision points within a short target run.
    pub fn millis(ms: u64) -> Self {
        WindowConfig {
            window: SimDuration::from_millis(ms),
        }
    }

    /// Index of the window containing instant `t` (0-based).
    pub fn index_of(&self, t: SimTime) -> u64 {
        debug_assert!(self.window.as_nanos() > 0);
        t.as_nanos() / self.window.as_nanos()
    }

    /// Index of the window a server sample taken at `t` belongs to. The
    /// sample describes the interval ending at `t`, so one on a boundary
    /// closes the window ending there; one at `t = 0` is in window 0.
    pub fn sample_index_of(&self, t: SimTime) -> u64 {
        self.index_of(SimTime(t.as_nanos().saturating_sub(1)))
    }

    /// Start instant of window `w`.
    pub fn start_of(&self, w: u64) -> SimTime {
        SimTime(w * self.window.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_of_is_floor_division() {
        let w = WindowConfig::seconds(2);
        assert_eq!(w.index_of(SimTime::ZERO), 0);
        assert_eq!(w.index_of(SimTime::from_millis(1999)), 0);
        assert_eq!(w.index_of(SimTime::from_millis(2000)), 1);
        assert_eq!(w.index_of(SimTime::from_secs(9)), 4);
    }

    #[test]
    fn a_sample_on_a_boundary_closes_the_window_ending_there() {
        let w = WindowConfig::seconds(2);
        assert_eq!(w.sample_index_of(SimTime::ZERO), 0);
        assert_eq!(w.sample_index_of(SimTime::from_secs(2)), 0);
        assert_eq!(w.sample_index_of(SimTime(2_000_000_001)), 1);
        assert_eq!(w.sample_index_of(SimTime::from_secs(4)), 1);
    }

    #[test]
    fn count_and_start_round_trip() {
        let w = WindowConfig::seconds(3);
        assert_eq!(w.start_of(2), SimTime::from_secs(6));
        assert_eq!(w.index_of(w.start_of(2)), 2);
    }
}
