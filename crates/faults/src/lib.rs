//! # qi-faults
//!
//! Deterministic, seed-driven fault plans for the PFS simulator.
//!
//! A [`FaultPlan`] is a schedule of typed [`FaultEvent`]s — slow disks,
//! queue stalls, probabilistic RPC loss and latency, OSS service-thread
//! crashes, MDS lock storms — that `qi-pfs` applies at dispatch time.
//! Plans carry no randomness of their own: probabilistic events (RPC
//! drops) draw from a dedicated `SimRng` substream owned by the cluster,
//! so the same seed and plan always replay byte-identically.
//!
//! [`RetryPolicy`] is the client-side counterpart: bounded exponential
//! backoff with deterministic jitter and optional per-op deadlines,
//! consumed by the cluster's RPC layer when a request is lost.
//!
//! Which simulator layer applies each event type is documented in
//! DESIGN.md ("Fault model").

use qi_simkit::rng::SimRng;
use qi_simkit::{QiError, SimDuration, SimTime};

/// One scheduled fault. Times are absolute simulation times; a run
/// starts at [`SimTime::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Multiply one device's disk service time by `factor` over
    /// `[from, until)`. Applied by `disk.rs` (the rotational model).
    SlowDisk {
        /// Target device index (the OSTs from 0, then the MDT).
        dev: u32,
        /// Service-time multiplier, `>= 1.0`.
        factor: f64,
        /// Window start.
        from: SimTime,
        /// Window end (factor reverts to 1.0).
        until: SimTime,
    },
    /// Freeze one device's block queue: nothing dispatches for `duration`
    /// starting at `at`. In-flight requests finish; new dispatch waits.
    /// Applied by `queue.rs`.
    DiskStall {
        /// Target device index.
        dev: u32,
        /// Stall start.
        at: SimTime,
        /// Stall length.
        duration: SimDuration,
    },
    /// Probabilistically lose client requests on matching links over
    /// `[from, until)`. A dropped request still occupies both NICs (it
    /// is lost in transit); the client recovers via its [`RetryPolicy`].
    /// Applied by `net.rs` + the cluster RPC layer.
    RpcDrop {
        /// Source node filter (`None` = any source).
        src: Option<u32>,
        /// Destination node filter (`None` = any destination).
        dst: Option<u32>,
        /// Per-request drop probability in `[0, 1]`.
        prob: f64,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// Add fixed extra latency to matching links over `[from, until)`.
    /// Applied by `net.rs`.
    RpcDelay {
        /// Source node filter (`None` = any source).
        src: Option<u32>,
        /// Destination node filter (`None` = any destination).
        dst: Option<u32>,
        /// Extra one-way latency.
        delay: SimDuration,
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// An OSS loses service threads at `at`: its effective CPU cost per
    /// RPC is divided by `remaining` (the fraction of threads left, in
    /// `(0, 1]`). Optionally restarts to full capacity at `restart`.
    /// Applied by `servers.rs` (the serial OSS CPU model).
    OssThreadCrash {
        /// OSS index (0-based).
        oss: u32,
        /// Crash instant.
        at: SimTime,
        /// Full-capacity restart instant, if any.
        restart: Option<SimTime>,
        /// Fraction of service threads left, in `(0, 1]`.
        remaining: f64,
    },
    /// MDS lock storm over `[from, until)`: every directory-lock
    /// acquisition behaves like an owner switch (forced revocation) and
    /// revocations take `revoke_factor`× as long. Applied by
    /// `mds.rs` (the MDS lock path).
    MdsLockStorm {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
        /// Multiplier on the lock-revocation latency, `>= 1.0`.
        revoke_factor: f64,
    },
}

/// A validated, replayable schedule of fault events.
///
/// Build one with [`FaultPlan::new`] + [`FaultPlan::with`] (or `push`),
/// hand it to `ClusterBuilder::fault_plan`. The builder calls
/// [`FaultPlan::validate`] against the concrete cluster shape, so an
/// out-of-range device or malformed window is a construction-time
/// `QiError`, not a mid-run panic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults — the healthy baseline).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event, builder-style.
    pub fn with(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Append an event in place.
    pub fn push(&mut self, ev: FaultEvent) {
        self.events.push(ev);
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Check the plan against a concrete cluster shape: `n_devices`
    /// OST devices, `n_nodes` total network nodes, `n_oss` object
    /// storage servers. Returns the first problem found.
    pub fn validate(&self, n_devices: usize, n_nodes: usize, n_oss: usize) -> Result<(), QiError> {
        // Per-device SlowDisk windows must not overlap: the cluster
        // realises them as absolute set/reset factor events, so two
        // overlapping windows would silently clobber each other.
        let mut slow_windows: Vec<(u32, SimTime, SimTime)> = Vec::new();
        for (i, ev) in self.events.iter().enumerate() {
            let fail = |msg: String| Err(QiError::FaultPlan(format!("event {i}: {msg}")));
            match *ev {
                FaultEvent::SlowDisk {
                    dev,
                    factor,
                    from,
                    until,
                } => {
                    if dev as usize >= n_devices {
                        return fail(format!("SlowDisk dev {dev} out of range (< {n_devices})"));
                    }
                    if factor < 1.0 || !factor.is_finite() {
                        return fail(format!(
                            "SlowDisk factor {factor} must be finite and >= 1.0"
                        ));
                    }
                    if from >= until {
                        return fail("SlowDisk window is empty (from >= until)".into());
                    }
                    for &(d, f, u) in &slow_windows {
                        if d == dev && from < u && f < until {
                            return fail(format!("SlowDisk windows overlap on dev {dev}"));
                        }
                    }
                    slow_windows.push((dev, from, until));
                }
                FaultEvent::DiskStall { dev, duration, .. } => {
                    if dev as usize >= n_devices {
                        return fail(format!("DiskStall dev {dev} out of range (< {n_devices})"));
                    }
                    if duration == SimDuration::ZERO {
                        return fail("DiskStall duration is zero".into());
                    }
                }
                FaultEvent::RpcDrop {
                    src,
                    dst,
                    prob,
                    from,
                    until,
                } => {
                    if !(0.0..=1.0).contains(&prob) {
                        return fail(format!("RpcDrop prob {prob} outside [0, 1]"));
                    }
                    if from >= until {
                        return fail("RpcDrop window is empty (from >= until)".into());
                    }
                    for (name, node) in [("src", src), ("dst", dst)] {
                        if let Some(n) = node {
                            if n as usize >= n_nodes {
                                return fail(format!(
                                    "RpcDrop {name} node {n} out of range (< {n_nodes})"
                                ));
                            }
                        }
                    }
                }
                FaultEvent::RpcDelay {
                    src,
                    dst,
                    delay,
                    from,
                    until,
                } => {
                    if delay == SimDuration::ZERO {
                        return fail("RpcDelay delay is zero".into());
                    }
                    if from >= until {
                        return fail("RpcDelay window is empty (from >= until)".into());
                    }
                    for (name, node) in [("src", src), ("dst", dst)] {
                        if let Some(n) = node {
                            if n as usize >= n_nodes {
                                return fail(format!(
                                    "RpcDelay {name} node {n} out of range (< {n_nodes})"
                                ));
                            }
                        }
                    }
                }
                FaultEvent::OssThreadCrash {
                    oss,
                    at,
                    restart,
                    remaining,
                } => {
                    if oss as usize >= n_oss {
                        return fail(format!("OssThreadCrash oss {oss} out of range (< {n_oss})"));
                    }
                    if !(remaining > 0.0 && remaining <= 1.0) {
                        return fail(format!(
                            "OssThreadCrash remaining {remaining} outside (0, 1]"
                        ));
                    }
                    if let Some(r) = restart {
                        if r <= at {
                            return fail("OssThreadCrash restart must come after the crash".into());
                        }
                    }
                }
                FaultEvent::MdsLockStorm {
                    from,
                    until,
                    revoke_factor,
                } => {
                    if from >= until {
                        return fail("MdsLockStorm window is empty (from >= until)".into());
                    }
                    if revoke_factor < 1.0 || !revoke_factor.is_finite() {
                        return fail(format!(
                            "MdsLockStorm revoke_factor {revoke_factor} must be finite and >= 1.0"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Client-side recovery policy for lost RPCs: bounded exponential
/// backoff with deterministic jitter, plus optional per-op deadlines.
///
/// The backoff for attempt `k` (1-based) is
/// `min(backoff_cap, backoff_base * 2^(k-1))`, jittered by a uniform
/// factor in `[1 - jitter_frac, 1 + jitter_frac)` drawn from the
/// cluster's dedicated fault RNG substream — so reruns with the same
/// seed replay the exact same retry timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of resends before the op is failed.
    pub max_retries: u32,
    /// How long the client waits for a reply before declaring the
    /// request lost.
    pub rpc_timeout: SimDuration,
    /// Backoff before the first retry.
    pub backoff_base: SimDuration,
    /// Upper bound on any single backoff.
    pub backoff_cap: SimDuration,
    /// Jitter fraction applied to each backoff (`0.0` disables jitter).
    pub jitter_frac: f64,
    /// If set, an op whose first issue is older than this when a retry
    /// would be scheduled is failed immediately instead.
    pub op_deadline: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            rpc_timeout: SimDuration::from_millis(50),
            backoff_base: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(100),
            jitter_frac: 0.2,
            op_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), with
    /// deterministic jitter drawn from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self.backoff_base * (1u64 << exp);
        let capped = if raw.as_nanos() > self.backoff_cap.as_nanos() {
            self.backoff_cap
        } else {
            raw
        };
        if self.jitter_frac > 0.0 {
            rng.jittered(capped, self.jitter_frac)
        } else {
            capped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn empty_plan_validates() {
        assert!(FaultPlan::new().validate(4, 10, 2).is_ok());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn valid_plan_validates() {
        let plan = FaultPlan::new()
            .with(FaultEvent::SlowDisk {
                dev: 1,
                factor: 3.0,
                from: t(1),
                until: t(3),
            })
            .with(FaultEvent::DiskStall {
                dev: 0,
                at: t(2),
                duration: SimDuration::from_millis(200),
            })
            .with(FaultEvent::RpcDrop {
                src: None,
                dst: Some(5),
                prob: 0.1,
                from: t(0),
                until: t(4),
            })
            .with(FaultEvent::RpcDelay {
                src: Some(0),
                dst: None,
                delay: SimDuration::from_micros(500),
                from: t(0),
                until: t(4),
            })
            .with(FaultEvent::OssThreadCrash {
                oss: 1,
                at: t(1),
                restart: Some(t(2)),
                remaining: 0.5,
            })
            .with(FaultEvent::MdsLockStorm {
                from: t(1),
                until: t(2),
                revoke_factor: 4.0,
            });
        assert_eq!(plan.events().len(), 6);
        plan.validate(4, 10, 2).expect("plan should validate");
    }

    #[test]
    fn out_of_range_device_is_rejected() {
        let plan = FaultPlan::new().with(FaultEvent::SlowDisk {
            dev: 4,
            factor: 2.0,
            from: t(0),
            until: t(1),
        });
        let err = plan.validate(4, 10, 2).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn bad_factor_probability_and_windows_are_rejected() {
        let bad_factor = FaultPlan::new().with(FaultEvent::SlowDisk {
            dev: 0,
            factor: 0.5,
            from: t(0),
            until: t(1),
        });
        assert!(bad_factor.validate(4, 10, 2).is_err());

        let bad_prob = FaultPlan::new().with(FaultEvent::RpcDrop {
            src: None,
            dst: None,
            prob: 1.5,
            from: t(0),
            until: t(1),
        });
        assert!(bad_prob.validate(4, 10, 2).is_err());

        let empty_window = FaultPlan::new().with(FaultEvent::MdsLockStorm {
            from: t(2),
            until: t(2),
            revoke_factor: 2.0,
        });
        assert!(empty_window.validate(4, 10, 2).is_err());

        let bad_restart = FaultPlan::new().with(FaultEvent::OssThreadCrash {
            oss: 0,
            at: t(3),
            restart: Some(t(3)),
            remaining: 0.5,
        });
        assert!(bad_restart.validate(4, 10, 2).is_err());
    }

    #[test]
    fn overlapping_slow_disk_windows_are_rejected() {
        let plan = FaultPlan::new()
            .with(FaultEvent::SlowDisk {
                dev: 2,
                factor: 2.0,
                from: t(0),
                until: t(5),
            })
            .with(FaultEvent::SlowDisk {
                dev: 2,
                factor: 3.0,
                from: t(4),
                until: t(8),
            });
        let err = plan.validate(4, 10, 2).unwrap_err();
        assert!(err.to_string().contains("overlap"));

        // Same windows on different devices are fine.
        let plan = FaultPlan::new()
            .with(FaultEvent::SlowDisk {
                dev: 1,
                factor: 2.0,
                from: t(0),
                until: t(5),
            })
            .with(FaultEvent::SlowDisk {
                dev: 2,
                factor: 3.0,
                from: t(0),
                until: t(5),
            });
        assert!(plan.validate(4, 10, 2).is_ok());
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let pol = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = SimRng::new(7);
        assert_eq!(pol.backoff(1, &mut rng), SimDuration::from_millis(1));
        assert_eq!(pol.backoff(2, &mut rng), SimDuration::from_millis(2));
        assert_eq!(pol.backoff(3, &mut rng), SimDuration::from_millis(4));
        // 2^9 ms = 512 ms > 100 ms cap.
        assert_eq!(pol.backoff(10, &mut rng), SimDuration::from_millis(100));
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(
            pol.backoff(u32::MAX, &mut rng),
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let pol = RetryPolicy::default();
        let mut a = SimRng::new(42).substream(0xFA17);
        let mut b = SimRng::new(42).substream(0xFA17);
        for attempt in 1..=6 {
            let x = pol.backoff(attempt, &mut a);
            let y = pol.backoff(attempt, &mut b);
            assert_eq!(x, y, "same seed must give identical jitter");
            let exp = attempt.saturating_sub(1).min(32);
            let raw = pol.backoff_base * (1u64 << exp);
            let capped = raw.as_nanos().min(pol.backoff_cap.as_nanos()) as f64;
            let lo = capped * (1.0 - pol.jitter_frac);
            let hi = capped * (1.0 + pol.jitter_frac);
            let got = x.as_nanos() as f64;
            assert!(got >= lo - 1.0 && got <= hi + 1.0, "jitter out of bounds");
        }
        // A different seed gives a different stream somewhere.
        let mut c = SimRng::new(43).substream(0xFA17);
        let mut d = SimRng::new(42).substream(0xFA17);
        let any_diff = (1..=6).any(|k| pol.backoff(k, &mut c) != pol.backoff(k, &mut d));
        assert!(any_diff);
    }
}
