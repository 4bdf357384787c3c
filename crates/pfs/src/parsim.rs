//! The epoch loop: conservative epoch synchronisation over the server
//! shards.
//!
//! `Cluster::run_inner` starts and ends every run; when `sim_shards > 1`
//! it hands the middle to [`Cluster::run_epochs`] instead of the
//! sequential pop loop. Time advances through epochs `(b, e]` whose
//! length never exceeds the lookahead (the minimum network latency): a
//! message sent inside an epoch cannot be delivered inside it, so shards
//! may process their epochs concurrently without ever seeing an event
//! from the past. Each epoch:
//!
//! 1. **Materialise** cross-boundary deliveries due in `(b, e]` from the
//!    mailbox: data RPCs go through `Cluster::deliver` (the token-bucket
//!    check, then `post` onto the owning shard's queue), everything else
//!    becomes a realm `Deliver` event.
//! 2. **Realm phase** (sequential): clients, MDS/MDT, control. Runs
//!    first so directives can update shard replicas before shard events
//!    of the same epoch execute.
//! 3. **Shard phase** (rayon): every shard drains its queue to `e`;
//!    `Fx::send` records each network send in the shard's outbox.
//! 4. **Barrier** (sequential): apply all recorded sends — the realm's
//!    and the shards' — to the shared NIC clocks in global timestamp
//!    order (stable ties: realm first, then shards ascending — the
//!    canonical order), push the resulting deliveries into the mailbox,
//!    and merge monitor samples into the trace in (time, device) order.
//!
//! Controller ticks get dedicated mini-epoch boundaries at `j·C` and
//! `j·C + 1 ns`, so a tick observes exactly the windows a sequential run
//! would show it. See DESIGN.md ("Parallel simulation") for the
//! ownership table, the determinism argument, and why this loop and the
//! sequential one both exist.

use qi_simkit::epoch::{EpochSchedule, Mailbox};
use rayon::prelude::*;

use super::*;

/// Minimum total pending events (across shards with work due in the
/// epoch) before the shard phase fans out to rayon. Below it, the
/// fork-join wakeup costs more than the epoch's work — the common case
/// in sparse stretches (sampler ticks, drain tails) — so the shards run
/// serially instead. The two paths are observably identical: shards own
/// disjoint state, so their relative execution order cannot matter.
const PAR_WORK_THRESHOLD: usize = 128;

/// Earliest of two optional instants.
fn min_time(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl Cluster {
    /// Drive an already-started run to `deadline` (or to `stop_app`'s
    /// completion) epoch by epoch, leaving the realm clock where the
    /// sequential loop would leave it.
    pub(super) fn run_epochs(&mut self, deadline: SimTime, stop_app: Option<AppId>) {
        let sched = {
            let base = EpochSchedule::new(self.cfg.net.latency);
            if self.controller.is_some() {
                base.with_tick(self.control_interval, SimDuration::from_nanos(1))
            } else {
                base
            }
        };
        let mut mailbox: Mailbox<Msg> = Mailbox::new();
        let mut intents: Vec<SendIntent> = Vec::new();
        let mut merged: Vec<ServerSample> = Vec::new();
        let mut b = SimTime::ZERO;
        let mut stopped: Option<SimTime> = None;

        loop {
            // Earliest pending instant anywhere; nothing before it can
            // exist, so empty stretches fast-forward whole epochs.
            let mut m = self.events.peek_time();
            for sh in &self.shards {
                m = min_time(m, sh.q.peek_time());
            }
            m = min_time(m, mailbox.peek_time());
            let Some(m) = m else { break };
            if m > deadline {
                break;
            }
            let mut e = sched.next_after(b);
            if m > e {
                b = sched.last_before(m);
                e = sched.next_after(b);
            }
            let e = e.min(deadline);
            debug_assert!(e > b, "empty epoch with pending work at {m:?}");

            // 1. Materialise cross-boundary deliveries due this epoch.
            while let Some((at, msg)) = mailbox.pop_until(e) {
                match msg {
                    Msg::ReadReq { .. } | Msg::WriteReq { .. } => self.deliver(at, msg),
                    _ => self.events.schedule(at, Ev::Deliver(msg)),
                }
            }

            // 2. Realm phase.
            while let Some((now, ev)) = self.events.pop_until(e) {
                self.handle(now, ev);
                if let Some(app) = stop_app {
                    if self.trace.app_completion[app.0 as usize].is_some() {
                        stopped = Some(now);
                        break;
                    }
                }
            }

            // 3. Shard phase. On an early stop the shards advance only
            // to the stop instant, like the sequential loop's break.
            let until = stopped.unwrap_or(e);
            let cfg = &self.cfg;
            let (due, work) = self
                .shards
                .iter()
                .filter(|sh| sh.q.peek_time().is_some_and(|t| t <= until))
                .fold((0usize, 0usize), |(n, w), sh| (n + 1, w + sh.q.pending()));
            if due >= 2 && work >= PAR_WORK_THRESHOLD {
                self.shards
                    .par_iter_mut()
                    .for_each(|sh| sh.run_epoch(until, cfg));
            } else {
                for sh in &mut self.shards {
                    sh.run_epoch(until, cfg);
                }
            }

            // 4a. Barrier: NIC clocks advance in global timestamp order.
            // The sort is stable, so same-instant intents keep the
            // canonical realm-then-ascending-shards order.
            intents.append(&mut self.realm_outbox);
            for sh in &mut self.shards {
                intents.append(&mut sh.outbox);
            }
            intents.sort_by_key(|i| i.at);
            for i in intents.drain(..) {
                let deliver = self.net.send(i.at, i.src, i.dst, i.payload);
                if let Some(msg) = i.msg {
                    mailbox.push(deliver + i.extra, msg);
                }
            }

            // 4b. Merge monitor samples in (time, device) order — the
            // exact order the sequential sampler pushes.
            merged.append(&mut self.realm_samples);
            for sh in &mut self.shards {
                merged.append(&mut sh.st.sample_buf);
            }
            merged.sort_by_key(|s| (s.time, s.dev.0));
            for s in merged.drain(..) {
                self.trace.samples.push(s);
            }

            if stopped.is_some() {
                break;
            }
            b = e;
        }

        if stopped.is_none() {
            // Match the sequential loop: the clock parks at the deadline
            // when it runs out of (in-range) events.
            let _ = self.events.pop_until(deadline);
        }
    }
}
