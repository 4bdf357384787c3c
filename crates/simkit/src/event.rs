//! The discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs with a
//! monotonically advancing clock. Ties are broken by insertion order, so a
//! run is fully deterministic regardless of event payloads.
//!
//! The production backend, [`QueueBackend::Packed`], keeps one `u128` key
//! per pending event, `at << 64 | seq << 24 | slot`, in a `Vec` sorted
//! largest first, and the payloads in a slot table with a free list. The
//! key order is the `(at, seq)` order (`seq` is unique, so `slot` never
//! decides), the minimum is the last key, and a schedule is one binary
//! search plus a shift. The simulator's pending depth is small (a mean of
//! 8–43 and a maximum of 100 events on the benchmark's workloads), so the
//! shift moves a handful of keys.
//!
//! [`QueueBackend::Reference`] runs the same interface on the naive
//! [`ReferenceQueue`] test double. Both pop in strictly identical
//! `(time, seq)` order — the property tests in `tests/proptests.rs` and
//! the differential replay harness in the workspace
//! `tests/sim_equivalence.rs` hold the packed queue to that model.
//!
//! [`ReferenceQueue`]: crate::reference::ReferenceQueue

use crate::reference::ReferenceQueue;
use crate::time::{SimDuration, SimTime};

/// Which data structure an [`EventQueue`] runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// Sorted packed `(time, seq, slot)` keys over a payload slot table.
    /// The default.
    #[default]
    Packed,
    /// Naive sorted-`Vec` reference model (O(n) insert). For tests and
    /// differential harnesses only — never use it at scale.
    Reference,
}

// ------------------------------------------------------ packed internals

/// Key bits below `seq`: the payload's slot.
const SLOT_BITS: u32 = 24;
/// Key bits between `at` and the slot: the insertion sequence number.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// Sorted packed keys over a payload slot table.
struct PackedQueue<E> {
    /// One key per pending event, `at << 64 | seq << SLOT_BITS | slot`,
    /// sorted descending so the `(at, seq)` minimum is the last.
    keys: Vec<u128>,
    /// Payloads by slot; `None` while the slot is on the free list.
    slots: Vec<Option<E>>,
    /// Slots free for reuse.
    free: Vec<u32>,
}

impl<E> PackedQueue<E> {
    fn with_capacity(capacity: usize) -> Self {
        PackedQueue {
            keys: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn insert(&mut self, at: u64, seq: u64, event: E) {
        // A wider seq would spill into `at`'s bits and misorder the key.
        assert!(seq < 1 << SEQ_BITS, "event sequence number overflow");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                // A wider slot would spill into `seq`'s bits and misorder the key.
                assert!(slot < 1 << SLOT_BITS, "pending event limit exceeded");
                self.slots.push(Some(event));
                slot
            }
        };
        let key = (at as u128) << 64 | (seq as u128) << SLOT_BITS | slot as u128;
        let pos = self.keys.partition_point(|&k| k > key);
        self.keys.insert(pos, key);
    }

    fn peek_time(&self) -> Option<u64> {
        self.keys.last().map(|&k| (k >> 64) as u64)
    }

    /// Remove and return the `(at, seq)` minimum if it fires at or before
    /// `deadline`; otherwise leave it queued and return `None`.
    fn pop_until(&mut self, deadline: u64) -> Option<(u64, E)> {
        let &key = self.keys.last()?;
        let at = (key >> 64) as u64;
        if at > deadline {
            return None;
        }
        self.keys.pop();
        let slot = (key as u32) & ((1 << SLOT_BITS) - 1);
        self.free.push(slot);
        // Every key names a live slot, so this is `Some`.
        self.slots[slot as usize].take().map(|event| (at, event))
    }
}

// ----------------------------------------------------------- EventQueue

enum Backend<E> {
    Packed(PackedQueue<E>),
    Reference(ReferenceQueue<E>),
}

/// A deterministic discrete-event queue with an embedded simulation clock.
///
/// Popping an event advances the clock to that event's timestamp. Events
/// scheduled "in the past" (before the current clock) are a logic error and
/// panic in debug builds; in release they are delivered at the current time.
///
/// The backing store is selectable (see [`QueueBackend`]) so tests can
/// run whole simulations on the reference model; both backends deliver
/// the exact same `(time, seq)` order.
pub struct EventQueue<E> {
    backend: Backend<E>,
    which: QueueBackend,
    seq: u64,
    now: SimTime,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero, on the default
    /// (packed) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Create an empty queue on an explicit backend.
    pub fn with_backend(which: QueueBackend) -> Self {
        Self::with_capacity_and_backend(0, which)
    }

    /// Create an empty queue pre-sized for `capacity` pending events,
    /// avoiding regrowth in long runs whose in-flight event count is
    /// predictable. Scheduling semantics are identical to [`new`].
    ///
    /// [`new`]: EventQueue::new
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_backend(capacity, QueueBackend::default())
    }

    /// Pre-sized queue on an explicit backend.
    pub fn with_capacity_and_backend(capacity: usize, which: QueueBackend) -> Self {
        let backend = match which {
            QueueBackend::Packed => Backend::Packed(PackedQueue::with_capacity(capacity)),
            QueueBackend::Reference => Backend::Reference(ReferenceQueue::with_capacity(capacity)),
        };
        EventQueue {
            backend,
            which,
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        self.which
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        match &self.backend {
            Backend::Packed(p) => p.len(),
            Backend::Reference(r) => r.len(),
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        match &mut self.backend {
            Backend::Packed(p) => p.insert(at.as_nanos(), seq, event),
            Backend::Reference(r) => r.insert(at.as_nanos(), seq, event),
        }
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.schedule(at, event);
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Packed(p) => p.peek_time().map(SimTime),
            Backend::Reference(r) => r.peek().map(|(at, _)| SimTime(at)),
        }
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.take_due(SimTime::MAX)?;
        Some(self.deliver(at, event))
    }

    /// Deliver the next event only if it fires at or before `deadline`.
    ///
    /// If the next event is later than `deadline`, the clock advances to
    /// `deadline` and `None` is returned (the event stays queued).
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.take_due(deadline) {
            Some((at, event)) => Some(self.deliver(at, event)),
            None => {
                if self.now < deadline {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Remove the next event if it fires at or before `deadline`.
    fn take_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match &mut self.backend {
            Backend::Packed(p) => p
                .pop_until(deadline.as_nanos())
                .map(|(at, e)| (SimTime(at), e)),
            Backend::Reference(r) => {
                if SimTime(r.peek()?.0) > deadline {
                    return None;
                }
                r.pop().map(|(at, _, e)| (SimTime(at), e))
            }
        }
    }

    /// Account for a delivered event: the clock moves to its timestamp.
    fn deliver(&mut self, at: SimTime, event: E) -> (SimTime, E) {
        debug_assert!(at >= self.now);
        self.now = at;
        self.processed += 1;
        (at, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::Packed, QueueBackend::Reference];

    #[test]
    fn events_pop_in_time_order() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_millis(30), "c");
            q.schedule(SimTime::from_millis(10), "a");
            q.schedule(SimTime::from_millis(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{b:?}");
            assert_eq!(q.now(), SimTime::from_millis(30));
            assert_eq!(q.processed(), 3);
        }
    }

    #[test]
    fn ties_break_by_insertion_order() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{b:?}");

            // 100..150 reuse the slots 0..50 freed: a recycled low slot
            // carries a later seq, and seq, not slot, must decide.
            let mut q = EventQueue::with_backend(b);
            for i in 0..100 {
                q.schedule(t, i);
            }
            for _ in 0..50 {
                q.pop();
            }
            for i in 100..150 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (50..150).collect::<Vec<_>>(), "{b:?}");
        }
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_secs(5), "first");
            q.pop();
            q.schedule_after(SimDuration::from_secs(1), "second");
            let (t, e) = q.pop().unwrap();
            assert_eq!(e, "second");
            assert_eq!(t, SimTime::from_secs(6), "{b:?}");
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            q.schedule(SimTime::from_secs(2), "late");
            assert!(q.pop_until(SimTime::from_secs(1)).is_none());
            assert_eq!(q.now(), SimTime::from_secs(1));
            assert_eq!(q.pending(), 1);
            let (t, e) = q.pop_until(SimTime::from_secs(3)).unwrap();
            assert_eq!((t, e), (SimTime::from_secs(2), "late"), "{b:?}");
        }
    }

    #[test]
    fn pop_until_with_empty_queue_advances_clock() {
        for b in BACKENDS {
            let mut q: EventQueue<()> = EventQueue::with_backend(b);
            assert!(q.pop_until(SimTime::from_secs(7)).is_none());
            assert_eq!(q.now(), SimTime::from_secs(7), "{b:?}");
        }
    }

    #[test]
    fn with_capacity_preallocates_without_changing_semantics() {
        for b in BACKENDS {
            let mut pre = EventQueue::with_capacity_and_backend(512, b);
            let mut plain = EventQueue::with_backend(b);
            // Interleave same-time ties and distinct times; both queues
            // must agree on pending counts and pop order exactly.
            for i in 0..300u64 {
                let at = SimTime::from_millis(i % 7);
                pre.schedule(at, i);
                plain.schedule(at, i);
            }
            assert_eq!(pre.pending(), plain.pending());
            let a: Vec<_> = std::iter::from_fn(|| pre.pop()).collect();
            let b2: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
            assert_eq!(a, b2, "{b:?}");
            assert_eq!(pre.processed(), 300);
        }
    }

    /// Drive both backends through the same schedule and require an
    /// identical pop sequence (times, payloads, clock, counters).
    fn assert_backends_agree(schedule: &[(u64, &'static str)]) {
        let mut queues: Vec<EventQueue<&'static str>> = BACKENDS
            .iter()
            .map(|&b| EventQueue::with_backend(b))
            .collect();
        for &(at, ev) in schedule {
            for q in &mut queues {
                q.schedule(SimTime(at), ev);
            }
        }
        let outs: Vec<Vec<(SimTime, &'static str)>> = queues
            .iter_mut()
            .map(|q| std::iter::from_fn(|| q.pop()).collect())
            .collect();
        assert_eq!(outs[0], outs[1], "packed vs reference");
    }

    #[test]
    fn far_future_events_overflow_and_return_exactly() {
        // Microsecond times beside far-future ones up to `u64::MAX`,
        // the top of the key's `at` bits, with ties at both ends.
        assert_backends_agree(&[
            (10, "a"),
            (100_000_000_000, "far-b"),
            (5, "c"),
            (100_000_000_000, "far-d"),
            (6_000_000_000, "mid-e"),
            (0, "zero-f"),
            (u64::MAX, "max-g"),
            (u64::MAX, "max-h"),
            (u64::MAX - 1, "almost-i"),
        ]);
    }

    #[test]
    fn dense_microsecond_schedules_agree() {
        let mut sched = Vec::new();
        for i in 0..500u64 {
            // Deterministic pseudo-scatter over a ~40 us horizon.
            sched.push((i.wrapping_mul(2_654_435_761) % 40_000, "x"));
        }
        assert_backends_agree(&sched);
    }

    #[test]
    fn interleaved_push_pop_matches_reference() {
        // Pop/push interleaving recycles slots and inserts mid-vector
        // and at the tail, not just a bulk load.
        let mut packed: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Packed);
        let mut refq: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Reference);
        let mut x = 88172645463325252u64;
        let mut step = move || {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..5000u64 {
            let r = step();
            if r % 3 == 0 && packed.pending() > 0 {
                assert_eq!(packed.pop(), refq.pop(), "diverged at step {i}");
            } else {
                // Mostly near-future deltas, occasionally far-future.
                let delta = if r % 97 == 0 {
                    5_000_000_000 + r % 30_000_000_000
                } else {
                    r % 3_000_000
                };
                let at = packed.now() + SimDuration::from_nanos(delta);
                packed.schedule(at, i);
                refq.schedule(at, i);
            }
        }
        while let Some(got) = packed.pop() {
            assert_eq!(Some(got), refq.pop());
        }
        assert!(refq.pop().is_none());
        assert_eq!(packed.processed(), refq.processed());
    }

    #[test]
    fn peek_time_is_exact_on_all_backends() {
        for b in BACKENDS {
            let mut q = EventQueue::with_backend(b);
            for i in 0..200u64 {
                let at = (i.wrapping_mul(0x9E3779B97F4A7C15)) % 10_000_000_000;
                q.schedule(SimTime(at), i);
            }
            while let Some(t) = q.peek_time() {
                let (got, _) = q.pop().expect("peeked event pops");
                assert_eq!(got, t, "{b:?}");
            }
        }
    }

    #[test]
    fn default_backend_is_packed() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend(), QueueBackend::Packed);
        let q: EventQueue<()> = EventQueue::with_capacity(10);
        assert_eq!(q.backend(), QueueBackend::Packed);
    }
}
