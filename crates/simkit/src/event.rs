//! The discrete-event queue.
//!
//! [`EventQueue`] is a priority queue of `(time, event)` pairs with a
//! monotonically advancing clock. Ties are broken by insertion order, so a
//! run is fully deterministic regardless of event payloads.
//!
//! The production backend, [`QueueBackend::Calendar`], is a hierarchical
//! calendar queue (timing wheel): [`LEVELS`] levels of [`SLOTS`] time
//! buckets each, bucket width growing by [`SLOTS`]× per level, with all
//! entries stored in one slab. Near-future events (the overwhelming
//! majority in a simulation whose in-flight horizon is microseconds to
//! seconds) cost O(1) amortized; events beyond the wheel horizon (~4.3 s
//! from the current minimum) fall back to a small auxiliary heap and
//! migrate into the wheel lazily, so sparse far-future schedules
//! (deadlines, fault windows) stay exact without forcing the wheel to
//! span them.
//!
//! [`QueueBackend::Reference`] runs the same interface on the naive
//! [`ReferenceQueue`] test double. Both pop in strictly identical
//! `(time, seq)` order — the property tests in `tests/proptests.rs` and
//! the differential replay harness in the workspace
//! `tests/sim_equivalence.rs` hold the wheel to that model.
//!
//! [`ReferenceQueue`]: crate::reference::ReferenceQueue

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::reference::ReferenceQueue;
use crate::time::{SimDuration, SimTime};

/// Which data structure an [`EventQueue`] runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// Hierarchical calendar queue with a far-horizon heap fallback.
    /// The default: O(1) amortized for simulation-shaped schedules.
    #[default]
    Calendar,
    /// Naive sorted-`Vec` reference model (O(n) insert). For tests and
    /// differential harnesses only — never use it at scale.
    Reference,
}

// ---------------------------------------------------- calendar internals

/// log2 of the level-0 bucket width: 256 ns buckets.
const GRANULE_SHIFT: u32 = 8;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Buckets per level (must match the `u64` occupancy bitmap).
const SLOTS: u64 = 1 << SLOT_BITS;
/// Wheel levels. Level `l` buckets are `1 << (GRANULE_SHIFT + 6l)` ns
/// wide, so four levels span `2^(8 + 24)` ns ≈ 4.3 s beyond the wheel
/// clock before the overflow heap takes over.
const LEVELS: usize = 4;
/// Null link in the node slab.
const NIL: u32 = u32::MAX;

/// Right-shift that maps a timestamp to level-`l` bucket units.
#[inline]
fn level_shift(l: usize) -> u32 {
    GRANULE_SHIFT + SLOT_BITS * l as u32
}

/// One slab-resident pending event.
struct Node<E> {
    at: u64,
    seq: u64,
    /// Next node in the same bucket (unordered within a bucket).
    next: u32,
    /// `None` only while the node sits on the free list.
    event: Option<E>,
}

/// Far-future entry: payload stays in the slab, the heap orders indices.
struct Overflow {
    at: u64,
    seq: u64,
    idx: u32,
}

impl PartialEq for Overflow {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Overflow {}
impl PartialOrd for Overflow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Overflow {
    // Reversed for min-first pops.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The level-0 minimum and its position in its bucket list.
#[derive(Clone, Copy)]
struct Level0Min {
    at: u64,
    seq: u64,
    slot: usize,
    /// Predecessor in the bucket list, NIL when `idx` is the head.
    prev: u32,
    idx: u32,
}

/// Hierarchical calendar queue. See the module docs for the invariants;
/// in short: an event at absolute time `at` lives at the lowest level
/// `l` where `(at >> s_l) - (wnow >> s_l) < SLOTS` (slot
/// `(at >> s_l) & (SLOTS-1)`), or in the overflow heap when no level
/// fits. `wnow` is the wheel's placement clock: it trails the global
/// minimum pending time, only ever advances, and advancing it never
/// strands an event (placement windows only tighten as `wnow` grows).
struct CalendarQueue<E> {
    /// All pending events, plus a LIFO free list threaded through `next`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Nodes on the free list (so `pending = nodes.len() - free_len`).
    free_len: usize,
    /// Bucket list heads, `heads[level][slot]`.
    heads: [[u32; SLOTS as usize]; LEVELS],
    /// Per-level occupancy bitmaps (bit = slot has entries).
    occupied: [u64; LEVELS],
    /// Events resident in wheel buckets (excludes overflow).
    wheel_len: usize,
    /// Wheel placement clock, ns. Always <= every pending event's time.
    wnow: u64,
    /// Events beyond the wheel horizon, min-first by `(at, seq)`.
    overflow: BinaryHeap<Overflow>,
    /// Conservative lower bound on the time of every event NOT resident
    /// in level 0 (higher wheel levels and the overflow heap); `u64::MAX`
    /// when provably none exist. Staleness only ever makes it lower than
    /// the true minimum, never higher, so the pop fast path — deliver
    /// straight from level 0 while its minimum is *strictly* below this
    /// bound — cannot reorder events (equal-time FIFO ties fall through
    /// to the full scan). This is what keeps pops cheap at small
    /// pending counts, where the per-pop higher-level scans would
    /// otherwise dominate.
    hi_bound: u64,
}

impl<E> CalendarQueue<E> {
    fn with_capacity(capacity: usize) -> Self {
        CalendarQueue {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            free_len: 0,
            heads: [[NIL; SLOTS as usize]; LEVELS],
            occupied: [0; LEVELS],
            wheel_len: 0,
            wnow: 0,
            overflow: BinaryHeap::new(),
            hi_bound: u64::MAX,
        }
    }

    fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.nodes[idx as usize];
            self.free = n.next;
            self.free_len -= 1;
            n.at = at;
            n.seq = seq;
            n.next = NIL;
            n.event = Some(event);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            assert!(idx != NIL, "calendar queue node limit exceeded");
            self.nodes.push(Node {
                at,
                seq,
                next: NIL,
                event: Some(event),
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) {
        let n = &mut self.nodes[idx as usize];
        debug_assert!(n.event.is_none(), "releasing a live node");
        n.next = self.free;
        self.free = idx;
        self.free_len += 1;
    }

    /// Lowest level/slot that can hold time `at` given the current
    /// wheel clock, or `None` when it only fits the overflow heap.
    #[inline]
    fn place(at: u64, wnow: u64) -> Option<(usize, usize)> {
        debug_assert!(at >= wnow);
        for l in 0..LEVELS {
            let s = level_shift(l);
            if (at >> s) - (wnow >> s) < SLOTS {
                return Some((l, ((at >> s) & (SLOTS - 1)) as usize));
            }
        }
        None
    }

    fn insert(&mut self, at: u64, seq: u64, event: E) {
        let idx = self.alloc(at, seq, event);
        self.link(idx);
    }

    /// Link an allocated node into its bucket (or the overflow heap).
    fn link(&mut self, idx: u32) {
        let (at, seq) = {
            let n = &self.nodes[idx as usize];
            (n.at, n.seq)
        };
        match Self::place(at, self.wnow) {
            Some((l, slot)) => {
                self.nodes[idx as usize].next = self.heads[l][slot];
                self.heads[l][slot] = idx;
                self.occupied[l] |= 1 << slot;
                self.wheel_len += 1;
                if l > 0 {
                    // The bucket's start time bounds every entry in it.
                    let start = (at >> level_shift(l)) << level_shift(l);
                    self.hi_bound = self.hi_bound.min(start);
                }
            }
            None => {
                self.hi_bound = self.hi_bound.min(at);
                self.overflow.push(Overflow { at, seq, idx });
            }
        }
    }

    /// First occupied bucket of level `l` in wrap order from the wheel
    /// cursor, with its absolute start time. Within a level, wrap order
    /// is exactly bucket-start-time order (each level holds at most one
    /// revolution), so this is the level's earliest bucket.
    fn first_bucket(&self, l: usize) -> Option<(usize, u64)> {
        let occ = self.occupied[l];
        if occ == 0 {
            return None;
        }
        let s = level_shift(l);
        let cur = self.wnow >> s;
        let cur_slot = (cur & (SLOTS - 1)) as u32;
        let off = occ.rotate_right(cur_slot).trailing_zeros() as u64;
        let slot = ((cur_slot as u64 + off) & (SLOTS - 1)) as usize;
        Some((slot, (cur + off) << s))
    }

    /// Earliest event time in level `l`'s first occupied bucket, which
    /// bounds the whole level from below (wrap order is time order).
    fn level_min_time(&self, l: usize) -> Option<u64> {
        let (slot, _) = self.first_bucket(l)?;
        let mut best: Option<u64> = None;
        let mut idx = self.heads[l][slot];
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if best.is_none_or(|b| n.at < b) {
                best = Some(n.at);
            }
            idx = n.next;
        }
        best
    }

    /// The level-0 minimum together with where it hangs in its bucket,
    /// found in one walk so a delivery never scans the bucket twice.
    fn level0_min(&self) -> Option<Level0Min> {
        let (slot, _) = self.first_bucket(0)?;
        let mut best: Option<Level0Min> = None;
        let mut prev = NIL;
        let mut idx = self.heads[0][slot];
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            if best.is_none_or(|b| (n.at, n.seq) < (b.at, b.seq)) {
                best = Some(Level0Min {
                    at: n.at,
                    seq: n.seq,
                    slot,
                    prev,
                    idx,
                });
            }
            prev = idx;
            idx = n.next;
        }
        best
    }

    /// Exact minimum pending time, without mutating anything. While the
    /// level-0 minimum sits strictly below `hi_bound` it is the answer;
    /// otherwise the min over it, each higher level's earliest bucket
    /// and the overflow peek.
    fn peek_time(&self) -> Option<u64> {
        let c0 = self.level0_min().map(|m| m.at);
        if c0.is_some_and(|at| at < self.hi_bound) {
            return c0;
        }
        let higher = (1..LEVELS).filter_map(|l| self.level_min_time(l));
        let overflow = self.overflow.peek().map(|o| o.at);
        c0.into_iter().chain(higher).chain(overflow).min()
    }

    /// Empty a higher-level bucket into lower levels. `start` is the
    /// bucket's absolute start time; it never exceeds any pending event
    /// time (the caller picked the globally earliest bucket), so
    /// advancing `wnow` to it is safe, and after the advance every
    /// entry re-places at a level strictly below `l`.
    fn cascade(&mut self, l: usize, slot: usize, start: u64) {
        debug_assert!(l > 0);
        self.wnow = self.wnow.max(start);
        self.occupied[l] &= !(1 << slot);
        let mut idx = std::mem::replace(&mut self.heads[l][slot], NIL);
        while idx != NIL {
            let next = std::mem::replace(&mut self.nodes[idx as usize].next, NIL);
            self.wheel_len -= 1;
            if cfg!(debug_assertions) {
                let at = self.nodes[idx as usize].at;
                let (nl, _) = Self::place(at, self.wnow).expect("cascaded entry fits the wheel");
                debug_assert!(nl < l, "cascade failed to descend");
            }
            self.link(idx);
            idx = next;
        }
    }

    /// Unlink and return a minimum found by [`Self::level0_min`]. Caller
    /// guarantees it is the global minimum and that the queue has not
    /// changed since the walk.
    fn unlink_level0(&mut self, m: Level0Min) -> (u64, u64, E) {
        let next = self.nodes[m.idx as usize].next;
        if m.prev == NIL {
            self.heads[0][m.slot] = next;
            if next == NIL {
                self.occupied[0] &= !(1 << m.slot);
            }
        } else {
            self.nodes[m.prev as usize].next = next;
        }
        self.wheel_len -= 1;
        let event = self.nodes[m.idx as usize].event.take().expect("live node");
        self.release(m.idx);
        self.wnow = self.wnow.max(m.at);
        (m.at, m.seq, event)
    }

    /// Remove and return the global `(at, seq)` minimum if it fires at
    /// or before `deadline`; otherwise leave it queued and return `None`.
    ///
    /// After a `None` the caller's clock stands at `deadline` and it may
    /// schedule anywhere from there on, below the next pending time. So
    /// the wheel clock must never pass `deadline`: a bucket is cascaded,
    /// and the overflow heap migrated, only when the instant `wnow`
    /// would advance to is itself within the deadline.
    fn pop_until(&mut self, deadline: u64) -> Option<(u64, u64, E)> {
        loop {
            // Fast path: while level 0's minimum is strictly below the
            // lower bound on everything else, it IS the global minimum —
            // one bucket walk finds it, checks the deadline and yields
            // the unlink position; no level scans, no cascades, no
            // overflow consultation.
            let c0 = self.level0_min();
            if let Some(m) = c0 {
                if m.at < self.hi_bound {
                    return (m.at <= deadline).then(|| self.unlink_level0(m));
                }
            }
            if self.len() == 0 {
                return None;
            }
            // Earliest bucket among levels >= 1 (by absolute start).
            let mut best_hi: Option<(u64, usize, usize)> = None;
            for l in 1..LEVELS {
                if let Some((slot, start)) = self.first_bucket(l) {
                    if best_hi.is_none_or(|(bs, _, _)| start < bs) {
                        best_hi = Some((start, l, slot));
                    }
                }
            }
            let c0_at = c0.map_or(u64::MAX, |m| m.at);
            let ov_at = self.overflow.peek().map_or(u64::MAX, |o| o.at);
            // A higher-level bucket starting at or before both the
            // level-0 candidate and the overflow minimum may contain the
            // true minimum (or an equal-time, earlier-seq entry): spill
            // it down and re-evaluate. Each cascade strictly lowers its
            // entries' levels, so this terminates. Its start bounds
            // every pending event from below, so a start past the
            // deadline refuses without touching anything.
            if let Some((start, l, slot)) = best_hi {
                if start <= c0_at && start <= ov_at {
                    if start > deadline {
                        return None;
                    }
                    self.cascade(l, slot, start);
                    continue;
                }
            }
            // Overflow migration: when the overflow minimum beats (or
            // seq-ties below) everything in the wheel, it is the global
            // minimum; if the deadline admits it, advance the wheel
            // clock to it and pull every now-placeable entry in.
            if let Some(o) = self.overflow.peek() {
                let beats_c0 = c0.is_none_or(|m| (o.at, o.seq) < (m.at, m.seq));
                if beats_c0 {
                    debug_assert!(best_hi.is_none_or(|(start, _, _)| o.at < start));
                    if o.at > deadline {
                        return None;
                    }
                    self.wnow = self.wnow.max(o.at);
                    while let Some(o) = self.overflow.peek() {
                        if Self::place(o.at, self.wnow).is_none() {
                            break;
                        }
                        let o = self.overflow.pop().expect("peeked entry");
                        self.link(o.idx);
                    }
                    continue;
                }
            }
            // Level 0 holds the global minimum. The scan just proved
            // nothing above level 0 starts before `best_hi`/`ov_at`, so
            // refresh the fast-path bound with the tighter value.
            self.hi_bound = ov_at.min(best_hi.map_or(u64::MAX, |(start, _, _)| start));
            let m = c0.expect("a non-empty queue with nothing to spill has a level-0 minimum");
            return (m.at <= deadline).then(|| self.unlink_level0(m));
        }
    }
}

// ----------------------------------------------------------- EventQueue

enum Backend<E> {
    // Boxed: the wheel's inline bucket-head table dwarfs the other
    // variant, and `EventQueue` owners should not pay for it inline.
    Calendar(Box<CalendarQueue<E>>),
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
    /// (calendar) backend.
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
            QueueBackend::Calendar => {
                Backend::Calendar(Box::new(CalendarQueue::with_capacity(capacity)))
            }
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
            Backend::Calendar(c) => c.len(),
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
            Backend::Calendar(c) => c.insert(at.as_nanos(), seq, event),
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
            Backend::Calendar(c) => c.peek_time().map(SimTime),
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

    /// Remove the next event if it fires at or before `deadline`. The
    /// calendar finds, deadline-checks and unlinks its minimum in one
    /// probe; the reference model peeks, then pops.
    fn take_due(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match &mut self.backend {
            Backend::Calendar(c) => c
                .pop_until(deadline.as_nanos())
                .map(|(at, _, e)| (SimTime(at), e)),
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

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::Calendar, QueueBackend::Reference];

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
        assert_eq!(outs[0], outs[1], "calendar vs reference");
    }

    #[test]
    fn far_future_events_overflow_and_return_exactly() {
        // Mix of wheel-resident and beyond-horizon times (> ~4.3 s),
        // including ties across the overflow boundary.
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
        // Pop/push interleaving exercises cascades and wheel-clock
        // advances mid-stream, not just a bulk load.
        let mut cal: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Calendar);
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
            if r % 3 == 0 && cal.pending() > 0 {
                assert_eq!(cal.pop(), refq.pop(), "diverged at step {i}");
            } else {
                // Mostly near-future deltas, occasionally far-future.
                let delta = if r % 97 == 0 {
                    5_000_000_000 + r % 30_000_000_000
                } else {
                    r % 3_000_000
                };
                let at = cal.now() + SimDuration::from_nanos(delta);
                cal.schedule(at, i);
                refq.schedule(at, i);
            }
        }
        while let Some(got) = cal.pop() {
            assert_eq!(Some(got), refq.pop());
        }
        assert!(refq.pop().is_none());
        assert_eq!(cal.processed(), refq.processed());
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
    fn default_backend_is_calendar() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend(), QueueBackend::Calendar);
        let q: EventQueue<()> = EventQueue::with_capacity(10);
        assert_eq!(q.backend(), QueueBackend::Calendar);
    }
}
