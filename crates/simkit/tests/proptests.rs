//! Property-based tests for the simulation core.

use proptest::prelude::*;
use qi_simkit::event::{EventQueue, QueueBackend};
use qi_simkit::ratelimit::TokenBucket;
use qi_simkit::reference::ReferenceQueue;
use qi_simkit::stats::{moving_average, percentile, Histogram, OnlineStats};
use qi_simkit::table::AsciiTable;
use qi_simkit::time::{SimDuration, SimTime};

/// One step of an interleaved queue workout: schedule an event at
/// `now + delta`, or pop (a `delta` in the sentinel band means pop).
#[derive(Clone, Debug)]
enum QueueOp {
    Push(u64),
    Pop,
}

fn queue_ops(max_len: usize) -> impl Strategy<Value = Vec<QueueOp>> {
    // Deltas span the bands the simulator schedules in: equal-time ties
    // (0), RPC/CPU microseconds, disk milliseconds, far-future seconds,
    // and the u64::MAX extreme. A (selector, raw) pair per op stands in for
    // upstream's weighted `prop_oneof!`.
    prop::collection::vec((0u32..100, 0u64..u64::MAX), 1..max_len).prop_map(|raw| {
        raw.into_iter()
            .map(|(sel, r)| match sel {
                0..=39 => QueueOp::Pop,
                40..=49 => QueueOp::Push(0),
                50..=74 => QueueOp::Push(1 + r % 1_000_000),
                75..=89 => QueueOp::Push(1_000_000 + r % 99_000_000),
                90..=97 => QueueOp::Push(5_000_000_000 + r % 95_000_000_000),
                _ => QueueOp::Push(u64::MAX),
            })
            .collect()
    })
}

/// One epoch of the parallel driver's use of the queue: drain through
/// `now + len`, then — with the clock standing at the deadline — make
/// these inserts before the next epoch begins.
type Epoch = (u64, Vec<(u32, u64)>);

/// Everything observable of one run of the epoch pattern.
#[derive(Debug, Default, PartialEq)]
struct EpochLog {
    /// Each delivery, `(time, payload)`; payloads number the schedules.
    delivered: Vec<(SimTime, usize)>,
    /// `(now, processed, pending)` after every refusal and at the end.
    marks: Vec<(SimTime, u64, usize)>,
}

/// Run the epoch pattern on one backend.
fn run_epochs(backend: QueueBackend, initial: &[u64], epochs: &[Epoch]) -> EpochLog {
    let mut q = EventQueue::with_backend(backend);
    let mut id = 0usize;
    let mut next_id = move || {
        id += 1;
        id
    };
    for &at in initial {
        q.schedule(SimTime(at), next_id());
    }
    let mut log = EpochLog::default();
    for (len, inserts) in epochs {
        let deadline = SimTime(q.now().as_nanos().saturating_add(*len));
        while let Some((t, e)) = q.pop_until(deadline) {
            assert!(t <= deadline, "{backend:?} delivered past the deadline");
            log.delivered.push((t, e));
            // Handlers schedule from inside the drain too.
            if e % 3 == 0 {
                q.schedule(
                    SimTime(t.as_nanos().saturating_add(e as u64 % 700)),
                    next_id(),
                );
            }
        }
        assert_eq!(q.now(), deadline, "{backend:?} clock after a refusal");
        let next = q.peek_time();
        assert!(
            next.is_none_or(|t| t > deadline),
            "{backend:?} refused a due event"
        );
        log.marks.push((q.now(), q.processed(), q.pending()));
        // The gap the refusal left open: [deadline, next pending).
        let gap = next.map_or(1_000_000, |t| t.as_nanos() - deadline.as_nanos());
        for &(sel, r) in inserts {
            let at = match sel {
                // Below the next pending time, where a queue whose clock
                // ran ahead of the deadline would misplace the event.
                0..=4 => deadline.as_nanos() + r % gap,
                // Equal timestamps: at the deadline itself, and tied
                // with the pending minimum (must pop after it).
                5..=6 => deadline.as_nanos(),
                7..=8 => next.map_or(deadline.as_nanos(), |t| t.as_nanos()),
                // Far future: seconds past the deadline.
                _ => deadline
                    .as_nanos()
                    .saturating_add(5_000_000_000 + r % 60_000_000_000),
            };
            q.schedule(SimTime(at), next_id());
        }
    }
    while let Some(d) = q.pop() {
        log.delivered.push(d);
    }
    log.marks.push((q.now(), q.processed(), q.pending()));
    log
}

/// The packed queue must tell the reference model's story for the same
/// epoch script.
fn assert_epochs_agree(initial: &[u64], epochs: &[Epoch]) {
    let want = run_epochs(QueueBackend::Reference, initial, epochs);
    let got = run_epochs(QueueBackend::Packed, initial, epochs);
    assert_eq!(got.delivered, want.delivered, "delivery order");
    assert_eq!(got.marks, want.marks, "now/processed/pending");
}

/// Deadlines well short of far-future events must refuse without moving
/// anything, and schedules into the gap — down to the deadline itself
/// and up to a tie with the far minimum — must come out in `(time, seq)`
/// order.
#[test]
fn pop_until_refuses_overflow_events_without_advancing_the_wheel() {
    const S: u64 = 1_000_000_000;
    let initial = [10 * S, 100 * S, 10 * S, 500];
    let epochs: Vec<Epoch> = vec![
        // Delivers the near event, refuses the 10 s pair.
        (S, vec![(0, 0), (0, 123_456_789), (5, 0), (7, 0), (9, 1)]),
        // Still short of 10 s: lands between the gap-fillers.
        (3 * S, vec![(0, 7), (7, 0), (5, 0)]),
        // Zero-length epoch right at a refusal.
        (0, vec![(5, 0), (0, 1)]),
        // Crosses the 10 s ties, stops before 100 s.
        (20 * S, vec![(0, 99), (9, 5)]),
    ];
    assert_epochs_agree(&initial, &epochs);
}

proptest! {
    /// Arbitrary interleaved push/pop sequences through the packed
    /// backend against the naive sorted-`Vec` model, standalone and as a
    /// backend — all must emit the identical `(time, seq, event)` order,
    /// including equal-timestamp FIFO ties and `u64::MAX` deltas
    /// (clamped to absolute `u64::MAX`, the zero-width far edge).
    #[test]
    fn backends_match_reference_model_interleaved(ops in queue_ops(120)) {
        let mut packed = EventQueue::with_backend(QueueBackend::Packed);
        let mut refq = EventQueue::with_backend(QueueBackend::Reference);
        // A standalone naive model driven with the same (at, seq) pairs
        // the queues compute, double-checking the Reference backend too.
        let mut model: ReferenceQueue<usize> = ReferenceQueue::new();
        let mut seq = 0u64;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                QueueOp::Push(delta) => {
                    let at = SimTime(packed.now().as_nanos().saturating_add(delta));
                    packed.schedule(at, i);
                    refq.schedule(at, i);
                    model.insert(at.as_nanos(), seq, i);
                    seq += 1;
                }
                QueueOp::Pop => {
                    let want = model.pop().map(|(at, _, e)| (SimTime(at), e));
                    prop_assert_eq!(packed.pop(), want, "packed diverged at op {}", i);
                    prop_assert_eq!(refq.pop(), want, "reference diverged at op {}", i);
                }
            }
            prop_assert_eq!(packed.pending(), model.len());
            prop_assert_eq!(packed.peek_time(), model.peek().map(|(at, _)| SimTime(at)));
            prop_assert_eq!(refq.peek_time(), packed.peek_time());
        }
        // Drain: the tails must agree too.
        loop {
            let want = model.pop().map(|(at, _, e)| (SimTime(at), e));
            prop_assert_eq!(packed.pop(), want);
            prop_assert_eq!(refq.pop(), want);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(packed.processed(), refq.processed());
        prop_assert_eq!(packed.now(), refq.now());
    }

    /// Zero-time and max-time absolute schedules agree across backends
    /// (bulk load, no interleaving — keys at both ends of `at`'s range).
    #[test]
    fn backends_match_on_extreme_absolute_times(
        raw_times in prop::collection::vec((0u32..35, 0u64..u64::MAX), 1..60),
    ) {
        let times: Vec<u64> = raw_times
            .into_iter()
            .map(|(sel, r)| match sel {
                0..=4 => 0,
                5..=9 => u64::MAX,
                10..=14 => u64::MAX - 1,
                15..=24 => r % 1_000,
                _ => r,
            })
            .collect();
        let mut packed = EventQueue::with_backend(QueueBackend::Packed);
        let mut refq = EventQueue::with_backend(QueueBackend::Reference);
        for (i, &t) in times.iter().enumerate() {
            packed.schedule(SimTime(t), i);
            refq.schedule(SimTime(t), i);
        }
        for _ in 0..times.len() {
            prop_assert_eq!(packed.pop(), refq.pop());
        }
        prop_assert!(packed.pop().is_none() && refq.pop().is_none());
    }

    /// Events always pop in non-decreasing time order, with ties in
    /// insertion order.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        let mut count = 0;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "tie broken out of insertion order");
                }
            }
            prop_assert_eq!(t, SimTime(times[i]));
            last = Some((t, i));
            count += 1;
        }
        prop_assert_eq!(count, times.len());
        prop_assert_eq!(q.processed(), times.len() as u64);
    }

    /// pop_until never delivers an event beyond the deadline and always
    /// advances the clock exactly to the deadline when it returns None.
    #[test]
    fn pop_until_respects_any_deadline(
        times in prop::collection::vec(0u64..1000, 1..50),
        deadline in 0u64..1200,
    ) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime(t), t);
        }
        let deadline = SimTime(deadline);
        let mut delivered = 0;
        while let Some((t, _)) = q.pop_until(deadline) {
            prop_assert!(t <= deadline);
            delivered += 1;
        }
        prop_assert_eq!(q.now(), deadline.max(q.now()));
        let expect = times.iter().filter(|&&t| SimTime(t) <= deadline).count();
        prop_assert_eq!(delivered, expect);
    }

    /// The epoch pattern on every backend: after a `None` at the
    /// deadline, schedule into `[deadline, next_pending)` and at equal
    /// timestamps, then carry on — identical `(time, seq)` order,
    /// `now()`, `processed()` and `pending()` throughout.
    #[test]
    fn pop_until_epoch_pattern_agrees_on_every_backend(
        initial in prop::collection::vec((0u32..10, 0u64..u64::MAX), 0..40),
        epochs in prop::collection::vec(
            (
                (0u32..10, 0u64..u64::MAX),
                prop::collection::vec((0u32..10, 0u64..u64::MAX), 0..8),
            ),
            1..12,
        ),
    ) {
        // Initial times and epoch lengths span the simulator's bands:
        // sub-microsecond, RPC microseconds, the 100 us lookahead,
        // disk-service milliseconds, and far-future seconds.
        let band = |sel: u32, r: u64| match sel {
            0 => 0,
            1..=2 => r % 256,
            3..=4 => r % 16_000,
            5..=6 => 100_000,
            7..=8 => r % 20_000_000,
            _ => 5_000_000_000 + r % 20_000_000_000,
        };
        let initial: Vec<u64> = initial.into_iter().map(|(s, r)| band(s, r)).collect();
        let epochs: Vec<Epoch> = epochs
            .into_iter()
            .map(|((s, r), inserts)| (band(s, r), inserts))
            .collect();
        assert_epochs_agree(&initial, &epochs);
    }

    /// Merging two Welford accumulators equals accumulating sequentially.
    #[test]
    fn stats_merge_is_associative(
        xs in prop::collection::vec(-1e6f64..1e6, 0..100),
        split in 0usize..100,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
    }

    /// Percentiles are monotone in p and bounded by min/max.
    #[test]
    fn percentile_is_monotone_and_bounded(
        xs in prop::collection::vec(-1e5f64..1e5, 1..80),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = percentile(&xs, lo);
        let b = percentile(&xs, hi);
        prop_assert!(a <= b + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(a >= min - 1e-9 && b <= max + 1e-9);
    }

    /// Moving averages stay within the input's min/max and preserve
    /// length.
    #[test]
    fn moving_average_is_bounded(
        xs in prop::collection::vec(-1e4f64..1e4, 1..100),
        w in 1usize..20,
    ) {
        let sm = moving_average(&xs, w);
        prop_assert_eq!(sm.len(), xs.len());
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in &sm {
            prop_assert!(v >= min - 1e-6 && v <= max + 1e-6);
        }
    }

    /// Histograms never lose observations.
    #[test]
    fn histogram_conserves_counts(
        xs in prop::collection::vec(-100.0f64..200.0, 0..300),
        buckets in 1usize..32,
    ) {
        let mut h = Histogram::new(0.0, 100.0, buckets);
        for &x in &xs {
            h.record(x);
        }
        prop_assert_eq!(h.total(), xs.len() as u64);
        let bucketed: u64 = h.buckets().iter().sum();
        prop_assert_eq!(bucketed + h.underflow() + h.overflow(), xs.len() as u64);
    }

    /// CSV rendering always yields header + one line per row, and the
    /// ASCII table has constant line width.
    #[test]
    fn tables_render_consistently(
        rows in prop::collection::vec(prop::collection::vec("[a-z0-9 ,\"]{0,12}", 3), 0..20),
    ) {
        let mut t = AsciiTable::new(vec!["a", "b", "c"]);
        for r in &rows {
            t.add_row(r.clone());
        }
        let csv = t.to_csv();
        prop_assert_eq!(csv.lines().count(), rows.len() + 1);
        let rendered = t.render();
        let widths: Vec<usize> = rendered.lines().map(|l| l.chars().count()).collect();
        prop_assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }

    /// Duration arithmetic round-trips through seconds within 1 ns.
    #[test]
    fn duration_seconds_round_trip(ns in 0u64..10_000_000_000) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        prop_assert!(back.as_nanos().abs_diff(ns) <= 1);
    }

    /// Token-bucket admission, for ANY request schedule: grants are
    /// non-decreasing (FIFO — a later request never overtakes an earlier
    /// one), each grant is at or after its request, and the total cost
    /// granted by the last grant instant never exceeds the initial burst
    /// plus what the configured rate could have refilled — i.e. the
    /// long-run admitted rate is bounded by `rate`.
    #[test]
    fn token_bucket_grants_fifo_and_rate_bounded(
        rate in 0.5f64..500.0,
        burst in 0.1f64..100.0,
        arrivals in prop::collection::vec((0u64..200_000_000, 0.01f64..20.0), 1..60),
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now = SimTime::ZERO;
        let mut last_grant = SimTime::ZERO;
        let mut granted_cost = 0.0f64;
        for &(gap_ns, cost) in &arrivals {
            now += SimDuration::from_nanos(gap_ns);
            let grant = bucket.earliest(now, cost);
            prop_assert!(grant >= now, "grant {grant} before request {now}");
            prop_assert!(
                grant >= last_grant,
                "grant {grant} overtook earlier grant {last_grant}"
            );
            last_grant = grant;
            granted_cost += cost;
            // Capacity available by the grant instant: the initial
            // burst plus rate * elapsed (1e-6 covers f64 rounding).
            let capacity = burst + rate * last_grant.as_secs_f64();
            prop_assert!(
                granted_cost <= capacity + 1e-6,
                "granted {granted_cost} tokens by {last_grant}, capacity only {capacity}"
            );
        }
    }
}
