//! Bounded, run-length-compressed storage for server monitor samples.
//!
//! `RunTrace.samples` historically was a plain `Vec<ServerSample>`: one
//! record per device per sampling tick, growing linearly with run length
//! whether or not anything happened. On long mostly-idle runs almost
//! every sample repeats the previous one for its device — cumulative
//! counters frozen, cache empty — which is exactly the redundancy
//! run-length encoding removes.
//!
//! [`SampleStore`] is the accessor API both worlds share:
//!
//! - [`SampleStore::Unbounded`] — the original `Vec`, exact and
//!   unbounded (the default; every existing golden is unchanged).
//! - [`SampleStore::Ring`] — an [`RleRing`]: per-device run-length
//!   segments in a bounded [`RingBuffer`], evicting the oldest finished
//!   segment when full and counting every sample it drops.
//!
//! Reads go through [`SampleStore::iter`] (yielding [`ServerSample`] by
//! value — it is `Copy`), so replay, feature extraction, and the control
//! loop are agnostic to the representation. For simulator traces —
//! where samples arrive in nondecreasing time order, all devices at a
//! tick in device order — ring iteration reproduces the `Vec` order
//! exactly; the differential suite (`tests/anomaly_detection.rs`)
//! asserts it byte-for-byte.

use qi_simkit::ring::RingBuffer;
use qi_simkit::time::{SimDuration, SimTime};

use crate::ids::DeviceId;
use crate::ops::ServerSample;
use crate::queue::DeviceCounters;

/// How a run's server-sample series is stored (a [`crate::config::ClusterConfig`]
/// knob; [`TraceStoreConfig::Unbounded`] by default so traces and
/// goldens are byte-identical to prior releases).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceStoreConfig {
    /// Keep every sample in a plain `Vec` (exact full history).
    #[default]
    Unbounded,
    /// Run-length segments in a ring bounded at `capacity` *finished*
    /// segments (one live tail segment per device is always retained on
    /// top of that, so the newest run per device is never lost).
    RleRing {
        /// Maximum finished segments held before eviction.
        capacity: usize,
    },
}

/// `count` consecutive samples from one device whose payload (cumulative
/// counters, dirty bytes, throttle flag) never changed, at times
/// `start, start + stride, …, start + (count-1)·stride`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleSegment {
    /// Sampled device.
    pub dev: DeviceId,
    /// Timestamp of the first sample in the run.
    pub start: SimTime,
    /// Spacing between consecutive samples (0 until a second sample
    /// fixes it).
    pub stride: SimDuration,
    /// Samples in the run.
    pub count: u64,
    /// Shared cumulative counters.
    pub counters: DeviceCounters,
    /// Shared dirty-byte gauge.
    pub dirty_bytes: u64,
    /// Shared throttle gauge.
    pub throttled_now: u64,
}

impl SampleSegment {
    fn of(s: &ServerSample) -> Self {
        SampleSegment {
            dev: s.dev,
            start: s.time,
            stride: SimDuration::ZERO,
            count: 1,
            counters: s.counters,
            dirty_bytes: s.dirty_bytes,
            throttled_now: s.throttled_now,
        }
    }

    fn payload_matches(&self, s: &ServerSample) -> bool {
        self.counters == s.counters
            && self.dirty_bytes == s.dirty_bytes
            && self.throttled_now == s.throttled_now
    }

    /// Whether appending `s` keeps this segment a valid arithmetic run.
    fn can_extend(&self, s: &ServerSample) -> bool {
        if self.dev != s.dev || !self.payload_matches(s) {
            return false;
        }
        if self.count == 1 {
            // The second sample fixes the stride; it only needs to not
            // go backwards in time.
            s.time >= self.start
        } else {
            s.time == self.time_at(self.count)
        }
    }

    fn time_at(&self, i: u64) -> SimTime {
        SimTime(self.start.as_nanos() + self.stride.as_nanos() * i)
    }

    /// Materialise the `i`-th sample of the run (`i < count`).
    pub fn sample_at(&self, i: u64) -> ServerSample {
        debug_assert!(i < self.count);
        ServerSample {
            time: self.time_at(i),
            dev: self.dev,
            counters: self.counters,
            dirty_bytes: self.dirty_bytes,
            throttled_now: self.throttled_now,
        }
    }
}

/// Run-length segments in a bounded ring, plus one live (still
/// extendable) tail segment per device.
#[derive(Clone, Debug)]
pub struct RleRing {
    segs: RingBuffer<SampleSegment>,
    /// Live tail per device index; grown on demand.
    tails: Vec<Option<SampleSegment>>,
    recorded: u64,
    live: u64,
    evicted: u64,
    /// No device's sample times ever went backwards, so the merged
    /// iteration order is the sorted `(time, device)` order and can be
    /// walked from either end ([`SampleStore::iter_from`]).
    time_ordered: bool,
}

impl RleRing {
    /// Empty ring holding at most `capacity` finished segments.
    pub fn new(capacity: usize) -> Self {
        RleRing {
            segs: RingBuffer::new(capacity),
            tails: Vec::new(),
            recorded: 0,
            live: 0,
            evicted: 0,
            time_ordered: true,
        }
    }

    /// Append one sample, extending the device's live run when the
    /// payload repeats on schedule and sealing it into the ring
    /// otherwise (which may evict the oldest finished segment).
    pub fn push(&mut self, s: ServerSample) {
        self.recorded += 1;
        self.live += 1;
        let di = s.dev.index();
        if di >= self.tails.len() {
            self.tails.resize(di + 1, None);
        }
        if let Some(t) = &self.tails[di] {
            self.time_ordered &= s.time >= t.time_at(t.count - 1);
        }
        match &mut self.tails[di] {
            Some(t) if t.can_extend(&s) => {
                if t.count == 1 {
                    t.stride = s.time.saturating_since(t.start);
                }
                t.count += 1;
            }
            Some(t) => {
                let sealed = *t;
                *t = SampleSegment::of(&s);
                if let Some(dropped) = self.segs.push(sealed) {
                    self.live -= dropped.count;
                    self.evicted += dropped.count;
                }
            }
            slot @ None => *slot = Some(SampleSegment::of(&s)),
        }
    }

    /// Samples currently reconstructible.
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Samples ever pushed (held + evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Samples dropped by ring eviction.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Segments currently held (finished + live tails).
    pub fn segments(&self) -> usize {
        self.segs.len() + self.tails.iter().flatten().count()
    }

    /// Per-device segment lists in per-device push order (each device's
    /// finished ring segments followed by its live tail).
    fn device_lists(&self) -> Vec<Vec<SampleSegment>> {
        let n = self.tails.len().max(
            self.segs
                .iter()
                .map(|g| g.dev.index() + 1)
                .max()
                .unwrap_or(0),
        );
        let mut lists: Vec<Vec<SampleSegment>> = vec![Vec::new(); n];
        for g in self.segs.iter() {
            lists[g.dev.index()].push(*g);
        }
        for t in self.tails.iter().flatten() {
            lists[t.dev.index()].push(*t);
        }
        lists
    }
}

/// Storage for a run's server-sample series, behind one accessor API.
#[derive(Clone, Debug)]
pub enum SampleStore {
    /// Exact full history in a `Vec` (the default).
    Unbounded(Vec<ServerSample>),
    /// Bounded run-length ring.
    Ring(RleRing),
}

impl Default for SampleStore {
    fn default() -> Self {
        SampleStore::Unbounded(Vec::new())
    }
}

impl SampleStore {
    /// Build the store a configuration asks for.
    pub fn with_config(cfg: TraceStoreConfig) -> Self {
        match cfg {
            TraceStoreConfig::Unbounded => SampleStore::default(),
            TraceStoreConfig::RleRing { capacity } => SampleStore::Ring(RleRing::new(capacity)),
        }
    }

    /// Wrap an existing sample vector (unbounded).
    pub fn from_vec(v: Vec<ServerSample>) -> Self {
        SampleStore::Unbounded(v)
    }

    /// Append one sample.
    pub fn push(&mut self, s: ServerSample) {
        match self {
            SampleStore::Unbounded(v) => v.push(s),
            SampleStore::Ring(r) => r.push(s),
        }
    }

    /// Samples currently held (reconstructible).
    pub fn len(&self) -> usize {
        match self {
            SampleStore::Unbounded(v) => v.len(),
            SampleStore::Ring(r) => r.len(),
        }
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples ever pushed, including any since evicted.
    pub fn recorded(&self) -> u64 {
        match self {
            SampleStore::Unbounded(v) => v.len() as u64,
            SampleStore::Ring(r) => r.recorded(),
        }
    }

    /// Samples dropped by eviction (0 for the unbounded store).
    pub fn evicted(&self) -> u64 {
        match self {
            SampleStore::Unbounded(_) => 0,
            SampleStore::Ring(r) => r.evicted(),
        }
    }

    /// Storage cells currently allocated: samples for the unbounded
    /// store, segments for the ring — the peak-memory proxy the scale
    /// bench reports.
    pub fn storage_cells(&self) -> usize {
        match self {
            SampleStore::Unbounded(v) => v.len(),
            SampleStore::Ring(r) => r.segments(),
        }
    }

    /// Approximate resident bytes of the held representation.
    pub fn approx_bytes(&self) -> usize {
        match self {
            SampleStore::Unbounded(v) => v.len() * std::mem::size_of::<ServerSample>(),
            SampleStore::Ring(r) => r.segments() * std::mem::size_of::<SampleSegment>(),
        }
    }

    /// Iterate held samples by value, oldest first.
    ///
    /// For the ring this is a deterministic merge of the per-device
    /// segment lists by `(time, device)`; on simulator traces (all
    /// devices sampled at each tick, in device order) it reproduces the
    /// unbounded store's arrival order exactly.
    pub fn iter(&self) -> SampleIter<'_> {
        match self {
            SampleStore::Unbounded(v) => SampleIter::Slice(v.iter()),
            SampleStore::Ring(r) => {
                let lists = r.device_lists();
                let cursors = lists.iter().map(|_| (0usize, 0u64)).collect();
                SampleIter::Merge { lists, cursors }
            }
        }
    }

    /// Iterate starting at logical index `from`, where logical indices
    /// count every sample ever pushed (evicted ones first). Evicted
    /// history cannot be replayed: a `from` below the eviction count
    /// resumes at the oldest held sample. Incremental readers (the
    /// monitor's bounded ingest) pick up where they left off with this
    /// every tick, so resuming near the end must not cost the history
    /// before it: the unbounded store slices, the ring walks back from
    /// the end when that is the shorter way.
    pub fn iter_from(&self, from: u64) -> SampleIter<'_> {
        let skip = from.saturating_sub(self.evicted());
        match self {
            SampleStore::Unbounded(v) => {
                let skip = usize::try_from(skip).map_or(v.len(), |n| n.min(v.len()));
                SampleIter::Slice(v[skip..].iter())
            }
            SampleStore::Ring(r) => {
                let mut it = self.iter();
                let rest = (r.len() as u64).saturating_sub(skip);
                if r.time_ordered && rest < skip {
                    it.seek_from_end(rest);
                } else {
                    for _ in 0..skip.min(r.len() as u64) {
                        it.next();
                    }
                }
                it
            }
        }
    }

    /// Materialise the held samples in iteration order.
    pub fn to_vec(&self) -> Vec<ServerSample> {
        self.iter().collect()
    }
}

impl PartialEq for SampleStore {
    /// Logical equality: same samples in the same iteration order
    /// (representation-agnostic, so a ring store that evicted nothing
    /// compares equal to its unbounded twin).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for &'a SampleStore {
    type Item = ServerSample;
    type IntoIter = SampleIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<ServerSample> for SampleStore {
    fn from_iter<I: IntoIterator<Item = ServerSample>>(iter: I) -> Self {
        SampleStore::Unbounded(iter.into_iter().collect())
    }
}

/// By-value sample iterator over either representation.
pub enum SampleIter<'a> {
    /// Unbounded store: a plain slice walk.
    Slice(std::slice::Iter<'a, ServerSample>),
    /// Ring store: `(time, device)` merge over per-device segment runs.
    Merge {
        /// Per-device segment lists (device index = position).
        lists: Vec<Vec<SampleSegment>>,
        /// Per-device `(segment index, offset within segment)` cursor.
        cursors: Vec<(usize, u64)>,
    },
}

// Steps taken by sample iterators on this thread: one per `next`, one
// per sample stepped back over.
#[cfg(test)]
thread_local! {
    static STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_step() {
    #[cfg(test)]
    STEPS.with(|s| s.set(s.get() + 1));
}

impl SampleIter<'_> {
    /// Position a time-ordered merge `rest` samples before its end: park
    /// every cursor past its device's last segment, then `rest` times
    /// step back the device whose previous sample has the greatest
    /// `(time, device)` key — `next` in reverse.
    fn seek_from_end(&mut self, rest: u64) {
        let SampleIter::Merge { lists, cursors } = self else {
            return;
        };
        for (cursor, list) in cursors.iter_mut().zip(lists.iter()) {
            *cursor = (list.len(), 0);
        }
        for _ in 0..rest {
            count_step();
            let last = cursors
                .iter()
                .enumerate()
                .filter_map(|(d, &(si, off))| {
                    let (si, off) = match off.checked_sub(1) {
                        Some(off) => (si, off),
                        None => (si.checked_sub(1)?, lists[d][si - 1].count - 1),
                    };
                    Some((lists[d][si].time_at(off), d, si, off))
                })
                .max_by_key(|&(t, d, ..)| (t, d));
            let Some((_, d, si, off)) = last else {
                return;
            };
            cursors[d] = (si, off);
        }
    }
}

impl Iterator for SampleIter<'_> {
    type Item = ServerSample;

    fn next(&mut self) -> Option<ServerSample> {
        count_step();
        match self {
            SampleIter::Slice(it) => it.next().copied(),
            SampleIter::Merge { lists, cursors } => {
                let mut best: Option<(SimTime, usize)> = None;
                for (d, &(si, off)) in cursors.iter().enumerate() {
                    let Some(seg) = lists[d].get(si) else {
                        continue;
                    };
                    let t = seg.sample_at(off).time;
                    if best.is_none_or(|(bt, bd)| (t, d) < (bt, bd)) {
                        best = Some((t, d));
                    }
                }
                let (_, d) = best?;
                let (si, off) = cursors[d];
                let seg = &lists[d][si];
                let s = seg.sample_at(off);
                cursors[d] = if off + 1 < seg.count {
                    (si, off + 1)
                } else {
                    (si + 1, 0)
                };
                Some(s)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sec: u64, dev: u32, reads: u64) -> ServerSample {
        ServerSample {
            time: SimTime::from_secs(sec),
            dev: DeviceId(dev),
            counters: DeviceCounters {
                reads_completed: reads,
                ..DeviceCounters::default()
            },
            dirty_bytes: 0,
            throttled_now: 0,
        }
    }

    /// The canonical simulator shape: every device sampled at every
    /// tick, in device order.
    fn tick_stream(ticks: u64, devs: u32, active_dev: Option<u32>) -> Vec<ServerSample> {
        let mut out = Vec::new();
        for t in 1..=ticks {
            for d in 0..devs {
                let reads = match active_dev {
                    Some(a) if a == d => t * 10,
                    _ => 0,
                };
                out.push(sample(t, d, reads));
            }
        }
        out
    }

    #[test]
    fn ring_matches_unbounded_when_nothing_evicts() {
        let stream = tick_stream(30, 3, Some(1));
        let mut unbounded = SampleStore::default();
        let mut ring = SampleStore::with_config(TraceStoreConfig::RleRing { capacity: 1024 });
        for s in &stream {
            unbounded.push(*s);
            ring.push(*s);
        }
        assert_eq!(ring.evicted(), 0);
        assert_eq!(unbounded, ring);
        assert_eq!(ring.to_vec(), stream);
    }

    #[test]
    fn idle_devices_compress_to_single_segments() {
        let mut ring = RleRing::new(1024);
        for s in tick_stream(1000, 3, Some(2)) {
            ring.push(s);
        }
        // Devices 0 and 1 never change: one live tail segment each.
        // Device 2 changes every tick: 1000 singleton runs.
        assert_eq!(ring.len(), 3000);
        assert!(
            ring.segments() <= 1002,
            "expected ~1002 segments, got {}",
            ring.segments()
        );
    }

    #[test]
    fn eviction_drops_oldest_and_counts() {
        // Capacity 4 finished segments; device 0 changes every tick so
        // every push seals the previous singleton run.
        let mut store = SampleStore::with_config(TraceStoreConfig::RleRing { capacity: 4 });
        for t in 1..=10 {
            store.push(sample(t, 0, t * 10));
        }
        assert_eq!(store.recorded(), 10);
        // 9 sealed runs, ring keeps 4 + 1 live tail = oldest 5 evicted.
        assert_eq!(store.evicted(), 5);
        assert_eq!(store.len(), 5);
        let times: Vec<u64> = store.iter().map(|s| s.time.as_nanos()).collect();
        let expect: Vec<u64> = (6..=10).map(|t| SimTime::from_secs(t).as_nanos()).collect();
        assert_eq!(times, expect);
        // iter_from in logical (whole-run) indices resumes mid-history.
        let tail: Vec<u64> = store.iter_from(8).map(|s| s.time.as_nanos()).collect();
        assert_eq!(tail, expect[3..]);
        // A cursor pointing into evicted history clamps to oldest held.
        assert_eq!(store.iter_from(2).count(), 5);
    }

    fn ring_of(stream: &[ServerSample], capacity: usize) -> SampleStore {
        let mut ring = SampleStore::with_config(TraceStoreConfig::RleRing { capacity });
        for s in stream {
            ring.push(*s);
        }
        ring
    }

    #[test]
    fn iter_from_equals_skipping_at_every_offset() {
        // Tick-shaped streams (idle, one busy device), devices on
        // different periods and phases, duplicate timestamps, and a
        // device whose clock steps back (never walked from the end).
        let mut uneven = Vec::new();
        for t in 1..=40u64 {
            uneven.push(sample(t * 3, 0, t / 7));
            if t % 2 == 0 {
                uneven.push(sample(t * 3, 1, 0));
            }
            if t % 5 == 0 {
                uneven.extend([sample(t * 3 + 1, 2, t); 3]);
            }
        }
        let mut backwards = tick_stream(6, 2, Some(0));
        backwards.push(sample(2, 1, 0));
        backwards.push(sample(3, 1, 0));
        for (stream, capacity) in [
            (tick_stream(25, 3, None), 1024),
            (tick_stream(25, 3, Some(1)), 1024),
            (tick_stream(25, 3, Some(1)), 5),
            (uneven, 1024),
            (backwards, 1024),
        ] {
            let ring = ring_of(&stream, capacity);
            let held = ring.to_vec();
            for skip in 0..=held.len() + 1 {
                let got: Vec<_> = ring.iter_from(ring.evicted() + skip as u64).collect();
                let want: Vec<_> = held.iter().skip(skip).copied().collect();
                assert_eq!(got, want, "skip {skip} of {}", held.len());
            }
        }
    }

    #[test]
    fn iter_from_near_the_end_costs_what_it_yields_not_the_history() {
        let steps_of = |store: &SampleStore, from: u64| {
            STEPS.with(|s| s.set(0));
            let yielded = store.iter_from(from).count() as u64;
            (yielded, STEPS.with(|s| s.get()))
        };
        // One `next` a sample plus the closing `None`; the ring also
        // steps back over each sample once. 60 000 samples of history,
        // busy device or all idle, cost nothing.
        let busy = tick_stream(20_000, 3, Some(2));
        let unbounded: SampleStore = busy.iter().copied().collect();
        let end = unbounded.len() as u64;
        assert_eq!(steps_of(&unbounded, end - 10), (10, 11));
        assert_eq!(steps_of(&ring_of(&busy, 1 << 16), end - 10), (10, 21));
        let idle = ring_of(&tick_stream(20_000, 3, None), 16);
        assert_eq!(idle.storage_cells(), 3);
        assert_eq!(steps_of(&idle, end - 10), (10, 21));
        // From the front half the ring steps forward: never more than
        // twice what it yields.
        assert_eq!(steps_of(&idle, 100), (end - 100, end + 1));
    }

    #[test]
    fn capacity_zero_keeps_only_live_tails() {
        let mut store = SampleStore::with_config(TraceStoreConfig::RleRing { capacity: 0 });
        for s in tick_stream(5, 2, Some(0)) {
            store.push(s);
        }
        // Device 0 seals a singleton every tick (all dropped at once);
        // device 1 never seals. Tails: dev0 newest sample + dev1 run of 5.
        assert_eq!(store.recorded(), 10);
        assert_eq!(store.len(), 6);
        assert_eq!(store.evicted(), 4);
        assert_eq!(store.storage_cells(), 2);
    }

    #[test]
    fn stride_zero_duplicate_times_roundtrip() {
        let mut store = SampleStore::with_config(TraceStoreConfig::RleRing { capacity: 8 });
        let dup = sample(3, 0, 7);
        for _ in 0..4 {
            store.push(dup);
        }
        assert_eq!(store.to_vec(), vec![dup; 4]);
        assert_eq!(store.storage_cells(), 1, "one stride-0 run");
    }

    #[test]
    fn logical_equality_is_representation_agnostic() {
        let stream = tick_stream(10, 2, None);
        let unbounded: SampleStore = stream.iter().copied().collect();
        let mut ring = SampleStore::with_config(TraceStoreConfig::RleRing { capacity: 64 });
        for s in &stream {
            ring.push(*s);
        }
        assert_eq!(unbounded, ring);
        let mut other = unbounded.clone();
        other.push(sample(11, 0, 0));
        assert_ne!(unbounded, other);
    }
}
