//! OSS write-back cache with dirty-data throttling.
//!
//! Writes normally complete as soon as they are absorbed into server
//! memory; the dirty data is flushed to the OST in the background at lower
//! priority than synchronous reads. Once the dirty limit is reached,
//! incoming writes *throttle*: they queue here and are only acknowledged
//! as flush progress frees space. This is the mechanism that makes small
//! writes (e.g. mdtest-hard's 3901-byte file bodies) collapse behind bulk
//! writers — the 26-41× cells in the paper's Table I.

use std::collections::VecDeque;
use std::hash::Hash;

use qi_simkit::hash::IdMap;
use qi_simkit::time::SimDuration;

use crate::config::CacheConfig;
use crate::layout::ObjKey;

/// Outcome of offering a write to the cache.
#[derive(Debug)]
pub enum Admit {
    /// The write fits in cache: acknowledge after this absorb delay and
    /// submit a background flush.
    Absorbed {
        /// Memory-copy time for the payload.
        absorb: SimDuration,
    },
    /// The cache is at its dirty limit; the write waits inside the cache
    /// and will be released by a later [`WriteCache::flushed`] call.
    Throttled,
}

/// A throttled write released once flush progress made room.
#[derive(Debug)]
pub struct Released<T> {
    /// Caller payload.
    pub tag: T,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Memory-copy time to charge before acknowledging.
    pub absorb: SimDuration,
}

/// Per-device write-back cache state.
#[derive(Clone)]
pub struct WriteCache<T> {
    cfg: CacheConfig,
    dirty: u64,
    throttled: VecDeque<(T, u64)>,
    /// Cumulative count of writes that ever throttled (monitoring).
    throttled_total: u64,
}

impl<T> WriteCache<T> {
    /// New empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        WriteCache {
            cfg,
            dirty: 0,
            throttled: VecDeque::new(),
            throttled_total: 0,
        }
    }

    /// Bytes currently dirty (absorbed but not yet flushed).
    pub fn dirty(&self) -> u64 {
        self.dirty
    }

    /// Writes currently waiting for room.
    pub fn throttled_now(&self) -> usize {
        self.throttled.len()
    }

    /// Cumulative count of writes that ever had to throttle.
    pub fn throttled_total(&self) -> u64 {
        self.throttled_total
    }

    fn absorb_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.cfg.absorb_rate)
    }

    fn fits(&self, bytes: u64) -> bool {
        // An oversized single write is admitted when the cache is empty so
        // it can never deadlock.
        self.dirty + bytes <= self.cfg.dirty_limit || self.dirty == 0
    }

    /// Offer a write of `bytes` with completion payload `tag`.
    ///
    /// On [`Admit::Throttled`] the tag is retained internally and will come
    /// back from [`WriteCache::flushed`].
    pub fn admit(&mut self, bytes: u64, tag: T) -> Admit {
        if self.throttled.is_empty() && self.fits(bytes) {
            self.dirty += bytes;
            Admit::Absorbed {
                absorb: self.absorb_time(bytes),
            }
        } else {
            self.throttled.push_back((tag, bytes));
            self.throttled_total += 1;
            Admit::Throttled
        }
    }

    /// Record that `bytes` of dirty data finished flushing to disk, and
    /// release as many throttled writes as now fit (FIFO order).
    pub fn flushed(&mut self, bytes: u64) -> Vec<Released<T>> {
        debug_assert!(bytes <= self.dirty, "flushed more than was dirty");
        self.dirty = self.dirty.saturating_sub(bytes);
        let mut released = Vec::new();
        while let Some(&(_, b)) = self.throttled.front() {
            if !self.fits(b) {
                break;
            }
            // `front()` just returned this entry.
            let (tag, b) = self.throttled.pop_front().expect("non-empty front");
            self.dirty += b;
            released.push(Released {
                tag,
                bytes: b,
                absorb: self.absorb_time(b),
            });
        }
        released
    }
}

/// Null link in a [`Recency`] list.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct RecencyNode<K, V> {
    key: K,
    value: V,
    /// Towards the most recent entry.
    newer: u32,
    /// Towards the least recent entry; also threads the free list.
    older: u32,
}

/// Keyed values in recency order: a doubly linked list threaded through
/// a slab, most recently used first, plus a map from key to slab slot.
/// A lookup that refreshes, an insert and the removal of the least
/// recently used entry are each a hash probe and a few link writes — no
/// scan, and no allocation once the slab has reached its working size.
#[derive(Clone)]
struct Recency<K, V> {
    slots: IdMap<K, u32>,
    nodes: Vec<RecencyNode<K, V>>,
    newest: u32,
    oldest: u32,
    free: u32,
    /// Slab node accesses, for the test that pins insert and eviction at
    /// a constant cost.
    #[cfg(test)]
    visits: u64,
}

impl<K: Hash + Eq + Copy, V: Copy> Recency<K, V> {
    fn new() -> Self {
        Recency {
            slots: IdMap::default(),
            nodes: Vec::new(),
            newest: NIL,
            oldest: NIL,
            free: NIL,
            #[cfg(test)]
            visits: 0,
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn node(&mut self, slot: u32) -> &mut RecencyNode<K, V> {
        #[cfg(test)]
        {
            self.visits += 1;
        }
        &mut self.nodes[slot as usize]
    }

    /// Take `slot` out of the recency list (its own links go stale).
    fn unlink(&mut self, slot: u32) {
        let RecencyNode { newer, older, .. } = *self.node(slot);
        match newer {
            NIL => self.newest = older,
            n => self.node(n).older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.node(o).newer = newer,
        }
    }

    /// Put the unlinked `slot` at the most recent end.
    fn link_newest(&mut self, slot: u32) {
        let second = self.newest;
        let n = self.node(slot);
        n.newer = NIL;
        n.older = second;
        match second {
            NIL => self.oldest = slot,
            s => self.node(s).newer = slot,
        }
        self.newest = slot;
    }

    /// The value stored under `key`, which becomes the most recent.
    fn refresh(&mut self, key: K) -> Option<&mut V> {
        let slot = *self.slots.get(&key)?;
        if slot != self.newest {
            self.unlink(slot);
            self.link_newest(slot);
        }
        Some(&mut self.node(slot).value)
    }

    /// Add `key`, which must be absent, as the most recent entry.
    fn push(&mut self, key: K, value: V) {
        let node = RecencyNode {
            key,
            value,
            newer: NIL,
            older: NIL,
        };
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.node(slot).older;
            *self.node(slot) = node;
            slot
        } else {
            let slot = self.nodes.len() as u32;
            assert!(slot != NIL, "recency slab limit exceeded");
            self.nodes.push(node);
            slot
        };
        self.link_newest(slot);
        let prev = self.slots.insert(key, slot);
        debug_assert!(prev.is_none(), "pushed a key that is present");
    }

    /// Remove and return the least recently used entry.
    fn pop_oldest(&mut self) -> Option<(K, V)> {
        let slot = self.oldest;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        let free = self.free;
        let n = self.node(slot);
        n.older = free;
        let (key, value) = (n.key, n.value);
        self.free = slot;
        self.slots.remove(&key);
        Some((key, value))
    }
}

/// A fixed-capacity LRU membership set (used for the MDS inode cache:
/// the first lookup of a file misses to the MDT, later lookups hit until
/// the entry ages out).
#[derive(Clone)]
pub struct LruSet<K: Hash + Eq + Copy> {
    capacity: usize,
    entries: Recency<K, ()>,
}

impl<K: Hash + Eq + Copy> LruSet<K> {
    /// Set holding at most `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LruSet {
            capacity,
            entries: Recency::new(),
        }
    }

    /// Whether `key` is present; refreshes its recency.
    pub fn contains(&mut self, key: K) -> bool {
        self.entries.refresh(key).is_some()
    }

    /// Insert `key`, evicting the least recently used entry if full.
    pub fn insert(&mut self, key: K) {
        if self.entries.refresh(key).is_some() {
            return;
        }
        self.entries.push(key, ());
        if self.entries.len() > self.capacity {
            self.entries.pop_oldest();
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Server page cache residency for *small* objects (LRU by bytes).
///
/// Reads of resident objects are served from memory. Objects become
/// resident when written or first read, if they are small enough.
#[derive(Clone)]
pub struct SmallObjectCache {
    small_max: u64,
    budget: u64,
    used: u64,
    /// object → resident bytes, in recency order.
    resident: Recency<ObjKey, u64>,
}

impl SmallObjectCache {
    /// Cache admitting objects up to `small_max` bytes, evicting LRU
    /// beyond `budget` total bytes.
    pub fn new(small_max: u64, budget: u64) -> Self {
        SmallObjectCache {
            small_max,
            budget,
            used: 0,
            resident: Recency::new(),
        }
    }

    /// Whether `obj` is resident; refreshes its LRU position.
    pub fn contains(&mut self, obj: ObjKey) -> bool {
        self.resident.refresh(obj).is_some()
    }

    /// Record that `obj` now holds `bytes` of data; becomes (or stays)
    /// resident when small enough.
    pub fn touch(&mut self, obj: ObjKey, bytes: u64) {
        if bytes > self.small_max {
            return;
        }
        match self.resident.refresh(obj) {
            Some(held) => {
                self.used = self.used - *held + bytes.max(*held);
                *held = bytes.max(*held);
            }
            None => {
                self.resident.push(obj, bytes);
                self.used += bytes;
            }
        }
        while self.used > self.budget && self.resident.len() > 1 {
            // The loop guard holds `len() > 1`: there is an entry to pop.
            let (_, bytes) = self.resident.pop_oldest().expect("non-empty cache");
            self.used -= bytes;
        }
    }

    /// Bytes currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Resident object count.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AppId, FileKey};
    use proptest::prelude::*;

    fn obj(n: u64) -> ObjKey {
        ObjKey {
            file: FileKey {
                app: AppId(0),
                num: n,
            },
            stripe: 0,
        }
    }

    #[test]
    fn small_objects_become_resident() {
        let mut c = SmallObjectCache::new(1000, 10_000);
        assert!(!c.contains(obj(1)));
        c.touch(obj(1), 500);
        assert!(c.contains(obj(1)));
        assert_eq!(c.used(), 500);
    }

    #[test]
    fn large_objects_bypass() {
        let mut c = SmallObjectCache::new(1000, 10_000);
        c.touch(obj(1), 5000);
        assert!(!c.contains(obj(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_over_budget() {
        let mut c = SmallObjectCache::new(1000, 2000);
        c.touch(obj(1), 1000);
        c.touch(obj(2), 1000);
        // Refresh 1, then insert 3: 2 is the LRU victim.
        assert!(c.contains(obj(1)));
        c.touch(obj(3), 1000);
        assert!(c.contains(obj(1)));
        assert!(!c.contains(obj(2)));
        assert!(c.contains(obj(3)));
        assert!(c.used() <= 2000);
    }

    #[test]
    fn retouch_grows_to_max_size() {
        let mut c = SmallObjectCache::new(1000, 10_000);
        c.touch(obj(1), 200);
        c.touch(obj(1), 800);
        assert_eq!(c.used(), 800);
        c.touch(obj(1), 100); // smaller write does not shrink residency
        assert_eq!(c.used(), 800);
        assert_eq!(c.len(), 1);
    }

    fn cache(limit: u64) -> WriteCache<u32> {
        WriteCache::new(CacheConfig {
            dirty_limit: limit,
            absorb_rate: 2.0e9,
            ..CacheConfig::default()
        })
    }

    #[test]
    fn absorbs_until_limit_then_throttles() {
        let mut c = cache(100);
        assert!(matches!(c.admit(60, 1), Admit::Absorbed { .. }));
        assert!(matches!(c.admit(40, 2), Admit::Absorbed { .. }));
        assert!(matches!(c.admit(1, 3), Admit::Throttled));
        assert_eq!(c.dirty(), 100);
        assert_eq!(c.throttled_now(), 1);
        assert_eq!(c.throttled_total(), 1);
    }

    #[test]
    fn flush_releases_fifo() {
        let mut c = cache(100);
        assert!(matches!(c.admit(100, 1), Admit::Absorbed { .. }));
        assert!(matches!(c.admit(30, 2), Admit::Throttled));
        assert!(matches!(c.admit(30, 3), Admit::Throttled));
        let rel = c.flushed(50);
        let tags: Vec<u32> = rel.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![2]); // only one fits: 50 + 30 <= 100, then 80+30 > 100
        assert_eq!(c.dirty(), 80);
        let rel = c.flushed(80);
        assert_eq!(rel.len(), 1);
        assert_eq!(rel[0].tag, 3);
    }

    #[test]
    fn oversized_write_admitted_when_empty() {
        let mut c = cache(10);
        assert!(matches!(c.admit(1000, 1), Admit::Absorbed { .. }));
        assert_eq!(c.dirty(), 1000);
        // A second write must wait until the oversize flush completes.
        assert!(matches!(c.admit(1, 2), Admit::Throttled));
        let rel = c.flushed(1000);
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn throttled_queue_preserves_arrival_order_even_when_fitting() {
        // A small write that would fit must not overtake queued writes.
        let mut c = cache(100);
        assert!(matches!(c.admit(100, 1), Admit::Absorbed { .. }));
        assert!(matches!(c.admit(80, 2), Admit::Throttled));
        assert!(matches!(c.admit(1, 3), Admit::Throttled));
        let rel = c.flushed(90); // dirty 10: tag 2 (80) fits now; then 3
        let tags: Vec<u32> = rel.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![2, 3]);
    }

    #[test]
    fn absorb_time_scales_with_bytes() {
        let mut c = cache(1 << 30);
        let t1 = match c.admit(1_000_000, 1) {
            Admit::Absorbed { absorb } => absorb,
            _ => panic!(),
        };
        let t2 = match c.admit(2_000_000, 2) {
            Admit::Absorbed { absorb } => absorb,
            _ => panic!(),
        };
        assert!((t2.as_secs_f64() - 2.0 * t1.as_secs_f64()).abs() < 1e-9);
    }

    /// The caches as they were first written, kept as the model: a last-
    /// use tick per key and a scan for the least one at every eviction.
    /// With `capacity` it is an [`LruSet`] (every key weighs one), with
    /// `small_max` and a byte budget a [`SmallObjectCache`].
    struct ScanLru {
        small_max: u64,
        budget: u64,
        used: u64,
        /// `(key, weight, last-use tick)`.
        entries: Vec<(u64, u64, u64)>,
        tick: u64,
    }

    impl ScanLru {
        fn new(small_max: u64, budget: u64) -> Self {
            ScanLru {
                small_max,
                budget,
                used: 0,
                entries: Vec::new(),
                tick: 0,
            }
        }

        fn contains(&mut self, key: u64) -> bool {
            self.tick += 1;
            let hit = self.entries.iter_mut().find(|e| e.0 == key);
            hit.map(|e| e.2 = self.tick).is_some()
        }

        /// `keep_one`: the page cache never evicts its last object.
        fn touch(&mut self, key: u64, weight: u64, keep_one: bool) {
            if weight > self.small_max {
                return;
            }
            self.tick += 1;
            match self.entries.iter_mut().find(|e| e.0 == key) {
                Some(e) => {
                    self.used += weight.max(e.1) - e.1;
                    *e = (key, weight.max(e.1), self.tick);
                }
                None => {
                    self.entries.push((key, weight, self.tick));
                    self.used += weight;
                }
            }
            while self.used > self.budget && self.entries.len() > usize::from(keep_one) {
                let oldest = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].2)
                    .expect("non-empty model");
                self.used -= self.entries.swap_remove(oldest).1;
            }
        }
    }

    proptest! {
        /// Any touch / contains / insert script gets the same answers,
        /// `len()` and `used()` from the recency-list caches as from the
        /// tick-scan model, so the same entries are resident throughout.
        #[test]
        fn recency_list_matches_the_tick_scan(
            script in prop::collection::vec((0u32..3, 0u64..24, 1u64..1400), 1..400),
            capacity in 1usize..12,
        ) {
            let mut set = LruSet::new(capacity);
            let mut set_model = ScanLru::new(1, capacity as u64);
            let mut pages = SmallObjectCache::new(1000, 4000);
            let mut pages_model = ScanLru::new(1000, 4000);
            for (what, key, bytes) in script {
                if what == 0 {
                    prop_assert_eq!(set.contains(key), set_model.contains(key));
                    prop_assert_eq!(pages.contains(obj(key)), pages_model.contains(key));
                } else {
                    set.insert(key);
                    set_model.touch(key, 1, false);
                    pages.touch(obj(key), bytes);
                    pages_model.touch(key, bytes, true);
                }
                prop_assert_eq!(set.len(), set_model.entries.len());
                prop_assert_eq!(pages.len(), pages_model.entries.len());
                prop_assert_eq!(pages.used(), pages_model.used);
            }
            // Same survivors, not just as many.
            for key in 0..24 {
                prop_assert_eq!(set.contains(key), set_model.contains(key));
                prop_assert_eq!(pages.contains(obj(key)), pages_model.contains(key));
            }
        }
    }

    /// The eviction cliff: past capacity every insert used to scan the
    /// whole map for the least tick (212 µs each at the default 65 536
    /// inode-cache entries). Four times capacity now costs a handful of
    /// node accesses an insert, in a slab that stops growing, and leaves
    /// the newest `capacity` keys — the ones the scan would have left.
    #[test]
    fn eviction_past_capacity_costs_a_constant() {
        const CAPACITY: u64 = 65_536;
        let mut set = LruSet::new(CAPACITY as usize);
        for key in 0..4 * CAPACITY {
            set.insert(key);
        }
        let per_insert = set.entries.visits as f64 / (4 * CAPACITY) as f64;
        assert!(per_insert <= 8.0, "{per_insert} node accesses an insert");
        assert_eq!(set.entries.nodes.len() as u64, CAPACITY + 1);
        assert_eq!(set.len() as u64, CAPACITY);
        for key in 0..4 * CAPACITY {
            assert_eq!(set.contains(key), key >= 3 * CAPACITY, "key {key}");
        }
    }
}
