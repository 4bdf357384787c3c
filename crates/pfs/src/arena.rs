//! Generation-versioned slab for in-flight simulator state.
//!
//! The hot path used to key in-flight chunk reads and RPC retry state by
//! monotonically increasing `u64` counters in `HashMap`s — one hash +
//! allocation per op, and a hash probe on every completion and timer
//! event. [`Slab`] replaces that with index-based routing: `insert`
//! returns a compact [`SlabKey`] (slot index + generation), lookups are
//! a bounds-checked array access, and freed slots are recycled through a
//! free list so steady-state simulation does no allocation at all.
//!
//! The generation tag is what makes recycling safe under *stale events*:
//! a timer event (say `RpcTimeout{key}`) scheduled for an op that has
//! since completed — and whose slot has been reused — carries the old
//! generation, so `get`/`remove` miss instead of touching the new
//! occupant. This is exactly the semantics the old counter-keyed
//! `HashMap` gave (a dead key simply isn't found), with the churn gone.

/// Key into a [`Slab`]: slot index in the low 32 bits, generation in the
/// high 32. `Display`s as `gen:idx` for debug traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlabKey(u64);

impl SlabKey {
    /// Slot index within the slab.
    #[inline]
    pub fn index(self) -> u32 {
        self.0 as u32
    }

    /// Generation the slot had when this key was issued.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The raw packed value (stable across a run; used in traces).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    #[inline]
    fn pack(index: u32, generation: u32) -> Self {
        SlabKey(((generation as u64) << 32) | index as u64)
    }
}

impl std::fmt::Display for SlabKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.generation(), self.index())
    }
}

#[derive(Clone)]
enum Slot<T> {
    /// Value of the free-list link: the next free slot, or `u32::MAX`.
    Vacant(u32),
    Occupied(T),
}

const FREE_NIL: u32 = u32::MAX;

/// A slab allocator with generation-versioned keys. See the module docs.
#[derive(Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Per-slot generation, bumped on each removal.
    generations: Vec<u32>,
    free_head: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Empty slab pre-sized for `capacity` concurrent entries.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            generations: Vec::with_capacity(capacity),
            free_head: FREE_NIL,
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, returning its key. O(1); allocates only when no
    /// freed slot is available.
    pub fn insert(&mut self, value: T) -> SlabKey {
        self.len += 1;
        if self.free_head != FREE_NIL {
            let idx = self.free_head;
            match self.slots[idx as usize] {
                Slot::Vacant(next) => self.free_head = next,
                Slot::Occupied(_) => unreachable!("free list points at a live slot"),
            }
            self.slots[idx as usize] = Slot::Occupied(value);
            SlabKey::pack(idx, self.generations[idx as usize])
        } else {
            let idx = self.slots.len();
            assert!(idx < FREE_NIL as usize, "slab slot limit exceeded");
            self.slots.push(Slot::Occupied(value));
            self.generations.push(0);
            SlabKey::pack(idx as u32, 0)
        }
    }

    /// Look up a live entry. Returns `None` for keys whose entry was
    /// removed, even if the slot has been reused since (stale events).
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        let idx = key.index() as usize;
        match self.slots.get(idx) {
            Some(Slot::Occupied(v)) if self.generations[idx] == key.generation() => Some(v),
            _ => None,
        }
    }

    /// Mutable lookup with the same staleness semantics as [`get`].
    ///
    /// [`get`]: Slab::get
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        let idx = key.index() as usize;
        match self.slots.get_mut(idx) {
            Some(Slot::Occupied(v)) if self.generations[idx] == key.generation() => Some(v),
            _ => None,
        }
    }

    /// Remove and return an entry; `None` if the key is stale. The slot
    /// is recycled and its generation bumped so outstanding copies of
    /// this key can never alias the next occupant.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let idx = key.index() as usize;
        match self.slots.get(idx) {
            Some(Slot::Occupied(_)) if self.generations[idx] == key.generation() => {
                let old = std::mem::replace(&mut self.slots[idx], Slot::Vacant(self.free_head));
                self.free_head = key.index();
                self.generations[idx] = self.generations[idx].wrapping_add(1);
                self.len -= 1;
                match old {
                    Slot::Occupied(v) => Some(v),
                    Slot::Vacant(_) => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// True when `key` still addresses a live entry.
    pub fn contains(&self, key: SlabKey) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over live entries (slot order, not insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| match slot {
                Slot::Occupied(v) => Some((SlabKey::pack(i as u32, self.generations[i]), v)),
                Slot::Vacant(_) => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn stale_keys_miss_after_slot_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // Same slot, new generation: the stale key must not see the
        // new occupant through get, get_mut, remove, or contains.
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert!(!s.contains(a));
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn slots_recycle_lifo_without_growth() {
        let mut s = Slab::with_capacity(4);
        let keys: Vec<_> = (0..4).map(|i| s.insert(i)).collect();
        for &k in &keys {
            s.remove(k);
        }
        for i in 0..4 {
            let k = s.insert(100 + i);
            assert!((k.index() as usize) < 4, "grew past recycled slots");
        }
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut s = Slab::new();
        let k = s.insert(vec![1, 2]);
        s.get_mut(k).unwrap().push(3);
        assert_eq!(s.get(k), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn iter_visits_only_live_entries() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let _b = s.insert("b");
        let c = s.insert("c");
        s.remove(a);
        let mut live: Vec<&str> = s.iter().map(|(_, v)| *v).collect();
        live.sort_unstable();
        assert_eq!(live, vec!["b", "c"]);
        assert!(s.contains(c));
    }

    #[test]
    fn keys_display_as_gen_idx() {
        let mut s = Slab::new();
        let a = s.insert(());
        s.remove(a);
        let b = s.insert(());
        assert_eq!(a.to_string(), "0:0");
        assert_eq!(b.to_string(), "1:0");
        assert_eq!(b.raw(), 1 << 32);
    }
}
