//! A deliberately naive reference event queue.
//!
//! [`ReferenceQueue`] keeps every pending entry in one `Vec`, sorted on
//! each insert. It exists to be *obviously correct*, not fast: the
//! property tests and the differential replay harness compare the
//! production backend (the packed-key queue) against this model, entry
//! by entry. It is also selectable as a real [`EventQueue`] backend
//! (`QueueBackend::Reference`) so whole cluster runs can be driven
//! through it in tests.
//!
//! [`EventQueue`]: crate::event::EventQueue

/// Sorted-`Vec` priority queue over `(time, seq)` with FIFO tie-break.
///
/// Entries are kept sorted *descending* so the minimum sits at the end
/// and `pop` is O(1); `insert` is O(n) — fine for a test double.
pub struct ReferenceQueue<E> {
    items: Vec<(u64, u64, E)>,
}

impl<E> Default for ReferenceQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ReferenceQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        ReferenceQueue { items: Vec::new() }
    }

    /// Empty queue pre-sized for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        ReferenceQueue {
            items: Vec::with_capacity(capacity),
        }
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert an entry. `seq` must be unique per queue (the caller —
    /// [`EventQueue`](crate::event::EventQueue) — hands out a fresh one
    /// per schedule call).
    pub fn insert(&mut self, at: u64, seq: u64, event: E) {
        // Descending order: larger (at, seq) first. `partition_point`
        // finds the first index whose key is <= (at, seq); inserting
        // there keeps the vector sorted and puts equal-time entries in
        // seq order (later seq closer to the front, popped later).
        let pos = self.items.partition_point(|&(a, s, _)| (a, s) > (at, seq));
        self.items.insert(pos, (at, seq, event));
    }

    /// The minimum `(at, seq)` entry, without removing it.
    pub fn peek(&self) -> Option<(u64, u64)> {
        self.items.last().map(|&(a, s, _)| (a, s))
    }

    /// Remove and return the minimum `(at, seq)` entry.
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        self.items.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = ReferenceQueue::new();
        q.insert(5, 0, "a");
        q.insert(3, 1, "b");
        q.insert(5, 2, "c");
        q.insert(3, 3, "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(3, 1, "b"), (3, 3, "d"), (5, 0, "a"), (5, 2, "c")]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = ReferenceQueue::new();
        for (i, at) in [9u64, 2, 7, 2, 0].iter().enumerate() {
            q.insert(*at, i as u64, i);
        }
        while let Some((pa, ps)) = q.peek() {
            let (a, s, _) = q.pop().expect("peeked entry pops");
            assert_eq!((pa, ps), (a, s));
        }
        assert!(q.is_empty());
    }
}
