//! The background (flush) queue: queue order plus a sector index.
//!
//! Dispatch wants the request nearest the disk head and every queued
//! request adjacent to it; submission wants the few newest requests.
//! Entries therefore live in a slab threaded in queue order (the
//! submit-time merge walks it newest-first) and are indexed by
//! `(start sector, insertion seq)`, so a C-SCAN pick is one range probe
//! and each dispatch-time merge two, whatever the depth. The queue
//! order a linear scan would see is the ascending `seq` order; every
//! rule below that mentions `seq` reproduces what that scan did.
//!
//! A looping writer leaves dozens of rewrites of the same few extents
//! queued, none of them adjacent to anything, and both merges would walk
//! them all to find that out. Two small maps count the live entries per
//! *distinct* start and end sector; a merge needs an entry that starts
//! where the request ends or ends where it starts, so a missing key
//! answers "no neighbour" exactly, without a walk.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use super::{MemberNode, QueuedReq, ReqKind, Side, NIL};

/// `(start sector, insertion seq, slab slot)`: sector order, ties in
/// queue order.
type Key = (u64, u32, u32);

/// One queued background request. A flattened [`QueuedReq`] (40 bytes
/// where wrapping one would pad to 48) plus its place in queue order.
#[derive(Clone, Copy)]
struct BgNode {
    sector: u64,
    sectors: u64,
    head: u32,
    tail: u32,
    /// Position in queue order; unique among live entries.
    seq: u32,
    /// Queue-order neighbours. `newer` also threads the free list.
    older: u32,
    newer: u32,
    kind: ReqKind,
}

impl BgNode {
    fn end(&self) -> u64 {
        self.sector + self.sectors
    }

    fn req(&self) -> QueuedReq {
        QueuedReq {
            kind: self.kind,
            sector: self.sector,
            sectors: self.sectors,
            foreground: false,
            head: self.head,
            tail: self.tail,
        }
    }
}

#[derive(Clone)]
pub(super) struct BgQueue {
    nodes: Vec<BgNode>,
    free: u32,
    /// Most recently queued live entry.
    newest: u32,
    next_seq: u32,
    /// Upper bound on the `sectors` of every live entry: how far below a
    /// sector a request ending there can start.
    longest: u64,
    by_start: BTreeSet<Key>,
    /// Live entries per start sector and per end sector. Rewrites share
    /// both, so these hold a few dozen keys where `by_start` holds a
    /// thousand.
    starts: Presence,
    ends: Presence,
    /// Entries visited by the submit-time walk and the dispatch-time
    /// probes, for the tests that pin what the maps save.
    #[cfg(test)]
    pub(super) steps: std::cell::Cell<u64>,
}

/// How many live entries have a given sector as their start (or end).
#[derive(Clone, Default)]
struct Presence(BTreeMap<u64, u32>);

impl Presence {
    fn has(&self, sector: u64) -> bool {
        self.0.contains_key(&sector)
    }

    fn add(&mut self, sector: u64) {
        *self.0.entry(sector).or_insert(0) += 1;
    }

    fn remove(&mut self, sector: u64) {
        let Entry::Occupied(mut e) = self.0.entry(sector) else {
            unreachable!("no live entry counted at sector {sector}");
        };
        *e.get_mut() -= 1;
        if *e.get() == 0 {
            e.remove();
        }
    }
}

impl BgQueue {
    pub(super) fn new() -> Self {
        BgQueue {
            nodes: Vec::new(),
            free: NIL,
            newest: NIL,
            next_seq: 0,
            longest: 0,
            by_start: BTreeSet::new(),
            starts: Presence::default(),
            ends: Presence::default(),
            #[cfg(test)]
            steps: std::cell::Cell::new(0),
        }
    }

    /// Count one entry visited by a merge walk or probe.
    #[inline]
    fn step(&self) {
        #[cfg(test)]
        self.steps.set(self.steps.get() + 1);
    }

    pub(super) fn is_empty(&self) -> bool {
        self.by_start.is_empty()
    }

    /// Queue `req` behind everything already waiting.
    pub(super) fn push_back(&mut self, req: QueuedReq) {
        if self.is_empty() {
            // Sequence numbers and the length bound only describe live
            // entries, so a drained queue starts both over.
            self.next_seq = 0;
            self.longest = 0;
        }
        let seq = self.next_seq;
        // With the reset above, overflow needs 2^32 pushes between two drains.
        self.next_seq = seq
            .checked_add(1)
            .expect("background queue never drained across 2^32 requests");
        let node = BgNode {
            sector: req.sector,
            sectors: req.sectors,
            head: req.head,
            tail: req.tail,
            seq,
            older: self.newest,
            newer: NIL,
            kind: req.kind,
        };
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.nodes[slot as usize].newer;
            self.nodes[slot as usize] = node;
            slot
        } else {
            let slot = self.nodes.len() as u32;
            assert!(slot != NIL, "background queue slab limit exceeded");
            self.nodes.push(node);
            slot
        };
        if self.newest != NIL {
            self.nodes[self.newest as usize].newer = slot;
        }
        self.newest = slot;
        self.longest = self.longest.max(req.sectors);
        self.by_start.insert((req.sector, seq, slot));
        self.starts.add(req.sector);
        self.ends.add(req.sector + req.sectors);
    }

    /// Take the entry in `slot` out of the queue.
    fn unlink(&mut self, slot: u32) -> BgNode {
        let n = self.nodes[slot as usize];
        if n.older != NIL {
            self.nodes[n.older as usize].newer = n.newer;
        }
        if n.newer != NIL {
            self.nodes[n.newer as usize].older = n.older;
        } else {
            self.newest = n.older;
        }
        self.by_start.remove(&(n.sector, n.seq, slot));
        self.starts.remove(n.sector);
        self.ends.remove(n.end());
        self.nodes[slot as usize].newer = self.free;
        self.free = slot;
        n
    }

    /// Submit-time merge: fold `new` into the first of the `depth`
    /// newest entries (newest first) that takes it.
    pub(super) fn try_merge<T>(
        &mut self,
        new: &QueuedReq,
        depth: usize,
        max_sectors: u64,
        members: &mut [MemberNode<T>],
    ) -> bool {
        if !self.ends.has(new.sector) && !self.starts.has(new.sector + new.sectors) {
            return false;
        }
        let mut slot = self.newest;
        for _ in 0..depth {
            if slot == NIL {
                break;
            }
            self.step();
            let n = &mut self.nodes[slot as usize];
            let mut q = n.req();
            if let Some(side) = q.merge(new, max_sectors, members) {
                match side {
                    Side::Front => {
                        // The entry now starts lower: move its index key.
                        self.by_start.remove(&(n.sector, n.seq, slot));
                        self.by_start.insert((q.sector, n.seq, slot));
                        self.starts.remove(n.sector);
                        self.starts.add(q.sector);
                    }
                    Side::Back => {
                        self.ends.remove(n.end());
                        self.ends.add(q.sector + q.sectors);
                    }
                }
                n.sector = q.sector;
                n.sectors = q.sectors;
                n.tail = q.tail;
                self.longest = self.longest.max(q.sectors);
                return true;
            }
            slot = n.older;
        }
        false
    }

    /// Pick the next request C-SCAN style — the nearest request at or
    /// above `head`, wrapping to the lowest sector; equal sectors in
    /// queue order — and absorb every queued request that is, or
    /// becomes, sector-adjacent to it. Returns the request and how many
    /// entries it absorbed.
    ///
    /// The absorb order is the linear scan's: a pass walks the queue
    /// oldest to newest merging each entry that touches the request as
    /// grown so far, and passes repeat until one merges nothing. Here a
    /// pass asks the index for the lowest-`seq` neighbour above the last
    /// one merged, and a pass that merged anything starts the next from
    /// `seq` 0.
    pub(super) fn pick<T>(
        &mut self,
        head: u64,
        max_sectors: u64,
        members: &mut [MemberNode<T>],
    ) -> Option<(QueuedReq, u64)> {
        let &(_, _, slot) = self
            .by_start
            .range((head, 0, 0)..)
            .next()
            .or_else(|| self.by_start.first())?;
        let mut req = self.unlink(slot).req();
        let mut merges = 0;
        loop {
            let before = merges;
            let mut after = 0;
            while let Some(slot) = self.neighbour(&req, after, max_sectors) {
                let q = self.unlink(slot);
                after = q.seq + 1;
                // `neighbour` returns only entries `merge` accepts.
                req.merge(&q.req(), max_sectors, members)
                    .expect("an indexed neighbour merges");
                merges += 1;
            }
            if merges == before {
                return Some((req, merges));
            }
        }
    }

    /// The lowest-`seq` entry at or above `after` that `req` can absorb:
    /// same kind, the sum within `max_sectors`, and starting where `req`
    /// ends or ending where it starts.
    fn neighbour(&self, req: &QueuedReq, after: u32, max_sectors: u64) -> Option<u32> {
        let room = max_sectors.checked_sub(req.sectors).filter(|&r| r > 0)?;
        let fits = |slot: u32| {
            let n = &self.nodes[slot as usize];
            n.kind == req.kind && n.sectors <= room
        };
        let end = req.sector + req.sectors;
        let back = if self.starts.has(end) {
            self.by_start
                .range((end, after, 0)..=(end, u32::MAX, u32::MAX))
                .inspect(|_| self.step())
                .map(|&(_, seq, slot)| (seq, slot))
                .find(|&(_, slot)| fits(slot))
        } else {
            None
        };
        let front = if self.ends.has(req.sector) {
            // An entry ending at `req.sector` starts at most `longest`
            // (and at most `room`) sectors below it.
            let lo = req.sector.saturating_sub(room.min(self.longest));
            self.by_start
                .range((lo, 0, 0)..(req.sector, 0, 0))
                .inspect(|_| self.step())
                .filter(|&&(start, seq, slot)| {
                    seq >= after
                        && start + self.nodes[slot as usize].sectors == req.sector
                        && fits(slot)
                })
                .map(|&(_, seq, slot)| (seq, slot))
                .min()
        } else {
            None
        };
        [back, front]
            .into_iter()
            .flatten()
            .min()
            .map(|(_, slot)| slot)
    }
}

#[cfg(test)]
impl BgQueue {
    /// Recount starts and ends from the live slab entries and hold the
    /// two presence maps (and the entry index) to them.
    pub(super) fn check(&self) {
        let (mut starts, mut ends) = (BTreeMap::new(), BTreeMap::new());
        let (mut slot, mut live) = (self.newest, 0);
        while slot != NIL {
            let n = &self.nodes[slot as usize];
            assert!(self.by_start.contains(&(n.sector, n.seq, slot)));
            *starts.entry(n.sector).or_insert(0) += 1;
            *ends.entry(n.end()).or_insert(0) += 1;
            live += 1;
            slot = n.older;
        }
        assert_eq!(self.by_start.len(), live, "entry index vs slab");
        assert_eq!(self.starts.0, starts, "start-sector counts vs slab");
        assert_eq!(self.ends.0, ends, "end-sector counts vs slab");
    }
}
