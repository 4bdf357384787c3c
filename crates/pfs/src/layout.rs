//! File striping and on-device extent allocation.
//!
//! A file is striped round-robin across `count` consecutive OSTs in
//! `stripe_size` units, exactly like Lustre: byte `b` of the file lives in
//! stripe `(b / stripe_size) % count`. Each (file, stripe) pair is
//! an *object* on one OST; objects own sector extents handed out by a
//! per-OST bump allocator, so writes interleaved from many clients
//! fragment the disk layout — and later sequential reads pay seeks for it.

use qi_simkit::hash::IdMap;

use crate::config::SECTOR_SIZE;
use crate::ids::{DeviceId, FileKey};

/// Where the stripes of one file live: `count` consecutive OSTs from
/// `first`, wrapping at the cluster's OST count, so stripe `i` is on
/// OST `(first + i) % n_osts`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileLayout {
    /// Stripe unit in bytes.
    pub stripe_size: u64,
    /// OST of stripe 0.
    pub first: DeviceId,
    /// Stripe count (≥ 1, ≤ the cluster's OST count).
    pub count: u32,
}

impl FileLayout {
    /// The OST holding stripe `stripe`, on a cluster of `n_osts` OSTs.
    pub fn ost(&self, stripe: u32, n_osts: u32) -> DeviceId {
        DeviceId((self.first.0 + stripe) % n_osts)
    }
}

/// A contiguous byte range of one file mapped onto one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// Device holding the object.
    pub dev: DeviceId,
    /// Stripe index within the file (identifies the object).
    pub stripe: u32,
    /// Offset within the object, in bytes.
    pub obj_offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Split the file byte range `[offset, offset+len)` into per-object
/// chunks, on a cluster of `n_osts` OSTs.
///
/// The returned chunks partition the range exactly, in file order.
pub fn chunks(layout: &FileLayout, n_osts: u32, offset: u64, len: u64) -> Vec<Chunk> {
    let mut out = Vec::new();
    chunks_into(layout, n_osts, offset, len, &mut out);
    out
}

/// [`chunks`], appending into a caller-owned buffer. The hot path reuses
/// one scratch `Vec` across every op instead of allocating per I/O.
pub fn chunks_into(layout: &FileLayout, n_osts: u32, offset: u64, len: u64, out: &mut Vec<Chunk>) {
    assert!(len > 0, "zero-length I/O");
    let ss = layout.stripe_size;
    let sc = layout.count as u64;
    let mut pos = offset;
    let end = offset + len;
    while pos < end {
        let stripe_no = pos / ss; // global stripe number
        let stripe = (stripe_no % sc) as u32;
        let within = pos % ss;
        let take = (ss - within).min(end - pos);
        let obj_offset = (stripe_no / sc) * ss + within;
        out.push(Chunk {
            dev: layout.ost(stripe, n_osts),
            stripe,
            obj_offset,
            len: take,
        });
        pos += take;
    }
}

/// Key of an object on a device.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ObjKey {
    /// Owning file.
    pub file: FileKey,
    /// Stripe index.
    pub stripe: u32,
}

/// One allocated extent of an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Extent {
    /// Object offset, in sectors.
    obj_sector: u64,
    /// Device sector where the extent starts.
    dev_sector: u64,
    /// Length in sectors.
    sectors: u64,
}

/// A device sector range produced by mapping an object byte range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectorRange {
    /// First device sector.
    pub sector: u64,
    /// Number of sectors.
    pub sectors: u64,
}

/// The extents of one object, sorted by `obj_sector`, and their summed
/// length. Extents of one object never overlap in object space, so the
/// one covering a sector, if any, is the last that starts at or below it.
#[derive(Clone, Default)]
struct ObjExtents {
    total: u64,
    exts: Vec<Extent>,
}

/// Per-OST extent allocator and object map.
#[derive(Clone)]
pub struct ExtentMap {
    capacity: u64,
    next: u64,
    objects: IdMap<ObjKey, ObjExtents>,
}

impl ExtentMap {
    /// Allocator over a device of `capacity` sectors. Allocation starts a
    /// little way in, leaving room for device metadata regions.
    pub fn new(capacity: u64) -> Self {
        ExtentMap {
            capacity,
            next: 2048,
            objects: IdMap::default(),
        }
    }

    /// Sectors handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }

    /// Total sectors currently backing `key` (0 if never touched).
    pub fn object_sectors(&self, key: ObjKey) -> u64 {
        self.objects.get(&key).map_or(0, |obj| obj.total)
    }

    /// Map an object byte range to device sector ranges, allocating
    /// extents for any part of the range not yet backed.
    ///
    /// Used for both writes (allocate-on-write) and reads (cold data is
    /// lazily placed, simulating a pre-existing dataset).
    pub fn map(&mut self, key: ObjKey, obj_offset: u64, len: u64) -> Vec<SectorRange> {
        let mut out = Vec::new();
        self.map_into(key, obj_offset, len, &mut out);
        out
    }

    /// [`map`](ExtentMap::map), appending into a caller-owned buffer so
    /// the event loop can reuse one scratch `Vec` per cluster.
    pub fn map_into(&mut self, key: ObjKey, obj_offset: u64, len: u64, out: &mut Vec<SectorRange>) {
        assert!(len > 0);
        let first = obj_offset / SECTOR_SIZE;
        let last = (obj_offset + len).div_ceil(SECTOR_SIZE); // exclusive
        let obj = self.objects.entry(key).or_default();
        let mut pos = first;
        while pos < last {
            // `after` is the first extent starting above `pos`; the one
            // before it is the only one that can cover `pos`.
            let after = obj.exts.partition_point(|e| e.obj_sector <= pos);
            let covering = after
                .checked_sub(1)
                .map(|i| obj.exts[i])
                .filter(|e| pos < e.obj_sector + e.sectors);
            let (dev_sector, run) = match covering {
                Some(e) => {
                    let skip = pos - e.obj_sector;
                    let avail = e.sectors - skip;
                    (e.dev_sector + skip, avail.min(last - pos))
                }
                None => {
                    // Allocate from `pos` to the next covered sector or
                    // the end of the range, whichever is first.
                    let next_cover = obj.exts.get(after).map_or(last, |e| e.obj_sector);
                    let need = next_cover.min(last) - pos;
                    let dev = self.next;
                    self.next += need;
                    assert!(
                        self.next <= self.capacity,
                        "device out of space: {} > {}",
                        self.next,
                        self.capacity
                    );
                    let ext = Extent {
                        obj_sector: pos,
                        dev_sector: dev,
                        sectors: need,
                    };
                    obj.exts.insert(after, ext);
                    obj.total += need;
                    (dev, need)
                }
            };
            // Coalesce with the previous output range when contiguous.
            if let Some(prev) = out.last_mut() {
                if prev.sector + prev.sectors == dev_sector {
                    prev.sectors += run;
                    pos += run;
                    continue;
                }
            }
            out.push(SectorRange {
                sector: dev_sector,
                sectors: run,
            });
            pos += run;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;
    use proptest::prelude::*;

    fn layout(n: u32) -> FileLayout {
        FileLayout {
            stripe_size: 1024 * 1024,
            first: DeviceId(0),
            count: n,
        }
    }

    fn key(n: u64) -> ObjKey {
        ObjKey {
            file: FileKey {
                app: AppId(0),
                num: n,
            },
            stripe: 0,
        }
    }

    #[test]
    fn chunks_partition_exactly() {
        let l = layout(3);
        let cs = chunks(&l, 3, 500_000, 3_000_000);
        let total: u64 = cs.iter().map(|c| c.len).sum();
        assert_eq!(total, 3_000_000);
        // Chunks are in file order and within stripe bounds.
        for c in &cs {
            assert!(c.len <= l.stripe_size);
        }
    }

    #[test]
    fn round_robin_striping() {
        let l = layout(3);
        let ss = l.stripe_size;
        // Byte at offset 0 → stripe 0; ss → stripe 1; 2ss → stripe 2; 3ss → stripe 0 again.
        for (off, want) in [(0, 0u32), (ss, 1), (2 * ss, 2), (3 * ss, 0)] {
            let c = chunks(&l, 3, off, 1);
            assert_eq!(c.len(), 1);
            assert_eq!(c[0].stripe, want);
        }
        // Second pass over stripe 0 lands at object offset ss.
        let c = chunks(&l, 3, 3 * ss, 1);
        assert_eq!(c[0].obj_offset, ss);
    }

    #[test]
    fn single_stripe_file_is_one_object() {
        let l = layout(1);
        let cs = chunks(&l, 3, 0, 10 * 1024 * 1024);
        assert_eq!(cs.len(), 10);
        assert!(cs.iter().all(|c| c.stripe == 0));
        assert_eq!(cs[9].obj_offset, 9 * 1024 * 1024);
    }

    #[test]
    fn stripes_wrap_at_the_ost_count() {
        let l = FileLayout {
            first: DeviceId(2),
            ..layout(3)
        };
        let devs: Vec<u32> = chunks(&l, 4, 0, 4 * l.stripe_size)
            .iter()
            .map(|c| c.dev.0)
            .collect();
        assert_eq!(devs, [2, 3, 0, 2]);
    }

    #[test]
    fn sequential_writes_get_contiguous_sectors() {
        let mut m = ExtentMap::new(1 << 30);
        let r1 = m.map(key(1), 0, 1024 * 1024);
        let r2 = m.map(key(1), 1024 * 1024, 1024 * 1024);
        assert_eq!(r1.len(), 1);
        assert_eq!(r2.len(), 1);
        assert_eq!(r1[0].sector + r1[0].sectors, r2[0].sector);
    }

    #[test]
    fn interleaved_objects_fragment() {
        let mut m = ExtentMap::new(1 << 30);
        let a1 = m.map(key(1), 0, 1024 * 1024);
        let _b1 = m.map(key(2), 0, 1024 * 1024);
        let a2 = m.map(key(1), 1024 * 1024, 1024 * 1024);
        // Object 1's second extent is NOT adjacent to its first.
        assert_ne!(a1[0].sector + a1[0].sectors, a2[0].sector);
    }

    #[test]
    fn rereading_hits_same_sectors() {
        let mut m = ExtentMap::new(1 << 30);
        let w = m.map(key(3), 4096, 8192);
        let r = m.map(key(3), 4096, 8192);
        assert_eq!(w, r);
        assert_eq!(m.allocated(), 2048 + 16);
    }

    #[test]
    fn partial_overlap_allocates_only_gap() {
        let mut m = ExtentMap::new(1 << 30);
        let _ = m.map(key(4), 0, 4096); // sectors 0..8 of the object
        let before = m.allocated();
        let r = m.map(key(4), 2048, 4096); // sectors 4..12: 4..8 covered, 8..12 new
        let total: u64 = r.iter().map(|x| x.sectors).sum();
        assert_eq!(total, 8);
        assert_eq!(m.allocated() - before, 4);
    }

    #[test]
    fn sub_sector_write_rounds_to_sectors() {
        let mut m = ExtentMap::new(1 << 30);
        let r = m.map(key(5), 0, 3901); // mdtest-hard file body
        let total: u64 = r.iter().map(|x| x.sectors).sum();
        assert_eq!(total, 8); // ceil(3901/512)
    }

    /// The extent map as it was first written, kept as the oracle: an
    /// unsorted list per object, searched linearly once per sector run,
    /// summed on demand.
    struct LinearMap {
        next: u64,
        objects: Vec<(ObjKey, Vec<Extent>)>,
    }

    impl LinearMap {
        fn object_sectors(&self, key: ObjKey) -> u64 {
            let exts = self.objects.iter().find(|(k, _)| *k == key);
            exts.map_or(0, |(_, exts)| exts.iter().map(|e| e.sectors).sum())
        }

        fn map(&mut self, key: ObjKey, obj_offset: u64, len: u64) -> Vec<SectorRange> {
            if !self.objects.iter().any(|(k, _)| *k == key) {
                self.objects.push((key, Vec::new()));
            }
            let (_, exts) = self.objects.iter_mut().find(|(k, _)| *k == key).unwrap();
            let last = (obj_offset + len).div_ceil(SECTOR_SIZE);
            let mut pos = obj_offset / SECTOR_SIZE;
            let mut out: Vec<SectorRange> = Vec::new();
            while pos < last {
                let found = exts
                    .iter()
                    .find(|e| e.obj_sector <= pos && pos < e.obj_sector + e.sectors);
                let (sector, sectors) = match found {
                    Some(e) => {
                        let skip = pos - e.obj_sector;
                        (e.dev_sector + skip, (e.sectors - skip).min(last - pos))
                    }
                    None => {
                        let above = exts.iter().map(|e| e.obj_sector).filter(|&s| s > pos);
                        let need = above.min().unwrap_or(last).min(last) - pos;
                        exts.push(Extent {
                            obj_sector: pos,
                            dev_sector: self.next,
                            sectors: need,
                        });
                        self.next += need;
                        (self.next - need, need)
                    }
                };
                match out.last_mut() {
                    Some(prev) if prev.sector + prev.sectors == sector => prev.sectors += sectors,
                    _ => out.push(SectorRange { sector, sectors }),
                }
                pos += sectors;
            }
            out
        }
    }

    proptest! {
        /// Overlapping, out-of-order and sub-sector ranges over a few
        /// interleaved objects map to the same sectors, allocate the
        /// same space and total the same as the linear map, call by call.
        #[test]
        fn sorted_extents_match_the_linear_map(
            calls in prop::collection::vec((0u64..4, 0u64..64, 1u64..6000, 1u64..40_000), 1..120),
        ) {
            let mut sorted = ExtentMap::new(1 << 40);
            let mut linear = LinearMap { next: sorted.allocated(), objects: Vec::new() };
            for (obj, slot, fine, len) in calls {
                // Offsets on a coarse grid, nudged off sector boundaries.
                let offset = slot * 8192 + fine % 1024;
                prop_assert_eq!(sorted.map(key(obj), offset, len), linear.map(key(obj), offset, len));
                prop_assert_eq!(sorted.allocated(), linear.next);
                for obj in 0..4 {
                    prop_assert_eq!(sorted.object_sectors(key(obj)), linear.object_sectors(key(obj)));
                }
            }
        }
    }
}
