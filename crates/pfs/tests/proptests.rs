//! Property-based tests for the PFS simulator's data structures.

use proptest::prelude::*;
use qi_pfs::cache::{Admit, WriteCache};
use qi_pfs::config::{CacheConfig, DiskConfig, QueueConfig, StripeConfig};
use qi_pfs::disk::Disk;
use qi_pfs::ids::{AppId, DeviceId, FileKey};
use qi_pfs::layout::{chunks, ExtentMap, FileLayout, ObjKey};
use qi_pfs::net::Network;
use qi_pfs::queue::{BlockDevice, Dispatch, ReqKind};
use qi_simkit::time::{SimDuration, SimTime};

fn layout(stripe_size: u64, count: u32) -> FileLayout {
    FileLayout {
        stripe_size,
        first: DeviceId(0),
        count,
    }
}

proptest! {
    /// Striping chunks partition the byte range exactly: lengths sum to
    /// the request, chunks are in order, none crosses a stripe boundary,
    /// and reassembling (stripe, obj_offset) covers every byte once.
    #[test]
    fn chunks_partition_exactly(
        offset in 0u64..50_000_000,
        len in 1u64..20_000_000,
        stripe_kib in 64u64..4096,
        count in 1u32..8,
    ) {
        let l = layout(stripe_kib * 1024, count);
        let cs = chunks(&l, count, offset, len);
        let total: u64 = cs.iter().map(|c| c.len).sum();
        prop_assert_eq!(total, len);
        let mut pos = offset;
        for c in &cs {
            // Each chunk fits in one stripe unit.
            prop_assert!(c.obj_offset % l.stripe_size + c.len <= l.stripe_size);
            // The chunk maps back to the expected file position.
            let stripe_no = pos / l.stripe_size;
            prop_assert_eq!(c.stripe, (stripe_no % count as u64) as u32);
            let expect_obj =
                (stripe_no / count as u64) * l.stripe_size + pos % l.stripe_size;
            prop_assert_eq!(c.obj_offset, expect_obj);
            pos += c.len;
        }
    }

    /// Extent mapping conserves sectors and is idempotent: mapping the
    /// same range twice returns identical device ranges and allocates
    /// nothing new.
    #[test]
    fn extent_map_is_idempotent(
        ops in prop::collection::vec((0u64..3, 0u64..4_000_000, 1u64..500_000), 1..40),
    ) {
        let mut m = ExtentMap::new(1 << 32);
        let mut results = Vec::new();
        for &(obj, off, len) in &ops {
            let key = ObjKey {
                file: FileKey { app: AppId(0), num: obj },
                stripe: 0,
            };
            let ranges = m.map(key, off, len);
            let sectors: u64 = ranges.iter().map(|r| r.sectors).sum();
            let expect = (off + len).div_ceil(512) - off / 512;
            prop_assert_eq!(sectors, expect);
            results.push((key, off, len, ranges));
        }
        let after = m.allocated();
        for (key, off, len, ranges) in results {
            let again = m.map(key, off, len);
            prop_assert_eq!(again, ranges);
        }
        prop_assert_eq!(m.allocated(), after, "re-mapping allocated new extents");
    }

    /// Block device conservation: every submitted member is eventually
    /// completed exactly once, sectors are conserved, and the counters
    /// agree with what was pushed through.
    #[test]
    fn block_device_conserves_requests(
        reqs in prop::collection::vec(
            (0u64..2_000_000u64, 1u64..256u64, prop::bool::ANY, prop::bool::ANY),
            1..120,
        ),
    ) {
        let mut d: BlockDevice<usize> =
            BlockDevice::new(QueueConfig::default(), Disk::new(DiskConfig::sata_7200_ost()));
        let mut t = SimTime::ZERO;
        let mut next_completion: Option<SimTime> = None;
        let mut completed = vec![false; reqs.len()];
        let mut done = Vec::new();
        let handle = |d: &mut BlockDevice<usize>, now: SimTime, disp: Dispatch| -> Option<SimTime> {
            match disp {
                Dispatch::Started(dur) => Some(now + dur),
                Dispatch::Anticipating(at) => {
                    match d.idle_check(at) {
                        Dispatch::Started(dur) => Some(at + dur),
                        _ => None,
                    }
                }
                Dispatch::Idle => None,
            }
        };
        for (i, &(sector, sectors, is_read, fg)) in reqs.iter().enumerate() {
            // Drain any in-flight completion first (half the time) so we
            // exercise queue growth and merging.
            if i % 2 == 0 {
                while let Some(at) = next_completion {
                    t = at;
                    let (_, disp) = d.complete_into(t, &mut done);
                    for mem in &done {
                        prop_assert!(!completed[mem.tag], "double completion");
                        completed[mem.tag] = true;
                    }
                    next_completion = handle(&mut d, t, disp);
                }
            }
            let kind = if is_read { ReqKind::Read } else { ReqKind::Write };
            let disp = d.submit(t, kind, sector, sectors, fg, i);
            if next_completion.is_none() {
                next_completion = handle(&mut d, t, disp);
            }
        }
        // Drain everything.
        loop {
            match next_completion {
                Some(at) => {
                    t = at;
                    let (_, disp) = d.complete_into(t, &mut done);
                    for mem in &done {
                        prop_assert!(!completed[mem.tag], "double completion");
                        completed[mem.tag] = true;
                    }
                    next_completion = handle(&mut d, t, disp);
                }
                None => {
                    // Possibly still anticipating with queued bg work.
                    match d.idle_check(SimTime(t.as_nanos() + 10_000_000)) {
                        Dispatch::Started(dur) => {
                            t = SimTime(t.as_nanos() + 10_000_000);
                            next_completion = Some(t + dur);
                        }
                        _ => break,
                    }
                }
            }
        }
        prop_assert!(completed.iter().all(|&c| c), "requests lost in the queue");
        let c = d.counters(t);
        prop_assert_eq!(c.reads_completed + c.writes_completed, reqs.len() as u64);
        let sectors_expect: u64 = reqs.iter().map(|r| r.1).sum();
        prop_assert_eq!(c.sectors_read + c.sectors_written, sectors_expect);
        prop_assert_eq!(c.queued_now, 0);
        prop_assert_eq!(c.enqueued, reqs.len() as u64);
    }

    /// Network sends produce non-decreasing per-NIC reservations and
    /// delivery never precedes `now + latency`.
    #[test]
    fn network_reservations_are_causal(
        sends in prop::collection::vec((0u32..4, 4u32..8, 0u64..2_000_000), 1..80),
    ) {
        let mut net = Network::new(Default::default(), 8);
        let mut t = SimTime::ZERO;
        for &(src, dst, bytes) in &sends {
            let deliver = net.send(t, qi_pfs::ids::NodeId(src), qi_pfs::ids::NodeId(dst), bytes);
            prop_assert!(deliver >= t + net.config().latency);
            t = SimTime(t.as_nanos() + 1000);
        }
    }

    /// Cache conservation: dirty bytes equal absorbed minus flushed, no
    /// write is released twice, and releases are FIFO.
    #[test]
    fn write_cache_conserves_bytes(writes in prop::collection::vec(1u64..50_000, 1..60)) {
        let mut c: WriteCache<usize> = WriteCache::new(CacheConfig {
            dirty_limit: 64_000,
            ..CacheConfig::default()
        });
        let mut absorbed = 0u64;
        let mut flushed_total = 0u64;
        let mut pending_flush = std::collections::VecDeque::new();
        let mut released_order = Vec::new();
        let mut throttled_now = 0usize;
        for (i, &bytes) in writes.iter().enumerate() {
            match c.admit(bytes, i) {
                Admit::Absorbed { .. } => {
                    absorbed += bytes;
                    pending_flush.push_back(bytes);
                }
                Admit::Throttled => {
                    throttled_now += 1;
                    // Flush until the throttled writes drain (or we run
                    // out of dirty data to flush).
                    while throttled_now > 0 {
                        let Some(fb) = pending_flush.pop_front() else { break };
                        flushed_total += fb;
                        for r in c.flushed(fb) {
                            throttled_now -= 1;
                            absorbed += r.bytes;
                            pending_flush.push_back(r.bytes);
                            released_order.push(r.tag);
                        }
                    }
                }
            }
            prop_assert_eq!(c.dirty(), absorbed - flushed_total);
            prop_assert_eq!(c.throttled_now(), throttled_now);
        }
        // Releases came out in submission order.
        let mut sorted = released_order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(released_order, sorted);
    }

    /// Disk service time grows with transfer size and never goes
    /// negative or zero.
    #[test]
    fn disk_service_is_monotone_in_size(
        sector in 0u64..1_000_000,
        a in 1u64..10_000,
        b in 1u64..10_000,
    ) {
        let (small, big) = (a.min(b), a.max(b));
        let mut d1 = Disk::new(DiskConfig::sata_7200_ost());
        let mut d2 = Disk::new(DiskConfig::sata_7200_ost());
        let ts = d1.service(sector, small);
        let tb = d2.service(sector, big);
        prop_assert!(ts > SimDuration::ZERO);
        prop_assert!(tb >= ts);
    }

    /// Stripe config always clamps into the cluster's OST range when a
    /// file is created through the cluster path.
    #[test]
    fn cluster_create_respects_stripe_bounds(count in 0u32..64) {
        use qi_pfs::cluster::Cluster;
        use qi_pfs::config::ClusterConfig;
        let mut cl = Cluster::builder()
            .config(ClusterConfig::small())
            .seed(1)
            .build()
            .expect("valid test cluster");
        let f = FileKey { app: AppId(0), num: 1 };
        cl.precreate_file(
            f,
            1024,
            Some(StripeConfig {
                stripe_size: 65536,
                stripe_count: count,
            }),
        );
        // No panic = placement stayed within bounds; run a read through
        // it to be sure the layout is usable.
        let mut left = 1;
        let prog = move |_now: SimTime| {
            if left == 0 {
                return qi_pfs::ops::ProgramStep::Finished;
            }
            left -= 1;
            qi_pfs::ops::ProgramStep::Op(qi_pfs::ops::IoOp::Read {
                file: f,
                offset: 0,
                len: 1024,
            })
        };
        let app = cl.add_app("r", vec![Box::new(prog)], &[qi_pfs::ids::NodeId(0)]);
        let trace = cl.run_until_app(app, SimTime::from_secs(5));
        prop_assert!(trace.completion_of(app).is_some());
    }
}
