//! Reference model for the differential tests: the device with both
//! queues as plain `VecDeque`s, its background pick a linear C-SCAN scan
//! and its dispatch-time merge repeated linear passes with removals from
//! the middle. O(n) per dispatch — which is why it only runs under test —
//! but it is the definition of the order [`super::BlockDevice`] must
//! reproduce.

use std::collections::VecDeque;

use qi_simkit::stats::OnlineStats;
use qi_simkit::time::{SimDuration, SimTime};

use super::{CompletedMeta, DeviceCounters, Dispatch, Member, ReqKind, NIL};
use crate::config::QueueConfig;
use crate::disk::Disk;

/// A member slot in the device's arena: payload plus the intrusive link
/// to the next member of the same queued request.
#[derive(Clone, Debug)]
struct MemberNode<T> {
    /// `None` only while the slot sits on the free list.
    tag: Option<T>,
    arrival: SimTime,
    sectors: u64,
    /// Next member of the same request, or the next free slot; NIL ends
    /// either list.
    next: u32,
}

/// A (possibly merged) block request waiting in, or being serviced by,
/// the device. Members are held in the device arena as a `head..tail`
/// list, so this struct stays `Copy`-cheap and merging two requests is
/// pointer surgery, not a `Vec` append.
#[derive(Clone, Copy, Debug)]
struct QueuedReq {
    /// Read or write.
    kind: ReqKind,
    /// First sector.
    sector: u64,
    /// Total span in sectors.
    sectors: u64,
    /// Synchronous (foreground) or background flush.
    foreground: bool,
    /// First member (arena index), in merge order.
    head: u32,
    /// Last member (arena index).
    tail: u32,
    /// Member count.
    nmembers: u32,
}

/// The device as it was before the background queue was indexed.
pub(super) struct LinearDevice<T> {
    cfg: QueueConfig,
    disk: Disk,
    fg: VecDeque<QueuedReq>,
    bg: VecDeque<QueuedReq>,
    in_service: Option<QueuedReq>,
    /// Member arena: request members + a free list threaded via `next`.
    members: Vec<MemberNode<T>>,
    /// Head of the member free list.
    free: u32,
    fg_since_bg: u32,
    counters: DeviceCounters,
    last_depth_change: SimTime,
    /// While set, background work is deferred until this instant in the
    /// hope that another synchronous request arrives first.
    anticipate_until: Option<SimTime>,
    /// Injected `DiskStall` fault: no new request dispatches before this
    /// instant. In-flight requests finish normally.
    stalled_until: Option<SimTime>,
    /// Queue depth (queued + in service) sampled at every submission.
    depth_stats: OnlineStats,
    /// Sector distance between the disk head and each dispatched request.
    seek_stats: OnlineStats,
}

impl<T> LinearDevice<T> {
    /// New idle device.
    pub(super) fn new(cfg: QueueConfig, disk: Disk) -> Self {
        LinearDevice {
            cfg,
            disk,
            fg: VecDeque::new(),
            bg: VecDeque::new(),
            in_service: None,
            members: Vec::new(),
            free: NIL,
            fg_since_bg: 0,
            counters: DeviceCounters::default(),
            last_depth_change: SimTime::ZERO,
            anticipate_until: None,
            stalled_until: None,
            depth_stats: OnlineStats::new(),
            seek_stats: OnlineStats::new(),
        }
    }

    /// Whether the disk is currently servicing a request.
    pub(super) fn busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Snapshot of the cumulative counters.
    pub(super) fn counters(&self, now: SimTime) -> DeviceCounters {
        let mut c = self.counters;
        // Fold in the depth integral up to `now` without mutating.
        c.weighted_depth_ns +=
            c.queued_now * now.saturating_since(self.last_depth_change).as_nanos();
        c.busy_ns = self.disk.busy_time().as_nanos();
        c
    }

    /// Queue-depth distribution, one observation per submitted request
    /// (depth includes the request just queued and any in service).
    pub(super) fn depth_stats(&self) -> &OnlineStats {
        &self.depth_stats
    }

    /// Seek-distance distribution (sectors between the head and each
    /// dispatched request); 0 for sequential continuations.
    pub(super) fn seek_stats(&self) -> &OnlineStats {
        &self.seek_stats
    }

    /// Allocate a member slot (recycling freed slots first).
    fn alloc_member(&mut self, tag: T, arrival: SimTime, sectors: u64) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.members[idx as usize];
            self.free = n.next;
            n.tag = Some(tag);
            n.arrival = arrival;
            n.sectors = sectors;
            n.next = NIL;
            idx
        } else {
            let idx = self.members.len() as u32;
            assert!(idx != NIL, "member arena limit exceeded");
            self.members.push(MemberNode {
                tag: Some(tag),
                arrival,
                sectors,
                next: NIL,
            });
            idx
        }
    }

    /// Inject a `DiskStall` fault: freeze dispatch until `until`. Any
    /// request already in service finishes normally; queued and newly
    /// submitted work waits. Returns what the caller should do next —
    /// [`Dispatch::Anticipating`] asks for an [`LinearDevice::idle_check`]
    /// when the stall lifts.
    pub(super) fn stall(&mut self, now: SimTime, until: SimTime) -> Dispatch {
        if until <= now {
            return Dispatch::Idle;
        }
        self.stalled_until = Some(until);
        if self.in_service.is_some() {
            // complete() will gate the next dispatch.
            Dispatch::Idle
        } else {
            Dispatch::Anticipating(until)
        }
    }

    /// Dispatch, unless a stall is in force — in which case report when
    /// the stall lifts so the caller can re-check then.
    fn gated_dispatch(&mut self, now: SimTime) -> Dispatch {
        if let Some(until) = self.stalled_until {
            if now < until {
                return Dispatch::Anticipating(until);
            }
            self.stalled_until = None;
        }
        match self.dispatch(now) {
            Some(d) => Dispatch::Started(d),
            None => Dispatch::Idle,
        }
    }

    fn advance_depth_integral(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_depth_change).as_nanos();
        self.counters.weighted_depth_ns += self.counters.queued_now * dt;
        self.last_depth_change = now;
    }

    fn try_merge(&mut self, new: QueuedReq) -> bool {
        let queue = if new.foreground {
            &mut self.fg
        } else {
            &mut self.bg
        };
        let scan = self.cfg.merge_scan_depth.min(queue.len());
        let start = queue.len() - scan;
        for i in (start..queue.len()).rev() {
            let q = &queue[i];
            if q.kind != new.kind {
                continue;
            }
            if q.sectors + new.sectors > self.cfg.max_merge_sectors {
                continue;
            }
            let back = q.sector + q.sectors == new.sector;
            let front = new.sector + new.sectors == q.sector;
            if back || front {
                let q = &mut queue[i];
                if front {
                    q.sector = new.sector;
                }
                q.sectors += new.sectors;
                // O(1) list concatenation in the member arena.
                self.members[q.tail as usize].next = new.head;
                q.tail = new.tail;
                q.nmembers += new.nmembers;
                match q.kind {
                    ReqKind::Read => self.counters.read_merges += 1,
                    ReqKind::Write => self.counters.write_merges += 1,
                }
                return true;
            }
        }
        false
    }

    /// Submit a request. If the disk was idle (and not anticipating, or
    /// the request is synchronous) it starts servicing immediately:
    /// [`Dispatch::Started`] tells the caller to schedule a completion
    /// event that far in the future and later call
    /// [`LinearDevice::complete`].
    pub(super) fn submit(
        &mut self,
        now: SimTime,
        kind: ReqKind,
        sector: u64,
        sectors: u64,
        foreground: bool,
        tag: T,
    ) -> Dispatch {
        debug_assert!(sectors > 0, "zero-length block request");
        self.advance_depth_integral(now);
        self.counters.enqueued += 1;
        self.counters.queued_now += 1;
        self.depth_stats.push(self.counters.queued_now as f64);
        let member = self.alloc_member(tag, now, sectors);
        let req = QueuedReq {
            kind,
            sector,
            sectors,
            foreground,
            head: member,
            tail: member,
            nmembers: 1,
        };
        if !self.try_merge(req) {
            if foreground {
                self.fg.push_back(req);
            } else {
                self.bg.push_back(req);
            }
        }
        if self.in_service.is_some() {
            return Dispatch::Idle;
        }
        if foreground {
            // A synchronous arrival ends any anticipation immediately.
            self.anticipate_until = None;
            self.gated_dispatch(now)
        } else if let Some(until) = self.anticipate_until {
            if now >= until {
                self.anticipate_until = None;
                self.gated_dispatch(now)
            } else {
                Dispatch::Anticipating(until)
            }
        } else {
            self.gated_dispatch(now)
        }
    }

    /// Re-examine the queue after an anticipation window. If the device
    /// is still idle with only background work pending and the window
    /// has passed, background work starts.
    pub(super) fn idle_check(&mut self, now: SimTime) -> Dispatch {
        if self.in_service.is_some() {
            return Dispatch::Idle;
        }
        if let Some(until) = self.anticipate_until {
            if now < until {
                return Dispatch::Anticipating(until);
            }
            self.anticipate_until = None;
        }
        self.gated_dispatch(now)
    }

    /// Pick the next background request C-SCAN style: the nearest
    /// request at or above the disk head, wrapping to the lowest sector.
    /// This is the elevator ordering that keeps scattered small
    /// writeback from degrading into one seek per request.
    fn pick_bg(&mut self) -> Option<QueuedReq> {
        let head = self.disk.head();
        let mut best: Option<(usize, u64, bool)> = None; // (idx, key, above)
        for (i, r) in self.bg.iter().enumerate() {
            let above = r.sector >= head;
            let key = if above { r.sector - head } else { r.sector };
            let better = match best {
                None => true,
                Some((_, bkey, babove)) => (above && !babove) || (above == babove && key < bkey),
            };
            if better {
                best = Some((i, key, above));
            }
        }
        let (idx, _, _) = best?;
        let mut req = self.bg.remove(idx)?;
        // Dispatch-time merging: absorb any queued background requests
        // that are now sector-adjacent (allocations often become dense
        // only after out-of-order arrivals settle).
        loop {
            let mut merged_any = false;
            let mut i = 0;
            while i < self.bg.len() {
                let q = &self.bg[i];
                if q.kind == req.kind
                    && req.sectors + q.sectors <= self.cfg.max_merge_sectors
                    && (req.sector + req.sectors == q.sector || q.sector + q.sectors == req.sector)
                {
                    let q = self.bg.remove(i).expect("index in range");
                    if q.sector + q.sectors == req.sector {
                        req.sector = q.sector;
                    }
                    req.sectors += q.sectors;
                    self.members[req.tail as usize].next = q.head;
                    req.tail = q.tail;
                    req.nmembers += q.nmembers;
                    match req.kind {
                        ReqKind::Read => self.counters.read_merges += 1,
                        ReqKind::Write => self.counters.write_merges += 1,
                    }
                    merged_any = true;
                } else {
                    i += 1;
                }
            }
            if !merged_any {
                break;
            }
        }
        Some(req)
    }

    /// Pick the next request per the deadline-like policy and start the
    /// disk on it. Returns its service duration.
    fn dispatch(&mut self, _now: SimTime) -> Option<SimDuration> {
        debug_assert!(self.in_service.is_none());
        let take_fg = if self.fg.is_empty() {
            false
        } else if self.bg.is_empty() {
            true
        } else {
            self.fg_since_bg < self.cfg.writes_starved
        };
        let req = if take_fg {
            self.fg_since_bg += 1;
            self.fg.pop_front()
        } else {
            if !self.bg.is_empty() {
                self.fg_since_bg = 0;
            }
            self.pick_bg().or_else(|| self.fg.pop_front())
        }?;
        self.seek_stats
            .push(req.sector.abs_diff(self.disk.head()) as f64);
        let dur = self.disk.service(req.sector, req.sectors);
        self.in_service = Some(req);
        Some(dur)
    }

    /// Finish the in-service request, draining its members (in merge
    /// order) into `out` — which is cleared first — and recycling their
    /// arena slots. Returns the completion metadata and what the device
    /// does next: start another request, anticipate a synchronous
    /// arrival, or go idle. The event loop calls this with one reused
    /// scratch buffer, so steady-state completion allocates nothing.
    pub(super) fn complete_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<Member<T>>,
    ) -> (CompletedMeta, Dispatch) {
        out.clear();
        self.advance_depth_integral(now);
        let req = self.in_service.take().expect("complete() with idle disk");
        self.counters.queued_now -= req.nmembers as u64;
        // Drain the member list into `out`, pushing freed slots onto the
        // free list as we go.
        let mut idx = req.head;
        while idx != NIL {
            let n = &mut self.members[idx as usize];
            let next = n.next;
            out.push(Member {
                tag: n.tag.take().expect("live member"),
                arrival: n.arrival,
                sectors: n.sectors,
            });
            self.counters.wait_ns += now.saturating_since(n.arrival).as_nanos();
            n.next = self.free;
            self.free = idx;
            idx = next;
        }
        debug_assert_eq!(out.len(), req.nmembers as usize);
        match req.kind {
            ReqKind::Read => {
                self.counters.reads_completed += req.nmembers as u64;
                self.counters.sectors_read += req.sectors;
            }
            ReqKind::Write => {
                self.counters.writes_completed += req.nmembers as u64;
                self.counters.sectors_written += req.sectors;
            }
        }
        let meta = CompletedMeta {
            kind: req.kind,
            sectors: req.sectors,
            foreground: req.foreground,
        };
        // Anticipation: a synchronous request just finished, nothing
        // synchronous is queued, and background work is waiting — hold
        // the disk briefly for the next synchronous request. An injected
        // stall takes precedence over anticipation.
        let next = if self.stalled_until.is_some() {
            self.gated_dispatch(now)
        } else if meta.foreground
            && self.fg.is_empty()
            && !self.bg.is_empty()
            && self.cfg.idle_wait > SimDuration::ZERO
        {
            let until = now + self.cfg.idle_wait;
            self.anticipate_until = Some(until);
            Dispatch::Anticipating(until)
        } else {
            self.gated_dispatch(now)
        };
        (meta, next)
    }
}
