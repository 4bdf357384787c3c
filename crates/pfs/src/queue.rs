//! Block-layer request queue and device driver.
//!
//! Models the part of a Lustre server the paper's server-side monitor
//! watches (Table II): a request queue with adjacent-request merging, a
//! deadline-style dispatch policy that prioritises synchronous reads over
//! background flush writes (bounded by `writes_starved`), and the
//! `/proc/diskstats`-like cumulative counters the monitor samples.
//!
//! The queue is generic over a completion tag `T` so the cluster can hang
//! RPC continuations off each request; merged requests carry every
//! member's tag and arrival time, so queue-wait accounting stays exact.
//!
//! Internally, members live in a per-device slab and queued requests
//! reference them as an intrusive linked list, so submitting and merging
//! requests never allocates in steady state (freed member slots are
//! recycled) and a merge is an O(1) list concatenation. Completions
//! drain members into a caller-owned scratch buffer
//! ([`BlockDevice::complete_into`]) to keep the event loop allocation-free.
//!
//! The foreground queue is a FIFO. The background queue is picked from
//! by sector and grows thousands deep under a bulk writer, so it keeps a
//! sector index beside its queue order (see `bg`): dispatch costs
//! O(log n) however deep it is.

mod bg;
#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

use std::collections::VecDeque;

use qi_simkit::stats::{Histogram, OnlineStats};
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::config::QueueConfig;
use crate::disk::Disk;

/// Read or write, at the block level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqKind {
    /// Data leaves the device.
    Read,
    /// Data enters the device.
    Write,
}

/// One logical request that was merged into a queued block request.
#[derive(Clone, Debug)]
pub struct Member<T> {
    /// Caller's completion payload.
    pub tag: T,
    /// When this member entered the queue.
    pub arrival: SimTime,
    /// Sectors contributed by this member.
    pub sectors: u64,
}

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

/// Null member link.
const NIL: u32 = u32::MAX;

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
}

/// Which end of a queued request a merged one joined.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    /// It ends where the queued request started: the start moves down.
    Front,
    /// It starts where the queued request ended.
    Back,
}

impl QueuedReq {
    /// Absorb `other` if it is the same kind, the two together stay
    /// within `max_sectors`, and it is sector-adjacent on either side.
    /// Its members follow ours (an O(1) list concatenation in the member
    /// arena). Says on which side it joined, `None` when it did not.
    fn merge<T>(
        &mut self,
        other: &QueuedReq,
        max_sectors: u64,
        members: &mut [MemberNode<T>],
    ) -> Option<Side> {
        if self.kind != other.kind || self.sectors + other.sectors > max_sectors {
            return None;
        }
        let side = if self.sector + self.sectors == other.sector {
            Side::Back
        } else if other.sector + other.sectors == self.sector {
            self.sector = other.sector;
            Side::Front
        } else {
            return None;
        };
        self.sectors += other.sectors;
        members[self.tail as usize].next = other.head;
        self.tail = other.tail;
        Some(side)
    }
}

/// Completion metadata for a finished request; the members are drained
/// separately (into a caller buffer by [`BlockDevice::complete_into`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompletedMeta {
    /// Read or write.
    pub kind: ReqKind,
    /// Total sectors transferred.
    pub sectors: u64,
    /// Whether it was a foreground request.
    pub foreground: bool,
}

/// A finished request with its members, as [`BlockDevice::complete`]
/// hands it to the unit tests.
#[cfg(test)]
#[derive(Clone, Debug)]
pub struct Completed<T> {
    /// Read or write.
    pub kind: ReqKind,
    /// Total sectors transferred.
    pub sectors: u64,
    /// Whether it was a foreground request.
    pub foreground: bool,
    /// Member tags, in merge order.
    pub members: Vec<Member<T>>,
}

/// Cumulative device counters, in the spirit of `/proc/diskstats`.
///
/// All fields only ever increase (except `queued_now`); the server-side
/// monitor samples them every second and differences consecutive samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DeviceCounters {
    /// Completed read requests (member granularity).
    pub reads_completed: u64,
    /// Completed write requests (member granularity).
    pub writes_completed: u64,
    /// Sectors read from the media.
    pub sectors_read: u64,
    /// Sectors written to the media.
    pub sectors_written: u64,
    /// Read requests merged with an already-queued request.
    pub read_merges: u64,
    /// Write requests merged with an already-queued request.
    pub write_merges: u64,
    /// Requests that have entered the queue.
    pub enqueued: u64,
    /// Sum over completed members of (completion − arrival), nanoseconds.
    pub wait_ns: u64,
    /// Time-integral of queue depth (members, incl. in-service), ns·reqs.
    pub weighted_depth_ns: u64,
    /// Cumulative device busy time, nanoseconds (accrued at dispatch).
    pub busy_ns: u64,
    /// Members currently queued or in service (instantaneous).
    pub queued_now: u64,
}

/// What the device wants the caller (event loop) to do after a submit,
/// completion, or idle check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// A request entered service; schedule its completion this far out.
    Started(SimDuration),
    /// The device is anticipating another synchronous request; call
    /// [`BlockDevice::idle_check`] at this instant.
    Anticipating(SimTime),
    /// Nothing to do.
    Idle,
}

impl Dispatch {
    /// The service duration when a request was started.
    pub fn started(self) -> Option<SimDuration> {
        match self {
            Dispatch::Started(d) => Some(d),
            _ => None,
        }
    }

    /// True when no request was started and none is anticipated.
    pub fn is_idle(&self) -> bool {
        matches!(self, Dispatch::Idle)
    }
}

/// A storage device: request queue + rotational disk + dispatch policy.
#[derive(Clone)]
pub struct BlockDevice<T> {
    cfg: QueueConfig,
    disk: Disk,
    fg: VecDeque<QueuedReq>,
    bg: bg::BgQueue,
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

impl<T> BlockDevice<T> {
    /// New idle device.
    pub fn new(cfg: QueueConfig, disk: Disk) -> Self {
        BlockDevice {
            cfg,
            disk,
            fg: VecDeque::new(),
            bg: bg::BgQueue::new(),
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
    pub fn busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Snapshot of the cumulative counters.
    pub fn counters(&self, now: SimTime) -> DeviceCounters {
        let mut c = self.counters;
        // Fold in the depth integral up to `now` without mutating.
        c.weighted_depth_ns +=
            c.queued_now * now.saturating_since(self.last_depth_change).as_nanos();
        c.busy_ns = self.disk.busy_time().as_nanos();
        c
    }

    /// Queue-depth distribution, one observation per submitted request
    /// (depth includes the request just queued and any in service).
    pub fn depth_stats(&self) -> &OnlineStats {
        &self.depth_stats
    }

    /// Seek-distance distribution (sectors between the head and each
    /// dispatched request); 0 for sequential continuations.
    pub fn seek_stats(&self) -> &OnlineStats {
        &self.seek_stats
    }

    /// Per-request service-time histogram of the underlying disk, in
    /// microseconds.
    pub fn service_time_hist(&self) -> &Histogram {
        self.disk.service_time_hist()
    }

    /// Put this device's block-layer counters and distributions at `now`
    /// into `snap` under the prefix `p` (`pfs.ost{i}` or `pfs.mdt`).
    pub fn metrics_into(&self, snap: &mut MetricsSnapshot, p: &str, now: SimTime) {
        let c = self.counters(now);
        for (field, v) in [
            ("reads_completed", c.reads_completed),
            ("writes_completed", c.writes_completed),
            ("sectors_read", c.sectors_read),
            ("sectors_written", c.sectors_written),
            ("read_merges", c.read_merges),
            ("write_merges", c.write_merges),
            ("enqueued", c.enqueued),
            ("wait_ns", c.wait_ns),
            ("busy_ns", c.busy_ns),
        ] {
            snap.put(&format!("{p}.{field}"), MetricValue::Counter(v));
        }
        let stats = |s: &OnlineStats| MetricValue::Stats(s.clone());
        snap.put(&format!("{p}.queue_depth"), stats(&self.depth_stats));
        snap.put(&format!("{p}.seek_sectors"), stats(&self.seek_stats));
        snap.put(
            &format!("{p}.service_us"),
            MetricValue::Histogram(self.service_time_hist().clone()),
        );
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

    /// Access to the underlying disk (e.g. for utilisation stats).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Mutable access to the underlying disk (fail-slow injection).
    pub fn disk_mut(&mut self) -> &mut Disk {
        &mut self.disk
    }

    /// Inject a `DiskStall` fault: freeze dispatch until `until`. Any
    /// request already in service finishes normally; queued and newly
    /// submitted work waits. Returns what the caller should do next —
    /// [`Dispatch::Anticipating`] asks for an [`BlockDevice::idle_check`]
    /// when the stall lifts.
    pub fn stall(&mut self, now: SimTime, until: SimTime) -> Dispatch {
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
        match self.dispatch() {
            Some(d) => Dispatch::Started(d),
            None => Dispatch::Idle,
        }
    }

    fn advance_depth_integral(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_depth_change).as_nanos();
        self.counters.weighted_depth_ns += self.counters.queued_now * dt;
        self.last_depth_change = now;
    }

    /// Submit-time merge: fold `new` into one of the `merge_scan_depth`
    /// most recently queued requests of its class, newest first.
    fn try_merge(&mut self, new: &QueuedReq) -> bool {
        let (depth, max) = (self.cfg.merge_scan_depth, self.cfg.max_merge_sectors);
        let merged = if new.foreground {
            let members = &mut self.members;
            self.fg
                .iter_mut()
                .rev()
                .take(depth)
                .any(|q| q.merge(new, max, members).is_some())
        } else {
            self.bg.try_merge(new, depth, max, &mut self.members)
        };
        if merged {
            self.count_merges(new.kind, 1);
        }
        merged
    }

    fn count_merges(&mut self, kind: ReqKind, n: u64) {
        match kind {
            ReqKind::Read => self.counters.read_merges += n,
            ReqKind::Write => self.counters.write_merges += n,
        }
    }

    /// Submit a request. If the disk was idle (and not anticipating, or
    /// the request is synchronous) it starts servicing immediately:
    /// [`Dispatch::Started`] tells the caller to schedule a completion
    /// event that far in the future and later call
    /// [`BlockDevice::complete_into`].
    pub fn submit(
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
        };
        if !self.try_merge(&req) {
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
    pub fn idle_check(&mut self, now: SimTime) -> Dispatch {
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
    /// writeback from degrading into one seek per request. The pick
    /// absorbs any queued background requests that are now
    /// sector-adjacent (allocations often become dense only after
    /// out-of-order arrivals settle).
    fn pick_bg(&mut self) -> Option<QueuedReq> {
        let (req, merges) = self.bg.pick(
            self.disk.head(),
            self.cfg.max_merge_sectors,
            &mut self.members,
        )?;
        self.count_merges(req.kind, merges);
        Some(req)
    }

    /// Pick the next request per the deadline-like policy and start the
    /// disk on it. Returns its service duration.
    fn dispatch(&mut self) -> Option<SimDuration> {
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
    pub fn complete_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<Member<T>>,
    ) -> (CompletedMeta, Dispatch) {
        out.clear();
        self.advance_depth_integral(now);
        // The event loop completes a device only when its request's service ends.
        let req = self.in_service.take().expect("complete() with idle disk");
        // Drain the member list into `out`, pushing freed slots onto the
        // free list as we go.
        let mut idx = req.head;
        while idx != NIL {
            let n = &mut self.members[idx as usize];
            let next = n.next;
            out.push(Member {
                // A member keeps its tag until this drain takes it, once.
                tag: n.tag.take().expect("live member"),
                arrival: n.arrival,
                sectors: n.sectors,
            });
            self.counters.wait_ns += now.saturating_since(n.arrival).as_nanos();
            n.next = self.free;
            self.free = idx;
            idx = next;
        }
        let nmembers = out.len() as u64;
        self.counters.queued_now -= nmembers;
        match req.kind {
            ReqKind::Read => {
                self.counters.reads_completed += nmembers;
                self.counters.sectors_read += req.sectors;
            }
            ReqKind::Write => {
                self.counters.writes_completed += nmembers;
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

    /// [`complete_into`](BlockDevice::complete_into) with a freshly
    /// allocated member buffer — the convenient form for the unit tests.
    #[cfg(test)]
    pub fn complete(&mut self, now: SimTime) -> (Completed<T>, Dispatch) {
        let mut members = Vec::new();
        let (meta, next) = self.complete_into(now, &mut members);
        (
            Completed {
                kind: meta.kind,
                sectors: meta.sectors,
                foreground: meta.foreground,
                members,
            },
            next,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskConfig;

    fn dev() -> BlockDevice<u32> {
        BlockDevice::new(
            QueueConfig::default(),
            Disk::new(DiskConfig::sata_7200_ost()),
        )
    }

    #[test]
    fn idle_submit_starts_service() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let dur = d.submit(t0, ReqKind::Read, 0, 128, true, 1).started();
        assert!(dur.is_some());
        assert!(d.busy());
        let (done, next) = d.complete(t0 + dur.unwrap());
        assert_eq!(done.members.len(), 1);
        assert_eq!(done.kind, ReqKind::Read);
        assert!(next.is_idle());
        assert!(!d.busy());
    }

    #[test]
    fn adjacent_requests_merge() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        // First request goes into service; queue the next three adjacent.
        let dur = d
            .submit(t0, ReqKind::Write, 0, 8, true, 0)
            .started()
            .unwrap();
        assert!(d.submit(t0, ReqKind::Write, 1000, 8, true, 1).is_idle());
        assert!(d.submit(t0, ReqKind::Write, 1008, 8, true, 2).is_idle());
        assert!(d.submit(t0, ReqKind::Write, 1016, 8, true, 3).is_idle());
        let c = d.counters(t0);
        assert_eq!(c.write_merges, 2);
        let (first, next) = d.complete(t0 + dur);
        assert_eq!(first.members.len(), 1);
        let (merged, next2) = d.complete(t0 + dur + next.started().unwrap());
        assert_eq!(merged.members.len(), 3);
        assert_eq!(merged.sectors, 24);
        assert!(next2.is_idle());
    }

    #[test]
    fn front_merge_extends_downward() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let _ = d
            .submit(t0, ReqKind::Read, 0, 8, true, 0)
            .started()
            .unwrap();
        assert!(d.submit(t0, ReqKind::Read, 1008, 8, true, 1).is_idle());
        // Front-merge: new request ends where the queued one starts.
        assert!(d.submit(t0, ReqKind::Read, 1000, 8, true, 2).is_idle());
        assert_eq!(d.counters(t0).read_merges, 1);
    }

    #[test]
    fn different_kinds_do_not_merge() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let _ = d
            .submit(t0, ReqKind::Read, 0, 8, true, 0)
            .started()
            .unwrap();
        assert!(d.submit(t0, ReqKind::Read, 1000, 8, true, 1).is_idle());
        assert!(d.submit(t0, ReqKind::Write, 1008, 8, true, 2).is_idle());
        let c = d.counters(t0);
        assert_eq!(c.read_merges + c.write_merges, 0);
    }

    #[test]
    fn reads_preempt_background_writes() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let dur = d
            .submit(t0, ReqKind::Write, 0, 8, false, 100)
            .started()
            .unwrap();
        // Queue a background write and a foreground read while busy.
        assert!(d.submit(t0, ReqKind::Write, 5000, 8, false, 101).is_idle());
        assert!(d.submit(t0, ReqKind::Read, 90_000, 8, true, 102).is_idle());
        let (_, next) = d.complete(t0 + dur);
        let t1 = t0 + dur + next.started().unwrap();
        let (second, _) = d.complete(t1);
        // The read jumped ahead of the queued background write.
        assert_eq!(second.kind, ReqKind::Read);
        assert_eq!(second.members[0].tag, 102);
    }

    #[test]
    fn writes_starved_cap_forces_background_through() {
        let cfg = QueueConfig {
            writes_starved: 2,
            ..QueueConfig::default()
        };
        let mut d: BlockDevice<u32> = BlockDevice::new(cfg, Disk::new(DiskConfig::sata_7200_ost()));
        let t0 = SimTime::ZERO;
        let mut t = t0;
        let mut dur = d
            .submit(t, ReqKind::Write, 0, 8, false, 0)
            .started()
            .unwrap();
        // One background write queued, plus a steady stream of reads.
        assert!(d.submit(t, ReqKind::Write, 10_000, 8, false, 1).is_idle());
        for i in 0..6 {
            assert!(d
                .submit(
                    t,
                    ReqKind::Read,
                    1_000_000 + i * 5000,
                    8,
                    true,
                    10 + i as u32
                )
                .is_idle());
        }
        let mut order = Vec::new();
        loop {
            t += dur;
            let (done, next) = d.complete(t);
            order.push((done.kind, done.foreground));
            match next {
                Dispatch::Started(nd) => dur = nd,
                Dispatch::Anticipating(at) => match d.idle_check(at) {
                    Dispatch::Started(nd) => {
                        t = at;
                        dur = nd;
                    }
                    _ => break,
                },
                Dispatch::Idle => break,
            }
        }
        // After two foreground dispatches, the background write must run
        // even though reads are still queued.
        let pos = order
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, &(k, f))| k == ReqKind::Write && !f)
            .map(|(i, _)| i)
            .expect("queued background write never completed");
        assert!(pos <= 3, "background write starved: order {order:?}");
    }

    #[test]
    fn anticipation_defers_background_after_sync_read() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let dur = d
            .submit(t0, ReqKind::Read, 0, 8, true, 1)
            .started()
            .unwrap();
        // Background work arrives while the read is in flight.
        assert!(d.submit(t0, ReqKind::Write, 9000, 8, false, 2).is_idle());
        let t1 = t0 + dur;
        let (_, next) = d.complete(t1);
        // The device must anticipate, not start the background write.
        let until = match next {
            Dispatch::Anticipating(u) => u,
            other => panic!("expected anticipation, got {other:?}"),
        };
        assert_eq!(until, t1 + QueueConfig::default().idle_wait);
        assert!(!d.busy());
        // A synchronous read arriving inside the window runs immediately.
        let t2 = SimTime(t1.as_nanos() + 1_000_000);
        let dur2 = d.submit(t2, ReqKind::Read, 20_000, 8, true, 3).started();
        assert!(dur2.is_some(), "sync arrival must cancel anticipation");
        // Stale idle check while busy does nothing.
        assert!(d.idle_check(until).is_idle());
    }

    #[test]
    fn idle_check_starts_background_after_window() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let dur = d
            .submit(t0, ReqKind::Read, 0, 8, true, 1)
            .started()
            .unwrap();
        assert!(d.submit(t0, ReqKind::Write, 9000, 8, false, 2).is_idle());
        let t1 = t0 + dur;
        let until = match d.complete(t1).1 {
            Dispatch::Anticipating(u) => u,
            other => panic!("expected anticipation, got {other:?}"),
        };
        // Background submits during the window stay deferred.
        match d.submit(t1, ReqKind::Write, 30_000, 8, false, 3) {
            Dispatch::Anticipating(u) => assert_eq!(u, until),
            other => panic!("expected deferred background, got {other:?}"),
        }
        // After the window the idle check starts background work.
        let started = d.idle_check(until).started();
        assert!(started.is_some());
        let (done, _) = d.complete(until + started.unwrap());
        assert_eq!(done.kind, ReqKind::Write);
        assert!(!done.foreground);
    }

    #[test]
    fn pure_background_writer_never_anticipates() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let dur = d
            .submit(t0, ReqKind::Write, 0, 8, false, 1)
            .started()
            .unwrap();
        assert!(d.submit(t0, ReqKind::Write, 9000, 8, false, 2).is_idle());
        let (_, next) = d.complete(t0 + dur);
        // No foreground history: flush continues immediately.
        assert!(next.started().is_some());
    }

    #[test]
    fn counters_track_waits_and_depth() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let dur = d
            .submit(t0, ReqKind::Read, 0, 8, true, 0)
            .started()
            .unwrap();
        assert!(d.submit(t0, ReqKind::Read, 500_000, 8, true, 1).is_idle());
        assert_eq!(d.counters(t0).queued_now, 2);
        let t1 = t0 + dur;
        let (_, next) = d.complete(t1);
        let c = d.counters(t1);
        assert_eq!(c.reads_completed, 1);
        assert_eq!(c.sectors_read, 8);
        assert_eq!(c.wait_ns, dur.as_nanos());
        assert_eq!(c.queued_now, 1);
        // Depth integral: two members queued for `dur`.
        assert_eq!(c.weighted_depth_ns, 2 * dur.as_nanos());
        let t2 = t1 + next.started().unwrap();
        let (_, last) = d.complete(t2);
        assert!(last.is_idle());
        let c = d.counters(t2);
        assert_eq!(c.reads_completed, 2);
        assert_eq!(c.queued_now, 0);
    }

    #[test]
    #[should_panic(expected = "complete() with idle disk")]
    fn completing_idle_device_panics() {
        let mut d = dev();
        d.complete(SimTime::ZERO);
    }

    #[test]
    fn stall_defers_dispatch_until_lifted() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let until = t0 + SimDuration::from_millis(10);
        // Idle device: stall asks for an idle check when it lifts.
        assert_eq!(d.stall(t0, until), Dispatch::Anticipating(until));
        // A synchronous submit during the stall does not start service.
        match d.submit(t0, ReqKind::Read, 0, 8, true, 1) {
            Dispatch::Anticipating(u) => assert_eq!(u, until),
            other => panic!("expected stalled dispatch, got {other:?}"),
        }
        assert!(!d.busy());
        // The idle check at stall end starts the queued read.
        let started = d.idle_check(until).started();
        assert!(started.is_some(), "stall must lift at `until`");
        assert!(d.busy());
    }

    #[test]
    fn stall_lets_in_flight_request_finish() {
        let mut d = dev();
        let t0 = SimTime::ZERO;
        let dur = d
            .submit(t0, ReqKind::Read, 0, 8, true, 1)
            .started()
            .unwrap();
        assert!(d.submit(t0, ReqKind::Read, 50_000, 8, true, 2).is_idle());
        let until = t0 + dur + SimDuration::from_millis(5);
        // Stall while busy: nothing to do now; complete() gates later.
        assert_eq!(d.stall(t0, until), Dispatch::Idle);
        let (done, next) = d.complete(t0 + dur);
        assert_eq!(done.members[0].tag, 1);
        // The queued read must wait for the stall, not start.
        assert_eq!(next, Dispatch::Anticipating(until));
        assert!(d.idle_check(until).started().is_some());
    }

    #[test]
    fn expired_stall_is_a_no_op() {
        let mut d = dev();
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        assert_eq!(d.stall(now, now), Dispatch::Idle);
        assert!(d
            .submit(now, ReqKind::Read, 0, 8, true, 1)
            .started()
            .is_some());
    }
}
