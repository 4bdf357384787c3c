//! The object-server side of the cluster: every OSS node and its OSTs.
//!
//! [`Servers`] owns the devices, extent maps, caches and CPU clocks of
//! the OSS/OST layer.
//! `Cluster` hands it the server-side events and an [`Fx`]: the event
//! queue plus the network, so [`Fx::send`] is the one way any handler,
//! client, OSS or MDS side, puts a message on the wire, and
//! [`Fx::device_event`] the one place a device reacts to an idle check,
//! a fail-slow change or a stall, OST and MDT alike.

use qi_simkit::event::EventQueue;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::MetricsSnapshot;

use crate::arena::{Slab, SlabKey};
use crate::cache::{Admit, SmallObjectCache, WriteCache};
use crate::config::{ClusterConfig, StripeConfig, SECTOR_SIZE};
use crate::disk::Disk;
use crate::ids::{DeviceId, DirKey, FileKey, NodeId, OpToken};
use crate::layout::{chunks, ExtentMap, FileLayout, ObjKey, SectorRange};
use crate::net::Network;
use crate::ops::ServerSample;
use crate::queue::{BlockDevice, Dispatch, Member, ReqKind};

/// Completion payload attached to OST block requests.
#[derive(Clone)]
pub(crate) enum OstTag {
    /// Foreground read belonging to a client read chunk.
    ReadChunk { chunk: SlabKey },
    /// Background flush of dirty cache data (payload-byte share).
    Flush { dirty_bytes: u64 },
}

/// A write waiting in (or moving through) an OSS cache.
#[derive(Clone)]
pub(crate) struct PendingWrite {
    pub(crate) token: OpToken,
    pub(crate) client: NodeId,
    pub(crate) dev: DeviceId,
    pub(crate) obj: ObjKey,
    pub(crate) obj_off: u64,
    pub(crate) len: u64,
}

/// In-flight read-chunk bookkeeping.
#[derive(Clone)]
pub(crate) struct ChunkPending {
    pub(crate) remaining: u32,
    pub(crate) token: OpToken,
    pub(crate) client: NodeId,
    pub(crate) dev: DeviceId,
    pub(crate) reply_bytes: u64,
    /// Object read (for the read-cache residency update on completion).
    pub(crate) obj: ObjKey,
}

/// Messages travelling the simulated network. Cloneable so the retry
/// layer can stash a copy of a dropped request for resending.
#[derive(Clone)]
pub(crate) enum Msg {
    ReadReq {
        dev: DeviceId,
        obj: ObjKey,
        obj_off: u64,
        len: u64,
        token: OpToken,
        client: NodeId,
    },
    WriteReq {
        dev: DeviceId,
        obj: ObjKey,
        obj_off: u64,
        len: u64,
        token: OpToken,
        client: NodeId,
    },
    MetaReq {
        op: MetaOp,
        token: OpToken,
        client: NodeId,
    },
    /// Any server→client completion (read reply, write ack, meta ack).
    OpDone { token: OpToken },
}

/// Metadata request payloads.
#[derive(Clone)]
pub(crate) enum MetaOp {
    /// open/stat: namespace lookup, maybe an MDT inode read.
    Lookup { file: FileKey },
    /// close: CPU only.
    Close,
    /// create/mkdir: directory lock + journal write. For create,
    /// the layout is registered at processing time.
    Mutate {
        create: Option<(FileKey, Option<StripeConfig>)>,
        dir: DirKey,
    },
}

/// Simulator events, all on the cluster's one queue.
#[derive(Clone)]
pub(crate) enum Ev {
    /// Ask a rank for its next step.
    RankNext { app: u32, rank: u32 },
    /// A network message arrives at its destination.
    Deliver(Msg),
    /// OSS CPU finished processing a data RPC.
    OssProcess(Msg),
    /// MDS CPU finished processing a metadata RPC.
    MdsProcess(Msg),
    /// A device finished its in-service block request.
    DiskDone { dev: u32 },
    /// A device's anticipation window expired; re-check its queue.
    DiskIdle { dev: u32 },
    /// Deferred server→client send (e.g. ack after cache absorb).
    SendLater {
        src: NodeId,
        dst: NodeId,
        payload: u64,
        token: OpToken,
    },
    /// A rate-limited data RPC cleared its token-bucket wait.
    TbfAdmitted(Msg),
    /// Directory-lock revocation finished; run the mutation's journal
    /// write under the lock.
    MdsLockRun {
        token: OpToken,
        client: NodeId,
        dir: DirKey,
    },
    /// Server-side monitor tick.
    Sample,
    /// Mitigation-controller tick (window close + 1 ns).
    Control,
    /// A scheduled fail-slow injection fires on a device.
    FailSlow { dev: u32, factor: f64 },
    /// A `DiskStall` fault begins: the device's queue freezes until the
    /// given instant.
    DiskStall { dev: u32, until: SimTime },
    /// An `OssThreadCrash` (or its restart) changes an OSS node's
    /// effective CPU cost multiplier.
    OssFactor { oss: u32, factor: f64 },
    /// A client's wait for a reply to a (dropped) request expired.
    RpcTimeout { seq: SlabKey },
    /// A client's retry backoff elapsed; resend the stored request.
    RpcResend { seq: SlabKey },
}

/// Effect context every handler runs against: the cluster's one event
/// queue and its network.
#[derive(Clone)]
pub(crate) struct Fx {
    pub(crate) q: EventQueue<Ev>,
    pub(crate) net: Network,
}

impl Fx {
    /// Put one transfer on the network at `now` and schedule its
    /// delivery. `extra` is fault-injected delivery delay and `msg` is
    /// `None` for a dropped request (it occupies both NICs but delivers
    /// nothing); server replies pass zero and `Some`, since
    /// server→client replies always deliver.
    #[inline]
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload: u64,
        extra: SimDuration,
        msg: Option<Msg>,
    ) {
        let deliver = self.net.send(now, src, dst, payload);
        if let Some(msg) = msg {
            self.q.schedule(deliver + extra, Ev::Deliver(msg));
        }
    }

    /// Schedule an event.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.q.schedule(at, ev);
    }

    /// Realise device `dev`'s dispatch outcome: schedule the completion
    /// of the request it started, or the re-check when its anticipation
    /// window (or stall) ends.
    #[inline]
    pub(crate) fn dispatch(&mut self, now: SimTime, dev: u32, d: Dispatch) {
        match d {
            Dispatch::Started(dur) => self.q.schedule(now + dur, Ev::DiskDone { dev }),
            Dispatch::Anticipating(at) => self.q.schedule(at, Ev::DiskIdle { dev }),
            Dispatch::Idle => {}
        }
    }

    /// Apply a `DiskIdle`, `FailSlow` or `DiskStall` event to `device`,
    /// whoever owns it and whatever its tag. (`DiskDone` stays with the
    /// owner: only it knows what its tags complete.)
    pub(crate) fn device_event<T>(&mut self, now: SimTime, device: &mut BlockDevice<T>, ev: Ev) {
        match ev {
            Ev::DiskIdle { dev } => {
                let d = device.idle_check(now);
                self.dispatch(now, dev, d);
            }
            Ev::FailSlow { factor, .. } => device.disk_mut().set_fail_slow(factor),
            Ev::DiskStall { dev, until } => {
                let d = device.stall(now, until);
                self.dispatch(now, dev, d);
            }
            _ => unreachable!("not a device event"),
        }
    }
}

/// All OSS/OST state, indexed by global OSS and OST number.
#[derive(Clone)]
pub(crate) struct Servers {
    /// OST block devices, in global OST order.
    devices: Vec<BlockDevice<OstTag>>,
    extents: Vec<ExtentMap>,
    caches: Vec<WriteCache<PendingWrite>>,
    read_cache: Vec<SmallObjectCache>,
    oss_cpu_free: Vec<SimTime>,
    /// Per-OSS CPU cost multiplier (1.0 = healthy; `OssThreadCrash`
    /// raises it, restart resets it).
    oss_cpu_factor: Vec<f64>,
    /// In-flight read chunks, keyed by slab index.
    chunk_pending: Slab<ChunkPending>,
    /// Scratch buffers reused across events (no per-event allocation).
    scratch_ranges: Vec<SectorRange>,
    scratch_members: Vec<Member<OstTag>>,
}

impl Servers {
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        let n_oss = cfg.oss_nodes as usize;
        let n_osts = cfg.n_osts() as usize;
        let mut devices = Vec::with_capacity(n_osts);
        let mut extents = Vec::with_capacity(n_osts);
        let mut caches = Vec::with_capacity(n_osts);
        let mut read_cache = Vec::with_capacity(n_osts);
        for _ in 0..n_osts {
            devices.push(BlockDevice::new(
                cfg.queue.clone(),
                Disk::new(cfg.ost_disk.clone()),
            ));
            extents.push(ExtentMap::new(cfg.ost_disk.capacity_sectors));
            caches.push(WriteCache::new(cfg.cache.clone()));
            read_cache.push(SmallObjectCache::new(
                cfg.cache.small_object_max,
                cfg.cache.read_cache_budget,
            ));
        }
        Servers {
            devices,
            extents,
            caches,
            read_cache,
            oss_cpu_free: vec![SimTime::ZERO; n_oss],
            oss_cpu_factor: vec![1.0; n_oss],
            chunk_pending: Slab::with_capacity(64),
            scratch_ranges: Vec::new(),
            scratch_members: Vec::new(),
        }
    }

    /// Handle one server-side event: an admitted or processed data RPC,
    /// an OSS CPU factor change, or an OST's device event.
    pub(crate) fn handle(&mut self, now: SimTime, ev: Ev, cfg: &ClusterConfig, fx: &mut Fx) {
        match ev {
            Ev::TbfAdmitted(msg) => self.oss_cpu_start(now, msg, cfg, fx),
            Ev::OssProcess(msg) => self.oss_process(now, msg, cfg, fx),
            Ev::DiskDone { dev } => self.disk_done(now, dev, cfg, fx),
            Ev::DiskIdle { dev } | Ev::FailSlow { dev, .. } | Ev::DiskStall { dev, .. } => {
                fx.device_event(now, &mut self.devices[dev as usize], ev)
            }
            Ev::OssFactor { oss, factor } => self.oss_cpu_factor[oss as usize] = factor,
            _ => unreachable!("client or MDS event routed to the servers"),
        }
    }

    /// Lay a pre-existing file's objects out on their OSTs without any
    /// I/O. Small files start resident in the page cache (e.g.
    /// mdtest-hard bodies written moments before the read phase).
    pub(crate) fn preload(
        &mut self,
        cfg: &ClusterConfig,
        file: FileKey,
        len: u64,
        layout: &FileLayout,
    ) {
        if len == 0 {
            return;
        }
        let small = len <= cfg.cache.small_object_max;
        for c in chunks(layout, cfg.n_osts(), 0, len) {
            let key = ObjKey {
                file,
                stripe: c.stripe,
            };
            let i = c.dev.index();
            self.extents[i].map(key, c.obj_offset, c.len);
            if small {
                self.read_cache[i].touch(key, c.obj_offset + c.len);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_block(
        &mut self,
        now: SimTime,
        dev: DeviceId,
        kind: ReqKind,
        sector: u64,
        sectors: u64,
        foreground: bool,
        tag: OstTag,
        fx: &mut Fx,
    ) {
        let i = dev.index();
        let d = self.devices[i].submit(now, kind, sector, sectors, foreground, tag);
        fx.dispatch(now, dev.0, d);
    }

    /// Mark `obj` resident in `dev`'s page cache if, and only if, the
    /// whole object is small (residency is object-granular, so partially
    /// read large objects must never qualify).
    fn touch_small(&mut self, cfg: &ClusterConfig, dev: DeviceId, obj: ObjKey) {
        let i = dev.index();
        let bytes = self.extents[i].object_sectors(obj) * SECTOR_SIZE;
        if bytes > 0 && bytes <= cfg.cache.small_object_max {
            self.read_cache[i].touch(obj, bytes);
        }
    }

    /// Schedule a data RPC that cleared its app's TBF onto its OSS
    /// node's CPU.
    fn oss_cpu_start(&mut self, now: SimTime, msg: Msg, cfg: &ClusterConfig, fx: &mut Fx) {
        let dev = match &msg {
            Msg::ReadReq { dev, .. } | Msg::WriteReq { dev, .. } => *dev,
            _ => unreachable!("only data RPCs reach the OSS"),
        };
        let oss = (dev.0 / cfg.osts_per_oss) as usize;
        let start = now.max(self.oss_cpu_free[oss]);
        // `OssThreadCrash`: fewer service threads → each RPC costs more
        // CPU time. Skip the f64 roundtrip entirely when healthy so the
        // event stream is bit-identical to pre-fault builds.
        let factor = self.oss_cpu_factor[oss];
        let cost = if factor != 1.0 {
            SimDuration::from_secs_f64(cfg.oss.cpu_per_rpc.as_secs_f64() * factor)
        } else {
            cfg.oss.cpu_per_rpc
        };
        let done = start + cost;
        self.oss_cpu_free[oss] = done;
        fx.schedule(done, Ev::OssProcess(msg));
    }

    fn oss_process(&mut self, now: SimTime, msg: Msg, cfg: &ClusterConfig, fx: &mut Fx) {
        match msg {
            Msg::ReadReq {
                dev,
                obj,
                obj_off,
                len,
                token,
                client,
            } => {
                // Server page cache: small resident objects never touch
                // the disk.
                let i = dev.index();
                if self.read_cache[i].contains(obj) {
                    let memcpy = SimDuration::from_secs_f64(len as f64 / cfg.cache.absorb_rate);
                    fx.schedule(
                        now + memcpy,
                        Ev::SendLater {
                            src: cfg.node_of(dev),
                            dst: client,
                            payload: len,
                            token,
                        },
                    );
                    return;
                }
                let mut ranges = std::mem::take(&mut self.scratch_ranges);
                ranges.clear();
                self.extents[i].map_into(obj, obj_off, len, &mut ranges);
                let chunk = self.chunk_pending.insert(ChunkPending {
                    remaining: ranges.len() as u32,
                    token,
                    client,
                    dev,
                    reply_bytes: len,
                    obj,
                });
                for r in ranges.drain(..) {
                    self.submit_block(
                        now,
                        dev,
                        ReqKind::Read,
                        r.sector,
                        r.sectors,
                        true,
                        OstTag::ReadChunk { chunk },
                        fx,
                    );
                }
                self.scratch_ranges = ranges;
            }
            Msg::WriteReq {
                dev,
                obj,
                obj_off,
                len,
                token,
                client,
            } => {
                let i = dev.index();
                let pw = PendingWrite {
                    token,
                    client,
                    dev,
                    obj,
                    obj_off,
                    len,
                };
                match self.caches[i].admit(len, pw) {
                    Admit::Absorbed { absorb } => {
                        let pw = PendingWrite {
                            token,
                            client,
                            dev,
                            obj,
                            obj_off,
                            len,
                        };
                        self.touch_small(cfg, dev, obj);
                        self.start_flush(now, &pw, fx);
                        fx.schedule(
                            now + absorb,
                            Ev::SendLater {
                                src: cfg.node_of(dev),
                                dst: client,
                                payload: 0,
                                token,
                            },
                        );
                    }
                    Admit::Throttled => {} // released by a later flush
                }
            }
            _ => unreachable!("only data RPCs reach the OSS"),
        }
    }

    /// Submit background flush requests covering one absorbed write.
    fn start_flush(&mut self, now: SimTime, pw: &PendingWrite, fx: &mut Fx) {
        let i = pw.dev.index();
        let mut ranges = std::mem::take(&mut self.scratch_ranges);
        ranges.clear();
        self.extents[i].map_into(pw.obj, pw.obj_off, pw.len, &mut ranges);
        let mut remaining = pw.len;
        let n = ranges.len();
        for (i, r) in ranges.drain(..).enumerate() {
            let sector_bytes = r.sectors * SECTOR_SIZE;
            let share = if i + 1 == n {
                remaining
            } else {
                sector_bytes.min(remaining)
            };
            remaining -= share;
            self.submit_block(
                now,
                pw.dev,
                ReqKind::Write,
                r.sector,
                r.sectors,
                false,
                OstTag::Flush { dirty_bytes: share },
                fx,
            );
        }
        self.scratch_ranges = ranges;
    }

    fn disk_done(&mut self, now: SimTime, dev: u32, cfg: &ClusterConfig, fx: &mut Fx) {
        let i = dev as usize;
        let mut members = std::mem::take(&mut self.scratch_members);
        let (_meta, next) = self.devices[i].complete_into(now, &mut members);
        fx.dispatch(now, dev, next);
        let mut flushed_bytes = 0u64;
        for m in members.drain(..) {
            match m.tag {
                OstTag::ReadChunk { chunk } => {
                    // A chunk's entry lives until its last member completes:
                    // it is removed only below, when `remaining` hits zero.
                    let finished = {
                        let p = self
                            .chunk_pending
                            .get_mut(chunk)
                            .expect("unknown chunk completion");
                        p.remaining -= 1;
                        p.remaining == 0
                    };
                    if finished {
                        let p = self.chunk_pending.remove(chunk).expect("chunk present");
                        self.touch_small(cfg, p.dev, p.obj);
                        let src = cfg.node_of(p.dev);
                        fx.send(
                            now,
                            src,
                            p.client,
                            p.reply_bytes,
                            SimDuration::ZERO,
                            Some(Msg::OpDone { token: p.token }),
                        );
                    }
                }
                OstTag::Flush { dirty_bytes } => flushed_bytes += dirty_bytes,
            }
        }
        self.scratch_members = members;
        if flushed_bytes > 0 {
            let released = self.caches[i].flushed(flushed_bytes);
            for r in released {
                let (token, client, d) = (r.tag.token, r.tag.client, r.tag.dev);
                self.start_flush(now, &r.tag, fx);
                fx.schedule(
                    now + r.absorb,
                    Ev::SendLater {
                        src: cfg.node_of(d),
                        dst: client,
                        payload: 0,
                        token,
                    },
                );
            }
        }
    }

    /// Put every OST's block-layer block (`pfs.ost{i}.*`) into `snap`.
    pub(crate) fn metrics_into(&self, snap: &mut MetricsSnapshot, now: SimTime) {
        for (i, dev) in self.devices.iter().enumerate() {
            dev.metrics_into(snap, &format!("pfs.ost{i}"), now);
        }
    }

    /// One monitor sample per OST at `now`, in device order — the only
    /// place an OST sample is built.
    pub(crate) fn samples(&self, now: SimTime) -> impl Iterator<Item = ServerSample> + '_ {
        self.devices
            .iter()
            .zip(&self.caches)
            .enumerate()
            .map(move |(i, (dev, cache))| ServerSample {
                time: now,
                dev: DeviceId(i as u32),
                counters: dev.counters(now),
                dirty_bytes: cache.dirty(),
                throttled_now: cache.throttled_now() as u64,
            })
    }
}
