//! One server shard: the OSS/OST slice of the cluster that can run on
//! its own event queue.
//!
//! The simulator partitions its object servers into contiguous shards
//! (see `ClusterConfig::sim_shards`). Each [`ShardState`] owns the
//! devices, extent maps, caches, CPU clocks, admission tables, and
//! telemetry registry of its OSS range — state no other shard (and no
//! realm-side handler) ever touches. All effects a handler produces go
//! through [`Fx`]: event scheduling lands on whichever queue drives the
//! shard (the realm queue in the sequential loop, the shard's private
//! queue under epochs), and [`Fx::send`] — the one way any handler,
//! shard or realm, puts a message on the network — either charges the
//! shared [`Network`] at once (sequential) or records a [`SendIntent`]
//! for the epoch barrier to apply in canonical order. The handler bodies
//! themselves are loop-oblivious, which is what keeps every shard count
//! bit-identical.

use std::collections::{BTreeMap, VecDeque};

use qi_simkit::event::EventQueue;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricId, Registry};

use crate::arena::{Slab, SlabKey};
use crate::cache::{Admit, SmallObjectCache, WriteCache};
use crate::config::{ClusterConfig, StripeConfig, SECTOR_SIZE};
use crate::disk::Disk;
use crate::ids::{DeviceId, DirKey, FileKey, NodeId, OpToken};
use crate::layout::{ExtentMap, ObjKey, SectorRange};
use crate::net::Network;
use crate::ops::ServerSample;
use crate::queue::{BlockDevice, Dispatch, Member, ReqKind};

/// Completion payload attached to OST block requests.
pub(crate) enum OstTag {
    /// Foreground read belonging to a client read chunk.
    ReadChunk { chunk: SlabKey },
    /// Background flush of dirty cache data (payload-byte share).
    Flush { dirty_bytes: u64 },
    /// Synchronous write belonging to a client write chunk.
    SyncChunk { chunk: SlabKey },
}

/// A write waiting in (or moving through) an OSS cache.
pub(crate) struct PendingWrite {
    pub(crate) token: OpToken,
    pub(crate) client: NodeId,
    pub(crate) dev: DeviceId,
    pub(crate) obj: ObjKey,
    pub(crate) obj_off: u64,
    pub(crate) len: u64,
}

/// In-flight chunk bookkeeping (reads and sync writes).
pub(crate) struct ChunkPending {
    pub(crate) remaining: u32,
    pub(crate) token: OpToken,
    pub(crate) client: NodeId,
    pub(crate) dev: DeviceId,
    pub(crate) reply_bytes: u64,
    /// Object touched, with the end offset of the access (for read-cache
    /// residency updates on completion). `None` for sync writes.
    pub(crate) touched: Option<(ObjKey, u64)>,
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
    /// create/unlink/mkdir: directory lock + journal write. For create,
    /// the layout is registered at processing time.
    Mutate {
        create: Option<(FileKey, Option<StripeConfig>)>,
        dir: DirKey,
    },
}

/// Simulator events. One enum serves both the realm (clients/MDS/MDT)
/// queue and the per-shard queues; routing decides which queue an event
/// is scheduled on, not the type.
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
    /// An inflight-cap change for `app` took effect at this instant;
    /// re-admit parked RPCs under the new cap. Queued on every shard
    /// under epochs; the sequential loop runs it inline at directive
    /// time instead.
    AdmissionRecheck { app: u32 },
}

/// A network send produced inside an epoch, to be applied at the next
/// barrier. Intents are applied in global timestamp order (stable ties:
/// realm first, then shards ascending) so the shared NIC clocks advance
/// exactly as the sequential loop would advance them.
pub(crate) struct SendIntent {
    pub(crate) at: SimTime,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) payload: u64,
    /// Extra fault-injected delivery delay (realm sends only).
    pub(crate) extra: SimDuration,
    /// `None` for a dropped request: the transfer occupies both NICs
    /// but nothing is delivered.
    pub(crate) msg: Option<Msg>,
}

/// How a handler's network sends are realised.
pub(crate) enum NetFx<'a> {
    /// Sequential loop: send immediately and schedule the delivery.
    Direct(&'a mut Network),
    /// Inside an epoch: defer to the barrier as a [`SendIntent`].
    Deferred(&'a mut Vec<SendIntent>),
}

/// Effect context a shard handler runs against: the event queue driving
/// it plus the network mode.
pub(crate) struct Fx<'a> {
    pub(crate) q: &'a mut EventQueue<Ev>,
    pub(crate) net: NetFx<'a>,
}

impl Fx<'_> {
    /// Put one transfer on the network at `now` — the only way a send
    /// is realised outside the epoch barrier. `extra` is fault-injected
    /// delivery delay and `msg` is `None` for a dropped request (it
    /// occupies both NICs but delivers nothing); shard handlers pass
    /// zero and `Some`, since server→client replies always deliver.
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload: u64,
        extra: SimDuration,
        msg: Option<Msg>,
    ) {
        match &mut self.net {
            NetFx::Direct(net) => {
                let deliver = net.send(now, src, dst, payload);
                if let Some(msg) = msg {
                    self.q.schedule(deliver + extra, Ev::Deliver(msg));
                }
            }
            NetFx::Deferred(out) => out.push(SendIntent {
                at: now,
                src,
                dst,
                payload,
                extra,
                msg,
            }),
        }
    }

    /// Schedule a local (same-shard) event.
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.q.schedule(at, ev);
    }
}

/// Names of the shard-side telemetry counters, merged across shards via
/// [`Registry::merge`] and folded into the cluster snapshot.
pub(crate) const SHARD_DISK_STALLS: &str = "pfs.shard.disk_stalls";
pub(crate) const SHARD_PARKED: &str = "pfs.shard.control_parked";
pub(crate) const SHARD_RESUMED: &str = "pfs.shard.control_resumed";

/// All state owned by one server shard: a contiguous run of OSS nodes
/// and their OSTs.
pub(crate) struct ShardState {
    /// First global OST index this shard owns.
    pub(crate) ost_lo: u32,
    /// First global OSS index this shard owns.
    pub(crate) oss_lo: u32,
    /// OST block devices, local order = global order.
    pub(crate) devices: Vec<BlockDevice<OstTag>>,
    pub(crate) extents: Vec<ExtentMap>,
    pub(crate) caches: Vec<WriteCache<PendingWrite>>,
    pub(crate) read_cache: Vec<SmallObjectCache>,
    pub(crate) oss_cpu_free: Vec<SimTime>,
    /// Per-OSS CPU cost multiplier (1.0 = healthy; `OssThreadCrash`
    /// raises it, restart resets it).
    pub(crate) oss_cpu_factor: Vec<f64>,
    /// In-flight read/sync-write chunks, keyed by slab index. Keys are
    /// shard-local and never observable outside the shard.
    pub(crate) chunk_pending: Slab<ChunkPending>,
    /// Replica of the cluster-level per-app inflight caps; the realm
    /// updates every shard's copy when a directive lands.
    pub(crate) inflight_caps: BTreeMap<u32, u32>,
    /// Admitted-RPC counts per (app, global OST); entries exist only
    /// while the app is capped. Ordered: drain order must be
    /// deterministic.
    pub(crate) adm_active: BTreeMap<(u32, u32), u32>,
    /// RPCs parked at admission, FIFO per (app, global OST).
    pub(crate) adm_waiting: BTreeMap<(u32, u32), VecDeque<Msg>>,
    /// Scratch buffers reused across events (no per-event allocation).
    pub(crate) scratch_ranges: Vec<SectorRange>,
    pub(crate) scratch_members: Vec<Member<OstTag>>,
    /// Monitor samples taken inside the current epoch (epoch loop
    /// only); merged into the trace at the barrier in canonical order.
    pub(crate) sample_buf: Vec<ServerSample>,
    /// Shard-side telemetry, merged across shards at snapshot time.
    pub(crate) reg: Registry,
    pub(crate) m_disk_stalls: MetricId,
    pub(crate) m_parked: MetricId,
    pub(crate) m_resumed: MetricId,
}

impl ShardState {
    /// Build the shard owning OSS nodes `[oss_lo, oss_hi)`.
    pub(crate) fn new(cfg: &ClusterConfig, oss_lo: u32, oss_hi: u32) -> Self {
        let n_oss = (oss_hi - oss_lo) as usize;
        let n_local = n_oss * cfg.osts_per_oss as usize;
        let mut devices = Vec::with_capacity(n_local);
        let mut extents = Vec::with_capacity(n_local);
        let mut caches = Vec::with_capacity(n_local);
        let mut read_cache = Vec::with_capacity(n_local);
        for _ in 0..n_local {
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
        let mut reg = Registry::new();
        let m_disk_stalls = reg.counter(SHARD_DISK_STALLS);
        let m_parked = reg.counter(SHARD_PARKED);
        let m_resumed = reg.counter(SHARD_RESUMED);
        ShardState {
            ost_lo: oss_lo * cfg.osts_per_oss,
            oss_lo,
            devices,
            extents,
            caches,
            read_cache,
            oss_cpu_free: vec![SimTime::ZERO; n_oss],
            oss_cpu_factor: vec![1.0; n_oss],
            chunk_pending: Slab::with_capacity(64),
            inflight_caps: BTreeMap::new(),
            adm_active: BTreeMap::new(),
            adm_waiting: BTreeMap::new(),
            scratch_ranges: Vec::new(),
            scratch_members: Vec::new(),
            sample_buf: Vec::new(),
            reg,
            m_disk_stalls,
            m_parked,
            m_resumed,
        }
    }

    /// Local slot of a global OST id.
    #[inline]
    fn li(&self, dev: u32) -> usize {
        debug_assert!(dev >= self.ost_lo);
        (dev - self.ost_lo) as usize
    }

    /// Node hosting a (this-shard) OST.
    #[inline]
    fn node_of(&self, cfg: &ClusterConfig, dev: DeviceId) -> NodeId {
        NodeId(cfg.client_nodes + dev.0 / cfg.osts_per_oss)
    }

    /// Handle one shard-owned event.
    pub(crate) fn handle(&mut self, now: SimTime, ev: Ev, cfg: &ClusterConfig, fx: &mut Fx) {
        match ev {
            Ev::TbfAdmitted(msg) => self.oss_admit(now, msg, cfg, fx),
            Ev::OssProcess(msg) => self.oss_process(now, msg, cfg, fx),
            Ev::DiskDone { dev } => self.disk_done(now, dev, cfg, fx),
            Ev::DiskIdle { dev } => {
                let li = self.li(dev);
                let d = self.devices[li].idle_check(now);
                self.dispatch(now, dev, d, fx);
            }
            Ev::SendLater {
                src,
                dst,
                payload,
                token,
            } => fx.send(
                now,
                src,
                dst,
                payload,
                SimDuration::ZERO,
                Some(Msg::OpDone { token }),
            ),
            Ev::Sample => {
                let mut buf = std::mem::take(&mut self.sample_buf);
                buf.extend(self.samples(now));
                self.sample_buf = buf;
                fx.schedule(now + cfg.sample_interval, Ev::Sample);
            }
            Ev::FailSlow { dev, factor } => {
                let li = self.li(dev);
                self.devices[li].disk_mut().set_fail_slow(factor);
            }
            Ev::DiskStall { dev, until } => {
                self.reg.inc(self.m_disk_stalls);
                let li = self.li(dev);
                let d = self.devices[li].stall(now, until);
                self.dispatch(now, dev, d, fx);
            }
            Ev::OssFactor { oss, factor } => {
                self.oss_cpu_factor[(oss - self.oss_lo) as usize] = factor;
            }
            Ev::AdmissionRecheck { app } => self.admission_recheck(now, app, cfg, fx),
            _ => unreachable!("realm event routed to a shard"),
        }
    }

    fn dispatch(&mut self, now: SimTime, dev: u32, d: Dispatch, fx: &mut Fx) {
        match d {
            Dispatch::Started(dur) => fx.schedule(now + dur, Ev::DiskDone { dev }),
            Dispatch::Anticipating(at) => fx.schedule(at, Ev::DiskIdle { dev }),
            Dispatch::Idle => {}
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
        let li = self.li(dev.0);
        let d = self.devices[li].submit(now, kind, sector, sectors, foreground, tag);
        self.dispatch(now, dev.0, d, fx);
    }

    /// Mark `obj` resident in `dev`'s page cache if, and only if, the
    /// whole object is small (residency is object-granular, so partially
    /// read large objects must never qualify).
    fn touch_small(&mut self, cfg: &ClusterConfig, dev: DeviceId, obj: ObjKey) {
        let li = self.li(dev.0);
        let bytes = self.extents[li].object_sectors(obj) * SECTOR_SIZE;
        if bytes > 0 && bytes <= cfg.cache.small_object_max {
            self.read_cache[li].touch(obj, bytes);
        }
    }

    /// Admit a data RPC to its OSS (post-TBF): if the issuing app has
    /// an inflight cap and the target OST is at it, park the RPC; else
    /// count it (capped apps only) and start the CPU stage.
    pub(crate) fn oss_admit(&mut self, now: SimTime, msg: Msg, cfg: &ClusterConfig, fx: &mut Fx) {
        if !self.inflight_caps.is_empty() {
            let (dev, app) = match &msg {
                Msg::ReadReq { dev, token, .. } | Msg::WriteReq { dev, token, .. } => {
                    (*dev, token.app)
                }
                _ => unreachable!("only data RPCs reach the OSS"),
            };
            if let Some(&cap) = self.inflight_caps.get(&app.0) {
                let key = (app.0, dev.0);
                let active = self.adm_active.entry(key).or_insert(0);
                if *active >= cap {
                    self.reg.inc(self.m_parked);
                    self.adm_waiting.entry(key).or_default().push_back(msg);
                    return;
                }
                *active += 1;
            }
        }
        self.oss_cpu_start(now, msg, cfg, fx);
    }

    /// Schedule an admitted data RPC onto its OSS node's CPU.
    fn oss_cpu_start(&mut self, now: SimTime, msg: Msg, cfg: &ClusterConfig, fx: &mut Fx) {
        let dev = match &msg {
            Msg::ReadReq { dev, .. } | Msg::WriteReq { dev, .. } => *dev,
            _ => unreachable!("only data RPCs reach the OSS"),
        };
        let oss = (dev.0 / cfg.osts_per_oss - self.oss_lo) as usize;
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
                let li = self.li(dev.0);
                if self.read_cache[li].contains(obj) {
                    let memcpy = SimDuration::from_secs_f64(len as f64 / cfg.cache.absorb_rate);
                    fx.schedule(
                        now + memcpy,
                        Ev::SendLater {
                            src: self.node_of(cfg, dev),
                            dst: client,
                            payload: len,
                            token,
                        },
                    );
                    self.admission_release(now, token.app.0, dev, cfg, fx);
                    return;
                }
                let mut ranges = std::mem::take(&mut self.scratch_ranges);
                ranges.clear();
                self.extents[li].map_into(obj, obj_off, len, &mut ranges);
                let chunk = self.chunk_pending.insert(ChunkPending {
                    remaining: ranges.len() as u32,
                    token,
                    client,
                    dev,
                    reply_bytes: len,
                    touched: Some((obj, obj_off + len)),
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
                let li = self.li(dev.0);
                let pw = PendingWrite {
                    token,
                    client,
                    dev,
                    obj,
                    obj_off,
                    len,
                };
                match self.caches[li].admit(len, pw) {
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
                                src: self.node_of(cfg, dev),
                                dst: client,
                                payload: 0,
                                token,
                            },
                        );
                        self.admission_release(now, token.app.0, dev, cfg, fx);
                    }
                    Admit::Throttled => {} // released by a later flush
                    Admit::Sync => {
                        let mut ranges = std::mem::take(&mut self.scratch_ranges);
                        ranges.clear();
                        self.extents[li].map_into(obj, obj_off, len, &mut ranges);
                        let chunk = self.chunk_pending.insert(ChunkPending {
                            remaining: ranges.len() as u32,
                            token,
                            client,
                            dev,
                            reply_bytes: 0,
                            touched: None,
                        });
                        for r in ranges.drain(..) {
                            self.submit_block(
                                now,
                                dev,
                                ReqKind::Write,
                                r.sector,
                                r.sectors,
                                true,
                                OstTag::SyncChunk { chunk },
                                fx,
                            );
                        }
                        self.scratch_ranges = ranges;
                    }
                }
            }
            _ => unreachable!("only data RPCs reach the OSS"),
        }
    }

    /// Submit background flush requests covering one absorbed write.
    fn start_flush(&mut self, now: SimTime, pw: &PendingWrite, fx: &mut Fx) {
        let li = self.li(pw.dev.0);
        let mut ranges = std::mem::take(&mut self.scratch_ranges);
        ranges.clear();
        self.extents[li].map_into(pw.obj, pw.obj_off, pw.len, &mut ranges);
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
        let li = self.li(dev);
        let mut members = std::mem::take(&mut self.scratch_members);
        let (_meta, next) = self.devices[li].complete_into(now, &mut members);
        self.dispatch(now, dev, next, fx);
        let mut flushed_bytes = 0u64;
        for m in members.drain(..) {
            match m.tag {
                OstTag::ReadChunk { chunk } | OstTag::SyncChunk { chunk } => {
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
                        if let Some((obj, _end)) = p.touched {
                            self.touch_small(cfg, p.dev, obj);
                        }
                        let src = self.node_of(cfg, p.dev);
                        fx.send(
                            now,
                            src,
                            p.client,
                            p.reply_bytes,
                            SimDuration::ZERO,
                            Some(Msg::OpDone { token: p.token }),
                        );
                        self.admission_release(now, p.token.app.0, p.dev, cfg, fx);
                    }
                }
                OstTag::Flush { dirty_bytes } => flushed_bytes += dirty_bytes,
            }
        }
        self.scratch_members = members;
        if flushed_bytes > 0 {
            let released = self.caches[li].flushed(flushed_bytes);
            for r in released {
                let (token, client, d) = (r.tag.token, r.tag.client, r.tag.dev);
                self.start_flush(now, &r.tag, fx);
                fx.schedule(
                    now + r.absorb,
                    Ev::SendLater {
                        src: self.node_of(cfg, d),
                        dst: client,
                        payload: 0,
                        token,
                    },
                );
                self.admission_release(now, token.app.0, d, cfg, fx);
            }
        }
    }

    /// After a cap change for `app`: admit parked RPCs while the new cap
    /// (or its absence) leaves headroom, in ascending OST order then
    /// FIFO — deterministic regardless of park order across OSTs.
    pub(crate) fn admission_recheck(
        &mut self,
        now: SimTime,
        app: u32,
        cfg: &ClusterConfig,
        fx: &mut Fx,
    ) {
        if self.adm_waiting.is_empty() {
            return;
        }
        let cap = self.inflight_caps.get(&app).copied().unwrap_or(u32::MAX);
        let keys: Vec<(u32, u32)> = self
            .adm_waiting
            .range((app, 0)..=(app, u32::MAX))
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            loop {
                let active = self.adm_active.get(&key).copied().unwrap_or(0);
                if active >= cap {
                    break;
                }
                let Some(msg) = self.adm_waiting.get_mut(&key).and_then(|q| q.pop_front()) else {
                    break;
                };
                *self.adm_active.entry(key).or_insert(0) += 1;
                self.reg.inc(self.m_resumed);
                self.oss_cpu_start(now, msg, cfg, fx);
            }
            if self.adm_waiting.get(&key).is_some_and(|q| q.is_empty()) {
                self.adm_waiting.remove(&key);
            }
        }
    }

    /// A capped data RPC finished its OSS/disk journey: free its
    /// admission slot and admit the next parked RPC if the cap allows.
    fn admission_release(
        &mut self,
        now: SimTime,
        app: u32,
        dev: DeviceId,
        cfg: &ClusterConfig,
        fx: &mut Fx,
    ) {
        if self.adm_active.is_empty() {
            return;
        }
        let key = (app, dev.0);
        let Some(active) = self.adm_active.get_mut(&key) else {
            return;
        };
        // An RPC admitted before the cap was (re)installed may release
        // against a fresh counter; saturate instead of underflowing.
        *active = active.saturating_sub(1);
        let cap = self.inflight_caps.get(&app).copied().unwrap_or(u32::MAX);
        if *active >= cap {
            return;
        }
        let Some(msg) = self.adm_waiting.get_mut(&key).and_then(|q| q.pop_front()) else {
            if *self.adm_active.get(&key).expect("entry present") == 0
                && !self.inflight_caps.contains_key(&app)
            {
                self.adm_active.remove(&key);
            }
            return;
        };
        *self.adm_active.get_mut(&key).expect("entry present") += 1;
        self.reg.inc(self.m_resumed);
        if self.adm_waiting.get(&key).is_some_and(|q| q.is_empty()) {
            self.adm_waiting.remove(&key);
        }
        self.oss_cpu_start(now, msg, cfg, fx);
    }

    /// One monitor sample per device of this shard at `now`, in device
    /// order — the only place an OST sample is built.
    pub(crate) fn samples(&self, now: SimTime) -> impl Iterator<Item = ServerSample> + '_ {
        self.devices
            .iter()
            .zip(&self.caches)
            .enumerate()
            .map(move |(li, (dev, cache))| ServerSample {
                time: now,
                dev: DeviceId(self.ost_lo + li as u32),
                counters: dev.counters(now),
                dirty_bytes: cache.dirty(),
                throttled_now: cache.throttled_now() as u64,
            })
    }
}

/// One shard plus its private event queue and deferred-send outbox: the
/// unit the epoch loop hands to a rayon worker for an epoch.
pub(crate) struct ShardCell {
    pub(crate) st: ShardState,
    pub(crate) q: EventQueue<Ev>,
    pub(crate) outbox: Vec<SendIntent>,
}

impl ShardCell {
    pub(crate) fn new(st: ShardState, q: EventQueue<Ev>) -> Self {
        ShardCell {
            st,
            q,
            outbox: Vec::new(),
        }
    }

    /// Run this shard's events through the end of the epoch (inclusive).
    /// All network sends land in the outbox for the barrier to apply.
    pub(crate) fn run_epoch(&mut self, until: SimTime, cfg: &ClusterConfig) {
        while let Some((now, ev)) = self.q.pop_until(until) {
            let mut fx = Fx {
                q: &mut self.q,
                net: NetFx::Deferred(&mut self.outbox),
            };
            self.st.handle(now, ev, cfg, &mut fx);
        }
    }
}
