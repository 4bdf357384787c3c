//! The metadata side of the cluster: the MDS node and its MDT.
//!
//! [`Mds`] owns the namespace (every file's layout), the per-directory
//! locks, the inode cache, the MDS CPU clock, the journal, the MDT block
//! device, the active `MdsLockStorm` windows, and the counters of all
//! of these. `Cluster`
//! hands it metadata requests as they arrive ([`Mds::deliver`]) and the
//! metadata events — `MdsProcess`, `MdsLockRun` and the MDT's device
//! events — through the same [`Fx`] the OSS/OST side runs against.

use std::collections::VecDeque;

use qi_simkit::hash::IdMap;
use qi_simkit::rng::SimRng;
use qi_simkit::stats::OnlineStats;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::cache::LruSet;
use crate::config::{ClusterConfig, StripeConfig, SECTOR_SIZE};
use crate::disk::Disk;
use crate::ids::{DeviceId, DirKey, FileKey, NodeId, OpToken};
use crate::layout::{chunks_into, Chunk, FileLayout};
use crate::ops::ServerSample;
use crate::queue::{BlockDevice, Member, ReqKind};
use crate::servers::{Ev, Fx, MetaOp, Msg};

/// Payload bytes of a metadata request/reply.
pub(crate) const META_MSG_BYTES: u64 = 1024;
/// Sectors per metadata device operation (4 KiB records).
const META_SECTORS: u64 = 8;

/// Per-directory metadata lock with FIFO waiters (each remembers when it
/// enqueued, for lock-wait telemetry).
#[derive(Default)]
struct DirLock {
    busy: bool,
    waiters: VecDeque<(OpToken, NodeId, SimTime)>,
    /// Client that last held the lock; a different client pays a
    /// revocation round-trip before its mutation runs.
    last_client: Option<NodeId>,
}

/// Completion payload attached to MDT block requests.
enum MdtTag {
    /// Journal write completing a namespace mutation.
    Journal {
        token: OpToken,
        client: NodeId,
        dir: DirKey,
    },
    /// Inode read completing a lookup miss.
    Lookup {
        token: OpToken,
        client: NodeId,
        file: FileKey,
    },
}

/// Deterministic 64-bit mix of a file key, used for placement. Placement
/// must depend only on the file's identity — never on creation order —
/// so that a file lands on the same OSTs in a baseline run and an
/// interfered run.
fn file_hash(file: FileKey) -> u64 {
    let mut z = (file.app.0 as u64)
        .wrapping_shl(32)
        .wrapping_add(file.num)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The MDS and its MDT.
pub(crate) struct Mds {
    namespace: IdMap<FileKey, FileLayout>,
    dirs: IdMap<DirKey, DirLock>,
    inode_cache: LruSet<FileKey>,
    cpu_free: SimTime,
    journal_ptr: u64,
    journal_base: u64,
    journal_sectors: u64,
    inode_base: u64,
    inode_sectors: u64,
    /// The MDT device. The journal is synchronous, so no write-back
    /// cache.
    mdt: BlockDevice<MdtTag>,
    /// Draws the modelled lookup-cache hits.
    rng: SimRng,
    /// Active `MdsLockStorm` windows: (from, until, revoke_factor).
    lock_storms: Vec<(SimTime, SimTime, f64)>,
    /// Completed MDT members, reused across completions.
    scratch_members: Vec<Member<MdtTag>>,
    /// Time each mutation waited for its directory lock, in microseconds
    /// (uncontended acquisitions observe 0).
    lock_wait_us: OnlineStats,
    /// Lock acquisitions that paid a revocation round-trip because the
    /// lock last belonged to a different client.
    lock_revocations: u64,
    /// Lookups served from the inode cache (real or modelled hit), and
    /// lookups that had to read the inode from the MDT.
    lookup_cache_hits: u64,
    lookup_cache_misses: u64,
    /// Lock revocations forced by an `MdsLockStorm` window.
    lock_storm_revocations: u64,
}

impl Mds {
    pub(crate) fn new(cfg: &ClusterConfig, rng: SimRng) -> Self {
        let journal_base = 2048;
        let journal_sectors = cfg.mds.journal_region_bytes / SECTOR_SIZE;
        Mds {
            namespace: IdMap::default(),
            dirs: IdMap::default(),
            inode_cache: LruSet::new(cfg.mds.inode_cache_entries),
            cpu_free: SimTime::ZERO,
            journal_ptr: journal_base,
            journal_base,
            journal_sectors,
            inode_base: journal_base + journal_sectors,
            inode_sectors: (cfg.mdt_disk.capacity_sectors - journal_base - journal_sectors) / 2,
            mdt: BlockDevice::new(cfg.queue.clone(), Disk::new(cfg.mdt_disk.clone())),
            rng,
            lock_storms: Vec::new(),
            scratch_members: Vec::new(),
            // The derived default is not the empty accumulator (its
            // min/max start at 0, not ±inf).
            lock_wait_us: OnlineStats::new(),
            lock_revocations: 0,
            lookup_cache_hits: 0,
            lookup_cache_misses: 0,
            lock_storm_revocations: 0,
        }
    }

    /// The MDT's device id: always the last device.
    fn id(cfg: &ClusterConfig) -> DeviceId {
        DeviceId(cfg.n_osts())
    }

    /// Handle one metadata event: a processed request, a lock handed on
    /// after its revocation, or an MDT device event.
    #[inline]
    pub(crate) fn handle(&mut self, now: SimTime, ev: Ev, cfg: &ClusterConfig, fx: &mut Fx) {
        match ev {
            Ev::MdsProcess(msg) => self.process(now, msg, cfg, fx),
            Ev::MdsLockRun { token, client, dir } => {
                self.start_journal_write(now, token, client, dir, cfg, fx)
            }
            Ev::DiskDone { .. } => self.disk_done(now, cfg, fx),
            Ev::DiskIdle { .. } | Ev::FailSlow { .. } | Ev::DiskStall { .. } => {
                fx.device_event(now, &mut self.mdt, ev)
            }
            _ => unreachable!("client or OSS event routed to the MDS"),
        }
    }

    /// A metadata request arrived: queue it on the MDS CPU.
    #[inline]
    pub(crate) fn deliver(&mut self, now: SimTime, msg: Msg, cfg: &ClusterConfig, fx: &mut Fx) {
        let cost = match msg {
            Msg::MetaReq {
                op: MetaOp::Mutate { .. },
                ..
            } => cfg.mds.cpu_per_mutation,
            _ => cfg.mds.cpu_per_op,
        };
        let start = now.max(self.cpu_free);
        let done = start + cost;
        self.cpu_free = done;
        fx.schedule(done, Ev::MdsProcess(msg));
    }

    /// The chunks of `file`'s byte range `[offset, offset + len)`, into
    /// `out`. A data op on a file never created in this run registers
    /// it first with the default stripe (the file "already existed").
    pub(crate) fn chunks_into(
        &mut self,
        cfg: &ClusterConfig,
        file: FileKey,
        offset: u64,
        len: u64,
        out: &mut Vec<Chunk>,
    ) {
        match self.namespace.get(&file) {
            Some(layout) => chunks_into(layout, offset, len, out),
            None => {
                let layout = self.make_layout(cfg, file, None);
                chunks_into(&layout, offset, len, out);
                self.namespace.insert(file, layout);
            }
        }
    }

    /// Register a pre-existing file. It was created by an earlier phase
    /// of the same workload sequence (e.g. mdtest-hard-write before
    /// -read), so its inode is warm in the cache.
    pub(crate) fn install(&mut self, file: FileKey, layout: FileLayout) {
        self.inode_cache.insert(file);
        self.namespace.insert(file, layout);
    }

    /// Place a new file: `stripe_count` OSTs (the configured default
    /// when `stripe` is `None`), consecutive from a hash of the file.
    pub(crate) fn make_layout(
        &self,
        cfg: &ClusterConfig,
        file: FileKey,
        stripe: Option<StripeConfig>,
    ) -> FileLayout {
        let s = stripe.unwrap_or(cfg.stripe);
        let n_osts = cfg.n_osts();
        let count = s.stripe_count.clamp(1, n_osts);
        let start = (file_hash(file) % n_osts as u64) as u32;
        FileLayout {
            stripe_size: s.stripe_size,
            osts: (0..count).map(|i| DeviceId((start + i) % n_osts)).collect(),
        }
    }

    /// Open an `MdsLockStorm` window.
    pub(crate) fn add_lock_storm(&mut self, from: SimTime, until: SimTime, revoke_factor: f64) {
        self.lock_storms.push((from, until, revoke_factor));
    }

    /// Answer `client`'s request `token` from the MDS node.
    fn send(&self, now: SimTime, client: NodeId, token: OpToken, cfg: &ClusterConfig, fx: &mut Fx) {
        let src = cfg.node_of(Self::id(cfg));
        let msg = Some(Msg::OpDone { token });
        fx.send(now, src, client, META_MSG_BYTES, SimDuration::ZERO, msg);
    }

    /// Submit a metadata block request on the MDT and realise its
    /// dispatch outcome.
    fn submit(
        &mut self,
        now: SimTime,
        kind: ReqKind,
        sector: u64,
        tag: MdtTag,
        cfg: &ClusterConfig,
        fx: &mut Fx,
    ) {
        let d = self.mdt.submit(now, kind, sector, META_SECTORS, true, tag);
        fx.dispatch(now, Self::id(cfg).0, d);
    }

    fn journal_alloc(&mut self, cfg: &ClusterConfig) -> u64 {
        let s = self.journal_ptr;
        self.journal_ptr += cfg.mds.journal_record_bytes / SECTOR_SIZE;
        if self.journal_ptr >= self.journal_base + self.journal_sectors {
            self.journal_ptr = self.journal_base;
        }
        s
    }

    fn inode_sector(&self, file: FileKey) -> u64 {
        // Spread inode reads over the inode region, 4 KiB aligned.
        let h = (file.app.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(file.num.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let slots = (self.inode_sectors / META_SECTORS).max(1);
        self.inode_base + (h % slots) * META_SECTORS
    }

    /// Begin a mutation that now holds `dir`'s lock, whose previous
    /// holder was `prev`: pay the lock revocation round-trip first when
    /// that was a different client, then journal the change.
    #[allow(clippy::too_many_arguments)]
    fn run_under_dir_lock(
        &mut self,
        now: SimTime,
        token: OpToken,
        client: NodeId,
        dir: DirKey,
        prev: Option<NodeId>,
        cfg: &ClusterConfig,
        fx: &mut Fx,
    ) {
        // `MdsLockStorm`: inside a storm window every acquisition pays a
        // (possibly lengthened) revocation, as if lock ownership were
        // thrashing across the whole client population.
        let storm = self
            .lock_storms
            .iter()
            .find(|&&(from, until, _)| now >= from && now < until)
            .map(|&(_, _, f)| f);
        if prev != Some(client) || storm.is_some() {
            self.lock_revocations += 1;
            let revoke = match storm {
                Some(f) => {
                    self.lock_storm_revocations += 1;
                    if f != 1.0 {
                        SimDuration::from_secs_f64(cfg.mds.lock_revoke.as_secs_f64() * f)
                    } else {
                        cfg.mds.lock_revoke
                    }
                }
                None => cfg.mds.lock_revoke,
            };
            fx.schedule(now + revoke, Ev::MdsLockRun { token, client, dir });
        } else {
            self.start_journal_write(now, token, client, dir, cfg, fx);
        }
    }

    fn start_journal_write(
        &mut self,
        now: SimTime,
        token: OpToken,
        client: NodeId,
        dir: DirKey,
        cfg: &ClusterConfig,
        fx: &mut Fx,
    ) {
        let sector = self.journal_alloc(cfg);
        let tag = MdtTag::Journal { token, client, dir };
        self.submit(now, ReqKind::Write, sector, tag, cfg, fx);
    }

    /// The MDS CPU finished a request: answer it, read the inode, or
    /// take the directory lock.
    fn process(&mut self, now: SimTime, msg: Msg, cfg: &ClusterConfig, fx: &mut Fx) {
        let Msg::MetaReq { op, token, client } = msg else {
            unreachable!("only metadata RPCs reach the MDS");
        };
        match op {
            MetaOp::Lookup { file } => {
                let hit =
                    self.inode_cache.contains(file) || self.rng.chance(cfg.mds.lookup_cache_hit);
                if hit {
                    self.lookup_cache_hits += 1;
                    self.send(now, client, token, cfg, fx);
                } else {
                    self.lookup_cache_misses += 1;
                    let sector = self.inode_sector(file);
                    let tag = MdtTag::Lookup {
                        token,
                        client,
                        file,
                    };
                    self.submit(now, ReqKind::Read, sector, tag, cfg, fx);
                }
            }
            MetaOp::Close => self.send(now, client, token, cfg, fx),
            MetaOp::Mutate { create, dir } => {
                if let Some((file, stripe)) = create {
                    let layout = self.make_layout(cfg, file, stripe);
                    self.namespace.insert(file, layout);
                    // The creator's MDS holds the fresh inode.
                    self.inode_cache.insert(file);
                }
                let lock = self.dirs.entry(dir).or_default();
                if lock.busy {
                    lock.waiters.push_back((token, client, now));
                } else {
                    lock.busy = true;
                    let prev = lock.last_client.replace(client);
                    self.lock_wait_us.push(0.0);
                    self.run_under_dir_lock(now, token, client, dir, prev, cfg, fx);
                }
            }
        }
    }

    /// An MDT block request completed: answer its clients, and hand each
    /// journalled directory's lock to its next waiter.
    fn disk_done(&mut self, now: SimTime, cfg: &ClusterConfig, fx: &mut Fx) {
        let mut members = std::mem::take(&mut self.scratch_members);
        let (_meta, next) = self.mdt.complete_into(now, &mut members);
        fx.dispatch(now, Self::id(cfg).0, next);
        for m in members.drain(..) {
            match m.tag {
                MdtTag::Journal { token, client, dir } => {
                    self.send(now, client, token, cfg, fx);
                    // A journal write runs under its directory's lock,
                    // and a lock entry is never removed once created.
                    let lock = self.dirs.get_mut(&dir).expect("locked dir");
                    let Some((t, c, since)) = lock.waiters.pop_front() else {
                        lock.busy = false;
                        continue;
                    };
                    let prev = lock.last_client.replace(c);
                    self.lock_wait_us
                        .push(now.saturating_since(since).as_secs_f64() * 1e6);
                    self.run_under_dir_lock(now, t, c, dir, prev, cfg, fx);
                }
                MdtTag::Lookup {
                    token,
                    client,
                    file,
                } => {
                    self.inode_cache.insert(file);
                    self.send(now, client, token, cfg, fx);
                }
            }
        }
        self.scratch_members = members;
    }

    /// The MDT's monitor sample at `now`.
    pub(crate) fn sample(&self, now: SimTime, cfg: &ClusterConfig) -> ServerSample {
        ServerSample {
            time: now,
            dev: Self::id(cfg),
            counters: self.mdt.counters(now),
            dirty_bytes: 0,
            throttled_now: 0,
        }
    }

    /// Put the MDT's block-layer block (`pfs.mdt.*`), the MDS statistics
    /// (`pfs.mds.*`) and the lock-storm count into `snap`.
    pub(crate) fn metrics_into(&self, snap: &mut MetricsSnapshot, now: SimTime) {
        self.mdt.metrics_into(snap, "pfs.mdt", now);
        snap.put(
            "pfs.mds.lock_wait_us",
            MetricValue::Stats(self.lock_wait_us.clone()),
        );
        for (field, v) in [
            ("lock_revocations", self.lock_revocations),
            ("lookup_cache_hits", self.lookup_cache_hits),
            ("lookup_cache_misses", self.lookup_cache_misses),
        ] {
            snap.put(&format!("pfs.mds.{field}"), MetricValue::Counter(v));
        }
        snap.put(
            "pfs.faults.lock_storm_revocations",
            MetricValue::Counter(self.lock_storm_revocations),
        );
    }
}
