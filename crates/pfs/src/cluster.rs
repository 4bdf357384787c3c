//! The cluster simulator: clients, network, OSS/OST, MDS/MDT, all driven
//! by one deterministic event loop.
//!
//! Data-path flow (write): rank issues op → per-stripe chunk RPCs travel
//! the network (NIC contention) → OSS CPU → write-back cache (absorb or
//! throttle) → background flush requests on the OST queue (merging,
//! read-priority dispatch) → rotational disk. Reads are synchronous
//! foreground requests; replies carry the payload back through the
//! network. Metadata ops go to the MDS: CPU, lookup cache, per-directory
//! locks, and journal writes on the MDT device.
//!
//! The OSS/OST side lives in [`crate::servers`]; clients, the MDS/MDT,
//! retries and control live here.

use std::collections::VecDeque;

use qi_faults::{FaultEvent, FaultPlan, RetryPolicy};
use qi_simkit::error::QiError;
use qi_simkit::event::EventQueue;
use qi_simkit::hash::IdMap;
use qi_simkit::ratelimit::TokenBucket;
use qi_simkit::rng::SimRng;
use qi_simkit::stats::OnlineStats;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::arena::{Slab, SlabKey};
use crate::cache::LruSet;
use crate::config::{ClusterConfig, StripeConfig, SECTOR_SIZE};
use crate::control::{ClusterController, ControlDirective, DirectiveRecord};
use crate::disk::Disk;
use crate::ids::{AppId, DeviceId, DirKey, FileKey, NodeId, OpToken};
use crate::layout::{chunks, chunks_into, Chunk, FileLayout, ObjKey};
use crate::net::{LinkFate, LinkFault, LinkFaultKind, Network};
use crate::ops::{
    IoOp, OpKind, OpRecord, ProgramStep, RankProgram, RpcRecord, RunTrace, ServerSample,
};
use crate::queue::{BlockDevice, Dispatch, Member, ReqKind};
use crate::servers::{Ev, Fx, MetaOp, Msg, Servers};
use crate::store::SampleStore;

/// Client-side per-op syscall/dispatch overhead.
const CLIENT_OP_OVERHEAD: SimDuration = SimDuration::from_micros(5);
/// Payload bytes of a metadata request/reply.
const META_MSG_BYTES: u64 = 1024;
/// Sectors per metadata device operation (4 KiB records).
const META_SECTORS: u64 = 8;

/// A dropped client request awaiting retry, keyed by a
/// generation-versioned slab key: stale timeout/resend events for a
/// recycled slot miss on lookup instead of acting on the wrong request.
struct RetryState {
    msg: Msg,
    src: NodeId,
    dst: NodeId,
    payload: u64,
    token: OpToken,
    /// Resends performed so far.
    attempt: u32,
}

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

/// Scalar telemetry the cluster accumulates outside the per-device
/// counters; folded into [`RunTrace::metrics`] when a run ends. All
/// values derive from simulated time and deterministic state only.
#[derive(Default)]
struct ClusterTelemetry {
    /// Time each mutation waited for its directory lock, in microseconds
    /// (uncontended acquisitions observe 0).
    lock_wait_us: OnlineStats,
    /// Lock acquisitions that paid a revocation round-trip because the
    /// lock last belonged to a different client.
    lock_revocations: u64,
    /// Lookups served from the inode cache (real or modelled hit).
    lookup_cache_hits: u64,
    /// Lookups that had to read the inode from the MDT.
    lookup_cache_misses: u64,
    /// Server-side monitor sampling ticks taken.
    samples_taken: u64,
    /// Client requests lost in transit (injected `RpcDrop` faults).
    rpc_dropped: u64,
    /// Client requests delivered late (injected `RpcDelay` faults).
    rpc_delayed: u64,
    /// Client-side reply waits that expired.
    rpc_timeouts: u64,
    /// Requests resent after a timeout.
    rpc_retries: u64,
    /// Operations abandoned because the retry budget ran out.
    rpc_failed_ops: u64,
    /// Operations abandoned because their per-op deadline passed.
    rpc_deadline_exceeded: u64,
    /// Injected `DiskStall` events that fired.
    disk_stalls: u64,
    /// Lock revocations forced by an `MdsLockStorm` window.
    lock_storm_revocations: u64,
    /// Control directives applied successfully.
    control_applied: u64,
    /// Control directives rejected as invalid (bad app, bad rate, all
    /// OSTs avoided).
    control_rejected: u64,
    /// Rate-limit installs / clears applied.
    control_rate_limits: u64,
    control_rate_clears: u64,
    /// Admission-cap installs / clears applied.
    control_caps: u64,
    control_cap_clears: u64,
    /// Avoid-OSTs installs / clears applied.
    control_retargets: u64,
    control_retarget_clears: u64,
    /// New file layouts that were steered around avoided OSTs.
    control_retarget_layouts: u64,
}

/// Put one device's block-layer counters and distributions into the
/// snapshot under the prefix `p` (`pfs.ost{i}` or `pfs.mdt`).
fn put_dev<T>(snap: &mut MetricsSnapshot, p: &str, dev: &BlockDevice<T>, now: SimTime) {
    let c = dev.counters(now);
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
    snap.put(
        &format!("{p}.queue_depth"),
        MetricValue::Stats(dev.depth_stats().clone()),
    );
    snap.put(
        &format!("{p}.seek_sectors"),
        MetricValue::Stats(dev.seek_stats().clone()),
    );
    snap.put(
        &format!("{p}.service_us"),
        MetricValue::Histogram(dev.service_time_hist().clone()),
    );
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

/// Metadata server state.
struct MdsState {
    namespace: IdMap<FileKey, FileLayout>,
    dirs: IdMap<DirKey, DirLock>,
    inode_cache: LruSet<FileKey>,
    cpu_free: SimTime,
    journal_ptr: u64,
    journal_base: u64,
    journal_sectors: u64,
    inode_base: u64,
    inode_sectors: u64,
}

/// Per-rank execution state.
struct RankState {
    seq: u64,
    outstanding: u32,
    cur: Option<(OpToken, OpKind, u64, SimTime)>,
    done: bool,
    /// Set when any chunk of the current op was abandoned by the retry
    /// layer; the op is recorded as failed once every chunk resolves.
    failed: bool,
}

/// One application instance.
struct AppState {
    name: String,
    programs: Vec<Option<Box<dyn RankProgram>>>,
    nodes: Vec<NodeId>,
    ranks: Vec<RankState>,
    ranks_left: u32,
}

/// The whole simulated cluster. Build it, add applications, then [`run`].
///
/// [`run`]: Cluster::run
pub struct Cluster {
    cfg: ClusterConfig,
    /// The one event queue.
    events: EventQueue<Ev>,
    net: Network,
    /// Every OSS node and its OSTs.
    servers: Servers,
    /// The MDT device. The journal is synchronous, so no write-back
    /// cache.
    mdt_dev: BlockDevice<MdtTag>,
    dev_node: Vec<NodeId>,
    mds: MdsState,
    apps: Vec<AppState>,
    /// Per-application server-side token-bucket filters (bytes/s), the
    /// classful TBF NRS policy of Qian et al. — data RPCs of a limited
    /// app are admitted to the OSS only as tokens accrue. The buckets
    /// are consulted at delivery time, before the OSS CPU stage.
    tbf: IdMap<AppId, TokenBucket>,
    trace: RunTrace,
    rng: SimRng,
    tele: ClusterTelemetry,
    /// The validated fault schedule; realised as events when a run starts.
    fault_plan: FaultPlan,
    /// Client retry/timeout/backoff policy for lost requests.
    retry: RetryPolicy,
    /// Dedicated RNG substream for fault decisions (drop rolls, backoff
    /// jitter). Healthy runs never draw from it, so adding a fault plan
    /// cannot perturb the main RNG's value stream.
    fault_rng: SimRng,
    /// Active `MdsLockStorm` windows: (from, until, revoke_factor).
    lock_storms: Vec<(SimTime, SimTime, f64)>,
    /// Dropped requests awaiting timeout/retry, keyed by slab key; the
    /// key's generation makes stale `RpcTimeout`/`RpcResend` events for a
    /// recycled slot harmless (they miss on lookup).
    retry_states: Slab<RetryState>,
    /// Scratch buffers reused across events so the hot path performs no
    /// per-event heap allocation. Each user `std::mem::take`s the buffer,
    /// clears it, fills and drains it, then puts it back.
    scratch_chunks: Vec<Chunk>,
    scratch_members: Vec<Member<MdtTag>>,
    /// The installed mitigation controller, ticked once per control
    /// interval; `None` on uncontrolled runs (the common case — every
    /// control-path check below is a cheap is-empty/is-none test).
    controller: Option<Box<dyn ClusterController>>,
    /// Controller tick interval, sampled at install time.
    control_interval: SimDuration,
    /// Index of the next window the controller will close.
    control_window: u64,
    /// True once a controller was installed or a directive applied;
    /// gates the `pfs.control.*` snapshot block so uncontrolled runs
    /// keep their historical (golden) key set.
    control_used: bool,
    /// Per-OST avoidance flags for new layouts; empty means no steering.
    avoid_osts: Vec<bool>,
    /// Scratch directive buffer for control ticks.
    scratch_directives: Vec<ControlDirective>,
}

/// Deterministic 64-bit mix of a file key, used for placement and inode
/// slots. Placement must depend only on the file's identity — never on
/// creation order — so that a file lands on the same OSTs in a baseline
/// run and an interfered run.
fn file_hash(file: FileKey) -> u64 {
    let mut z = (file.app.0 as u64)
        .wrapping_shl(32)
        .wrapping_add(file.num)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fluent constructor for [`Cluster`], and the only supported way to
/// build one: validates the configuration and the fault plan up front
/// and returns `Result` instead of panicking mid-run.
///
/// ```
/// use qi_pfs::prelude::*;
///
/// let cluster = Cluster::builder()
///     .config(ClusterConfig::small())
///     .seed(42)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cluster.config().n_osts(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    seed: u64,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
}

impl ClusterBuilder {
    /// Start from the default (paper-testbed) configuration, seed 0, no
    /// faults, and the default retry policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use this cluster configuration.
    pub fn config(mut self, cfg: ClusterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Seed for all internal randomness (MDS cache hits, fault rolls,
    /// retry jitter).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install a fault plan; validated against the configuration at
    /// [`ClusterBuilder::build`] time.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Override the client retry/timeout/backoff policy.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Validate and construct the cluster.
    pub fn build(self) -> Result<Cluster, QiError> {
        let cfg = &self.cfg;
        if cfg.client_nodes == 0 {
            return Err(QiError::Config(
                "cluster needs at least one client node".into(),
            ));
        }
        if cfg.oss_nodes == 0 || cfg.osts_per_oss == 0 {
            return Err(QiError::Config(
                "cluster needs at least one OSS with at least one OST".into(),
            ));
        }
        if cfg.net.bandwidth <= 0.0 || cfg.net.bandwidth.is_nan() {
            return Err(QiError::Config(format!(
                "network bandwidth must be positive, got {}",
                cfg.net.bandwidth
            )));
        }
        if cfg.sample_interval == SimDuration::ZERO {
            return Err(QiError::Config("sample_interval must be non-zero".into()));
        }
        self.fault_plan.validate(
            cfg.n_devices() as usize,
            cfg.n_nodes() as usize,
            cfg.oss_nodes as usize,
        )?;
        Ok(Cluster::construct(
            self.cfg,
            self.seed,
            self.fault_plan,
            self.retry,
        ))
    }
}

impl Cluster {
    /// Start building a cluster. See [`ClusterBuilder`].
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    fn construct(cfg: ClusterConfig, seed: u64, fault_plan: FaultPlan, retry: RetryPolicy) -> Self {
        let n_osts = cfg.n_osts() as usize;
        let mut dev_node = Vec::with_capacity(n_osts + 1);
        for i in 0..n_osts {
            let oss = i as u32 / cfg.osts_per_oss;
            dev_node.push(NodeId(cfg.client_nodes + oss));
        }
        let mds_node = NodeId(cfg.client_nodes + cfg.oss_nodes);
        dev_node.push(mds_node);

        // In-flight events scale with concurrently outstanding chunk
        // RPCs: a few per rank per striped OST plus device completions.
        // Pre-sizing kills backend regrowth in long runs; 64 slots per
        // node is comfortably above the steady-state high-water mark at
        // every config we run.
        let queue_slots = cfg.n_nodes() as usize * 64;
        let mdt_dev = BlockDevice::new(cfg.queue.clone(), Disk::new(cfg.mdt_disk.clone()));

        let journal_base = 2048;
        let journal_sectors = cfg.mds.journal_region_bytes / SECTOR_SIZE;
        let mds = MdsState {
            namespace: IdMap::default(),
            dirs: IdMap::default(),
            inode_cache: LruSet::new(cfg.mds.inode_cache_entries),
            cpu_free: SimTime::ZERO,
            journal_ptr: journal_base,
            journal_base,
            journal_sectors,
            inode_base: journal_base + journal_sectors,
            inode_sectors: (cfg.mdt_disk.capacity_sectors - journal_base - journal_sectors) / 2,
        };
        let rng = SimRng::new(seed).substream(0xC10D);
        let fault_rng = SimRng::new(seed).substream(0xFA17);
        Cluster {
            net: Network::new(cfg.net.clone(), cfg.n_nodes()),
            events: EventQueue::with_capacity_and_backend(queue_slots, cfg.event_queue),
            servers: Servers::new(&cfg),
            mdt_dev,
            dev_node,
            mds,
            apps: Vec::new(),
            tbf: IdMap::default(),
            trace: RunTrace {
                samples: SampleStore::with_config(cfg.trace_store),
                ..RunTrace::default()
            },
            rng,
            tele: ClusterTelemetry {
                // The derived default is not the empty accumulator (its
                // min/max start at 0, not ±inf).
                lock_wait_us: OnlineStats::new(),
                ..ClusterTelemetry::default()
            },
            fault_plan,
            retry,
            fault_rng,
            lock_storms: Vec::new(),
            retry_states: Slab::new(),
            scratch_chunks: Vec::new(),
            scratch_members: Vec::new(),
            controller: None,
            control_interval: SimDuration::ZERO,
            control_window: 0,
            control_used: false,
            avoid_osts: Vec::new(),
            scratch_directives: Vec::new(),
            cfg,
        }
    }

    /// The effect context for client and MDS code: the event queue and the
    /// network.
    fn fx(&mut self) -> Fx<'_> {
        Fx {
            q: &mut self.events,
            net: &mut self.net,
        }
    }

    /// Run one OSS/OST event.
    fn server_event(&mut self, now: SimTime, ev: Ev) {
        let mut fx = Fx {
            q: &mut self.events,
            net: &mut self.net,
        };
        self.servers.handle(now, ev, &self.cfg, &mut fx);
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The client node IDs, `0..client_nodes`.
    pub fn client_nodes(&self) -> Vec<NodeId> {
        (0..self.cfg.client_nodes).map(NodeId).collect()
    }

    /// The device ID of OST `i`.
    pub fn ost(&self, i: u32) -> DeviceId {
        assert!(i < self.cfg.n_osts());
        DeviceId(i)
    }

    /// The device ID of the MDT (always the last device).
    pub fn mdt(&self) -> DeviceId {
        DeviceId(self.cfg.n_osts())
    }

    /// Register an application: one program per rank, placed round-robin
    /// over `nodes` (which must be client nodes). Returns its [`AppId`].
    pub fn add_app(
        &mut self,
        name: &str,
        programs: Vec<Box<dyn RankProgram>>,
        nodes: &[NodeId],
    ) -> AppId {
        assert!(!programs.is_empty(), "app with zero ranks");
        assert!(!nodes.is_empty(), "app with no nodes");
        for n in nodes {
            assert!(n.0 < self.cfg.client_nodes, "app placed on a server node");
        }
        let id = AppId(self.apps.len() as u32);
        let nranks = programs.len();
        let rank_nodes: Vec<NodeId> = (0..nranks).map(|r| nodes[r % nodes.len()]).collect();
        self.apps.push(AppState {
            name: name.to_string(),
            programs: programs.into_iter().map(Some).collect(),
            nodes: rank_nodes,
            ranks: (0..nranks)
                .map(|_| RankState {
                    seq: 0,
                    outstanding: 0,
                    cur: None,
                    done: false,
                    failed: false,
                })
                .collect(),
            ranks_left: nranks as u32,
        });
        self.trace.app_completion.push(None);
        id
    }

    /// Name of an application.
    pub fn app_name(&self, app: AppId) -> &str {
        &self.apps[app.0 as usize].name
    }

    /// The [`AppId`] the *next* [`Cluster::add_app`] call will return.
    /// Workload builders use this to key their file namespaces.
    pub fn next_app_id(&self) -> AppId {
        AppId(self.apps.len() as u32)
    }

    /// Install a server-side token-bucket filter for `app`'s data RPCs:
    /// at most `bytes_per_sec` of payload is admitted to the object
    /// servers (burst of one second's worth), queuing the excess — the
    /// classful TBF policy of Qian et al. (the paper's reference [13]).
    pub fn set_app_rate_limit(&mut self, app: AppId, bytes_per_sec: f64) {
        assert!(bytes_per_sec > 0.0);
        self.tbf
            .insert(app, TokenBucket::new(bytes_per_sec, bytes_per_sec));
    }

    /// Install a mitigation controller: from the run's start it is
    /// ticked once per [`ClusterController::interval`], 1 ns after each
    /// window boundary (strictly after every event of the closed
    /// window), and its directives are applied through
    /// [`Cluster::apply_directive`]. At most one controller per run.
    pub fn install_controller(&mut self, controller: Box<dyn ClusterController>) {
        let interval = controller.interval();
        assert!(interval > SimDuration::ZERO, "zero control interval");
        assert!(self.controller.is_none(), "controller already installed");
        self.control_interval = interval;
        self.controller = Some(controller);
        self.control_used = true;
    }

    /// Apply one typed control directive, the single entry point every
    /// actuator hangs off. Returns `Err(QiError::Control)` and changes
    /// nothing when the directive is invalid (unknown app, non-finite
    /// or non-positive rate, zero cap, every OST avoided); successful
    /// applications are recorded in [`RunTrace::directives`].
    pub fn apply_directive(
        &mut self,
        at: SimTime,
        window: u64,
        directive: ControlDirective,
    ) -> Result<(), QiError> {
        self.control_used = true;
        if let Some(app) = directive.app() {
            if app.0 as usize >= self.apps.len() {
                return Err(QiError::Control(format!(
                    "directive targets unknown app {}",
                    app.0
                )));
            }
        }
        match &directive {
            ControlDirective::RateLimit { app, bytes_per_sec } => {
                if !bytes_per_sec.is_finite() || *bytes_per_sec <= 0.0 {
                    return Err(QiError::Control(format!(
                        "rate limit must be finite and positive, got {bytes_per_sec}"
                    )));
                }
                self.tbf
                    .insert(*app, TokenBucket::new(*bytes_per_sec, *bytes_per_sec));
                self.tele.control_rate_limits += 1;
            }
            ControlDirective::ClearRateLimit { app } => {
                self.tbf.remove(app);
                self.tele.control_rate_clears += 1;
            }
            ControlDirective::CapInflight { app, max_inflight } => {
                if *max_inflight == 0 {
                    return Err(QiError::Control("inflight cap must be >= 1".into()));
                }
                self.servers.inflight_caps.insert(app.0, *max_inflight);
                self.tele.control_caps += 1;
                self.cap_changed(at, app.0);
            }
            ControlDirective::ClearCapInflight { app } => {
                self.servers.inflight_caps.remove(&app.0);
                self.tele.control_cap_clears += 1;
                self.cap_changed(at, app.0);
            }
            ControlDirective::AvoidOsts { osts } => {
                let n_osts = self.cfg.n_osts();
                let mut avoided = vec![false; n_osts as usize];
                for d in osts {
                    if d.0 >= n_osts {
                        return Err(QiError::Control(format!(
                            "cannot avoid non-OST device {}",
                            d.0
                        )));
                    }
                    avoided[d.0 as usize] = true;
                }
                if avoided.iter().all(|&b| b) {
                    return Err(QiError::Control(
                        "cannot avoid every OST: layouts need a target".into(),
                    ));
                }
                self.avoid_osts = avoided;
                self.tele.control_retargets += 1;
            }
            ControlDirective::ClearAvoidOsts => {
                self.avoid_osts.clear();
                self.tele.control_retarget_clears += 1;
            }
        }
        self.tele.control_applied += 1;
        self.trace.directives.push(DirectiveRecord {
            at,
            window,
            directive,
        });
        Ok(())
    }

    /// One controller tick: close window `control_window`, apply the
    /// controller's directives, reschedule the next tick.
    fn control_tick(&mut self, now: SimTime) {
        let Some(mut ctl) = self.controller.take() else {
            return;
        };
        let window = self.control_window;
        self.control_window += 1;
        let mut out = std::mem::take(&mut self.scratch_directives);
        out.clear();
        ctl.on_window(now, window, &self.trace, &mut out);
        for d in out.drain(..) {
            if self.apply_directive(now, window, d).is_err() {
                self.tele.control_rejected += 1;
            }
        }
        self.scratch_directives = out;
        self.controller = Some(ctl);
        self.events
            .schedule(now + self.control_interval, Ev::Control);
    }

    /// A cap directive for `app` landed: re-admit parked RPCs under the
    /// new cap.
    fn cap_changed(&mut self, at: SimTime, app: u32) {
        let mut fx = Fx {
            q: &mut self.events,
            net: &mut self.net,
        };
        self.servers.admission_recheck(at, app, &self.cfg, &mut fx);
    }

    /// Schedule a fail-slow injection: from `at` onward, `dev` services
    /// every request `factor`× slower (1.0 restores health). Models the
    /// gray-failure drives of Lu et al.'s Perseus.
    pub fn inject_fail_slow(&mut self, dev: DeviceId, at: SimTime, factor: f64) {
        assert!(dev.0 < self.cfg.n_devices(), "no such device");
        assert!(factor >= 1.0);
        self.events
            .schedule(at, Ev::FailSlow { dev: dev.0, factor });
    }

    /// Pre-populate a file (namespace entry + contiguous extents) without
    /// simulating any I/O — the equivalent of a dataset that existed
    /// before the measured run. OSTs are assigned round-robin.
    pub fn precreate_file(&mut self, file: FileKey, len: u64, stripe: Option<StripeConfig>) {
        let layout = self.make_layout(file, stripe);
        self.install_file(file, len, layout);
    }

    /// Like [`Cluster::precreate_file`] but with an explicit OST list
    /// (one per stripe), for workloads that need controlled placement.
    pub fn precreate_file_on(
        &mut self,
        file: FileKey,
        len: u64,
        stripe_size: u64,
        osts: Vec<DeviceId>,
    ) {
        assert!(!osts.is_empty());
        for d in &osts {
            assert!(d.0 < self.cfg.n_osts(), "placement on a non-OST device");
        }
        let layout = FileLayout { stripe_size, osts };
        self.install_file(file, len, layout);
    }

    fn install_file(&mut self, file: FileKey, len: u64, layout: FileLayout) {
        // Pre-existing files were created by an earlier phase of the same
        // workload sequence (e.g. mdtest-hard-write before -read), so
        // their inodes are warm in the MDS cache.
        self.mds.inode_cache.insert(file);
        if len > 0 {
            let small = len <= self.cfg.cache.small_object_max;
            for c in chunks(&layout, 0, len) {
                let key = ObjKey {
                    file,
                    stripe: c.stripe,
                };
                let i = c.dev.index();
                self.servers.extents[i].map(key, c.obj_offset, c.len);
                if small {
                    // Small pre-existing files sit in the server page
                    // cache (e.g. mdtest-hard bodies written moments
                    // before the read phase).
                    self.servers.read_cache[i].touch(key, c.obj_offset + c.len);
                }
            }
        }
        self.mds.namespace.insert(file, layout);
    }

    fn make_layout(&mut self, file: FileKey, stripe: Option<StripeConfig>) -> FileLayout {
        let s = stripe.unwrap_or(self.cfg.stripe);
        let n_osts = self.cfg.n_osts();
        // Stripe re-targeting: with an avoidance set installed, place
        // over the allowed OSTs only (same hash-round-robin rule on the
        // reduced list). The empty set takes the historical formula
        // verbatim, keeping uncontrolled runs byte-identical.
        if self.avoid_osts.iter().any(|&b| b) {
            let allowed: Vec<u32> = (0..n_osts)
                .filter(|&i| !self.avoid_osts[i as usize])
                .collect();
            let count = s.stripe_count.clamp(1, allowed.len() as u32) as usize;
            let start = (file_hash(file) % allowed.len() as u64) as usize;
            self.tele.control_retarget_layouts += 1;
            return FileLayout {
                stripe_size: s.stripe_size,
                osts: (0..count)
                    .map(|i| DeviceId(allowed[(start + i) % allowed.len()]))
                    .collect(),
            };
        }
        let count = s.stripe_count.clamp(1, n_osts);
        let start = (file_hash(file) % n_osts as u64) as u32;
        FileLayout {
            stripe_size: s.stripe_size,
            osts: (0..count).map(|i| DeviceId((start + i) % n_osts)).collect(),
        }
    }

    fn send(&mut self, now: SimTime, src: NodeId, dst: NodeId, payload: u64, msg: Msg) {
        self.fx()
            .send(now, src, dst, payload, SimDuration::ZERO, Some(msg));
    }

    /// Roll the link fate of one client request and put it on the wire.
    /// A dropped request comes back to the caller: it occupied both NICs
    /// (lost in transit) but never reaches the server.
    fn transmit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload: u64,
        msg: Msg,
    ) -> Option<Msg> {
        match self.net.fate(now, src, dst, &mut self.fault_rng) {
            LinkFate::Deliver(extra) => {
                if extra > SimDuration::ZERO {
                    self.tele.rpc_delayed += 1;
                }
                self.fx().send(now, src, dst, payload, extra, Some(msg));
                None
            }
            LinkFate::Dropped => {
                self.tele.rpc_dropped += 1;
                self.fx()
                    .send(now, src, dst, payload, SimDuration::ZERO, None);
                Some(msg)
            }
        }
    }

    /// Send a client request, subject to the active link-fault rules.
    ///
    /// The drop fate of a round trip is decided here, at request-send
    /// time: a dropped request never reaches the server, and the client
    /// recovers via its [`RetryPolicy`]. Server→client replies always
    /// deliver — a deliberate simplification that keeps at-most-once
    /// server execution without duplicate-request bookkeeping.
    fn send_request(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        payload: u64,
        msg: Msg,
        token: OpToken,
    ) {
        if let Some(msg) = self.transmit(now, src, dst, payload, msg) {
            let seq = self.retry_states.insert(RetryState {
                msg,
                src,
                dst,
                payload,
                token,
                attempt: 0,
            });
            self.events
                .schedule(now + self.retry.rpc_timeout, Ev::RpcTimeout { seq });
        }
    }

    /// Realise the fault plan: schedule its one-shot events in plan
    /// order and install its window rules. Called once when a run
    /// starts.
    fn schedule_fault_plan(&mut self) {
        let plan = std::mem::take(&mut self.fault_plan);
        for ev in plan.events() {
            match *ev {
                FaultEvent::SlowDisk {
                    dev,
                    factor,
                    from,
                    until,
                } => {
                    self.events.schedule(from, Ev::FailSlow { dev, factor });
                    self.events
                        .schedule(until, Ev::FailSlow { dev, factor: 1.0 });
                }
                FaultEvent::DiskStall { dev, at, duration } => {
                    self.events.schedule(
                        at,
                        Ev::DiskStall {
                            dev,
                            until: at + duration,
                        },
                    );
                }
                FaultEvent::RpcDrop {
                    src,
                    dst,
                    prob,
                    from,
                    until,
                } => self.net.add_fault(LinkFault {
                    src: src.map(NodeId),
                    dst: dst.map(NodeId),
                    from,
                    until,
                    kind: LinkFaultKind::Drop { prob },
                }),
                FaultEvent::RpcDelay {
                    src,
                    dst,
                    delay,
                    from,
                    until,
                } => self.net.add_fault(LinkFault {
                    src: src.map(NodeId),
                    dst: dst.map(NodeId),
                    from,
                    until,
                    kind: LinkFaultKind::Delay { delay },
                }),
                FaultEvent::OssThreadCrash {
                    oss,
                    at,
                    restart,
                    remaining,
                } => {
                    self.events.schedule(
                        at,
                        Ev::OssFactor {
                            oss,
                            factor: 1.0 / remaining,
                        },
                    );
                    if let Some(r) = restart {
                        self.events.schedule(r, Ev::OssFactor { oss, factor: 1.0 });
                    }
                }
                FaultEvent::MdsLockStorm {
                    from,
                    until,
                    revoke_factor,
                } => self.lock_storms.push((from, until, revoke_factor)),
            }
        }
    }

    /// Run until `deadline` (or until no events remain). Consumes the
    /// cluster and returns its trace.
    pub fn run(self, deadline: SimTime) -> RunTrace {
        self.run_inner(deadline, None)
    }

    /// Run until application `app` completes (all ranks finished), or
    /// until `deadline` as a safety stop. The trace's
    /// [`RunTrace::completion_of`] tells which happened.
    pub fn run_until_app(self, app: AppId, deadline: SimTime) -> RunTrace {
        self.run_inner(deadline, Some(app))
    }

    fn run_inner(mut self, deadline: SimTime, stop_app: Option<AppId>) -> RunTrace {
        self.schedule_fault_plan();
        // Kick every rank and the sampler chain.
        for a in 0..self.apps.len() {
            for r in 0..self.apps[a].ranks.len() {
                self.events.schedule(
                    SimTime::ZERO,
                    Ev::RankNext {
                        app: a as u32,
                        rank: r as u32,
                    },
                );
            }
        }
        self.events
            .schedule(SimTime::ZERO + self.cfg.sample_interval, Ev::Sample);
        if self.controller.is_some() {
            // First tick 1 ns after the first window boundary: every
            // event of a window (boundary samples included) is handled
            // before the tick that closes it, so the controller sees
            // exactly the batch-pipeline window content.
            self.events.schedule(
                SimTime::ZERO + self.control_interval + SimDuration::from_nanos(1),
                Ev::Control,
            );
        }

        while let Some((now, ev)) = self.events.pop_until(deadline) {
            self.handle(now, ev);
            if let Some(app) = stop_app {
                if self.trace.app_completion[app.0 as usize].is_some() {
                    break;
                }
            }
        }
        self.trace.end = self.events.now();
        self.trace.events_processed = self.events.processed();
        self.trace.metrics = self.metrics_snapshot(self.events.now());
        self.trace
    }

    /// Assemble the cluster-wide telemetry snapshot at `now`: per-device
    /// block-layer counters and distributions (`pfs.ost{i}.*`,
    /// `pfs.mdt.*`), per-server NIC traffic and utilisation
    /// (`pfs.nic.*`), and MDS metadata statistics (`pfs.mds.*`). Every
    /// value derives from simulated time and deterministic event-loop
    /// state, so the snapshot is byte-stable across identical runs.
    fn metrics_snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (i, dev) in self.servers.devices.iter().enumerate() {
            put_dev(&mut snap, &format!("pfs.ost{i}"), dev, now);
        }
        put_dev(&mut snap, "pfs.mdt", &self.mdt_dev, now);
        let elapsed = now.as_secs_f64();
        let nic = |snap: &mut MetricsSnapshot, label: String, node: NodeId| {
            let busy = self.net.nic_busy(node).as_secs_f64();
            snap.put(
                &format!("{label}.bytes"),
                MetricValue::Counter(self.net.nic_bytes(node)),
            );
            snap.put(&format!("{label}.busy_us"), MetricValue::Gauge(busy * 1e6));
            let util = if elapsed > 0.0 { busy / elapsed } else { 0.0 };
            snap.put(&format!("{label}.util"), MetricValue::Gauge(util));
        };
        for j in 0..self.cfg.oss_nodes {
            let node = NodeId(self.cfg.client_nodes + j);
            nic(&mut snap, format!("pfs.nic.oss{j}"), node);
        }
        let mds_node = NodeId(self.cfg.client_nodes + self.cfg.oss_nodes);
        nic(&mut snap, "pfs.nic.mds".to_string(), mds_node);
        snap.put(
            "pfs.mds.lock_wait_us",
            MetricValue::Stats(self.tele.lock_wait_us.clone()),
        );
        snap.put(
            "pfs.mds.lock_revocations",
            MetricValue::Counter(self.tele.lock_revocations),
        );
        snap.put(
            "pfs.mds.lookup_cache_hits",
            MetricValue::Counter(self.tele.lookup_cache_hits),
        );
        snap.put(
            "pfs.mds.lookup_cache_misses",
            MetricValue::Counter(self.tele.lookup_cache_misses),
        );
        snap.put(
            "pfs.sampler.samples",
            MetricValue::Counter(self.tele.samples_taken),
        );
        // Fault/retry counters are emitted unconditionally (zero on
        // healthy runs) so snapshots keep a stable key set whether or
        // not a plan was installed.
        for (field, v) in [
            ("deadline_exceeded", self.tele.rpc_deadline_exceeded),
            ("delayed", self.tele.rpc_delayed),
            ("dropped", self.tele.rpc_dropped),
            ("failed_ops", self.tele.rpc_failed_ops),
            ("retries", self.tele.rpc_retries),
            ("timeouts", self.tele.rpc_timeouts),
        ] {
            snap.put(&format!("pfs.rpc.{field}"), MetricValue::Counter(v));
        }
        snap.put(
            "pfs.faults.disk_stalls",
            MetricValue::Counter(self.tele.disk_stalls + self.servers.disk_stalls),
        );
        snap.put(
            "pfs.faults.lock_storm_revocations",
            MetricValue::Counter(self.tele.lock_storm_revocations),
        );
        // The control block appears only on controlled runs (a
        // controller installed or a directive applied), so snapshots of
        // uncontrolled runs keep their historical golden key set.
        if self.control_used {
            for (field, v) in [
                ("applied", self.tele.control_applied),
                ("cap_clears", self.tele.control_cap_clears),
                ("caps", self.tele.control_caps),
                ("parked", self.servers.parked),
                ("rate_clears", self.tele.control_rate_clears),
                ("rate_limits", self.tele.control_rate_limits),
                ("rejected", self.tele.control_rejected),
                ("resumed", self.servers.resumed),
                ("retarget_clears", self.tele.control_retarget_clears),
                ("retarget_layouts", self.tele.control_retarget_layouts),
                ("retargets", self.tele.control_retargets),
            ] {
                snap.put(&format!("pfs.control.{field}"), MetricValue::Counter(v));
            }
            if let Some(ctl) = &self.controller {
                ctl.metrics_into(&mut snap);
            }
        }
        snap
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        let n_osts = self.cfg.n_osts();
        match ev {
            Ev::OssProcess(_) | Ev::TbfAdmitted(_) | Ev::OssFactor { .. } => {
                self.server_event(now, ev)
            }
            Ev::DiskDone { dev }
            | Ev::DiskIdle { dev }
            | Ev::FailSlow { dev, .. }
            | Ev::DiskStall { dev, .. }
                if dev < n_osts =>
            {
                self.server_event(now, ev)
            }
            Ev::RankNext { app, rank } => self.rank_next(now, app, rank),
            Ev::Deliver(msg) => self.deliver(now, msg),
            Ev::MdsProcess(msg) => self.mds_process(now, msg),
            Ev::SendLater {
                src,
                dst,
                payload,
                token,
            } => self.send(now, src, dst, payload, Msg::OpDone { token }),
            Ev::MdsLockRun { token, client, dir } => {
                self.start_journal_write(now, token, client, dir)
            }
            Ev::Sample => {
                self.take_sample(now);
                self.events
                    .schedule(now + self.cfg.sample_interval, Ev::Sample);
            }
            Ev::Control => self.control_tick(now),
            Ev::RpcTimeout { seq } => self.rpc_timeout(now, seq),
            Ev::RpcResend { seq } => self.rpc_resend(now, seq),
            // Device events past the OSTs: the MDT's.
            Ev::DiskDone { .. } => self.mdt_disk_done(now),
            Ev::DiskIdle { .. } => {
                let d = self.mdt_dev.idle_check(now);
                self.mdt_dispatch(now, d);
            }
            Ev::FailSlow { factor, .. } => self.mdt_dev.disk_mut().set_fail_slow(factor),
            Ev::DiskStall { until, .. } => {
                self.tele.disk_stalls += 1;
                let d = self.mdt_dev.stall(now, until);
                self.mdt_dispatch(now, d);
            }
        }
    }

    // ------------------------------------------------------ RPC retries

    /// True while `token` is still the rank's current operation.
    fn op_is_current(&self, token: OpToken) -> bool {
        let st = &self.apps[token.app.0 as usize].ranks[token.rank as usize];
        matches!(st.cur, Some((t, _, _, _)) if t == token)
    }

    /// A reply wait expired: retry with backoff, or give up when the
    /// retry budget or the per-op deadline is exhausted.
    fn rpc_timeout(&mut self, now: SimTime, seq: SlabKey) {
        let Some(state) = self.retry_states.get(seq) else {
            return;
        };
        let token = state.token;
        if !self.op_is_current(token) {
            self.retry_states.remove(seq);
            return;
        }
        self.tele.rpc_timeouts += 1;
        let issued = self.apps[token.app.0 as usize].ranks[token.rank as usize]
            .cur
            .expect("current op")
            .3;
        let deadline_hit = self.retry.op_deadline.is_some_and(|dl| now >= issued + dl);
        let exhausted = state.attempt >= self.retry.max_retries;
        if deadline_hit || exhausted {
            if deadline_hit {
                self.tele.rpc_deadline_exceeded += 1;
            }
            self.retry_states.remove(seq);
            self.fail_op_part(now, token);
            return;
        }
        let attempt = {
            let state = self.retry_states.get_mut(seq).expect("retry state present");
            state.attempt += 1;
            state.attempt
        };
        self.tele.rpc_retries += 1;
        let backoff = self.retry.backoff(attempt, &mut self.fault_rng);
        self.events.schedule(now + backoff, Ev::RpcResend { seq });
    }

    /// Backoff elapsed: resend the stored request, consulting the link
    /// fate afresh (the resend may be dropped again).
    fn rpc_resend(&mut self, now: SimTime, seq: SlabKey) {
        let Some(state) = self.retry_states.get(seq) else {
            return;
        };
        if !self.op_is_current(state.token) {
            self.retry_states.remove(seq);
            return;
        }
        let (src, dst, payload, msg) = (state.src, state.dst, state.payload, state.msg.clone());
        if self.transmit(now, src, dst, payload, msg).is_some() {
            // Dropped again: the stored copy waits for the next timeout.
            self.events
                .schedule(now + self.retry.rpc_timeout, Ev::RpcTimeout { seq });
        } else {
            self.retry_states.remove(seq);
        }
    }

    /// Abandon one chunk of an operation. The op is recorded as failed
    /// (and the rank moves on) once every outstanding chunk resolves.
    fn fail_op_part(&mut self, now: SimTime, token: OpToken) {
        if !self.op_is_current(token) {
            return;
        }
        self.apps[token.app.0 as usize].ranks[token.rank as usize].failed = true;
        self.op_part_done(now, token);
    }

    // ---------------------------------------------------------- clients

    fn rank_next(&mut self, now: SimTime, app: u32, rank: u32) {
        let step = {
            let a = &mut self.apps[app as usize];
            match a.programs[rank as usize].as_mut() {
                Some(p) => p.next(now),
                None => return,
            }
        };
        match step {
            ProgramStep::Compute(d) => {
                self.events.schedule(now + d, Ev::RankNext { app, rank });
            }
            ProgramStep::Finished => {
                let a = &mut self.apps[app as usize];
                a.programs[rank as usize] = None;
                if !a.ranks[rank as usize].done {
                    a.ranks[rank as usize].done = true;
                    a.ranks_left -= 1;
                    if a.ranks_left == 0 {
                        self.trace.app_completion[app as usize] = Some(now);
                    }
                }
            }
            ProgramStep::Op(op) => self.issue_op(now, app, rank, op),
        }
    }

    fn issue_op(&mut self, now: SimTime, app: u32, rank: u32, op: IoOp) {
        let issued = now + CLIENT_OP_OVERHEAD;
        let token = {
            let st = &mut self.apps[app as usize].ranks[rank as usize];
            let token = OpToken {
                app: AppId(app),
                rank,
                seq: st.seq,
            };
            st.seq += 1;
            st.cur = Some((token, op.kind(), op.bytes(), issued));
            token
        };
        let client = self.apps[app as usize].nodes[rank as usize];
        match op {
            IoOp::Read { file, offset, len } | IoOp::Write { file, offset, len } => {
                let is_read = matches!(
                    self.apps[app as usize].ranks[rank as usize].cur,
                    Some((_, OpKind::Read, _, _))
                );
                // Owned scratch: the loop body re-borrows `self` mutably.
                let mut cs = std::mem::take(&mut self.scratch_chunks);
                cs.clear();
                match self.mds.namespace.get(&file) {
                    Some(layout) => chunks_into(layout, offset, len, &mut cs),
                    None => {
                        // Data op on a file never created in this run:
                        // auto-register with the default stripe (the
                        // file "already existed").
                        let layout = self.make_layout(file, None);
                        chunks_into(&layout, offset, len, &mut cs);
                        self.mds.namespace.insert(file, layout);
                    }
                }
                self.apps[app as usize].ranks[rank as usize].outstanding = cs.len() as u32;
                for c in cs.drain(..) {
                    let obj = ObjKey {
                        file,
                        stripe: c.stripe,
                    };
                    self.trace.rpcs.push(RpcRecord {
                        app: AppId(app),
                        dev: c.dev,
                        kind: if is_read { OpKind::Read } else { OpKind::Write },
                        bytes: c.len,
                        issued,
                    });
                    let dst = self.dev_node[c.dev.index()];
                    let (payload, msg) = if is_read {
                        (
                            0,
                            Msg::ReadReq {
                                dev: c.dev,
                                obj,
                                obj_off: c.obj_offset,
                                len: c.len,
                                token,
                                client,
                            },
                        )
                    } else {
                        (
                            c.len,
                            Msg::WriteReq {
                                dev: c.dev,
                                obj,
                                obj_off: c.obj_offset,
                                len: c.len,
                                token,
                                client,
                            },
                        )
                    };
                    self.send_request(issued, client, dst, payload, msg, token);
                }
                self.scratch_chunks = cs;
            }
            meta => {
                self.apps[app as usize].ranks[rank as usize].outstanding = 1;
                let mop = match meta {
                    IoOp::Open { file } | IoOp::Stat { file } => MetaOp::Lookup { file },
                    IoOp::Close { .. } => MetaOp::Close,
                    IoOp::Create { file, dir, stripe } => MetaOp::Mutate {
                        create: Some((file, stripe)),
                        dir,
                    },
                    IoOp::Unlink { dir, .. } => MetaOp::Mutate { create: None, dir },
                    IoOp::Mkdir { dir } => MetaOp::Mutate { create: None, dir },
                    IoOp::Read { .. } | IoOp::Write { .. } => unreachable!(),
                };
                let mdt = self.mdt();
                self.trace.rpcs.push(RpcRecord {
                    app: AppId(app),
                    dev: mdt,
                    kind: self.apps[app as usize].ranks[rank as usize]
                        .cur
                        .expect("current op")
                        .1,
                    bytes: 0,
                    issued,
                });
                let dst = self.dev_node[mdt.index()];
                self.send_request(
                    issued,
                    client,
                    dst,
                    META_MSG_BYTES,
                    Msg::MetaReq {
                        op: mop,
                        token,
                        client,
                    },
                    token,
                );
            }
        }
    }

    fn op_part_done(&mut self, now: SimTime, token: OpToken) {
        let app = token.app.0 as usize;
        let rank = token.rank as usize;
        let st = &mut self.apps[app].ranks[rank];
        let Some((cur_token, kind, bytes, issued)) = st.cur else {
            return; // op was cancelled (should not happen)
        };
        debug_assert_eq!(cur_token, token, "completion for a stale op");
        st.outstanding -= 1;
        if st.outstanding == 0 {
            st.cur = None;
            if st.failed {
                // At least one chunk was abandoned by the retry layer:
                // the op failed, but the rank still makes progress.
                st.failed = false;
                self.tele.rpc_failed_ops += 1;
                self.trace.failed_ops.push(token);
            } else {
                self.trace.ops.push(OpRecord {
                    token,
                    kind,
                    bytes,
                    issued,
                    completed: now,
                });
            }
            self.events.schedule(
                now,
                Ev::RankNext {
                    app: token.app.0,
                    rank: token.rank,
                },
            );
        }
    }

    // ---------------------------------------------------------- routing

    /// A network message arrives at `now` (its `Deliver` event popped).
    fn deliver(&mut self, now: SimTime, msg: Msg) {
        match msg {
            Msg::ReadReq { len, token, .. } | Msg::WriteReq { len, token, .. } => {
                // Server-side TBF admission, if this app is rate-limited.
                // The wait happens BEFORE the CPU stage so a throttled
                // app cannot head-of-line block other applications.
                let admitted = match self.tbf.get_mut(&token.app) {
                    Some(bucket) => bucket.earliest(now, len as f64),
                    None => now,
                };
                let ev = Ev::TbfAdmitted(msg);
                if admitted > now {
                    self.events.schedule(admitted, ev);
                } else {
                    self.handle(now, ev);
                }
            }
            Msg::MetaReq { ref op, .. } => {
                let cost = match op {
                    MetaOp::Mutate { .. } => self.cfg.mds.cpu_per_mutation,
                    _ => self.cfg.mds.cpu_per_op,
                };
                let start = now.max(self.mds.cpu_free);
                let done = start + cost;
                self.mds.cpu_free = done;
                self.events.schedule(done, Ev::MdsProcess(msg));
            }
            Msg::OpDone { token } => self.op_part_done(now, token),
        }
    }

    // -------------------------------------------------------------- MDT

    /// Submit a metadata block request on the MDT and realise its
    /// dispatch outcome.
    fn submit_mdt(&mut self, now: SimTime, kind: ReqKind, sector: u64, sectors: u64, tag: MdtTag) {
        let d = self.mdt_dev.submit(now, kind, sector, sectors, true, tag);
        self.mdt_dispatch(now, d);
    }

    fn mdt_dispatch(&mut self, now: SimTime, d: Dispatch) {
        let dev = self.cfg.n_osts();
        match d {
            Dispatch::Started(dur) => self.events.schedule(now + dur, Ev::DiskDone { dev }),
            Dispatch::Anticipating(at) => self.events.schedule(at, Ev::DiskIdle { dev }),
            Dispatch::Idle => {}
        }
    }

    // -------------------------------------------------------------- MDS

    fn journal_alloc(&mut self) -> u64 {
        let s = self.mds.journal_ptr;
        self.mds.journal_ptr += self.cfg.mds.journal_record_bytes / SECTOR_SIZE;
        if self.mds.journal_ptr >= self.mds.journal_base + self.mds.journal_sectors {
            self.mds.journal_ptr = self.mds.journal_base;
        }
        s
    }

    fn inode_sector(&self, file: FileKey) -> u64 {
        // Spread inode reads over the inode region, 4 KiB aligned.
        let h = (file.app.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(file.num.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let slots = (self.mds.inode_sectors / META_SECTORS).max(1);
        self.mds.inode_base + (h % slots) * META_SECTORS
    }

    /// Begin a mutation that holds `dir`'s lock: pay the lock revocation
    /// round-trip first when the lock last belonged to a different
    /// client, then journal the change.
    fn run_under_dir_lock(&mut self, now: SimTime, token: OpToken, client: NodeId, dir: DirKey) {
        // `MdsLockStorm`: inside a storm window every acquisition pays a
        // (possibly lengthened) revocation, as if lock ownership were
        // thrashing across the whole client population.
        let storm = self
            .lock_storms
            .iter()
            .find(|&&(from, until, _)| now >= from && now < until)
            .map(|&(_, _, f)| f);
        let lock = self.mds.dirs.get_mut(&dir).expect("locked dir");
        let switch = lock.last_client != Some(client) || storm.is_some();
        lock.last_client = Some(client);
        if switch {
            self.tele.lock_revocations += 1;
            let revoke = match storm {
                Some(f) => {
                    self.tele.lock_storm_revocations += 1;
                    if f != 1.0 {
                        SimDuration::from_secs_f64(self.cfg.mds.lock_revoke.as_secs_f64() * f)
                    } else {
                        self.cfg.mds.lock_revoke
                    }
                }
                None => self.cfg.mds.lock_revoke,
            };
            let at = now + revoke;
            self.events
                .schedule(at, Ev::MdsLockRun { token, client, dir });
        } else {
            self.start_journal_write(now, token, client, dir);
        }
    }

    fn start_journal_write(&mut self, now: SimTime, token: OpToken, client: NodeId, dir: DirKey) {
        let sector = self.journal_alloc();
        self.submit_mdt(
            now,
            ReqKind::Write,
            sector,
            META_SECTORS,
            MdtTag::Journal { token, client, dir },
        );
    }

    fn mds_process(&mut self, now: SimTime, msg: Msg) {
        let Msg::MetaReq { op, token, client } = msg else {
            unreachable!("only metadata RPCs reach the MDS");
        };
        let mds_node = self.dev_node[self.mdt().index()];
        match op {
            MetaOp::Lookup { file } => {
                let hit = self.mds.inode_cache.contains(file)
                    || self.rng.chance(self.cfg.mds.lookup_cache_hit);
                if hit {
                    self.tele.lookup_cache_hits += 1;
                } else {
                    self.tele.lookup_cache_misses += 1;
                }
                if hit {
                    self.send(now, mds_node, client, META_MSG_BYTES, Msg::OpDone { token });
                } else {
                    let sector = self.inode_sector(file);
                    self.submit_mdt(
                        now,
                        ReqKind::Read,
                        sector,
                        META_SECTORS,
                        MdtTag::Lookup {
                            token,
                            client,
                            file,
                        },
                    );
                }
            }
            MetaOp::Close => {
                self.send(now, mds_node, client, META_MSG_BYTES, Msg::OpDone { token });
            }
            MetaOp::Mutate { create, dir } => {
                if let Some((file, stripe)) = create {
                    let layout = self.make_layout(file, stripe);
                    self.mds.namespace.insert(file, layout);
                    // The creator's MDS holds the fresh inode.
                    self.mds.inode_cache.insert(file);
                }
                let lock = self.mds.dirs.entry(dir).or_default();
                if lock.busy {
                    lock.waiters.push_back((token, client, now));
                } else {
                    lock.busy = true;
                    self.tele.lock_wait_us.push(0.0);
                    self.run_under_dir_lock(now, token, client, dir);
                }
            }
        }
    }

    // ------------------------------------------------------------ disks

    /// An MDT block request completed: only metadata tags can appear.
    fn mdt_disk_done(&mut self, now: SimTime) {
        let mut members = std::mem::take(&mut self.scratch_members);
        let (_meta, next) = self.mdt_dev.complete_into(now, &mut members);
        self.mdt_dispatch(now, next);
        for m in members.drain(..) {
            match m.tag {
                MdtTag::Journal { token, client, dir } => {
                    let src = self.dev_node[self.mdt().index()];
                    self.send(now, src, client, META_MSG_BYTES, Msg::OpDone { token });
                    // Release the directory lock; start the next waiter.
                    let next_waiter = {
                        let lock = self.mds.dirs.get_mut(&dir).expect("locked dir");
                        match lock.waiters.pop_front() {
                            Some(w) => Some(w),
                            None => {
                                lock.busy = false;
                                None
                            }
                        }
                    };
                    if let Some((t, c, since)) = next_waiter {
                        self.tele
                            .lock_wait_us
                            .push(now.saturating_since(since).as_secs_f64() * 1e6);
                        self.run_under_dir_lock(now, t, c, dir);
                    }
                }
                MdtTag::Lookup {
                    token,
                    client,
                    file,
                } => {
                    self.mds.inode_cache.insert(file);
                    let src = self.dev_node[self.mdt().index()];
                    self.send(now, src, client, META_MSG_BYTES, Msg::OpDone { token });
                }
            }
        }
        self.scratch_members = members;
    }

    // --------------------------------------------------------- sampling

    /// One sampler tick: every device in global order (the OSTs, then
    /// the MDT) straight into the trace.
    fn take_sample(&mut self, now: SimTime) {
        self.tele.samples_taken += 1;
        for sample in self.servers.samples(now) {
            self.trace.samples.push(sample);
        }
        self.trace.samples.push(ServerSample {
            time: now,
            dev: self.mdt(),
            counters: self.mdt_dev.counters(now),
            dirty_bytes: 0,
            throttled_now: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(num: u64) -> FileKey {
        FileKey { app: AppId(0), num }
    }

    fn cluster(cfg: ClusterConfig, seed: u64) -> Cluster {
        Cluster::builder()
            .config(cfg)
            .seed(seed)
            .build()
            .expect("valid test cluster")
    }

    /// A program issuing a fixed list of ops, then finishing.
    struct Script {
        ops: Vec<IoOp>,
        i: usize,
    }
    impl RankProgram for Script {
        fn next(&mut self, _now: SimTime) -> ProgramStep {
            if self.i < self.ops.len() {
                self.i += 1;
                ProgramStep::Op(self.ops[self.i - 1].clone())
            } else {
                ProgramStep::Finished
            }
        }
    }

    fn script(ops: Vec<IoOp>) -> Box<dyn RankProgram> {
        Box::new(Script { ops, i: 0 })
    }

    #[test]
    fn single_write_completes_and_is_traced() {
        let mut cl = cluster(ClusterConfig::small(), 1);
        let app = cl.add_app(
            "w",
            vec![script(vec![IoOp::Write {
                file: file(1),
                offset: 0,
                len: 1024 * 1024,
            }])],
            &[NodeId(0)],
        );
        let trace = cl.run_until_app(app, SimTime::from_secs(10));
        assert!(trace.completion_of(app).is_some());
        assert_eq!(trace.ops.len(), 1);
        let op = &trace.ops[0];
        assert_eq!(op.kind, OpKind::Write);
        assert_eq!(op.bytes, 1024 * 1024);
        assert!(op.completed > op.issued);
        // Cached write: ack should come back in ~network + absorb time,
        // well under the disk service time for 1 MiB.
        assert!(op.duration().as_secs_f64() < 0.01, "{}", op.duration());
        assert_eq!(trace.rpcs.len(), 1);
    }

    #[test]
    fn read_takes_disk_time() {
        let mut cl = cluster(ClusterConfig::small(), 1);
        cl.precreate_file(file(1), 16 * 1024 * 1024, None);
        let app = cl.add_app(
            "r",
            vec![script(vec![IoOp::Read {
                file: file(1),
                offset: 0,
                len: 1024 * 1024,
            }])],
            &[NodeId(0)],
        );
        let trace = cl.run_until_app(app, SimTime::from_secs(10));
        let op = &trace.ops[0];
        // 1 MiB at 150 MB/s ≈ 7 ms of media time plus transfers.
        let d = op.duration().as_secs_f64();
        assert!(d > 0.006, "read too fast: {d}");
        assert!(d < 0.05, "read too slow: {d}");
    }

    #[test]
    fn ops_run_in_sequence_per_rank() {
        let mut cl = cluster(ClusterConfig::small(), 1);
        let ops: Vec<IoOp> = (0..10)
            .map(|i| IoOp::Write {
                file: file(1),
                offset: i * 1024 * 1024,
                len: 1024 * 1024,
            })
            .collect();
        let app = cl.add_app("w", vec![script(ops)], &[NodeId(0)]);
        let trace = cl.run_until_app(app, SimTime::from_secs(30));
        assert_eq!(trace.ops.len(), 10);
        for w in trace.ops.windows(2) {
            assert!(w[1].issued >= w[0].completed, "ops overlap");
            assert_eq!(w[1].token.seq, w[0].token.seq + 1);
        }
    }

    #[test]
    fn metadata_creates_serialize_on_shared_dir() {
        // Two ranks creating in the SAME dir must take longer than two
        // ranks creating in SEPARATE dirs.
        let run = |shared: bool| -> f64 {
            let mut cl = cluster(ClusterConfig::small(), 1);
            let mk = |rank: u64| -> Box<dyn RankProgram> {
                let dir = DirKey {
                    app: AppId(0),
                    num: if shared { 0 } else { rank },
                };
                let ops = (0..40)
                    .map(|i| IoOp::Create {
                        file: file(rank * 1000 + i),
                        dir,
                        stripe: None,
                    })
                    .collect();
                script(ops)
            };
            let app = cl.add_app("md", vec![mk(0), mk(1)], &[NodeId(0), NodeId(1)]);
            let trace = cl.run_until_app(app, SimTime::from_secs(60));
            trace
                .completion_of(app)
                .expect("metadata app finished")
                .as_secs_f64()
        };
        let t_shared = run(true);
        let t_split = run(false);
        assert!(
            t_shared > t_split * 1.2,
            "shared-dir contention missing: shared {t_shared} split {t_split}"
        );
    }

    #[test]
    fn samples_cover_run_duration() {
        let mut cl = cluster(ClusterConfig::small(), 1);
        let _app = cl.add_app(
            "w",
            vec![script(vec![IoOp::Write {
                file: file(1),
                offset: 0,
                len: 1024,
            }])],
            &[NodeId(0)],
        );
        let n_devices = cl.config().n_devices() as usize;
        let trace = cl.run(SimTime::from_secs(5));
        // Samples at 1s..5s for every device (deadline pops no event at 5s,
        // so at least 4 ticks are guaranteed).
        assert!(trace.samples.len() >= 4 * n_devices);
        assert_eq!(trace.samples.len() % n_devices, 0);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let build = || {
            let mut cl = cluster(ClusterConfig::small(), 7);
            cl.precreate_file(file(1), 64 * 1024 * 1024, None);
            let ops: Vec<IoOp> = (0..20)
                .map(|i| {
                    if i % 3 == 0 {
                        IoOp::Stat { file: file(1) }
                    } else {
                        IoOp::Read {
                            file: file(1),
                            offset: (i % 8) * 1024 * 1024,
                            len: 1024 * 1024,
                        }
                    }
                })
                .collect();
            let app = cl.add_app("m", vec![script(ops)], &[NodeId(0)]);
            cl.run_until_app(app, SimTime::from_secs(60))
        };
        let a = build();
        let b = build();
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(b.ops.iter()) {
            assert_eq!(x.issued, y.issued);
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.token, y.token);
        }
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn interfered_reads_are_slower() {
        // The headline mechanism: a reader slows down when another app
        // reads from the same OSTs.
        let run = |with_noise: bool| -> f64 {
            let mut cl = cluster(ClusterConfig::small(), 3);
            // Everything on OST 0 so the streams genuinely share a disk.
            let ost0 = vec![cl.ost(0)];
            cl.precreate_file_on(file(1), 64 * 1024 * 1024, 1024 * 1024, ost0.clone());
            let reader_ops: Vec<IoOp> = (0..32)
                .map(|i| IoOp::Read {
                    file: file(1),
                    offset: i * 1024 * 1024,
                    len: 1024 * 1024,
                })
                .collect();
            let app = cl.add_app("target", vec![script(reader_ops)], &[NodeId(0)]);
            if with_noise {
                // Noise app reading its own files from other nodes, forever.
                for k in 0..2u64 {
                    let nf = FileKey {
                        app: AppId(99),
                        num: k,
                    };
                    cl.precreate_file_on(nf, 512 * 1024 * 1024, 1024 * 1024, ost0.clone());
                    let mut i = 0u64;
                    let noise = move |_now: SimTime| {
                        i += 1;
                        ProgramStep::Op(IoOp::Read {
                            file: nf,
                            offset: (i % 512) * 1024 * 1024,
                            len: 1024 * 1024,
                        })
                    };
                    cl.add_app("noise", vec![Box::new(noise)], &[NodeId(1 + k as u32)]);
                }
            }
            let trace = cl.run_until_app(app, SimTime::from_secs(120));
            trace
                .completion_of(app)
                .expect("reader finished")
                .as_secs_f64()
        };
        let alone = run(false);
        let noisy = run(true);
        assert!(
            noisy > alone * 1.5,
            "no read-read interference: alone {alone} noisy {noisy}"
        );
    }

    #[test]
    fn small_writes_throttle_behind_a_bulk_writer() {
        // mdtest-hard-style tiny writes must slow down dramatically when
        // a bulk writer keeps the shared OST's cache at its dirty limit
        // (the Table I 26-41x mechanism).
        let run = |with_bulk: bool| -> f64 {
            let mut cfg = ClusterConfig::small();
            cfg.cache.dirty_limit = 16 * 1024 * 1024;
            let mut cl = cluster(cfg, 9);
            let ost0 = vec![cl.ost(0)];
            // Tiny-writer target: 60 x 3901-byte files on OST 0.
            cl.precreate_file_on(file(1), 4096, 512, ost0.clone());
            let tiny_ops: Vec<IoOp> = (0..60)
                .map(|i| IoOp::Write {
                    file: file(1),
                    offset: i * 4096,
                    len: 3901,
                })
                .collect();
            let app = cl.add_app("tiny", vec![script(tiny_ops)], &[NodeId(0)]);
            if with_bulk {
                let bulk = FileKey {
                    app: AppId(77),
                    num: 0,
                };
                cl.precreate_file_on(bulk, 512 * 1024 * 1024, 1024 * 1024, ost0);
                let mut i = 0u64;
                let noise = move |_now: SimTime| {
                    i += 1;
                    ProgramStep::Op(IoOp::Write {
                        file: bulk,
                        offset: (i % 512) * 1024 * 1024,
                        len: 1024 * 1024,
                    })
                };
                cl.add_app("bulk", vec![Box::new(noise)], &[NodeId(1)]);
            }
            let trace = cl.run_until_app(app, SimTime::from_secs(300));
            trace
                .completion_of(app)
                .expect("tiny writer finished")
                .as_secs_f64()
        };
        let alone = run(false);
        let noisy = run(true);
        assert!(
            noisy > alone * 3.0,
            "tiny writes not throttled: alone {alone} noisy {noisy}"
        );
    }

    #[test]
    fn streaming_reader_is_nearly_immune_to_a_bulk_writer() {
        // The flip side (anticipatory idling + read priority): a
        // streaming reader barely notices a concurrent bulk writer on
        // the same OST.
        let run = |with_bulk: bool| -> f64 {
            let mut cl = cluster(ClusterConfig::small(), 10);
            let ost0 = vec![cl.ost(0)];
            cl.precreate_file_on(file(1), 64 * 1024 * 1024, 1024 * 1024, ost0.clone());
            let ops: Vec<IoOp> = (0..32)
                .map(|i| IoOp::Read {
                    file: file(1),
                    offset: i * 1024 * 1024,
                    len: 1024 * 1024,
                })
                .collect();
            let app = cl.add_app("reader", vec![script(ops)], &[NodeId(0)]);
            if with_bulk {
                let bulk = FileKey {
                    app: AppId(88),
                    num: 0,
                };
                cl.precreate_file_on(bulk, 512 * 1024 * 1024, 1024 * 1024, ost0);
                let mut i = 0u64;
                let noise = move |_now: SimTime| {
                    i += 1;
                    ProgramStep::Op(IoOp::Write {
                        file: bulk,
                        offset: (i % 512) * 1024 * 1024,
                        len: 1024 * 1024,
                    })
                };
                cl.add_app("bulk", vec![Box::new(noise)], &[NodeId(1)]);
            }
            let trace = cl.run_until_app(app, SimTime::from_secs(120));
            trace
                .completion_of(app)
                .expect("reader finished")
                .as_secs_f64()
        };
        let alone = run(false);
        let noisy = run(true);
        assert!(
            noisy < alone * 1.6,
            "reads should shrug off bulk writes: alone {alone} noisy {noisy}"
        );
    }

    #[test]
    fn small_files_are_served_from_the_page_cache() {
        // A precreated small file's reads never hit the disk: re-reads
        // are orders of magnitude faster than a cold large-file read.
        let mut cl = cluster(ClusterConfig::small(), 2);
        cl.precreate_file(file(1), 3901, None); // small -> resident
        cl.precreate_file(file(2), 64 * 1024 * 1024, None); // large -> cold
        let ops = vec![
            IoOp::Read {
                file: file(1),
                offset: 0,
                len: 3901,
            },
            IoOp::Read {
                file: file(2),
                offset: 0,
                len: 1024 * 1024,
            },
        ];
        let app = cl.add_app("r", vec![script(ops)], &[NodeId(0)]);
        let trace = cl.run_until_app(app, SimTime::from_secs(30));
        let small_read = trace.ops[0].duration().as_secs_f64();
        let large_read = trace.ops[1].duration().as_secs_f64();
        assert!(
            small_read * 5.0 < large_read,
            "small {small_read} not cached vs large {large_read}"
        );
    }

    #[test]
    fn server_samples_reflect_cache_pressure() {
        // Saturating one OST's cache must surface in the sampled
        // dirty_bytes (the monitor's cache-pressure signal).
        let mut cfg = ClusterConfig::small();
        cfg.cache.dirty_limit = 8 * 1024 * 1024;
        cfg.sample_interval = SimDuration::from_millis(100);
        let mut cl = cluster(cfg, 3);
        let ost0 = vec![cl.ost(0)];
        cl.precreate_file_on(file(1), 256 * 1024 * 1024, 1024 * 1024, ost0);
        let ops: Vec<IoOp> = (0..128)
            .map(|i| IoOp::Write {
                file: file(1),
                offset: i * 1024 * 1024,
                len: 1024 * 1024,
            })
            .collect();
        let app = cl.add_app("w", vec![script(ops)], &[NodeId(0)]);
        let trace = cl.run_until_app(app, SimTime::from_secs(120));
        let max_dirty = trace
            .samples
            .iter()
            .filter(|s| s.dev == DeviceId(0))
            .map(|s| s.dirty_bytes)
            .max()
            .expect("samples exist");
        assert!(
            max_dirty >= 7 * 1024 * 1024,
            "cache pressure invisible: max dirty {max_dirty}"
        );
        // And the flush eventually drains: writes complete.
        assert_eq!(trace.ops.len(), 128);
    }

    #[test]
    fn server_tbf_rate_limits_an_app() {
        // A writer limited to 10 MB/s must take ~10x longer than one
        // allowed to run free (cache-speed writes).
        let run = |limit: Option<f64>| -> f64 {
            let mut cl = cluster(ClusterConfig::small(), 6);
            let ops: Vec<IoOp> = (0..64)
                .map(|i| IoOp::Write {
                    file: file(1),
                    offset: i * 1024 * 1024,
                    len: 1024 * 1024,
                })
                .collect();
            let app = cl.add_app("w", vec![script(ops)], &[NodeId(0)]);
            if let Some(rate) = limit {
                cl.set_app_rate_limit(app, rate);
            }
            let trace = cl.run_until_app(app, SimTime::from_secs(60));
            trace.completion_of(app).expect("finished").as_secs_f64()
        };
        let free = run(None);
        let limited = run(Some(10.0e6));
        // 64 MiB at 10 MB/s ≈ 6.7 s (minus the 1 s burst).
        assert!(
            limited > free * 3.0 && limited > 4.0,
            "TBF ineffective: free {free} limited {limited}"
        );
    }

    #[test]
    fn shared_nic_slows_colocated_ranks() {
        // Two ranks on ONE client node share its NIC; spreading them over
        // two nodes must be faster for network-bound (cached) writes.
        let run = |colocated: bool| -> f64 {
            let mut cl = cluster(ClusterConfig::small(), 4);
            let mk = |rank: u64| -> Box<dyn RankProgram> {
                let ops: Vec<IoOp> = (0..32)
                    .map(|i| IoOp::Write {
                        file: file(rank),
                        offset: i * 1024 * 1024,
                        len: 1024 * 1024,
                    })
                    .collect();
                script(ops)
            };
            let nodes: Vec<NodeId> = if colocated {
                vec![NodeId(0), NodeId(0)]
            } else {
                vec![NodeId(0), NodeId(1)]
            };
            let app = cl.add_app("w", vec![mk(0), mk(1)], &nodes);
            let trace = cl.run_until_app(app, SimTime::from_secs(60));
            trace.completion_of(app).expect("finished").as_secs_f64()
        };
        let spread = run(false);
        let shared = run(true);
        assert!(
            shared > spread * 1.2,
            "NIC contention missing: shared {shared} spread {spread}"
        );
    }
}
