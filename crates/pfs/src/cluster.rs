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
//! Every piece of state has one owner, and each owner writes its own
//! telemetry block:
//!
//! - [`crate::servers`] — every OSS/OST (`OssProcess`, `TbfAdmitted`,
//!   `OssFactor`, and the device events of OSTs);
//! - [`crate::mds`] — the MDS and its MDT, namespace and layout
//!   placement included (`MdsProcess`, `MdsLockRun`, and the MDT's
//!   device events);
//! - [`crate::control`] — the controller tick (`Control`), the TBF table
//!   and directive application;
//! - this module — the builder, the run loop, fault realisation, the
//!   client ranks and their retries (`RankNext`, `SendLater`,
//!   `RpcTimeout`, `RpcResend`), the sampler (`Sample`), and the routing
//!   of every event, `Deliver` included, to its owner.

use qi_faults::{FaultEvent, FaultPlan, RetryPolicy};
use qi_simkit::error::QiError;
use qi_simkit::event::EventQueue;
use qi_simkit::rng::SimRng;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::arena::{Slab, SlabKey};
use crate::config::{ClusterConfig, StripeConfig};
use crate::control::{ClusterController, ControlDirective, ControlPlane, Plant};
use crate::ids::{AppId, DeviceId, FileKey, NodeId, OpToken};
use crate::layout::{Chunk, FileLayout, ObjKey};
use crate::mds::{Mds, META_MSG_BYTES};
use crate::net::{LinkFate, LinkFault, LinkFaultKind, Network};
use crate::ops::{IoOp, OpKind, OpRecord, ProgramStep, RankProgram, RpcRecord, RunTrace};
use crate::servers::{Ev, Fx, MetaOp, Msg, Servers};

/// Client-side per-op syscall/dispatch overhead.
const CLIENT_OP_OVERHEAD: SimDuration = SimDuration::from_micros(5);

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

/// When `token`'s operation was issued, while it is still its rank's
/// current operation.
fn issued_if_current(apps: &[AppState], token: OpToken) -> Option<SimTime> {
    match apps[token.app.0 as usize].ranks[token.rank as usize].cur {
        Some((t, _, _, issued)) if t == token => Some(issued),
        _ => None,
    }
}

/// The whole simulated cluster. Build it, add applications, then [`run`].
///
/// [`run`]: Cluster::run
pub struct Cluster {
    cfg: ClusterConfig,
    /// The one event queue, and the network.
    fx: Fx,
    /// Every OSS node and its OSTs.
    servers: Servers,
    /// The MDS and its MDT.
    mds: Mds,
    /// The controller, the TBF table and directive application.
    control: ControlPlane,
    apps: Vec<AppState>,
    trace: RunTrace,
    /// The validated fault schedule; realised as events when a run starts.
    fault_plan: FaultPlan,
    /// Client retry/timeout/backoff policy for lost requests.
    retry: RetryPolicy,
    /// Dedicated RNG substream for fault decisions (drop rolls, backoff
    /// jitter). Healthy runs never draw from it, so adding a fault plan
    /// cannot perturb the main RNG's value stream.
    fault_rng: SimRng,
    /// Dropped requests awaiting timeout/retry, keyed by slab key; the
    /// key's generation makes stale `RpcTimeout`/`RpcResend` events for a
    /// recycled slot harmless (they miss on lookup).
    retry_states: Slab<RetryState>,
    /// Chunk buffer reused across ops so issuing one allocates nothing.
    scratch_chunks: Vec<Chunk>,
    /// Server-side monitor sampling ticks taken.
    samples_taken: u64,
    /// Injected `DiskStall` events that fired, on OSTs and the MDT.
    disk_stalls: u64,
    /// Client requests lost in transit (injected `RpcDrop` faults), and
    /// delivered late (injected `RpcDelay` faults).
    rpc_dropped: u64,
    rpc_delayed: u64,
    /// Client-side reply waits that expired, and requests resent after
    /// one.
    rpc_timeouts: u64,
    rpc_retries: u64,
    /// Operations abandoned because their per-op deadline passed. (All
    /// abandoned operations are `RunTrace::failed_ops`.)
    rpc_deadline_exceeded: u64,
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
        // One slot per node: measured pending depth peaks at 100 events
        // on the 97-node benchmark cluster, and at 37 and 59 on the
        // paper testbed's full IO500 and DLIO grids. Deeper runs grow
        // the queue.
        let queue_slots = cfg.n_nodes() as usize;
        Cluster {
            fx: Fx {
                q: EventQueue::with_capacity_and_backend(queue_slots, cfg.event_queue),
                net: Network::new(cfg.net.clone(), cfg.n_nodes()),
            },
            servers: Servers::new(&cfg),
            mds: Mds::new(&cfg, SimRng::new(seed).substream(0xC10D)),
            control: ControlPlane::default(),
            apps: Vec::new(),
            trace: RunTrace::default(),
            fault_plan,
            retry,
            fault_rng: SimRng::new(seed).substream(0xFA17),
            retry_states: Slab::new(),
            scratch_chunks: Vec::new(),
            samples_taken: 0,
            disk_stalls: 0,
            rpc_dropped: 0,
            rpc_delayed: 0,
            rpc_timeouts: 0,
            rpc_retries: 0,
            rpc_deadline_exceeded: 0,
            cfg,
        }
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

    /// Install a mitigation controller: from the run's start it is
    /// ticked once per [`ClusterController::interval`], 1 ns after each
    /// window boundary (strictly after every event of the closed
    /// window), and its directives are applied through
    /// [`Cluster::apply_directive`]. At most one controller per run.
    pub fn install_controller(&mut self, controller: Box<dyn ClusterController>) {
        self.control.install(controller);
    }

    /// Apply one typed control directive, the single entry point of the
    /// control plane. Returns `Err(QiError::Control)` and changes
    /// nothing when the directive is invalid (unknown app, non-finite
    /// or non-positive rate); successful applications are recorded in
    /// [`RunTrace::directives`].
    ///
    /// A `RateLimit` installs a server-side token-bucket filter for the
    /// app's data RPCs: at most `bytes_per_sec` of payload is admitted
    /// to the object servers (burst of one second's worth), queuing the
    /// excess — the classful TBF policy of Qian et al. (the paper's
    /// reference [13]).
    pub fn apply_directive(
        &mut self,
        at: SimTime,
        window: u64,
        directive: ControlDirective,
    ) -> Result<(), QiError> {
        let (control, mut plant) = self.plant();
        control.apply(at, window, directive, &mut plant)
    }

    /// The control plane, and the rest of the cluster it acts on.
    fn plant(&mut self) -> (&mut ControlPlane, Plant<'_>) {
        let plant = Plant {
            n_apps: self.apps.len(),
            fx: &mut self.fx,
            trace: &mut self.trace,
        };
        (&mut self.control, plant)
    }

    /// Pre-populate a file (namespace entry + contiguous extents) without
    /// simulating any I/O — the equivalent of a dataset that existed
    /// before the measured run. OSTs are assigned round-robin.
    pub fn precreate_file(&mut self, file: FileKey, len: u64, stripe: Option<StripeConfig>) {
        let layout = self.mds.make_layout(&self.cfg, file, stripe);
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
        self.servers.preload(&self.cfg, file, len, &layout);
        self.mds.install(file, layout);
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
        match self.fx.net.fate(now, src, dst, &mut self.fault_rng) {
            LinkFate::Deliver(extra) => {
                if extra > SimDuration::ZERO {
                    self.rpc_delayed += 1;
                }
                self.fx.send(now, src, dst, payload, extra, Some(msg));
                None
            }
            LinkFate::Dropped => {
                self.rpc_dropped += 1;
                self.fx
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
            self.fx
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
                    self.fx.schedule(from, Ev::FailSlow { dev, factor });
                    self.fx.schedule(until, Ev::FailSlow { dev, factor: 1.0 });
                }
                FaultEvent::DiskStall { dev, at, duration } => {
                    let until = at + duration;
                    self.fx.schedule(at, Ev::DiskStall { dev, until });
                }
                FaultEvent::RpcDrop {
                    src,
                    dst,
                    prob,
                    from,
                    until,
                } => self.fx.net.add_fault(LinkFault {
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
                } => self.fx.net.add_fault(LinkFault {
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
                    let factor = 1.0 / remaining;
                    self.fx.schedule(at, Ev::OssFactor { oss, factor });
                    if let Some(r) = restart {
                        self.fx.schedule(r, Ev::OssFactor { oss, factor: 1.0 });
                    }
                }
                FaultEvent::MdsLockStorm {
                    from,
                    until,
                    revoke_factor,
                } => self.mds.add_lock_storm(from, until, revoke_factor),
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
                let (app, rank) = (a as u32, r as u32);
                self.fx.schedule(SimTime::ZERO, Ev::RankNext { app, rank });
            }
        }
        self.fx
            .schedule(SimTime::ZERO + self.cfg.sample_interval, Ev::Sample);
        if let Some(at) = self.control.first_tick() {
            self.fx.schedule(at, Ev::Control);
        }

        while let Some((now, ev)) = self.fx.q.pop_until(deadline) {
            self.handle(now, ev);
            if let Some(app) = stop_app {
                if self.trace.app_completion[app.0 as usize].is_some() {
                    break;
                }
            }
        }
        let end = self.fx.q.now();
        self.trace.end = end;
        self.trace.events_processed = self.fx.q.processed();
        self.trace.metrics = self.metrics_snapshot(end);
        self.trace
    }

    /// Assemble the cluster-wide telemetry snapshot at `now`, each owner
    /// writing its own block: per-device block-layer counters and
    /// distributions (`pfs.ost{i}.*` from the servers, `pfs.mdt.*` and
    /// the MDS statistics `pfs.mds.*` from the MDS), per-server NIC
    /// traffic and utilisation (`pfs.nic.*`), and the sampler,
    /// fault/retry and control counters. Every value derives from
    /// simulated time and deterministic event-loop state, so the
    /// snapshot is byte-stable across identical runs.
    fn metrics_snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        self.servers.metrics_into(&mut snap, now);
        self.mds.metrics_into(&mut snap, now);
        self.control.metrics_into(&mut snap, &self.trace.directives);
        let elapsed = now.as_secs_f64();
        let oss_nodes =
            (0..self.cfg.oss_nodes).map(|j| (format!("oss{j}"), j * self.cfg.osts_per_oss));
        for (label, dev) in oss_nodes.chain([("mds".to_string(), self.cfg.n_osts())]) {
            let node = self.cfg.node_of(DeviceId(dev));
            let busy = self.fx.net.nic_busy(node).as_secs_f64();
            let util = if elapsed > 0.0 { busy / elapsed } else { 0.0 };
            let bytes = MetricValue::Counter(self.fx.net.nic_bytes(node));
            let nic = [
                ("bytes", bytes),
                ("busy_us", MetricValue::Gauge(busy * 1e6)),
                ("util", MetricValue::Gauge(util)),
            ];
            for (field, v) in nic {
                snap.put(&format!("pfs.nic.{label}.{field}"), v);
            }
        }
        // Fault/retry counters are emitted unconditionally (zero on
        // healthy runs) so snapshots keep a stable key set whether or
        // not a plan was installed.
        for (key, v) in [
            ("pfs.sampler.samples", self.samples_taken),
            ("pfs.faults.disk_stalls", self.disk_stalls),
            ("pfs.rpc.deadline_exceeded", self.rpc_deadline_exceeded),
            ("pfs.rpc.delayed", self.rpc_delayed),
            ("pfs.rpc.dropped", self.rpc_dropped),
            ("pfs.rpc.failed_ops", self.trace.failed_ops.len() as u64),
            ("pfs.rpc.retries", self.rpc_retries),
            ("pfs.rpc.timeouts", self.rpc_timeouts),
        ] {
            snap.put(key, MetricValue::Counter(v));
        }
        snap
    }

    /// Route one event to its owner.
    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::OssProcess(_) | Ev::TbfAdmitted(_) | Ev::OssFactor { .. } => {
                self.servers.handle(now, ev, &self.cfg, &mut self.fx)
            }
            Ev::DiskDone { dev }
            | Ev::DiskIdle { dev }
            | Ev::FailSlow { dev, .. }
            | Ev::DiskStall { dev, .. } => {
                if let Ev::DiskStall { .. } = ev {
                    self.disk_stalls += 1;
                }
                if dev < self.cfg.n_osts() {
                    self.servers.handle(now, ev, &self.cfg, &mut self.fx)
                } else {
                    self.mds.handle(now, ev, &self.cfg, &mut self.fx)
                }
            }
            Ev::MdsProcess(_) | Ev::MdsLockRun { .. } => {
                self.mds.handle(now, ev, &self.cfg, &mut self.fx)
            }
            Ev::Control => {
                let (control, mut plant) = self.plant();
                control.tick(now, &mut plant);
            }
            Ev::RankNext { app, rank } => self.rank_next(now, app, rank),
            Ev::Deliver(msg) => self.deliver(now, msg),
            Ev::SendLater {
                src,
                dst,
                payload,
                token,
            } => {
                let msg = Some(Msg::OpDone { token });
                self.fx.send(now, src, dst, payload, SimDuration::ZERO, msg)
            }
            Ev::Sample => {
                self.take_sample(now);
                self.fx.schedule(now + self.cfg.sample_interval, Ev::Sample);
            }
            Ev::RpcTimeout { seq } => self.rpc_timeout(now, seq),
            Ev::RpcResend { seq } => self.rpc_resend(now, seq),
        }
    }

    // ------------------------------------------------------ RPC retries

    /// A reply wait expired: retry with backoff, or give up when the
    /// retry budget or the per-op deadline is exhausted.
    fn rpc_timeout(&mut self, now: SimTime, seq: SlabKey) {
        let Some(state) = self.retry_states.get_mut(seq) else {
            return;
        };
        let token = state.token;
        let Some(issued) = issued_if_current(&self.apps, token) else {
            self.retry_states.remove(seq);
            return;
        };
        self.rpc_timeouts += 1;
        let deadline_hit = self.retry.op_deadline.is_some_and(|dl| now >= issued + dl);
        if deadline_hit || state.attempt >= self.retry.max_retries {
            if deadline_hit {
                self.rpc_deadline_exceeded += 1;
            }
            self.retry_states.remove(seq);
            self.fail_op_part(now, token);
            return;
        }
        state.attempt += 1;
        let attempt = state.attempt;
        self.rpc_retries += 1;
        let backoff = self.retry.backoff(attempt, &mut self.fault_rng);
        self.fx.schedule(now + backoff, Ev::RpcResend { seq });
    }

    /// Backoff elapsed: resend the stored request, consulting the link
    /// fate afresh (the resend may be dropped again).
    fn rpc_resend(&mut self, now: SimTime, seq: SlabKey) {
        let Some(state) = self.retry_states.get(seq) else {
            return;
        };
        if issued_if_current(&self.apps, state.token).is_none() {
            self.retry_states.remove(seq);
            return;
        }
        let (src, dst, payload, msg) = (state.src, state.dst, state.payload, state.msg.clone());
        if self.transmit(now, src, dst, payload, msg).is_some() {
            // Dropped again: the stored copy waits for the next timeout.
            self.fx
                .schedule(now + self.retry.rpc_timeout, Ev::RpcTimeout { seq });
        } else {
            self.retry_states.remove(seq);
        }
    }

    /// Abandon one chunk of an operation. The op is recorded as failed
    /// (and the rank moves on) once every outstanding chunk resolves.
    fn fail_op_part(&mut self, now: SimTime, token: OpToken) {
        if issued_if_current(&self.apps, token).is_none() {
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
                self.fx.schedule(now + d, Ev::RankNext { app, rank });
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
        let kind = op.kind();
        let token = {
            let st = &mut self.apps[app as usize].ranks[rank as usize];
            let token = OpToken {
                app: AppId(app),
                rank,
                seq: st.seq,
            };
            st.seq += 1;
            st.cur = Some((token, kind, op.bytes(), issued));
            token
        };
        let client = self.apps[app as usize].nodes[rank as usize];
        match op {
            IoOp::Read { file, offset, len } | IoOp::Write { file, offset, len } => {
                // Owned scratch: the loop body re-borrows `self` mutably.
                let mut cs = std::mem::take(&mut self.scratch_chunks);
                cs.clear();
                self.mds.chunks_into(&self.cfg, file, offset, len, &mut cs);
                self.apps[app as usize].ranks[rank as usize].outstanding = cs.len() as u32;
                for c in cs.drain(..) {
                    let obj = ObjKey {
                        file,
                        stripe: c.stripe,
                    };
                    self.trace.rpcs.push(RpcRecord {
                        app: AppId(app),
                        dev: c.dev,
                        kind,
                        bytes: c.len,
                        issued,
                    });
                    let dst = self.cfg.node_of(c.dev);
                    let (dev, obj_off, len) = (c.dev, c.obj_offset, c.len);
                    let (payload, msg) = if kind == OpKind::Read {
                        let msg = Msg::ReadReq {
                            dev,
                            obj,
                            obj_off,
                            len,
                            token,
                            client,
                        };
                        (0, msg)
                    } else {
                        let msg = Msg::WriteReq {
                            dev,
                            obj,
                            obj_off,
                            len,
                            token,
                            client,
                        };
                        (len, msg)
                    };
                    self.send_request(issued, client, dst, payload, msg, token);
                }
                self.scratch_chunks = cs;
            }
            meta => {
                self.apps[app as usize].ranks[rank as usize].outstanding = 1;
                let op = match meta {
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
                    kind,
                    bytes: 0,
                    issued,
                });
                let dst = self.cfg.node_of(mdt);
                let msg = Msg::MetaReq { op, token, client };
                self.send_request(issued, client, dst, META_MSG_BYTES, msg, token);
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
            self.fx.schedule(
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
                let admitted = self.control.admit(now, token.app, len);
                let ev = Ev::TbfAdmitted(msg);
                if admitted > now {
                    self.fx.schedule(admitted, ev);
                } else {
                    self.servers.handle(now, ev, &self.cfg, &mut self.fx);
                }
            }
            Msg::MetaReq { .. } => self.mds.deliver(now, msg, &self.cfg, &mut self.fx),
            Msg::OpDone { token } => self.op_part_done(now, token),
        }
    }

    // --------------------------------------------------------- sampling

    /// One sampler tick: every device in global order (the OSTs, then
    /// the MDT) straight into the trace.
    fn take_sample(&mut self, now: SimTime) {
        self.samples_taken += 1;
        for sample in self.servers.samples(now) {
            self.trace.samples.push(sample);
        }
        self.trace.samples.push(self.mds.sample(now, &self.cfg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DirKey;

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
            if let Some(bytes_per_sec) = limit {
                let d = ControlDirective::RateLimit { app, bytes_per_sec };
                cl.apply_directive(SimTime::ZERO, 0, d).expect("valid rate");
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
    fn invalid_directives_are_rejected_and_never_recorded() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let writes = || -> Vec<IoOp> {
            (0..16)
                .map(|i| IoOp::Write {
                    file: file(1),
                    offset: i * 1024 * 1024,
                    len: 1024 * 1024,
                })
                .collect()
        };
        let rate = |app, bytes_per_sec| ControlDirective::RateLimit { app, bytes_per_sec };

        // Direct application: an unknown app, then every rate that is
        // not finite and positive. Each fails and records nothing.
        let mut cl = cluster(ClusterConfig::small(), 7);
        let app = cl.add_app("w", vec![script(writes())], &[NodeId(0)]);
        let unknown = AppId(app.0 + 1);
        let invalid = [
            rate(unknown, 1e6),
            ControlDirective::ClearRateLimit { app: unknown },
            rate(app, 0.0),
            rate(app, -1e6),
            rate(app, f64::NAN),
            rate(app, f64::INFINITY),
            rate(app, f64::NEG_INFINITY),
        ];
        for d in invalid {
            let res = cl.apply_directive(SimTime::ZERO, 0, d);
            assert!(matches!(res, Err(QiError::Control(_))), "{d:?}: {res:?}");
            assert!(cl.trace.directives.is_empty(), "{d:?} was recorded");
        }

        /// Emits one invalid directive per tick and counts its ticks.
        struct Invalid {
            app: AppId,
            ticks: Arc<AtomicU64>,
        }
        impl ClusterController for Invalid {
            fn interval(&self) -> SimDuration {
                SimDuration::from_millis(1)
            }
            fn on_window(
                &mut self,
                _now: SimTime,
                window: u64,
                _trace: &RunTrace,
                out: &mut Vec<ControlDirective>,
            ) {
                self.ticks.fetch_add(1, Ordering::Relaxed);
                out.push(if window.is_multiple_of(2) {
                    ControlDirective::RateLimit {
                        app: self.app,
                        bytes_per_sec: 0.0,
                    }
                } else {
                    ControlDirective::ClearRateLimit {
                        app: AppId(self.app.0 + 1),
                    }
                });
            }
        }

        // Installed: the run completes, and every tick's directive is
        // counted as rejected.
        let ticks = Arc::new(AtomicU64::new(0));
        let mut cl = cluster(ClusterConfig::small(), 7);
        let app = cl.add_app("w", vec![script(writes())], &[NodeId(0)]);
        cl.install_controller(Box::new(Invalid {
            app,
            ticks: Arc::clone(&ticks),
        }));
        let trace = cl.run_until_app(app, SimTime::from_secs(60));
        assert!(trace.completion_of(app).is_some(), "run did not complete");
        let ticks = ticks.load(Ordering::Relaxed);
        assert!(ticks > 1, "the controller ticked {ticks} times");
        assert!(trace.directives.is_empty());
        assert_eq!(trace.metrics.counter("pfs.control.rejected"), Some(ticks));
        assert_eq!(trace.metrics.counter("pfs.control.applied"), Some(0));
    }

    #[test]
    fn disk_faults_hold_ost_and_mdt_work_until_the_stall_ends() {
        // OSTs and the MDT share one device-event path: a stall and a
        // slow window on OST 0 and on the MDT, each stall catching one
        // request issued inside it.
        let ms = |n: u64| SimTime::ZERO + SimDuration::from_millis(n);
        let cfg = ClusterConfig::small();
        let mdt = cfg.n_osts();
        let (ost_end, mdt_end) = (ms(400), ms(900));
        let stall = |dev: u32, from: SimTime, until: SimTime| FaultEvent::DiskStall {
            dev,
            at: from,
            duration: until.saturating_since(from),
        };
        let slow = |dev: u32, from: SimTime, until: SimTime| FaultEvent::SlowDisk {
            dev,
            factor: 3.0,
            from,
            until,
        };
        let plan = FaultPlan::new()
            .with(stall(0, ms(100), ost_end))
            .with(slow(0, ost_end, ms(500)))
            .with(stall(mdt, ms(600), mdt_end))
            .with(slow(mdt, mdt_end, ms(1000)));
        let mut cl = Cluster::builder()
            .config(cfg)
            .seed(1)
            .fault_plan(plan)
            .build()
            .expect("valid plan");

        /// Issue one op at `at`, then finish.
        struct At(SimTime, Option<IoOp>);
        impl RankProgram for At {
            fn next(&mut self, now: SimTime) -> ProgramStep {
                if now < self.0 {
                    return ProgramStep::Compute(self.0.saturating_since(now));
                }
                self.1.take().map_or(ProgramStep::Finished, ProgramStep::Op)
            }
        }
        let ost0 = vec![cl.ost(0)];
        cl.precreate_file_on(file(1), 64 * 1024 * 1024, 1024 * 1024, ost0);
        let read = IoOp::Read {
            file: file(1),
            offset: 0,
            len: 1024 * 1024,
        };
        let create = IoOp::Create {
            file: file(2),
            dir: DirKey {
                app: AppId(0),
                num: 0,
            },
            stripe: None,
        };
        let reader = cl.add_app("r", vec![Box::new(At(ms(150), Some(read)))], &[NodeId(0)]);
        let creator = cl.add_app("c", vec![Box::new(At(ms(650), Some(create)))], &[NodeId(1)]);
        let trace = cl.run(SimTime::from_secs(5));

        assert_eq!(trace.metrics.counter("pfs.faults.disk_stalls"), Some(2));
        for (app, end) in [(reader, ost_end), (creator, mdt_end)] {
            let op = trace
                .ops
                .iter()
                .find(|o| o.token.app == app)
                .expect("op completed");
            assert!(op.issued < end, "{:?} issued after its stall", op.kind);
            assert!(
                op.completed >= end,
                "{:?} finished inside its stall",
                op.kind
            );
        }
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
