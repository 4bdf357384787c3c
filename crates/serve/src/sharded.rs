//! The serving engine: per-tenant lanes grouped into N worker shards
//! behind one registry, byte-identical at ANY shard count and thread
//! count.
//!
//! The paper predicts one severity bin per *(application, window)*, so
//! the tenant is the batching unit: every tenant gets a **lane** with
//! its own micro-batch queue, token bucket, stale-answer cache and
//! statistics. A [`ShardedServeEngine`] spreads the lanes over
//! `n_shards` worker shards by **tenant hash** (FNV-1a of the
//! application id, mod shard count); each shard owns its lanes and its
//! scratch buffers, and all serve from a single shared
//! [`ModelRegistry`] through the fused immutable inference path
//! (`TrainedModel::predict_batch_into`, `&self` on the model — no
//! per-shard clones). One shard is the whole service on one thread;
//! more shards let a caller drive disjoint tenant sets in parallel.
//!
//! ## The determinism argument
//!
//! The shard invariant carried from PRs 2/5/6: predicted classes and
//! the telemetry snapshot are **byte-identical at any shard count and
//! any thread count**. That holds because *no observable state lives at
//! shard granularity*:
//!
//! - every queue, token bucket, stale-answer cache, and statistic is
//!   owned by a per-tenant **lane**; a shard is nothing but the set of
//!   lanes the tenant hash assigns it, so reassigning lanes to a
//!   different number of shards moves ownership without touching any
//!   lane's request stream;
//! - batches never span tenants, so batch composition — sizes,
//!   classes, queue waits, modelled `done_at` instants — is a pure
//!   function of each tenant's own stream;
//! - shards share no mutable state (statistics are "lock-free" the
//!   honest way: exclusively owned, via disjoint `&mut`, not atomics),
//!   and the snapshot merges lane statistics in **ascending tenant
//!   order** — a fixed order, independent of shard assignment, which
//!   matters because [`OnlineStats::merge`] is order-sensitive in the
//!   last floating-point bits;
//! - the one shared resource, the registry, is read-only between
//!   hot-swap points, and [`ShardedServeEngine::activate`] flushes
//!   every lane *before* flipping the version, so no batch ever mixes
//!   model versions (each [`Prediction`] records the version that
//!   answered it, and the sharding test suite asserts the invariant).
//!
//! Because state is per tenant, so are the limits: `ServeConfig::admission`
//! rates one bucket per lane, and `queue_cap`/`max_batch`/`max_delay`
//! bound each lane's queue. One noisy tenant cannot starve the rest.
//!
//! ## Driving shards in parallel
//!
//! [`ShardedServeEngine::workers`] hands out one [`ShardWorker`] per
//! shard — disjoint `&mut` borrows over a shared `&ModelRegistry` —
//! so a caller can drive every shard from its own thread (the
//! throughput bench does exactly that). Because shards share nothing,
//! parallel and serial drives produce identical bytes.
//!
//! [`OnlineStats::merge`]: qi_simkit::stats::OnlineStats::merge

use std::collections::HashMap;

use qi_ml::train::TrainedModel;
use qi_ml::InferScratch;
use qi_pfs::ids::AppId;
use qi_simkit::error::QiError;
use qi_simkit::hash::fnv1a;
use qi_simkit::ratelimit::TokenBucket;
use qi_simkit::stats::{Histogram, OnlineStats};
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::engine::{
    Admission, OverloadPolicy, PredictRequest, Prediction, ServeConfig, INFER_BASE_US,
    INFER_PER_SAMPLE_US,
};
use crate::registry::ModelRegistry;

/// Shard index for `tenant` at a given shard count: FNV-1a over the
/// little-endian application id, mod `n_shards`. Stable across
/// processes and platforms — the routing table is part of the
/// engine's observable contract (see the routing-stability test).
pub fn shard_of_tenant(tenant: AppId, n_shards: usize) -> usize {
    (fnv1a(&tenant.0.to_le_bytes()) % n_shards as u64) as usize
}

/// One queued request.
struct LaneRequest {
    req: PredictRequest,
    /// Effective arrival: submission time, pushed later by token debt
    /// under [`OverloadPolicy::Block`].
    arrival: SimTime,
}

/// Per-lane statistics, owned exclusively by the lane and merged in
/// ascending tenant order at snapshot time.
struct LaneStats {
    requests: u64,
    answered: u64,
    stale: u64,
    shed: u64,
    blocked: u64,
    batches: u64,
    batch_size: OnlineStats,
    queue_depth: OnlineStats,
    queue_wait: Histogram,
    infer: Histogram,
    admission_wait: Histogram,
}

impl LaneStats {
    fn new() -> Self {
        LaneStats {
            requests: 0,
            answered: 0,
            stale: 0,
            shed: 0,
            blocked: 0,
            batches: 0,
            batch_size: OnlineStats::new(),
            queue_depth: OnlineStats::new(),
            queue_wait: Histogram::new(0.0, 2_000_000.0, 40),
            infer: Histogram::new(0.0, 5_000.0, 50),
            admission_wait: Histogram::new(0.0, 2_000_000.0, 40),
        }
    }
}

/// All serving state of one tenant. The unit of work ownership: a
/// shard is a set of lanes, and moving a lane between shards (by
/// changing the shard count) cannot change anything the lane computes.
struct Lane {
    tenant: AppId,
    pending: Vec<LaneRequest>,
    bucket: Option<TokenBucket>,
    /// Most recent answered class (0 before any answer), for
    /// [`OverloadPolicy::DegradeToStale`].
    last_answer: usize,
    stats: LaneStats,
}

/// One worker shard: the lanes the tenant hash assigned to it, plus
/// the shard-private inference scratch. Nothing in here is shared.
struct Shard {
    /// Lanes in ascending tenant order.
    lanes: Vec<Lane>,
    scratch: InferScratch,
    row_buf: Vec<f32>,
    class_buf: Vec<usize>,
}

/// `(version, model)` of the active registry entry, resolved once per
/// engine call. A free function so the borrow stays on the registry
/// field alone while shards are borrowed mutably.
fn active_of(registry: &ModelRegistry) -> Option<(u64, &TrainedModel)> {
    let v = registry.active_version()?;
    Some((v, registry.active_model()?))
}

/// A request's block must hold exactly the floats the registry's
/// models take.
fn check_block(registry: &ModelRegistry, req: &PredictRequest) -> Result<(), QiError> {
    let shape = registry.expected_shape();
    let expected = shape.n_servers * shape.n_features;
    if req.block.len() != expected {
        return Err(QiError::Shape {
            what: "serve request block floats",
            expected,
            got: req.block.len(),
        });
    }
    Ok(())
}

impl Shard {
    fn new() -> Self {
        Shard {
            lanes: Vec::new(),
            scratch: InferScratch::new(),
            row_buf: Vec::new(),
            class_buf: Vec::new(),
        }
    }

    /// Position of `tenant`'s lane in this shard, if it routes here.
    fn lane_pos(&self, tenant: AppId) -> Option<usize> {
        self.lanes
            .binary_search_by_key(&tenant.0, |l| l.tenant.0)
            .ok()
    }

    /// Flush one lane's pending batch through the fused forward pass.
    fn flush_lane(
        &mut self,
        active: Option<(u64, &TrainedModel)>,
        lane_idx: usize,
        now: SimTime,
    ) -> Result<Vec<Prediction>, QiError> {
        let Shard {
            lanes,
            scratch,
            row_buf,
            class_buf,
        } = self;
        let lane = &mut lanes[lane_idx];
        if lane.pending.is_empty() {
            return Ok(Vec::new());
        }
        let (version, model) =
            active.ok_or_else(|| QiError::Serve("no active model version".into()))?;
        let k = lane.pending.len();
        row_buf.clear();
        for p in &lane.pending {
            row_buf.extend_from_slice(&p.req.block);
        }
        model.predict_batch_into(row_buf, k, scratch, class_buf);
        debug_assert_eq!(class_buf.len(), k);

        let cost = SimDuration::from_micros(INFER_BASE_US + INFER_PER_SAMPLE_US * k as u64);
        let done_at = now + cost;
        lane.stats.batches += 1;
        lane.stats.batch_size.push(k as f64);
        lane.stats.infer.record(cost.as_nanos() as f64 / 1_000.0);
        let mut out = Vec::with_capacity(k);
        // Drained in place, so the lane keeps its queue's allocation.
        for (p, &class) in lane.pending.drain(..).zip(class_buf.iter()) {
            let queued = now.saturating_since(p.arrival);
            lane.stats
                .queue_wait
                .record(queued.as_nanos() as f64 / 1_000.0);
            lane.stats.answered += 1;
            lane.last_answer = class;
            out.push(Prediction {
                tenant: p.req.tenant,
                window: p.req.window,
                class,
                queued,
                batch: k,
                done_at,
                version,
            });
        }
        Ok(out)
    }

    /// Flush the lane if its oldest request's delay threshold expired.
    fn poll_lane(
        &mut self,
        cfg: &ServeConfig,
        active: Option<(u64, &TrainedModel)>,
        lane_idx: usize,
        now: SimTime,
    ) -> Result<Vec<Prediction>, QiError> {
        let expired = self.lanes[lane_idx]
            .pending
            .first()
            .is_some_and(|p| p.arrival + cfg.max_delay <= now);
        if expired {
            self.flush_lane(active, lane_idx, now)
        } else {
            Ok(Vec::new())
        }
    }

    /// The submission path: delay-expired work flushes first, then the
    /// admission/overload state machine runs on the tenant's own queue
    /// and bucket.
    fn submit(
        &mut self,
        cfg: &ServeConfig,
        active: Option<(u64, &TrainedModel)>,
        lane_idx: usize,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        let mut completed = self.poll_lane(cfg, active, lane_idx, now)?;

        let lane = &mut self.lanes[lane_idx];
        lane.stats.requests += 1;

        // Admission: one token per request, probed on a copy so a shed
        // or stale request consumes nothing from the lane's bucket.
        // Under Block the caller waits: the request's effective arrival
        // is the grant instant.
        let mut arrival = now;
        if let Some(bucket) = &lane.bucket {
            let mut probe = bucket.clone();
            let grant = probe.earliest(now, 1.0);
            if grant > now {
                match cfg.overload {
                    OverloadPolicy::Shed => {
                        lane.stats.shed += 1;
                        return Ok((Admission::Shed, completed));
                    }
                    OverloadPolicy::DegradeToStale => {
                        lane.stats.stale += 1;
                        return Ok((Admission::Stale(lane.last_answer), completed));
                    }
                    OverloadPolicy::Block => {
                        lane.bucket = Some(probe);
                        lane.stats.blocked += 1;
                        lane.stats
                            .admission_wait
                            .record(grant.saturating_since(now).as_nanos() as f64 / 1_000.0);
                        arrival = grant;
                    }
                }
            } else {
                lane.bucket = Some(probe);
                lane.stats.admission_wait.record(0.0);
            }
        }

        // Bounded lane queue: the other overload trigger. Under Block a
        // full queue drains now to make room.
        if lane.pending.len() >= cfg.queue_cap {
            match cfg.overload {
                OverloadPolicy::Shed => {
                    lane.stats.shed += 1;
                    return Ok((Admission::Shed, completed));
                }
                OverloadPolicy::DegradeToStale => {
                    lane.stats.stale += 1;
                    return Ok((Admission::Stale(lane.last_answer), completed));
                }
                OverloadPolicy::Block => {
                    completed.extend(self.flush_lane(active, lane_idx, now)?);
                }
            }
        }

        let lane = &mut self.lanes[lane_idx];
        lane.pending.push(LaneRequest { req, arrival });
        lane.stats.queue_depth.push(lane.pending.len() as f64);
        if lane.pending.len() >= cfg.max_batch {
            completed.extend(self.flush_lane(active, lane_idx, now)?);
        }
        Ok((Admission::Enqueued, completed))
    }
}

/// The micro-batching prediction service. See the module docs for the
/// routing and determinism story.
pub struct ShardedServeEngine {
    cfg: ServeConfig,
    registry: ModelRegistry,
    shards: Vec<Shard>,
    /// tenant → (shard index, lane position within the shard).
    route: HashMap<AppId, (usize, usize)>,
    /// All lanes in ascending tenant order, as (shard, lane) pairs —
    /// the one true iteration order for drains and stat merges.
    order: Vec<(usize, usize)>,
}

impl ShardedServeEngine {
    /// Build an engine over a registry. Fails on a nonsensical config
    /// ([`ServeConfig`]'s rules, plus `n_shards >= 1`).
    pub fn new(
        cfg: ServeConfig,
        registry: ModelRegistry,
        n_shards: usize,
    ) -> Result<Self, QiError> {
        if n_shards == 0 {
            return Err(QiError::Serve("n_shards must be at least 1".into()));
        }
        cfg.validate()?;

        let mut tenants = cfg.tenants.clone();
        tenants.sort_unstable_by_key(|a| a.0);
        tenants.dedup();

        let mut shards: Vec<Shard> = (0..n_shards).map(|_| Shard::new()).collect();
        let mut route = HashMap::new();
        let mut order = Vec::with_capacity(tenants.len());
        for &t in &tenants {
            let s = shard_of_tenant(t, n_shards);
            let lane_idx = shards[s].lanes.len();
            shards[s].lanes.push(Lane {
                tenant: t,
                pending: Vec::new(),
                bucket: cfg
                    .admission
                    .map(|(rate, burst)| TokenBucket::new(rate, burst)),
                last_answer: 0,
                stats: LaneStats::new(),
            });
            route.insert(t, (s, lane_idx));
            order.push((s, lane_idx));
        }

        Ok(ShardedServeEngine {
            cfg,
            registry,
            shards,
            route,
            order,
        })
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `tenant` routes to (`None` for unknown tenants).
    pub fn shard_of(&self, tenant: AppId) -> Option<usize> {
        self.route.get(&tenant).map(|&(s, _)| s)
    }

    /// The shared model registry (inspection).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Load a serialized model into the registry under `version`.
    pub fn load_model_text(&mut self, version: u64, text: &str) -> Result<(), QiError> {
        self.registry.load_text(version, text)
    }

    /// Requests currently queued, across every lane.
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.lanes.iter())
            .map(|l| l.pending.len())
            .sum()
    }

    /// Submit one request at simulated instant `now` (non-decreasing
    /// across calls): route to its tenant's lane and run the lane's
    /// admission path. Returns what happened to the request plus any
    /// predictions that completed as a side effect (a delay-expired
    /// batch, a size-tripped flush, a forced flush under `Block`). Only
    /// the owning shard is touched.
    pub fn submit(
        &mut self,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        check_block(&self.registry, &req)?;
        let Some(&(s, l)) = self.route.get(&req.tenant) else {
            return Err(QiError::Serve(format!(
                "unknown tenant app{} (not in ServeConfig::tenants)",
                req.tenant.0
            )));
        };
        let active = active_of(&self.registry);
        self.shards[s].submit(&self.cfg, active, l, now, req)
    }

    /// Flush every lane whose delay threshold expired, in ascending
    /// tenant order.
    pub fn poll(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(&self.registry);
        let mut out = Vec::new();
        for &(s, l) in &self.order {
            out.extend(self.shards[s].poll_lane(&self.cfg, active, l, now)?);
        }
        Ok(out)
    }

    /// End of stream: flush everything queued, in ascending tenant
    /// order.
    pub fn finish(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(&self.registry);
        let mut out = Vec::new();
        for &(s, l) in &self.order {
            out.extend(self.shards[s].flush_lane(active, l, now)?);
        }
        Ok(out)
    }

    /// Hot-swap the active model. Every shard's pending work flushes
    /// under the OLD version before the flip, so no batch — on any
    /// shard — ever mixes model versions. Returns the flushed
    /// predictions (each stamped with the pre-swap version).
    pub fn activate(&mut self, now: SimTime, version: u64) -> Result<Vec<Prediction>, QiError> {
        let flushed = self.finish(now)?;
        self.registry.activate(version)?;
        Ok(flushed)
    }

    /// One worker per shard: disjoint `&mut` shard borrows over the
    /// shared registry, for driving shards from parallel threads. The
    /// borrows end when the workers drop; statistics land in the lanes
    /// either way, so a parallel drive snapshots identically to a
    /// serial one.
    pub fn workers(&mut self) -> Vec<ShardWorker<'_>> {
        let cfg = &self.cfg;
        let registry = &self.registry;
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(index, shard)| ShardWorker {
                cfg,
                registry,
                shard,
                index,
            })
            .collect()
    }

    /// Serving telemetry, merged from every lane in ascending tenant
    /// order: aggregate counters, batch/queue statistics, latency
    /// histograms with p50/p95/p99 gauges, per-tenant counters and
    /// registry state — every key present from construction, and NO
    /// shard-count-dependent key, which is precisely what makes the
    /// snapshot byte-identical at any shard count.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let mut requests = 0u64;
        let mut answered = 0u64;
        let mut stale = 0u64;
        let mut shed = 0u64;
        let mut blocked = 0u64;
        let mut batches = 0u64;
        let mut batch_size = OnlineStats::new();
        let mut queue_depth = OnlineStats::new();
        let mut queue_wait = Histogram::new(0.0, 2_000_000.0, 40);
        let mut infer = Histogram::new(0.0, 5_000.0, 50);
        let mut admission_wait = Histogram::new(0.0, 2_000_000.0, 40);
        for &(s, l) in &self.order {
            let lane = &self.shards[s].lanes[l];
            let st = &lane.stats;
            requests += st.requests;
            answered += st.answered;
            stale += st.stale;
            shed += st.shed;
            blocked += st.blocked;
            batches += st.batches;
            batch_size.merge(&st.batch_size);
            queue_depth.merge(&st.queue_depth);
            queue_wait.merge(&st.queue_wait);
            infer.merge(&st.infer);
            admission_wait.merge(&st.admission_wait);
            let t = lane.tenant.0;
            snap.put(
                &format!("serve.tenant.app{t}.requests"),
                MetricValue::Counter(st.requests),
            );
            snap.put(
                &format!("serve.tenant.app{t}.answered"),
                MetricValue::Counter(st.answered),
            );
            snap.put(
                &format!("serve.tenant.app{t}.shed"),
                MetricValue::Counter(st.shed),
            );
        }
        snap.put("serve.requests", MetricValue::Counter(requests));
        snap.put("serve.answered", MetricValue::Counter(answered));
        snap.put("serve.stale", MetricValue::Counter(stale));
        snap.put("serve.shed", MetricValue::Counter(shed));
        snap.put("serve.blocked", MetricValue::Counter(blocked));
        snap.put("serve.batches", MetricValue::Counter(batches));
        snap.put("serve.batch_size", MetricValue::Stats(batch_size));
        snap.put("serve.queue_depth", MetricValue::Stats(queue_depth));
        for (name, h) in [
            ("serve.queue_wait_us", &queue_wait),
            ("serve.infer_us", &infer),
        ] {
            for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                snap.put(&format!("{name}.{tag}"), MetricValue::Gauge(h.quantile(q)));
            }
        }
        snap.put("serve.queue_wait_us", MetricValue::Histogram(queue_wait));
        snap.put("serve.infer_us", MetricValue::Histogram(infer));
        snap.put(
            "serve.admission_wait_us",
            MetricValue::Histogram(admission_wait),
        );
        self.registry.metrics_into(&mut snap);
        snap
    }
}

/// Exclusive handle to one shard, over the shared registry. Obtained
/// from [`ShardedServeEngine::workers`]; each worker can be driven
/// from its own thread because workers share no mutable state.
pub struct ShardWorker<'a> {
    cfg: &'a ServeConfig,
    registry: &'a ModelRegistry,
    shard: &'a mut Shard,
    index: usize,
}

impl ShardWorker<'_> {
    /// This worker's shard index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Does `tenant` route to this shard?
    pub fn owns(&self, tenant: AppId) -> bool {
        self.shard.lane_pos(tenant).is_some()
    }

    /// Submit a request for a tenant this shard owns.
    pub fn submit(
        &mut self,
        now: SimTime,
        req: PredictRequest,
    ) -> Result<(Admission, Vec<Prediction>), QiError> {
        check_block(self.registry, &req)?;
        let Some(lane) = self.shard.lane_pos(req.tenant) else {
            return Err(QiError::Serve(format!(
                "tenant app{} does not route to shard {}",
                req.tenant.0, self.index
            )));
        };
        let active = active_of(self.registry);
        self.shard.submit(self.cfg, active, lane, now, req)
    }

    /// Flush this shard's expired lanes (ascending tenant order).
    pub fn poll(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(self.registry);
        let mut out = Vec::new();
        for l in 0..self.shard.lanes.len() {
            out.extend(self.shard.poll_lane(self.cfg, active, l, now)?);
        }
        Ok(out)
    }

    /// Flush everything queued on this shard (ascending tenant order).
    pub fn finish(&mut self, now: SimTime) -> Result<Vec<Prediction>, QiError> {
        let active = active_of(self.registry);
        let mut out = Vec::new();
        for l in 0..self.shard.lanes.len() {
            out.extend(self.shard.flush_lane(active, l, now)?);
        }
        Ok(out)
    }
}
