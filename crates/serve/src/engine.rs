//! The serving layer's shared vocabulary: configuration, request and
//! answer types, and the modelled inference cost.
//!
//! One prediction request arrives per emitted `(app, window)` cell.
//! Requests accumulate in their tenant's bounded queue and are flushed
//! as a **single stacked forward pass** when either threshold trips:
//!
//! - **batch size** — the queue reached [`ServeConfig::max_batch`];
//! - **batch delay** — the oldest queued request has waited
//!   [`ServeConfig::max_delay`] (checked by
//!   [`ShardedServeEngine::poll`], which callers drive from simulated
//!   time).
//!
//! Ahead of the queue sits a token-bucket admission controller and an
//! explicit [`OverloadPolicy`]; behind it, the batched forward pass runs
//! through the fused immutable inference path
//! ([`qi_ml::train::TrainedModel::predict_batch_into`]): `&self` on the model,
//! shard-owned scratch buffers, zero allocation per batch, and kernels
//! bit-identical to the training-path forward at any thread count.
//! Inference cost is *modelled* (a deterministic affine function of
//! batch size in simulated time), so latency telemetry is byte-stable
//! across replays and across thread counts. The state machine itself
//! lives in [`crate::sharded`].
//!
//! Accounting invariant (asserted in the tests below): every submitted
//! request is answered by inference, answered stale, shed, or still
//! queued — `requests == answered + stale + shed + queue_depth`.
//!
//! [`ShardedServeEngine::poll`]: crate::sharded::ShardedServeEngine::poll

use qi_pfs::ids::AppId;
use qi_simkit::error::QiError;
use qi_simkit::time::{SimDuration, SimTime};

/// Modelled inference cost: fixed dispatch overhead per batch…
pub(crate) const INFER_BASE_US: u64 = 150;
/// …plus a per-sample cost. Batching amortises the base term — that is
/// the whole point of micro-batching, and the bench measures the real
/// (wall-clock) analogue of the same effect.
pub(crate) const INFER_PER_SAMPLE_US: u64 = 40;

/// What the service does when a request cannot be admitted (the token
/// bucket is empty or the queue is at capacity).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Drop the request and count it; the caller gets no answer.
    /// Queue depth stays bounded by construction.
    Shed,
    /// Admit anyway: token debt delays the request's effective arrival
    /// (the caller waits for admission), and a full queue forces an
    /// immediate flush to make room. Latency absorbs the overload.
    Block,
    /// Answer immediately from the tenant's most recent prediction
    /// (class 0 — "no interference" — before any answer exists) without
    /// touching the queue or the model. Freshness absorbs the overload.
    DegradeToStale,
}

/// Engine configuration. The queue and admission fields apply **per
/// tenant**: each tenant's lane has its own queue and its own bucket.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Flush a tenant's queue when this many requests are in it.
    pub max_batch: usize,
    /// Flush when the oldest queued request has waited this long.
    pub max_delay: SimDuration,
    /// Per-tenant queue capacity; admission beyond it triggers the
    /// overload policy.
    pub queue_cap: usize,
    /// Optional token-bucket admission control `(rate_per_sec, burst)`,
    /// one bucket per tenant.
    pub admission: Option<(f64, f64)>,
    /// What to do when admission fails.
    pub overload: OverloadPolicy,
    /// Tenants allowed to submit. Fixed up front so the per-tenant
    /// telemetry key set is stable across scenarios.
    pub tenants: Vec<AppId>,
    /// Nothing reads this. Shards are driven by whatever threads the
    /// caller hands [`ShardWorker`](crate::sharded::ShardWorker)s to,
    /// and one batch is never split across threads. The field stays
    /// because struct literals outside this workspace's control (the
    /// frozen `benchmark/` package) name it.
    pub threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_delay: SimDuration::from_millis(200),
            queue_cap: 32,
            admission: None,
            overload: OverloadPolicy::Shed,
            tenants: Vec::new(),
            threads: None,
        }
    }
}

impl ServeConfig {
    /// Refuse a nonsensical config up front: zero batch size, queue
    /// smaller than a batch, zero delay, bad admission parameters.
    pub(crate) fn validate(&self) -> Result<(), QiError> {
        if self.max_batch == 0 {
            return Err(QiError::Serve("max_batch must be at least 1".into()));
        }
        if self.queue_cap < self.max_batch {
            return Err(QiError::Serve(format!(
                "queue_cap {} smaller than max_batch {}",
                self.queue_cap, self.max_batch
            )));
        }
        if self.max_delay.as_nanos() == 0 {
            return Err(QiError::Serve("max_delay must be positive".into()));
        }
        if let Some((rate, burst)) = self.admission {
            if rate <= 0.0 || burst <= 0.0 {
                return Err(QiError::Serve(format!(
                    "admission rate/burst must be positive, got ({rate}, {burst})"
                )));
            }
        }
        Ok(())
    }
}

/// One prediction request: the feature block of one `(app, window)`
/// cell, as produced by `EmittedWindow::feature_blocks`.
#[derive(Clone, Debug)]
pub struct PredictRequest {
    /// The application the prediction is for.
    pub tenant: AppId,
    /// The monitor window the block describes.
    pub window: u64,
    /// Flattened `n_servers × n_features` feature block.
    pub block: Vec<f32>,
}

/// A completed prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// The application the prediction is for.
    pub tenant: AppId,
    /// The monitor window it describes.
    pub window: u64,
    /// Predicted severity bin.
    pub class: usize,
    /// Time spent queued (effective arrival → flush).
    pub queued: SimDuration,
    /// Size of the batch this prediction was flushed in.
    pub batch: usize,
    /// Instant the answer became available (flush + modelled cost).
    pub done_at: SimTime,
    /// Registry version of the model that answered. Every prediction in
    /// one batch carries the same version — the hot-swap point flushes
    /// first, so a batch never mixes model versions.
    pub version: u64,
}

/// What happened to a request at submission time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued; its prediction arrives from a later flush.
    Enqueued,
    /// Answered immediately with a stale class (DegradeToStale).
    Stale(usize),
    /// Dropped (Shed); it will never be answered.
    Shed,
}

#[cfg(test)]
mod tests {
    //! The admission/overload/flush semantics the types above promise,
    //! pinned on a one-shard [`ShardedServeEngine`].

    use super::*;
    use crate::registry::ModelRegistry;
    use crate::sharded::ShardedServeEngine;
    use qi_ml::data::Dataset;
    use qi_ml::train::{train, TrainConfig, TrainedModel};
    use qi_telemetry::MetricsSnapshot;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const SERVERS: usize = 3;
    const FEATS: usize = 4;

    fn model(seed: u64) -> TrainedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        let mut y = Vec::new();
        for i in 0..60 {
            let pos = i % 2 == 0;
            let block: Vec<f32> = (0..SERVERS * FEATS)
                .map(|_| {
                    if pos {
                        rng.gen_range(1.0..2.0)
                    } else {
                        rng.gen_range(-2.0..-1.0)
                    }
                })
                .collect();
            samples.push(block);
            y.push(usize::from(pos));
        }
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        train(&Dataset::from_samples(samples, y, SERVERS), &cfg)
    }

    fn engine(cfg: ServeConfig) -> ShardedServeEngine {
        let m = model(1);
        let mut reg = ModelRegistry::new(m.shape(), m.schema().clone());
        reg.insert(1, m).expect("load");
        reg.activate(1).expect("activate");
        ShardedServeEngine::new(cfg, reg, 1).expect("valid config")
    }

    fn req(tenant: u32, window: u64, hot: bool) -> PredictRequest {
        let v = if hot { 1.5 } else { -1.5 };
        PredictRequest {
            tenant: AppId(tenant),
            window,
            block: vec![v; SERVERS * FEATS],
        }
    }

    fn t_ms(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn size_threshold_trips_a_batch() {
        let mut e = engine(ServeConfig {
            max_batch: 3,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        let (_, c1) = e.submit(t_ms(0), req(0, 0, true)).unwrap();
        let (_, c2) = e.submit(t_ms(1), req(0, 1, false)).unwrap();
        assert!(c1.is_empty() && c2.is_empty());
        assert_eq!(e.queue_depth(), 2);
        let (_, c3) = e.submit(t_ms(2), req(0, 2, true)).unwrap();
        assert_eq!(c3.len(), 3, "size threshold flushed the batch");
        assert_eq!(e.queue_depth(), 0);
        assert!(c3.iter().all(|p| p.batch == 3));
        // Batched answers equal the per-sample model output.
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.answered"), Some(3));
        assert_eq!(snap.counter("serve.batches"), Some(1));
    }

    #[test]
    fn delay_threshold_trips_via_poll() {
        let mut e = engine(ServeConfig {
            max_batch: 8,
            max_delay: SimDuration::from_millis(50),
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        e.submit(t_ms(0), req(0, 0, true)).unwrap();
        assert!(e.poll(t_ms(49)).unwrap().is_empty(), "not yet expired");
        let out = e.poll(t_ms(50)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].queued, SimDuration::from_millis(50));
        assert_eq!(out[0].done_at, t_ms(50) + SimDuration::from_micros(190));
    }

    #[test]
    fn batched_equals_unbatched_classes() {
        let mk = |max_batch| {
            let mut e = engine(ServeConfig {
                max_batch,
                tenants: vec![AppId(0)],
                ..ServeConfig::default()
            });
            let mut classes = Vec::new();
            for w in 0..10u64 {
                let (_, done) = e.submit(t_ms(w), req(0, w, w % 3 == 0)).unwrap();
                classes.extend(done.into_iter().map(|p| (p.window, p.class)));
            }
            classes.extend(
                e.finish(t_ms(10))
                    .unwrap()
                    .into_iter()
                    .map(|p| (p.window, p.class)),
            );
            classes.sort_unstable();
            classes
        };
        assert_eq!(mk(1), mk(8), "batching must not change predictions");
    }

    #[test]
    fn shed_policy_bounds_the_queue_and_counts_exactly() {
        let mut e = engine(ServeConfig {
            max_batch: 4,
            queue_cap: 4,
            admission: Some((10.0, 2.0)), // 2-token burst, 10/s refill
            overload: OverloadPolicy::Shed,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        // 6 requests at the same instant: 2 admitted (burst), 4 shed.
        let mut shed = 0;
        let mut answered = 0;
        for w in 0..6u64 {
            let (adm, done) = e.submit(t_ms(0), req(0, w, true)).unwrap();
            if adm == Admission::Shed {
                shed += 1;
            }
            answered += done.len();
        }
        answered += e.finish(t_ms(1)).unwrap().len();
        assert_eq!(shed, 4);
        assert_eq!(answered, 2);
        assert!(e.queue_depth() <= 4);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.shed"), Some(4));
        assert_eq!(snap.counter("serve.tenant.app0.shed"), Some(4));
        assert_eq!(
            snap.counter("serve.requests"),
            Some(snap.counter("serve.answered").unwrap() + snap.counter("serve.shed").unwrap())
        );
    }

    #[test]
    fn block_policy_delays_instead_of_dropping() {
        let mut e = engine(ServeConfig {
            max_batch: 2,
            admission: Some((10.0, 1.0)),
            overload: OverloadPolicy::Block,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        let (a1, _) = e.submit(t_ms(0), req(0, 0, true)).unwrap();
        let (a2, done) = e.submit(t_ms(0), req(0, 1, true)).unwrap();
        assert_eq!(a1, Admission::Enqueued);
        assert_eq!(a2, Admission::Enqueued, "blocked, not shed");
        // Second request waited 100 ms for a token; flush at t=0 came
        // from the size threshold, so its queue wait saturates at zero.
        assert_eq!(done.len(), 2);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.blocked"), Some(1));
        assert_eq!(snap.counter("serve.shed"), Some(0));
        assert_eq!(snap.counter("serve.answered"), Some(2));
    }

    #[test]
    fn degrade_to_stale_reuses_the_last_answer() {
        let mut e = engine(ServeConfig {
            max_batch: 1, // every request flushes immediately when admitted
            admission: Some((10.0, 1.0)),
            overload: OverloadPolicy::DegradeToStale,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        let (a1, done) = e.submit(t_ms(0), req(0, 0, true)).unwrap();
        assert_eq!(a1, Admission::Enqueued);
        let fresh = done[0].class;
        let (a2, _) = e.submit(t_ms(0), req(0, 1, false)).unwrap();
        assert_eq!(a2, Admission::Stale(fresh), "last answer echoed");
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counter("serve.stale"), Some(1));
    }

    #[test]
    fn hot_swap_flushes_between_batches() {
        let m2 = model(2);
        let mut e = engine(ServeConfig {
            max_batch: 8,
            tenants: vec![AppId(0)],
            ..ServeConfig::default()
        });
        // Queue two requests, then activate a new version: the queued
        // work must flush under the OLD version first.
        e.submit(t_ms(0), req(0, 0, true)).unwrap();
        e.submit(t_ms(1), req(0, 1, false)).unwrap();
        let mut reg_snap = MetricsSnapshot::new();
        e.registry().metrics_into(&mut reg_snap);
        assert_eq!(reg_snap.gauge("serve.registry.active_version"), Some(1.0));
        // (register v2 through the engine's registry access)
        let text = qi_ml::serialize::model_to_text(&m2);
        e.load_model_text(2, &text).unwrap();
        let flushed = e.activate(t_ms(2), 2).unwrap();
        assert_eq!(flushed.len(), 2, "pending work flushed before the swap");
        assert_eq!(e.registry().active_version(), Some(2));
    }

    #[test]
    fn config_and_request_validation() {
        let m = model(1);
        let shape = m.shape();
        let mk_reg = || {
            let mut r = ModelRegistry::new(shape, m.schema().clone());
            r.insert(1, model(1)).unwrap();
            r.activate(1).unwrap();
            r
        };
        for bad in [
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 8,
                queue_cap: 4,
                ..ServeConfig::default()
            },
            ServeConfig {
                admission: Some((0.0, 5.0)),
                ..ServeConfig::default()
            },
        ] {
            assert!(ShardedServeEngine::new(bad, mk_reg(), 1).is_err());
        }
        assert!(ShardedServeEngine::new(ServeConfig::default(), mk_reg(), 0).is_err());
        let mut e = ShardedServeEngine::new(
            ServeConfig {
                tenants: vec![AppId(0)],
                ..ServeConfig::default()
            },
            mk_reg(),
            1,
        )
        .unwrap();
        // Wrong block shape.
        let bad = PredictRequest {
            tenant: AppId(0),
            window: 0,
            block: vec![0.0; 3],
        };
        assert!(matches!(e.submit(t_ms(0), bad), Err(QiError::Shape { .. })));
        // Unknown tenant.
        assert!(e.submit(t_ms(0), req(9, 0, true)).is_err());
        // No active model: flushing errors, but only when work exists.
        let mut r = ModelRegistry::new(shape, m.schema().clone());
        r.insert(1, model(1)).unwrap();
        let mut e2 = ShardedServeEngine::new(
            ServeConfig {
                max_batch: 1,
                tenants: vec![AppId(0)],
                ..ServeConfig::default()
            },
            r,
            1,
        )
        .unwrap();
        assert!(e2.finish(t_ms(0)).unwrap().is_empty());
        assert!(e2.submit(t_ms(0), req(0, 0, true)).is_err());
    }

    #[test]
    fn telemetry_key_set_is_stable_and_quantiles_present() {
        let e = engine(ServeConfig {
            tenants: vec![AppId(0), AppId(3)],
            ..ServeConfig::default()
        });
        let snap = e.metrics_snapshot();
        for key in [
            "serve.requests",
            "serve.answered",
            "serve.stale",
            "serve.shed",
            "serve.blocked",
            "serve.batches",
            "serve.tenant.app0.requests",
            "serve.tenant.app3.shed",
            "serve.registry.models_loaded",
            "serve.registry.active_version",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
        assert_eq!(snap.gauge("serve.queue_wait_us.p50"), Some(0.0));
        assert_eq!(snap.gauge("serve.infer_us.p99"), Some(0.0));
        assert!(snap.histogram("serve.queue_wait_us").is_some());
    }

    #[test]
    fn replay_is_byte_identical() {
        let run = || {
            let mut e = engine(ServeConfig {
                max_batch: 4,
                admission: Some((100.0, 8.0)),
                tenants: vec![AppId(0), AppId(1)],
                ..ServeConfig::default()
            });
            for w in 0..20u64 {
                let _ = e.submit(t_ms(w * 10), req((w % 2) as u32, w, w % 3 == 0));
            }
            e.finish(t_ms(200)).unwrap();
            e.metrics_snapshot().to_json()
        };
        assert_eq!(run(), run());
    }
}
