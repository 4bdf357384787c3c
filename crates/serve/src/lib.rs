//! # qi-serve
//!
//! The online half of the paper's two-phase framework (Fig. 2, §III-C):
//! train offline, then *predict at runtime, per time window, while the
//! applications run*. This crate turns a [`qi_ml::train::TrainedModel`]
//! into a production-style prediction service with the machinery a real
//! deployment needs — and keeps every bit of it deterministic, because
//! it is driven entirely from **simulated time**:
//!
//! - [`registry`] — a versioned model registry over `qi_ml::serialize`:
//!   load/validate/activate `QIMODEL` files by version, hot-swap the
//!   active model between batches, reject models whose shape or embedded
//!   [`qi_monitor::FeatureSchema`] does not match the monitor's feature
//!   layout.
//! - [`engine`] — the shared vocabulary: [`ServeConfig`],
//!   [`PredictRequest`], [`Prediction`], [`Admission`] and the explicit
//!   [`OverloadPolicy`] (shed, block, or degrade to stale answers) that
//!   makes the service degrade gracefully instead of growing unbounded
//!   queues.
//! - [`sharded`] — the engine. Every tenant owns a **lane**: a bounded
//!   micro-batch queue flushed as a single stacked forward pass when
//!   the batch-size or batch-delay threshold trips, a token-bucket
//!   admission controller, a stale-answer cache and its statistics.
//!   Lanes are grouped into N worker shards by tenant hash, all serving
//!   from ONE shared registry through the fused immutable inference
//!   path. Per the module's determinism argument, predicted classes and
//!   telemetry snapshots are byte-identical at any shard count and
//!   thread count.
//! - [`driver`] — replays a finished [`qi_pfs::ops::RunTrace`] through
//!   the [`qi_monitor::FeaturePipeline`] and a [`ShardedServeEngine`]
//!   in event-time order, the deterministic stand-in for a live metric
//!   stream. [`WindowFeed`] derives the pipeline from the registry's
//!   expected schema and shape, and turns each emitted window into
//!   requests — for the replay and for the online control loop alike —
//!   so serving and validation can never disagree.
//!
//! Determinism argument: no wall clock is ever read — arrival times,
//! batch-delay deadlines, admission grants, and the modelled inference
//! cost are all [`qi_simkit::time::SimTime`] arithmetic; the batched
//! forward pass runs through `qi_ml`'s fused immutable kernels, which
//! are bit-identical to the training-path forward (proven by property
//! tests) and identical at any shard or thread count; and the serving
//! telemetry ([`qi_telemetry`]) registers every key up front so
//! snapshot key sets are stable across scenarios. Identical inputs
//! therefore produce byte-identical outputs and telemetry, replay after
//! replay, at 1, 2, or 8 worker threads and 1..N shards.

#![forbid(unsafe_code)]

pub mod driver;
pub mod engine;
pub mod registry;
pub mod sharded;

pub use driver::{replay_trace, ReplaySummary, WindowFeed};
pub use engine::{Admission, OverloadPolicy, PredictRequest, Prediction, ServeConfig};
pub use registry::ModelRegistry;
pub use sharded::{shard_of_tenant, ShardWorker, ShardedServeEngine};
