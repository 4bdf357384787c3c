//! # qi-monitor
//!
//! The paper's two runtime monitors, reimplemented over simulator traces:
//!
//! - [`pipeline`] — the **one** featurization path: the incremental
//!   [`FeaturePipeline`] (three-stream merge → windowing → accumulation
//!   → feature-block assembly), each step defined once. The batch entry
//!   points, the replay driver and the control loop all enter through
//!   `ingest_trace` / `ingest_until` / `run_streams`, so training and
//!   serving cannot drift apart.
//! - [`schema`] — the versioned [`FeatureSchema`] describing a
//!   pipeline's vector layout, embedded in trained models and
//!   validated when a model is bound to a pipeline.
//! - [`client`] — the modified-Darshan client-side monitor: per-app,
//!   per-window request counts, byte totals, I/O time, throughput/IOPS,
//!   and per-server targeting (paper §III-A). `client_windows` is a
//!   batch adapter over the pipeline.
//! - [`server`] — the Lustre server-side monitor: per-second device
//!   counters reduced to windowed sum/mean/std (paper §III-B, Table II).
//!   `server_windows` is a batch adapter over the pipeline.
//! - [`features`] — the per-server vector fed to the kernel-based
//!   network (paper §III-C): one function writes it. Missing cells are
//!   zeros.
//! - [`sampler`] — the budget-bounded adaptive downsampler that thins
//!   quiet per-device series (and restores full rate on activity or an
//!   anomaly alert) before they reach the pipeline.
//! - [`window`] — shared window indexing.

pub mod client;
pub mod dxt;
pub mod features;
pub mod pipeline;
pub mod sampler;
pub mod schema;
pub mod server;
pub mod window;

pub use client::{client_windows, ClientWindow, DevTargeting};
pub use dxt::{export_dxt, import_dxt, DxtParseError};
pub use features::{feature_names, server_vector, FeatureConfig, Imputation, N_FEATURES};
pub use pipeline::{EmittedWindow, FeaturePipeline, OutOfOrder};
pub use sampler::{SamplerConfig, SamplerStats};
pub use schema::{FeatureSchema, SCHEMA_VERSION};
pub use server::{server_windows, SeriesStats, ServerWindow, N_SERVER_SERIES, SERVER_SERIES};
pub use window::WindowConfig;
