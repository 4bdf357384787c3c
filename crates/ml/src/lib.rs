//! # qi-ml
//!
//! A from-scratch neural-network stack sized for the paper's model: a
//! kernel-based network that applies one shared dense MLP to every
//! storage server's feature vector, concatenates the per-server outputs,
//! and classifies the window into interference-severity bins (§III-C).
//!
//! Everything is plain `f32` Rust — no BLAS, no framework — because the
//! model is tiny (thousands of parameters) and exact reproducibility
//! matters more than GPU throughput here: training is seeded and
//! bit-deterministic.
//!
//! - [`anomaly`] — deterministic isolation forest for unsupervised
//!   novel-fault detection over pipeline window vectors.
//! - [`matrix`] — row-major matrix ops: the blocked, row-parallel
//!   `matmul` and the two transposed products backprop needs.
//! - [`layers`] — dense layers / MLP with manual backprop; the input
//!   gradient is formed only where a caller takes it.
//! - [`infer`] — the one fused forward kernel (bias and ReLU in the
//!   epilogue) that training, `predict*` and serving all run, the
//!   allocation-free serving plumbing around it, and the total argmax.
//! - [`loss`] — weighted softmax cross-entropy.
//! - [`optim`] — Adam.
//! - [`model`] — the kernel-based network.
//! - [`data`] — datasets, 80/20 splits, z-score standardisation.
//! - [`train`](mod@train) — the kernel network's one minibatch loop
//!   and the classifier protocol over it ([`train::train`]).
//! - [`metrics`] — confusion matrices, precision/recall/F1.
//!
//! The crate's one `unsafe` block is the AVX2 dispatch in
//! `matrix::wide`; the lint below keeps any other from landing without
//! its `// SAFETY:` argument.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod anomaly;
pub mod data;
pub mod infer;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod serialize;
pub mod train;

pub use anomaly::{AnomalyScorer, AnomalyVerdict, ForestConfig, IsolationForest};
pub use data::{Dataset, Standardizer};
pub use infer::InferScratch;
pub use loss::{softmax, softmax_cross_entropy, tempered_frequency_weights};
pub use matrix::Matrix;
pub use metrics::ConfusionMatrix;
pub use model::KernelNet;
pub use optim::Adam;
pub use serialize::{load_model, model_from_text, model_to_text, save_model, ModelParseError};
pub use train::{train, TrainConfig, TrainedModel};
