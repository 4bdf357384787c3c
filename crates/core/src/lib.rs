//! # quanterference
//!
//! The framework of *"Understanding and Predicting Cross-Application I/O
//! Interference in HPC Storage Systems"* (SC 2024), reproduced end to
//! end over a simulated Lustre-like cluster:
//!
//! 1. [`scenario`] — run a target workload alone and under controlled
//!    background interference on disjoint client nodes.
//! 2. [`labeling`] — match operations between the two executions and
//!    compute per-window degradation levels (`§III-D`), bucketed into
//!    severity bins.
//! 3. [`dataset`] — sweep a scenario grid (targets × interference kinds ×
//!    intensities × seeds, in parallel) and assemble labelled per-server
//!    feature vectors.
//! 4. [`predict`] — train the kernel-based network and serve window-level
//!    interference predictions.
//!
//! ```no_run
//! use quanterference::prelude::*;
//!
//! # fn main() -> Result<(), QiError> {
//! // Generate a small labelled dataset, train, evaluate (Fig. 3 shape).
//! let spec = DatasetSpec::smoke();
//! let tcfg = TrainConfig::default();
//! let (dataset, mut predictor, report) = train_and_evaluate(&spec, &tcfg, 42)?;
//! println!("{}", report.render());
//! println!("F1 = {:.3} on {} test windows", report.headline_f1(), report.test_size);
//! # let _ = (dataset, predictor.bin_labels());
//! # Ok(())
//! # }
//! ```

pub mod anomaly;
pub mod dataset;
pub mod experiments;
pub mod importance;
pub mod labeling;
pub mod mitigation;
pub mod predict;
pub mod scenario;

/// Common imports for framework users: one stop for scenario running,
/// cluster construction, fault injection, dataset generation, and the
/// training/prediction pipeline.
pub mod prelude {
    pub use crate::anomaly::{feature_rows, AnomalyDetector, AnomalyReport, WindowScore};
    pub use crate::dataset::{
        generate, generate_on, generate_views, window_vectors_with, DatasetSpec, DatasetView,
        FaultSpec, GeneratedDataset, SampleMeta, Split,
    };
    pub use crate::experiments::{experiment_spec, fig_one_a, fig_one_b, table_one};
    pub use crate::importance::{permutation_importance, FeatureImportance};
    pub use crate::labeling::{window_degradation, BaselineIndex, Bins};
    pub use crate::mitigation::{
        evaluate_mitigation, noise_app_ids, serve_predictor, MitigationOutcome,
    };
    pub use crate::predict::{evaluate, family_spec, train_and_evaluate, EvalReport, Predictor};
    pub use crate::scenario::{completion_slowdown, target_duration, InterferenceSpec, Scenario};
    pub use qi_control::{
        ControlLoop, ControlLoopBuilder, GuidedThrottle, Hysteresis, MitigationPolicy,
        UniformThrottle, WindowObservation,
    };
    pub use qi_faults::{FaultEvent, FaultPlan, RetryPolicy};
    pub use qi_ml::anomaly::{AnomalyScorer, AnomalyVerdict, ForestConfig, IsolationForest};
    pub use qi_ml::train::TrainConfig;
    pub use qi_monitor::features::{FeatureConfig, Imputation};
    pub use qi_monitor::sampler::{self, SamplerConfig, SamplerStats};
    pub use qi_monitor::schema::{FeatureSchema, SCHEMA_VERSION};
    pub use qi_monitor::window::WindowConfig;
    pub use qi_pfs::cluster::{Cluster, ClusterBuilder};
    pub use qi_pfs::config::ClusterConfig;
    pub use qi_pfs::control::{ControlDirective, DirectiveRecord};
    pub use qi_pfs::ids::AppId;
    pub use qi_pfs::ops::RunTrace;
    pub use qi_serve::ShardedServeEngine;
    pub use qi_simkit::QiError;
    pub use qi_workloads::registry::WorkloadKind;
}

pub use prelude::*;
