//! Versioned model registry.
//!
//! A deployment retrains periodically; the serving side must pick up new
//! model versions without dropping in-flight traffic and must refuse a
//! model that disagrees with the monitor's feature layout (wrong cluster
//! size, wrong feature ablation, wrong class count). The registry owns
//! those rules:
//!
//! - models are **loaded** by version from their `QIMODEL` text form
//!   ([`qi_ml::serialize`]) and validated against the expected
//!   [`ModelShape`] *and* [`FeatureSchema`] before they become visible —
//!   a model trained under a different window length, feature ablation,
//!   or imputation policy is refused with
//!   [`QiError::SchemaMismatch`] before it can serve a single vector;
//! - exactly one version is **active** at a time; activation is the only
//!   hot-swap point and the engine performs it between batches, so a
//!   batch is never split across model versions;
//! - every load/reject/activation is counted, and the registry reports
//!   its state (`serve.registry.*`) into the serving telemetry snapshot.

use std::collections::BTreeMap;

use qi_ml::serialize::model_from_text;
use qi_ml::train::{ModelShape, TrainedModel};
use qi_monitor::schema::FeatureSchema;
use qi_simkit::error::QiError;
use qi_telemetry::{MetricValue, MetricsSnapshot};

/// Versioned store of validated models, with one active version.
pub struct ModelRegistry {
    expected: ModelShape,
    expected_schema: FeatureSchema,
    versions: BTreeMap<u64, TrainedModel>,
    active: Option<u64>,
    loads_ok: u64,
    loads_rejected: u64,
    activations: u64,
}

impl ModelRegistry {
    /// Empty registry that will only accept models of `expected` shape
    /// whose embedded feature schema equals `expected_schema`.
    pub fn new(expected: ModelShape, expected_schema: FeatureSchema) -> Self {
        ModelRegistry {
            expected,
            expected_schema,
            versions: BTreeMap::new(),
            active: None,
            loads_ok: 0,
            loads_rejected: 0,
            activations: 0,
        }
    }

    /// The shape every registered model must have.
    pub fn expected_shape(&self) -> ModelShape {
        self.expected
    }

    /// The feature schema every registered model must carry.
    pub fn expected_schema(&self) -> &FeatureSchema {
        &self.expected_schema
    }

    fn check_schema(&self, version: u64, model: &TrainedModel) -> Result<(), QiError> {
        if model.schema() != &self.expected_schema {
            return Err(QiError::SchemaMismatch {
                context: format!("validating model version {version}"),
                expected: self.expected_schema.to_string(),
                got: model.schema().to_string(),
            });
        }
        Ok(())
    }

    /// Register an already-deserialized model under `version`.
    /// Rejects duplicate versions, shape mismatches, and feature-schema
    /// mismatches (checked in that order).
    pub fn insert(&mut self, version: u64, model: TrainedModel) -> Result<(), QiError> {
        if self.versions.contains_key(&version) {
            self.loads_rejected += 1;
            return Err(QiError::Serve(format!(
                "model version {version} already registered"
            )));
        }
        let shape = model.shape();
        if shape != self.expected {
            self.loads_rejected += 1;
            return Err(QiError::Serve(format!(
                "model version {version} has shape [{shape}], monitor expects [{}]",
                self.expected
            )));
        }
        if let Err(e) = self.check_schema(version, &model) {
            self.loads_rejected += 1;
            return Err(e);
        }
        self.versions.insert(version, model);
        self.loads_ok += 1;
        Ok(())
    }

    /// Parse a `QIMODEL` text file and register it under `version`.
    /// This is the registry's trust boundary: a corrupt or truncated
    /// file surfaces as an error (never a panic), and a well-formed
    /// model of the wrong shape is rejected before it can serve.
    pub fn load_text(&mut self, version: u64, text: &str) -> Result<(), QiError> {
        let model = model_from_text(text).map_err(|e| {
            self.loads_rejected += 1;
            QiError::Serve(format!("model version {version} failed to parse: {e}"))
        })?;
        self.insert(version, model)
    }

    /// Make `version` the serving model. The caller (the engine) must
    /// flush pending work first so the swap lands between batches.
    /// Re-validates the stored model's feature schema, so even a model
    /// registered before the expectation could change can never go live
    /// with a stale layout.
    pub fn activate(&mut self, version: u64) -> Result<(), QiError> {
        let Some(model) = self.versions.get(&version) else {
            return Err(QiError::Serve(format!(
                "cannot activate unknown model version {version}"
            )));
        };
        self.check_schema(version, model)?;
        self.active = Some(version);
        self.activations += 1;
        Ok(())
    }

    /// Currently active version, if any.
    pub fn active_version(&self) -> Option<u64> {
        self.active
    }

    /// The active model, immutably — the serving forward pass. Since
    /// the fused inference path (`TrainedModel::predict_batch_into`)
    /// takes `&self`, any number of shards can serve from one registry
    /// without cloning the model.
    pub fn active_model(&self) -> Option<&TrainedModel> {
        let v = self.active?;
        self.versions.get(&v)
    }

    /// All registered versions, ascending.
    pub fn versions(&self) -> Vec<u64> {
        self.versions.keys().copied().collect()
    }

    /// Fold the registry state into a telemetry snapshot
    /// (`serve.registry.*`). Every key is always present so snapshot
    /// key sets stay stable whether or not loads were rejected.
    pub fn metrics_into(&self, snap: &mut MetricsSnapshot) {
        snap.put(
            "serve.registry.models_loaded",
            MetricValue::Counter(self.loads_ok),
        );
        snap.put(
            "serve.registry.loads_rejected",
            MetricValue::Counter(self.loads_rejected),
        );
        snap.put(
            "serve.registry.activations",
            MetricValue::Counter(self.activations),
        );
        snap.put(
            "serve.registry.registered_versions",
            MetricValue::Gauge(self.versions.len() as f64),
        );
        snap.put(
            "serve.registry.active_version",
            MetricValue::Gauge(self.active.map_or(-1.0, |v| v as f64)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_ml::data::Dataset;
    use qi_ml::serialize::model_to_text;
    use qi_ml::train::{train, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained(servers: usize, feats: usize, seed: u64) -> TrainedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut samples = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let pos = i % 2 == 0;
            let block: Vec<f32> = (0..servers * feats)
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
        let data = Dataset::from_samples(samples, y, servers);
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        train(&data, &cfg)
    }

    #[test]
    fn load_activate_and_hot_swap() {
        let m1 = trained(3, 5, 1);
        let expected = m1.shape();
        let mut reg = ModelRegistry::new(expected, m1.schema().clone());
        assert_eq!(reg.active_version(), None);
        assert!(reg.active_model().is_none());
        reg.load_text(1, &model_to_text(&m1)).expect("v1 loads");
        reg.insert(2, trained(3, 5, 2)).expect("v2 loads");
        assert_eq!(reg.versions(), vec![1, 2]);
        reg.activate(1).expect("v1 activates");
        assert_eq!(reg.active_version(), Some(1));
        reg.activate(2).expect("hot swap to v2");
        assert_eq!(reg.active_version(), Some(2));
        let mut snap = MetricsSnapshot::new();
        reg.metrics_into(&mut snap);
        assert_eq!(snap.counter("serve.registry.models_loaded"), Some(2));
        assert_eq!(snap.counter("serve.registry.activations"), Some(2));
        assert_eq!(snap.gauge("serve.registry.active_version"), Some(2.0));
    }

    #[test]
    fn wrong_shape_is_rejected() {
        let right = trained(3, 5, 1);
        let mut reg = ModelRegistry::new(right.shape(), right.schema().clone());
        // Wrong feature width and wrong server count both bounce.
        for (v, bad) in [(7, trained(3, 6, 1)), (8, trained(4, 5, 1))] {
            let err = reg.insert(v, bad).expect_err("shape mismatch");
            assert!(err.to_string().contains("shape"), "{err}");
        }
        assert!(reg.versions().is_empty());
        let mut snap = MetricsSnapshot::new();
        reg.metrics_into(&mut snap);
        assert_eq!(snap.counter("serve.registry.loads_rejected"), Some(2));
        assert_eq!(snap.gauge("serve.registry.active_version"), Some(-1.0));
    }

    #[test]
    fn schema_mismatched_model_is_rejected_before_it_can_serve() {
        use qi_monitor::features::{FeatureConfig, Imputation};
        use qi_monitor::window::WindowConfig;

        let m = trained(3, 5, 1);
        // Registry configured for the full 1-second-window pipeline; the
        // model was trained on a hand-built 5-feature dataset, so its
        // embedded schema disagrees even though nothing panics about it.
        let expected = FeatureSchema::current(
            WindowConfig::seconds(1),
            FeatureConfig::default(),
            Imputation::Zero,
        );
        let mut reg = ModelRegistry::new(m.shape(), expected);
        let err = reg.insert(1, m).expect_err("schema mismatch at load");
        assert!(matches!(err, QiError::SchemaMismatch { .. }), "{err}");
        assert!(reg.versions().is_empty());
        assert!(reg.active_model().is_none(), "nothing can serve");
        let mut snap = MetricsSnapshot::new();
        reg.metrics_into(&mut snap);
        assert_eq!(snap.counter("serve.registry.loads_rejected"), Some(1));
    }

    #[test]
    fn corrupt_text_duplicate_version_and_unknown_activation_error() {
        let m = trained(2, 4, 3);
        let mut reg = ModelRegistry::new(m.shape(), m.schema().clone());
        assert!(reg.load_text(1, "not a model").is_err());
        reg.insert(1, m).expect("clean load");
        let dup = trained(2, 4, 4);
        assert!(reg.insert(1, dup).is_err(), "duplicate version");
        assert!(reg.activate(9).is_err(), "unknown version");
        // Failed activation leaves the active pointer untouched.
        reg.activate(1).expect("activate v1");
        assert!(reg.activate(9).is_err());
        assert_eq!(reg.active_version(), Some(1));
    }
}
