//! Versioned description of the feature layout a model was trained on.
//!
//! The paper's predictor only works because the exact same per-server
//! feature vectors (§III-A/§III-C, Table II) are computed at training
//! time and at prediction time. A [`FeatureSchema`] pins everything
//! that determines a vector's meaning — window length, enabled feature
//! blocks, per-block lengths, server series names, imputation policy —
//! under an explicit schema version plus an FNV-1a digest of the
//! canonical description. The schema is produced by the feature
//! pipeline, threaded through dataset generation and training, embedded
//! in the QIMODEL file format, and validated whenever a model is bound
//! to a pipeline (`qi-serve::ModelRegistry`, `qi-core::Predictor`):
//! a mismatch is a typed `QiError::SchemaMismatch`, never a silent
//! wrong-shape inference.

use std::fmt;

use crate::features::{FeatureConfig, Imputation, N_CLIENT_GLOBAL, N_CLIENT_TARGET};
use crate::server::SERVER_SERIES;
use crate::window::WindowConfig;
use qi_simkit::hash::fnv1a;
use qi_simkit::time::SimDuration;

/// Current schema layout version. Bump when the *meaning* of the
/// canonical description changes (new fields, reordered blocks).
pub const SCHEMA_VERSION: u32 = 1;

/// A complete, versioned description of one feature layout.
///
/// Construct with [`FeatureSchema::current`] (a pipeline-bound schema)
/// or [`FeatureSchema::custom`] (a free-form layout for synthetic
/// datasets, benches, and tests — not bound to any monitor window).
/// Equality is structural: two schemas compare equal exactly when a
/// model trained under one can serve vectors produced under the other.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FeatureSchema {
    version: u32,
    /// Monitor window length in nanoseconds; `0` means the schema is
    /// not bound to a window (synthetic/custom layouts).
    window_nanos: u64,
    features: FeatureConfig,
    client_len: usize,
    series: Vec<String>,
    imputation: Imputation,
    digest: u64,
}

impl FeatureSchema {
    /// The schema the feature pipeline produces under `wcfg`/`fcfg`
    /// with the given imputation policy.
    pub fn current(wcfg: WindowConfig, fcfg: FeatureConfig, imputation: Imputation) -> Self {
        Self::assemble(
            wcfg.window.as_nanos(),
            fcfg,
            N_CLIENT_GLOBAL + N_CLIENT_TARGET,
            SERVER_SERIES.iter().map(|s| s.to_string()).collect(),
            imputation,
        )
    }

    /// A free-form layout of `n_features` floats per server vector,
    /// not bound to any monitor window. Used for synthetic datasets,
    /// benches, and tests; a registry expecting a pipeline-bound
    /// schema will reject models carrying one of these.
    pub fn custom(n_features: usize) -> Self {
        Self::assemble(
            0,
            FeatureConfig {
                client: true,
                server: false,
            },
            n_features,
            Vec::new(),
            Imputation::Zero,
        )
    }

    /// Reassemble a schema from its serialized parts (QIMODEL parsing).
    /// The digest is recomputed from the parts; callers holding a
    /// stored digest compare it against [`FeatureSchema::digest`].
    pub fn from_parts(
        version: u32,
        window_nanos: u64,
        features: FeatureConfig,
        client_len: usize,
        series: Vec<String>,
        imputation: Imputation,
    ) -> Self {
        let mut s = FeatureSchema {
            version,
            window_nanos,
            features,
            client_len,
            series,
            imputation,
            digest: 0,
        };
        s.digest = fnv1a(s.canonical().as_bytes());
        s
    }

    fn assemble(
        window_nanos: u64,
        features: FeatureConfig,
        client_len: usize,
        series: Vec<String>,
        imputation: Imputation,
    ) -> Self {
        Self::from_parts(
            SCHEMA_VERSION,
            window_nanos,
            features,
            client_len,
            series,
            imputation,
        )
    }

    /// The canonical single-line description the digest covers.
    fn canonical(&self) -> String {
        format!(
            "qi-feature-schema v{} window_ns={} client={} server={} client_len={} \
             series={} imputation={}",
            self.version,
            self.window_nanos,
            u8::from(self.features.client),
            u8::from(self.features.server),
            self.client_len,
            if self.series.is_empty() {
                "-".to_string()
            } else {
                self.series.join(",")
            },
            self.imputation.token(),
        )
    }

    /// Schema layout version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Monitor window length in nanoseconds (`0` when unbound).
    pub fn window_nanos(&self) -> u64 {
        self.window_nanos
    }

    /// The monitor window this schema was produced under, or `None`
    /// for custom/synthetic layouts.
    pub fn window_config(&self) -> Option<WindowConfig> {
        (self.window_nanos > 0).then(|| WindowConfig {
            window: SimDuration::from_nanos(self.window_nanos),
        })
    }

    /// Which feature blocks are enabled.
    pub fn feature_config(&self) -> FeatureConfig {
        self.features
    }

    /// Length of the client block (global + targeting features).
    pub fn client_len(&self) -> usize {
        self.client_len
    }

    /// Server series names, in vector order (empty when unbound).
    pub fn series(&self) -> &[String] {
        &self.series
    }

    /// Imputation policy vectors are assembled under.
    pub fn imputation(&self) -> Imputation {
        self.imputation
    }

    /// FNV-1a 64 digest of the canonical description.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Floats per server vector under this schema.
    pub fn vector_len(&self) -> usize {
        let client = if self.features.client {
            self.client_len
        } else {
            0
        };
        let server = if self.features.server {
            self.series.len() * 3
        } else {
            0
        };
        client + server
    }
}

impl fmt::Display for FeatureSchema {
    /// Compact summary used in `SchemaMismatch` messages.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{} ", self.version)?;
        match self.window_config() {
            Some(w) => write!(f, "window={}ms", w.window.as_millis_f64())?,
            None => write!(f, "window=unbound")?,
        }
        let blocks = match (self.features.client, self.features.server) {
            (true, true) => "client+server",
            (true, false) => "client",
            (false, true) => "server",
            (false, false) => "none",
        };
        write!(
            f,
            " blocks={blocks} features={} imputation={} digest={:016x}",
            self.vector_len(),
            self.imputation.token(),
            self.digest,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::N_FEATURES;

    fn wcfg() -> WindowConfig {
        WindowConfig {
            window: SimDuration::from_secs(1),
        }
    }

    #[test]
    fn current_schema_matches_pipeline_layout() {
        let s = FeatureSchema::current(wcfg(), FeatureConfig::default(), Imputation::Zero);
        assert_eq!(s.version(), SCHEMA_VERSION);
        assert_eq!(s.vector_len(), N_FEATURES);
        assert_eq!(s.window_config(), Some(wcfg()));
        assert_eq!(s.series().len(), crate::server::N_SERVER_SERIES);
    }

    #[test]
    fn custom_schema_is_unbound() {
        let s = FeatureSchema::custom(6);
        assert_eq!(s.vector_len(), 6);
        assert_eq!(s.window_config(), None);
        assert!(s.to_string().contains("window=unbound"));
    }

    #[test]
    fn every_knob_changes_identity() {
        let base = FeatureSchema::current(wcfg(), FeatureConfig::default(), Imputation::Zero);
        let other_window = FeatureSchema::current(
            WindowConfig {
                window: SimDuration::from_secs(2),
            },
            FeatureConfig::default(),
            Imputation::Zero,
        );
        let ablated = FeatureSchema::current(
            wcfg(),
            FeatureConfig {
                client: true,
                server: false,
            },
            Imputation::Zero,
        );
        for other in [&other_window, &ablated] {
            assert_ne!(&base, other);
            assert_ne!(base.digest(), other.digest());
        }
        // Identical construction is identical identity.
        let again = FeatureSchema::current(wcfg(), FeatureConfig::default(), Imputation::Zero);
        assert_eq!(base, again);
        assert_eq!(base.digest(), again.digest());
    }

    #[test]
    fn from_parts_round_trips_digest() {
        let s = FeatureSchema::current(wcfg(), FeatureConfig::default(), Imputation::Zero);
        let rebuilt = FeatureSchema::from_parts(
            s.version(),
            s.window_nanos(),
            s.feature_config(),
            s.client_len(),
            s.series().to_vec(),
            s.imputation(),
        );
        assert_eq!(s, rebuilt);
        assert_eq!(s.digest(), rebuilt.digest());
    }

    #[test]
    fn ablated_vector_len_tracks_blocks() {
        let client_only = FeatureSchema::current(
            wcfg(),
            FeatureConfig {
                client: true,
                server: false,
            },
            Imputation::Zero,
        );
        let server_only = FeatureSchema::current(
            wcfg(),
            FeatureConfig {
                client: false,
                server: true,
            },
            Imputation::Zero,
        );
        assert_eq!(
            client_only.vector_len() + server_only.vector_len(),
            N_FEATURES
        );
    }
}
