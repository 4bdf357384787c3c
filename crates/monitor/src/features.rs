//! Per-server feature vectors (paper §III-C).
//!
//! For every `(application, window)` the training server builds one
//! vector *per storage server*, concatenating:
//!
//! 1. the application's window-global client metrics (§III-A list),
//! 2. the client metrics *targeting that server*, and
//! 3. the server's own window metrics (Table II, sum/mean/std).
//!
//! The same dense "kernel" network is applied to each server's vector,
//! so the layout here must be identical for every server — that is what
//! lets the model generalise across OSTs.

use qi_pfs::ids::DeviceId;
use qi_simkit::time::SimDuration;

use crate::client::ClientWindow;
use crate::server::{ServerWindow, N_SERVER_SERIES, SERVER_SERIES};

/// Number of window-global client features.
pub const N_CLIENT_GLOBAL: usize = 10;
/// Number of per-server client-targeting features.
pub const N_CLIENT_TARGET: usize = 5;
/// Number of server-side features (sum/mean/std per series).
pub const N_SERVER: usize = N_SERVER_SERIES * 3;
/// Total features in one per-server vector.
pub const N_FEATURES: usize = N_CLIENT_GLOBAL + N_CLIENT_TARGET + N_SERVER;

/// Which feature blocks to include (used by the feature-ablation bench
/// and keyed on by [`crate::schema::FeatureSchema`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FeatureConfig {
    /// Include blocks 1 and 2 (client-side metrics).
    pub client: bool,
    /// Include block 3 (server-side metrics).
    pub server: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            client: true,
            server: true,
        }
    }
}

impl FeatureConfig {
    /// Vector length under this configuration.
    pub const fn len(&self) -> usize {
        let mut n = 0;
        if self.client {
            n += N_CLIENT_GLOBAL + N_CLIENT_TARGET;
        }
        if self.server {
            n += N_SERVER;
        }
        n
    }

    /// True when no block is enabled.
    pub const fn is_empty(&self) -> bool {
        !self.client && !self.server
    }
}

/// Human-readable names of the features, in vector order.
pub fn feature_names(cfg: FeatureConfig) -> Vec<String> {
    let mut names = Vec::with_capacity(cfg.len());
    if cfg.client {
        for n in [
            "cl_reads",
            "cl_writes",
            "cl_metas",
            "cl_total_ops",
            "cl_read_mb",
            "cl_write_mb",
            "cl_total_mb",
            "cl_io_time_ms",
            "cl_throughput_mbps",
            "cl_iops",
        ] {
            names.push(n.to_string());
        }
        for n in [
            "tgt_read_reqs",
            "tgt_write_reqs",
            "tgt_meta_reqs",
            "tgt_read_mb",
            "tgt_write_mb",
        ] {
            names.push(n.to_string());
        }
    }
    if cfg.server {
        for series in SERVER_SERIES {
            for stat in ["sum", "mean", "std"] {
                names.push(format!("srv_{series}_{stat}"));
            }
        }
    }
    names
}

/// How feature cells whose monitor data is missing are filled: with
/// zeros. A per-device mean was once a second variant, which serving
/// could never honour — an online stream has no whole-run mean. The
/// type and the parameters that carry it (`DatasetSpec::imputation`,
/// `window_vectors_with`, `Predictor::new`) stay because QIMODEL files
/// have a `schema.imputation` line and callers outside this workspace's
/// control (the frozen `benchmark/` package) pass one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Imputation {
    /// Missing blocks become zeros.
    #[default]
    Zero,
}

impl Imputation {
    /// Stable one-word token, used by the QIMODEL schema section.
    pub const fn token(self) -> &'static str {
        match self {
            Imputation::Zero => "zero",
        }
    }

    /// Inverse of [`Imputation::token`].
    pub fn from_token(s: &str) -> Option<Self> {
        match s {
            "zero" => Some(Imputation::Zero),
            _ => None,
        }
    }
}

/// Append the feature vector for one server to `out`, given the
/// application's client window (if it had any activity) and the
/// server's window (if any samples landed there). Missing cells
/// contribute zeros.
pub fn server_vector(
    cfg: FeatureConfig,
    client: Option<&ClientWindow>,
    server: Option<&ServerWindow>,
    dev: DeviceId,
    window: SimDuration,
    out: &mut Vec<f32>,
) {
    let before = out.len();
    if cfg.client {
        match client {
            Some(c) => {
                let t = c.per_dev.get(dev.index()).copied().unwrap_or_default();
                out.extend([
                    c.reads as f32,
                    c.writes as f32,
                    c.metas as f32,
                    c.total_ops() as f32,
                    c.bytes_read as f32 / 1e6,
                    c.bytes_written as f32 / 1e6,
                    c.total_bytes() as f32 / 1e6,
                    c.io_time.as_millis_f64() as f32,
                    (c.throughput(window) / 1e6) as f32,
                    c.iops(window) as f32,
                    t.read_reqs as f32,
                    t.write_reqs as f32,
                    t.meta_reqs as f32,
                    t.bytes_read as f32 / 1e6,
                    t.bytes_written as f32 / 1e6,
                ]);
            }
            None => out.extend([0.0; N_CLIENT_GLOBAL + N_CLIENT_TARGET]),
        }
    }
    if cfg.server {
        match server {
            Some(s) => {
                for ss in &s.series {
                    out.extend([ss.sum as f32, ss.mean as f32, ss.std as f32]);
                }
            }
            None => out.extend([0.0; N_SERVER]),
        }
    }
    debug_assert_eq!(out.len() - before, cfg.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::DevTargeting;
    use crate::server::SeriesStats;

    /// One server's vector under the default configuration and a
    /// one-second window.
    fn vector(client: Option<&ClientWindow>, server: Option<&ServerWindow>, dev: u32) -> Vec<f32> {
        let mut v = Vec::new();
        server_vector(
            FeatureConfig::default(),
            client,
            server,
            DeviceId(dev),
            SimDuration::from_secs(1),
            &mut v,
        );
        v
    }

    #[test]
    fn full_vector_has_documented_length() {
        let cfg = FeatureConfig::default();
        assert_eq!(cfg.len(), N_FEATURES);
        assert_eq!(feature_names(cfg).len(), N_FEATURES);
        let v = vector(None, None, 0);
        assert_eq!(v.len(), N_FEATURES);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn ablation_lengths() {
        let client_only = FeatureConfig {
            client: true,
            server: false,
        };
        let server_only = FeatureConfig {
            client: false,
            server: true,
        };
        assert_eq!(client_only.len(), N_CLIENT_GLOBAL + N_CLIENT_TARGET);
        assert_eq!(server_only.len(), N_SERVER);
        assert_eq!(client_only.len() + server_only.len(), N_FEATURES);
        assert!(!client_only.is_empty());
    }

    #[test]
    fn client_values_land_in_order() {
        let mut cw = ClientWindow {
            reads: 3,
            bytes_read: 2_000_000,
            per_dev: vec![DevTargeting::default(); 2],
            ..ClientWindow::default()
        };
        cw.per_dev[1].read_reqs = 5;
        cw.per_dev[1].bytes_read = 1_000_000;
        let v = vector(Some(&cw), None, 1);
        assert_eq!(v[0], 3.0); // cl_reads
        assert_eq!(v[4], 2.0); // cl_read_mb
        assert_eq!(v[10], 5.0); // tgt_read_reqs
        assert_eq!(v[13], 1.0); // tgt_read_mb
    }

    #[test]
    fn server_values_land_after_client_block() {
        let mut sw = ServerWindow::default();
        sw.series[0] = SeriesStats {
            sum: 11.0,
            mean: 5.5,
            std: 1.5,
        };
        let v = vector(None, Some(&sw), 0);
        let base = N_CLIENT_GLOBAL + N_CLIENT_TARGET;
        assert_eq!(v[base], 11.0);
        assert_eq!(v[base + 1], 5.5);
        assert_eq!(v[base + 2], 1.5);
    }

    #[test]
    fn config_is_const_evaluable_and_hashable() {
        const FULL: usize = FeatureConfig {
            client: true,
            server: true,
        }
        .len();
        const EMPTY: bool = FeatureConfig {
            client: false,
            server: false,
        }
        .is_empty();
        assert_eq!(FULL, N_FEATURES);
        const { assert!(EMPTY) };
        let mut set = std::collections::HashSet::new();
        set.insert((FeatureConfig::default(), Imputation::Zero));
        assert!(set.contains(&(FeatureConfig::default(), Imputation::Zero)));
    }

    #[test]
    fn imputation_tokens_round_trip() {
        assert_eq!(
            Imputation::from_token(Imputation::Zero.token()),
            Some(Imputation::Zero)
        );
        assert_eq!(Imputation::from_token("device_mean"), None);
        assert_eq!(Imputation::from_token("bogus"), None);
    }

    #[test]
    fn out_of_range_device_targets_zero() {
        let cw = ClientWindow::default(); // per_dev empty
        let v = vector(Some(&cw), None, 5);
        assert_eq!(v[10], 0.0);
    }
}
