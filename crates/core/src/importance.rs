//! Permutation feature importance — which monitored metrics the model
//! actually leans on. This answers the paper's first stated challenge
//! ("deciding which system metrics should be leveraged to accurately
//! indicate the presence of I/O interference", §I) empirically: permute
//! one feature column across samples and measure how much the model's
//! F1 drops.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qi_ml::data::{shuffle, Dataset};
use qi_ml::train::TrainedModel;
use qi_monitor::features::{feature_names, FeatureConfig};
use qi_simkit::error::QiError;

/// Per-feature importance scores.
pub struct FeatureImportance {
    /// Feature names (per-server vector order).
    pub names: Vec<String>,
    /// Mean F1 drop when the feature is permuted (higher = more
    /// important; ~0 or negative = unused).
    pub drops: Vec<f64>,
    /// Unpermuted F1 on the evaluation set.
    pub base_f1: f64,
}

impl FeatureImportance {
    /// Features sorted by importance, most important first.
    pub fn ranked(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .names
            .iter()
            .cloned()
            .zip(self.drops.iter().copied())
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

/// Compute permutation importance of every per-server feature on `data`
/// (typically the held-out test set), averaging over `repeats`
/// permutations per feature.
pub fn permutation_importance(
    model: &mut TrainedModel,
    data: &Dataset,
    fcfg: FeatureConfig,
    seed: u64,
    repeats: usize,
) -> Result<FeatureImportance, QiError> {
    if repeats == 0 {
        return Err(QiError::Config(
            "permutation importance needs at least one repeat".into(),
        ));
    }
    let names = feature_names(fcfg);
    if names.len() != data.n_features() {
        return Err(QiError::Shape {
            what: "feature config vs dataset columns",
            expected: names.len(),
            got: data.n_features(),
        });
    }
    let base_f1 = model.evaluate(data).headline_f1();
    let mut drops = Vec::with_capacity(names.len());
    for f in 0..names.len() {
        let mut total_drop = 0.0;
        for r in 0..repeats {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (f as u64).wrapping_mul(0x9E37_79B9) ^ (r as u64) << 40,
            );
            let shuffled = permute_column(data, f, &mut rng);
            total_drop += base_f1 - model.evaluate(&shuffled).headline_f1();
        }
        drops.push(total_drop / repeats as f64);
    }
    Ok(FeatureImportance {
        names,
        drops,
        base_f1,
    })
}

/// A copy of `data` with feature column `f` (all per-server rows)
/// reordered by one seeded Fisher–Yates draw.
fn permute_column(data: &Dataset, f: usize, rng: &mut StdRng) -> Dataset {
    let mut order: Vec<usize> = (0..data.x.rows()).collect();
    shuffle(&mut order, rng);
    let mut out = data.clone();
    for (i, &src) in order.iter().enumerate() {
        out.x.set(i, f, data.x.get(src, f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_ml::train::{train, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dataset where ONLY feature 0 carries the label signal.
    fn one_informative_feature(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(7);
        let servers = 2;
        let feats = 4;
        let mut samples = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let pos = i % 2 == 0;
            let mut block = Vec::with_capacity(servers * feats);
            for _ in 0..servers {
                block.push(if pos { 2.0 } else { -2.0 }); // informative
                for _ in 1..feats {
                    block.push(rng.gen_range(-1.0..1.0)); // noise
                }
            }
            samples.push(block);
            y.push(usize::from(pos));
        }
        Dataset::from_samples(samples, y, servers)
    }

    #[test]
    fn informative_feature_dominates() {
        let data = one_informative_feature(300);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let mut model = train(&data, &cfg);
        // A feature config whose width matches the synthetic data.
        let fake_cfg = FeatureConfig {
            client: false,
            server: false,
        };
        // Can't use the real schema (widths differ); call the internals
        // directly instead with handmade names.
        let names: Vec<String> = (0..4).map(|i| format!("f{i}")).collect();
        let base = model.evaluate(&data).headline_f1();
        assert!(base > 0.95, "model failed to learn: {base}");
        // Permute each column by hand and compare drops.
        let mut drops = Vec::new();
        for f in 0..4 {
            let mut rng = StdRng::seed_from_u64(11 + f as u64);
            let shuffled = permute_column(&data, f, &mut rng);
            drops.push(base - model.evaluate(&shuffled).headline_f1());
        }
        let _ = (names, fake_cfg);
        let max_noise = drops[1..].iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            drops[0] > 0.2 && drops[0] > 5.0 * max_noise.abs().max(0.01),
            "importance did not isolate the signal: {drops:?}"
        );
    }

    #[test]
    fn ranked_sorts_descending() {
        let imp = FeatureImportance {
            names: vec!["a".into(), "b".into(), "c".into()],
            drops: vec![0.1, 0.5, -0.01],
            base_f1: 0.9,
        };
        let r = imp.ranked();
        assert_eq!(r[0].0, "b");
        assert_eq!(r[2].0, "c");
    }
}
