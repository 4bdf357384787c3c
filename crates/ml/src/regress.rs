//! Regression extension: predict the *raw* degradation level instead of
//! a severity bin.
//!
//! The paper deliberately classifies into bins ("we do not try to
//! predict the exact slowdown ratio", §IV-A). This module implements the
//! alternative so the design choice can be quantified: a kernel network
//! with a single linear output trained on `ln(level)` with MSE, whose
//! predictions can be thresholded back into the paper's bins. It fits
//! through the crate's one minibatch loop (`train::fit`, the
//! classifier's), with MSE in place of cross-entropy; the
//! `ablation_model_extensions` experiment compares both.

use qi_simkit::error::QiError;

use crate::data::{Dataset, Standardizer};
use crate::matrix::Matrix;
use crate::model::KernelNet;
use crate::train::{check_fit, fit, TrainConfig};

/// Mean-squared-error loss and gradient for a single-output prediction.
pub fn mse_loss(pred: &Matrix, targets: &[f32]) -> (f32, Matrix) {
    assert_eq!(pred.cols(), 1, "regression expects one output");
    assert_eq!(pred.rows(), targets.len());
    let n = targets.len() as f32;
    let mut grad = Matrix::zeros(pred.rows(), 1);
    let mut loss = 0.0;
    for (i, &t) in targets.iter().enumerate() {
        let d = pred.get(i, 0) - t;
        loss += d * d;
        grad.set(i, 0, 2.0 * d / n);
    }
    (loss / n, grad)
}

/// A trained degradation-level regressor.
pub struct RegressionModel {
    net: KernelNet,
    standardizer: Standardizer,
    /// Mean training MSE per epoch.
    pub loss_curve: Vec<f32>,
}

impl RegressionModel {
    /// Predict the degradation level (≥ ~0) for every sample of `data`.
    pub fn predict_levels(&mut self, data: &Dataset) -> Vec<f64> {
        let out = self.net.forward(&self.standardizer.apply(data).x);
        (0..out.rows())
            .map(|r| (out.get(r, 0) as f64).exp())
            .collect()
    }
}

/// Train a level regressor on `data` with per-sample raw degradation
/// `levels` (the pre-binning values from dataset generation), on
/// `ln(level)`: levels span 1x to 40x+, and the log keeps the loss from
/// being dominated by the extreme tail. `cfg.early_stop` and
/// `cfg.class_weight_exponent` do not apply. Errors with
/// [`QiError::Config`], naming the field, on a level count other than
/// the sample count or an input every fit rejects.
pub fn train_regression(
    data: &Dataset,
    levels: &[f64],
    cfg: &TrainConfig,
) -> Result<RegressionModel, QiError> {
    check_fit(data, cfg)?;
    if levels.len() != data.len() {
        return Err(QiError::Config(format!(
            "levels holds {} values for {} samples",
            levels.len(),
            data.len()
        )));
    }
    let (standardizer, set) = Standardizer::fit_apply(data);
    let targets: Vec<f32> = levels.iter().map(|&l| (l.max(1e-3) as f32).ln()).collect();
    let mut net = KernelNet::new(
        set.n_features(),
        set.n_servers,
        &cfg.kernel_hidden,
        &cfg.head_hidden,
        1,
        cfg.seed,
    );
    let mse = |out: &Matrix, _: &Dataset, idx: &[usize]| {
        let t: Vec<f32> = idx.iter().map(|&i| targets[i]).collect();
        mse_loss(out, &t)
    };
    let log = fit(&mut net, &set, cfg, 0x7E62, mse, None);
    Ok(RegressionModel {
        net,
        standardizer,
        loss_curve: log.loss_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synth(n: usize) -> (Dataset, Vec<f64>) {
        // Level = 1 + 3 * mean(hot feature), recoverable from features.
        let servers = 3;
        let mut rng = StdRng::seed_from_u64(9);
        let mut samples = Vec::new();
        let mut levels = Vec::new();
        for _ in 0..n {
            let hot: f32 = rng.gen_range(0.0..2.0f32);
            let mut block = Vec::new();
            for _ in 0..servers {
                block.extend_from_slice(&[
                    hot + rng.gen_range(-0.05..0.05f32),
                    rng.gen_range(0.0..1.0),
                    hot * 0.5,
                    rng.gen_range(-0.2..0.2),
                ]);
            }
            samples.push(block);
            levels.push(1.0 + 3.0 * hot as f64);
        }
        let y = levels.iter().map(|&l| usize::from(l >= 2.0)).collect();
        (Dataset::from_samples(samples, y, servers), levels)
    }

    #[test]
    fn mse_loss_gradient_is_correct() {
        let pred = Matrix::from_vec(2, 1, vec![1.0, -0.5]);
        let (loss, grad) = mse_loss(&pred, &[0.0, 0.5]);
        assert!((loss - (1.0 + 1.0) / 2.0).abs() < 1e-6);
        assert!((grad.get(0, 0) - 1.0).abs() < 1e-6); // 2*(1-0)/2
        assert!((grad.get(1, 0) + 1.0).abs() < 1e-6); // 2*(-1)/2
    }

    #[test]
    fn regressor_recovers_the_level() {
        let (data, levels) = synth(400);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let mut model = train_regression(&data, &levels, &cfg).expect("valid fit");
        let preds = model.predict_levels(&data);
        let mae: f64 = preds
            .iter()
            .zip(&levels)
            .map(|(p, t)| (p - t).abs())
            .sum::<f64>()
            / levels.len() as f64;
        assert!(mae < 0.6, "MAE {mae:.3}");
        // Loss decreased substantially.
        let first = model.loss_curve[0];
        let last = *model.loss_curve.last().expect("non-empty");
        assert!(last < first * 0.3, "loss {first} -> {last}");
    }

    #[test]
    fn thresholded_regression_classifies() {
        let (data, levels) = synth(400);
        let cfg = TrainConfig {
            epochs: 60,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let mut model = train_regression(&data, &levels, &cfg).expect("valid fit");
        let preds = model.predict_levels(&data);
        let correct = preds
            .iter()
            .zip(&data.y)
            .filter(|(p, &y)| usize::from(**p >= 2.0) == y)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.9,
            "acc {correct}/{}",
            data.len()
        );
    }

    /// The message of the `Config` error `train_regression` returns.
    fn config_error(data: &Dataset, levels: &[f64], cfg: &TrainConfig) -> String {
        match train_regression(data, levels, cfg) {
            Err(QiError::Config(msg)) => msg,
            Err(other) => panic!("expected a Config error, got {other}"),
            Ok(_) => panic!("expected a Config error, got a model"),
        }
    }

    #[test]
    fn a_level_count_other_than_the_sample_count_is_a_config_error() {
        let (data, levels) = synth(20);
        let msg = config_error(&data, &levels[..19], &TrainConfig::default());
        assert!(
            msg.contains("levels holds 19 values for 20 samples"),
            "{msg}"
        );
    }

    #[test]
    fn an_empty_set_is_a_config_error() {
        let empty = Dataset {
            x: Matrix::zeros(0, 4),
            y: Vec::new(),
            n_servers: 3,
        };
        let msg = config_error(&empty, &[], &TrainConfig::default());
        assert!(msg.contains("no samples"), "{msg}");
    }

    #[test]
    fn a_zero_batch_is_a_config_error() {
        let (data, levels) = synth(20);
        let cfg = TrainConfig {
            batch: 0,
            ..TrainConfig::default()
        };
        let msg = config_error(&data, &levels, &cfg);
        assert!(msg.contains("TrainConfig.batch"), "{msg}");
    }
}
