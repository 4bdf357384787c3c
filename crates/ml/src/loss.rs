//! Softmax cross-entropy with per-class weights.
//!
//! The interference datasets are imbalanced (the paper's IO500 set is
//! ~75% positive, DLIO ~20%), so the loss supports inverse-frequency
//! class weighting.

use crate::matrix::Matrix;

/// Row-wise softmax (numerically stabilised).
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Mean weighted cross-entropy over the batch and its gradient w.r.t.
/// the logits. `class_weights[c]` scales samples labelled `c`.
pub fn softmax_cross_entropy(
    logits: &Matrix,
    labels: &[usize],
    class_weights: &[f32],
) -> (f32, Matrix) {
    assert_eq!(logits.rows(), labels.len(), "batch size mismatch");
    assert_eq!(logits.cols(), class_weights.len(), "class count mismatch");
    let probs = softmax(logits);
    let n = logits.rows() as f32;
    let mut loss = 0.0;
    let mut grad = probs.clone();
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label out of range");
        let w = class_weights[label];
        let p = probs.get(r, label).max(1e-12);
        loss += -p.ln() * w;
        let row = grad.row_mut(r);
        for (c, g) in row.iter_mut().enumerate() {
            let indicator = if c == label { 1.0 } else { 0.0 };
            *g = (*g - indicator) * w / n;
        }
    }
    (loss / n, grad)
}

/// Class weights proportional to `(1 / frequency)^exponent`, normalised
/// to mean 1 over the classes present. `exponent = 1` is full
/// inverse-frequency weighting; `0.5` tempers it (full weighting
/// over-fires the rare class on skewed datasets like DLIO's, trading
/// precision for recall); `0` disables weighting.
pub fn tempered_frequency_weights(labels: &[usize], n_classes: usize, exponent: f32) -> Vec<f32> {
    let mut counts = vec![0usize; n_classes];
    for &l in labels {
        counts[l] += 1;
    }
    let n = labels.len() as f32;
    let mut w: Vec<f32> = counts
        .iter()
        .map(|&c| {
            if c == 0 {
                0.0
            } else {
                (n / (n_classes as f32 * c as f32)).powf(exponent)
            }
        })
        .collect();
    let active = w.iter().filter(|&&x| x > 0.0).count().max(1) as f32;
    let mean = w.iter().sum::<f32>() / active;
    if mean > 0.0 {
        for x in &mut w {
            *x /= mean;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax(&m);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&x| x > 0.0));
        }
        // Largest logit gets the largest probability.
        assert!(p.get(0, 2) > p.get(0, 1));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        let pa = softmax(&a);
        let pb = softmax(&b);
        for c in 0..3 {
            assert!((pa.get(0, c) - pb.get(0, c)).abs() < 1e-6);
        }
    }

    #[test]
    fn perfect_prediction_has_low_loss() {
        let good = Matrix::from_vec(1, 2, vec![-10.0, 10.0]);
        let bad = Matrix::from_vec(1, 2, vec![10.0, -10.0]);
        let (l_good, _) = softmax_cross_entropy(&good, &[1], &[1.0, 1.0]);
        let (l_bad, _) = softmax_cross_entropy(&bad, &[1], &[1.0, 1.0]);
        assert!(l_good < 1e-3);
        assert!(l_bad > 5.0);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let w = [1.0, 1.0, 1.0];
        let (base, grad) = softmax_cross_entropy(&logits, &labels, &w);
        let eps = 1e-3;
        for (r, c) in [(0, 0), (0, 2), (1, 1)] {
            let mut bumped = logits.clone();
            bumped.set(r, c, bumped.get(r, c) + eps);
            let (l2, _) = softmax_cross_entropy(&bumped, &labels, &w);
            let numeric = (l2 - base) / eps;
            let analytic = grad.get(r, c);
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "({r},{c}): numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn class_weights_scale_loss() {
        let logits = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let (l1, _) = softmax_cross_entropy(&logits, &[1], &[1.0, 1.0]);
        let (l2, _) = softmax_cross_entropy(&logits, &[1], &[1.0, 3.0]);
        assert!((l2 - 3.0 * l1).abs() < 1e-6);
    }

    #[test]
    fn inverse_frequency_prefers_rare_class() {
        let labels = [0, 0, 0, 0, 0, 0, 1, 1];
        let w = tempered_frequency_weights(&labels, 2, 1.0);
        assert!(w[1] > w[0]);
        let mean = (w[0] + w[1]) / 2.0;
        assert!((mean - 1.0).abs() < 1e-6);
    }

    #[test]
    fn missing_class_gets_zero_weight() {
        let labels = [0, 0, 2];
        let w = tempered_frequency_weights(&labels, 3, 1.0);
        assert_eq!(w[1], 0.0);
        assert!(w[0] > 0.0 && w[2] > 0.0);
    }
}
