//! Evaluation metrics: confusion matrices, precision/recall/F1.
//!
//! The paper reports its results as confusion matrices (Figures 3-5) and
//! quotes "F1 scores exceeding 90%". [`ConfusionMatrix`] renders both.
//!
//! **Degenerate-input convention:** every score defined as a ratio
//! returns `0.0` when its denominator is empty — an absent class has
//! precision, recall, and F1 of 0; a matrix with no recorded pairs has
//! accuracy 0. No metric ever returns `NaN`, so downstream aggregation
//! (macro averages, telemetry gauges, report tables) never has to guard
//! against it. This matches scikit-learn's `zero_division=0` behavior.

use qi_simkit::table::AsciiTable;

/// An `n × n` confusion matrix; rows are ground truth, columns are
/// predictions (matching the paper's figures: true negatives top-left,
/// true positives bottom-right for the binary case).
#[derive(Clone, Debug)]
pub struct ConfusionMatrix {
    n: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Empty matrix over `n` classes.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2);
        ConfusionMatrix {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Record one (ground truth, prediction) pair.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        assert!(actual < self.n && predicted < self.n);
        self.counts[actual * self.n + predicted] += 1;
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n
    }

    /// Count in cell (actual, predicted).
    pub fn get(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual * self.n + predicted]
    }

    /// Total recorded pairs.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy. `0.0` (not NaN) when nothing was recorded.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.n).map(|i| self.get(i, i)).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Precision of class `c`: TP / (TP + FP). `0.0` (not NaN) when the
    /// class was never predicted.
    pub fn precision(&self, c: usize) -> f64 {
        let tp = self.get(c, c) as f64;
        let predicted: u64 = (0..self.n).map(|a| self.get(a, c)).sum();
        if predicted == 0 {
            0.0
        } else {
            tp / predicted as f64
        }
    }

    /// Recall of class `c`: TP / (TP + FN). `0.0` (not NaN) when the
    /// class never actually occurred.
    pub fn recall(&self, c: usize) -> f64 {
        let tp = self.get(c, c) as f64;
        let actual: u64 = (0..self.n).map(|p| self.get(c, p)).sum();
        if actual == 0 {
            0.0
        } else {
            tp / actual as f64
        }
    }

    /// F1 of class `c`. `0.0` (not NaN) when precision and recall are
    /// both zero (e.g. the class is absent from truth and predictions).
    pub fn f1(&self, c: usize) -> f64 {
        let p = self.precision(c);
        let r = self.recall(c);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean F1 over **all** classes, absent ones included
    /// (each contributing an F1 of 0) — so a model that only ever sees
    /// one class cannot score a perfect macro-F1. Never NaN.
    pub fn macro_f1(&self) -> f64 {
        (0..self.n).map(|c| self.f1(c)).sum::<f64>() / self.n as f64
    }

    /// Binary-classification convenience: F1 of the positive class
    /// (class 1) — what the paper's ">90% F1" refers to.
    pub fn f1_positive(&self) -> f64 {
        self.f1(1)
    }

    /// The score the paper's figures headline: positive-class F1 for a
    /// binary matrix, macro-F1 otherwise.
    pub fn headline_f1(&self) -> f64 {
        if self.n == 2 {
            self.f1_positive()
        } else {
            self.macro_f1()
        }
    }

    /// Render as an ASCII table with the given class labels.
    pub fn render(&self, labels: &[&str]) -> String {
        assert_eq!(labels.len(), self.n);
        let mut header: Vec<String> = vec!["actual \\ predicted".to_string()];
        header.extend(labels.iter().map(|l| l.to_string()));
        header.push("recall".to_string());
        let mut t = AsciiTable::new(header);
        for (a, label) in labels.iter().enumerate() {
            let mut row = vec![label.to_string()];
            for p in 0..self.n {
                row.push(self.get(a, p).to_string());
            }
            row.push(format!("{:.3}", self.recall(a)));
            t.add_row(row);
        }
        let mut prec = vec!["precision".to_string()];
        for c in 0..self.n {
            prec.push(format!("{:.3}", self.precision(c)));
        }
        prec.push(format!("acc {:.3}", self.accuracy()));
        t.add_row(prec);
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cm() -> ConfusionMatrix {
        // tn=50, fp=10, fn=5, tp=35
        let mut cm = ConfusionMatrix::new(2);
        for _ in 0..50 {
            cm.record(0, 0);
        }
        for _ in 0..10 {
            cm.record(0, 1);
        }
        for _ in 0..5 {
            cm.record(1, 0);
        }
        for _ in 0..35 {
            cm.record(1, 1);
        }
        cm
    }

    #[test]
    fn accuracy_and_total_of_a_binary_matrix() {
        let cm = sample_cm();
        assert!((cm.accuracy() - 0.85).abs() < 1e-12);
        assert_eq!(cm.total(), 100);
    }

    #[test]
    fn precision_recall_f1() {
        let cm = sample_cm();
        assert!((cm.precision(1) - 35.0 / 45.0).abs() < 1e-12);
        assert!((cm.recall(1) - 35.0 / 40.0).abs() < 1e-12);
        let p = 35.0 / 45.0;
        let r = 35.0 / 40.0;
        let f1 = 2.0 * p * r / (p + r);
        assert!((cm.f1_positive() - f1).abs() < 1e-12);
    }

    #[test]
    fn macro_f1_averages_classes() {
        let cm = sample_cm();
        let expect = (cm.f1(0) + cm.f1(1)) / 2.0;
        assert!((cm.macro_f1() - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_classes_do_not_nan() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        assert_eq!(cm.precision(2), 0.0);
        assert_eq!(cm.recall(2), 0.0);
        assert_eq!(cm.f1(2), 0.0);
        assert!(cm.macro_f1().is_finite());
    }

    #[test]
    fn render_contains_cells() {
        let cm = sample_cm();
        let s = cm.render(&["<2x", ">=2x"]);
        assert!(s.contains("50"));
        assert!(s.contains("35"));
        assert!(s.contains("precision"));
        assert!(s.contains("acc 0.850"));
    }

    /// No recorded pairs at all: every score is exactly 0.0, nothing is
    /// NaN, and rendering still works (the documented convention).
    #[test]
    fn empty_matrix_yields_zeros_not_nan() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.total(), 0);
        assert_eq!(cm.accuracy(), 0.0);
        for c in 0..3 {
            assert_eq!(cm.precision(c), 0.0);
            assert_eq!(cm.recall(c), 0.0);
            assert_eq!(cm.f1(c), 0.0);
        }
        assert_eq!(cm.macro_f1(), 0.0);
        let rendered = cm.render(&["a", "b", "c"]);
        assert!(!rendered.contains("NaN"), "{rendered}");
    }

    /// Only one class ever appears (in truth AND predictions): that
    /// class scores perfectly, the absent class scores 0, and macro-F1
    /// averages them instead of going NaN.
    #[test]
    fn single_class_stream_is_well_defined() {
        let mut cm = ConfusionMatrix::new(2);
        for _ in 0..7 {
            cm.record(0, 0);
        }
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.precision(0), 1.0);
        assert_eq!(cm.recall(0), 1.0);
        assert_eq!(cm.f1(0), 1.0);
        // The absent positive class contributes zeros, not NaN.
        assert_eq!(cm.precision(1), 0.0);
        assert_eq!(cm.recall(1), 0.0);
        assert_eq!(cm.f1_positive(), 0.0);
        assert_eq!(cm.macro_f1(), 0.5);
    }

    /// A class that exists in truth but is never predicted has defined
    /// precision 0 (never predicted) and recall 0 (never hit).
    #[test]
    fn never_predicted_class_scores_zero() {
        let mut cm = ConfusionMatrix::new(2);
        for _ in 0..4 {
            cm.record(1, 0); // positives exist but all predicted negative
            cm.record(0, 0);
        }
        assert_eq!(cm.precision(1), 0.0);
        assert_eq!(cm.recall(1), 0.0);
        assert_eq!(cm.f1_positive(), 0.0);
        assert!((cm.accuracy() - 0.5).abs() < 1e-12);
        assert!(cm.macro_f1().is_finite());
    }

    #[test]
    fn the_headline_is_positive_f1_when_binary_and_macro_f1_otherwise() {
        let binary = sample_cm();
        assert_eq!(binary.headline_f1(), binary.f1_positive());
        assert_ne!(binary.headline_f1(), binary.macro_f1());
        let mut three = ConfusionMatrix::new(3);
        for (a, p) in [(0, 0), (0, 1), (1, 1), (2, 2), (2, 2), (2, 1)] {
            three.record(a, p);
        }
        assert_eq!(three.headline_f1(), three.macro_f1());
        assert_ne!(three.headline_f1(), three.f1_positive());
        assert_eq!(ConfusionMatrix::new(2).headline_f1(), 0.0);
        assert_eq!(ConfusionMatrix::new(3).headline_f1(), 0.0);
    }

    #[test]
    fn perfect_prediction_has_unit_scores() {
        let mut cm = ConfusionMatrix::new(2);
        for _ in 0..10 {
            cm.record(0, 0);
            cm.record(1, 1);
        }
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.f1_positive(), 1.0);
        assert_eq!(cm.macro_f1(), 1.0);
    }
}
