//! Datasets of per-server vectors, train/test splitting, and feature
//! standardisation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// A labelled dataset. Each *sample* is `n_servers` consecutive rows of
/// `x` (one per-server vector each); `y[i]` is sample `i`'s class.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Feature rows: `(n_samples * n_servers) × n_features`.
    pub x: Matrix,
    /// One label per sample.
    pub y: Vec<usize>,
    /// Per-server rows per sample.
    pub n_servers: usize,
}

impl Dataset {
    /// Assemble a dataset from per-sample server matrices.
    ///
    /// `samples[i]` must be an `n_servers × n_features` row-major block.
    pub fn from_samples(samples: Vec<Vec<f32>>, y: Vec<usize>, n_servers: usize) -> Self {
        assert_eq!(samples.len(), y.len());
        assert!(!samples.is_empty(), "empty dataset");
        let block = samples[0].len();
        assert!(
            block.is_multiple_of(n_servers),
            "block not divisible by servers"
        );
        let n_features = block / n_servers;
        let mut data = Vec::with_capacity(samples.len() * block);
        for s in &samples {
            assert_eq!(s.len(), block, "ragged sample");
            data.extend_from_slice(s);
        }
        Dataset {
            x: Matrix::from_vec(samples.len() * n_servers, n_features, data),
            y,
            n_servers,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature width of each per-server row.
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Number of distinct classes present (max label + 1).
    pub fn n_classes(&self) -> usize {
        self.y.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Per-class sample counts, length [`Dataset::n_classes`].
    pub fn class_counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.n_classes()];
        for &l in &self.y {
            c[l] += 1;
        }
        c
    }

    /// The feature rows of sample `i` as a matrix view copy.
    pub fn sample_rows(&self, i: usize) -> Matrix {
        let idx: Vec<usize> = (i * self.n_servers..(i + 1) * self.n_servers).collect();
        self.x.gather_rows(&idx)
    }

    /// Select a subset of samples by index.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let rows: Vec<usize> = idx
            .iter()
            .flat_map(|&i| i * self.n_servers..(i + 1) * self.n_servers)
            .collect();
        Dataset {
            x: self.x.gather_rows(&rows),
            y: idx.iter().map(|&i| self.y[i]).collect(),
            n_servers: self.n_servers,
        }
    }

    /// The seeded shuffle behind [`Dataset::split`]: the sample indices
    /// of the `(train, test)` sides, each in subset order, together a
    /// partition of `0..len`. Callers that keep per-sample data beside
    /// the dataset use the lists to keep it aligned with the two sides.
    pub fn split_indices(&self, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        assert!((0.0..1.0).contains(&test_fraction));
        let mut idx: Vec<usize> = (0..self.len()).collect();
        shuffle(&mut idx, &mut StdRng::seed_from_u64(seed));
        let n_test = ((self.len() as f64) * test_fraction).round() as usize;
        let n_test = n_test.clamp(1, self.len().saturating_sub(1).max(1));
        let train_idx = idx.split_off(n_test);
        (train_idx, idx)
    }

    /// Random split into (train, test) with `test_fraction` of samples
    /// reserved for testing — the paper's 80/20 protocol with 0.2.
    pub fn split(&self, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        let (train_idx, test_idx) = self.split_indices(test_fraction, seed);
        (self.subset(&train_idx), self.subset(&test_idx))
    }
}

/// The one Fisher–Yates: every epoch of the training loop, every
/// [`Dataset::split_indices`] and every permutation-importance column
/// draw their order through it.
pub fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

/// Per-feature z-score standardiser, fitted on training data only.
#[derive(Clone, Debug)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Fit on every row of `x`.
    pub fn fit(x: &Matrix) -> Self {
        let n = x.rows().max(1) as f64;
        let mut mean = vec![0.0f64; x.cols()];
        for r in 0..x.rows() {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; x.cols()];
        for r in 0..x.rows() {
            for ((s, &v), &m) in var.iter_mut().zip(x.row(r)).zip(&mean) {
                let d = v as f64 - m;
                *s += d * d;
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|&s| {
                let sd = (s / n).sqrt() as f32;
                if sd < 1e-8 {
                    1.0
                } else {
                    sd
                }
            })
            .collect();
        Standardizer {
            mean: mean.into_iter().map(|m| m as f32).collect(),
            std,
        }
    }

    /// Fit on `data`; returns the standardiser and `data` standardised:
    /// the step every fit starts with.
    pub fn fit_apply(data: &Dataset) -> (Self, Dataset) {
        let st = Standardizer::fit(&data.x);
        let standardized = st.apply(data);
        (st, standardized)
    }

    /// A standardised copy of `data`.
    pub fn apply(&self, data: &Dataset) -> Dataset {
        let mut x = data.x.clone();
        self.transform(&mut x);
        Dataset {
            x,
            y: data.y.clone(),
            n_servers: data.n_servers,
        }
    }

    /// Transform a matrix in place.
    pub fn transform(&self, x: &mut Matrix) {
        assert_eq!(x.cols(), self.mean.len());
        self.transform_rows(x.data_mut());
    }

    /// The z-score `(v - mean) / std`, in place, of every value of the
    /// row-major rows in `x`: the one expression training, evaluation
    /// and serving standardise through.
    pub(crate) fn transform_rows(&self, x: &mut [f32]) {
        for row in x.chunks_exact_mut(self.mean.len().max(1)) {
            for ((v, &m), &s) in row.iter_mut().zip(&self.mean).zip(&self.std) {
                *v = (*v - m) / s;
            }
        }
    }

    /// Feature means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Feature standard deviations (constant features report 1).
    pub fn std(&self) -> &[f32] {
        &self.std
    }

    /// Rebuild from serialized parameters.
    pub fn from_parts(mean: Vec<f32>, std: Vec<f32>) -> Self {
        assert_eq!(mean.len(), std.len());
        assert!(std.iter().all(|&s| s > 0.0), "non-positive std");
        Standardizer { mean, std }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, servers: usize, feats: usize) -> Dataset {
        let samples: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..servers * feats)
                    .map(|j| (i * 31 + j * 7) as f32 % 13.0)
                    .collect()
            })
            .collect();
        let y = (0..n).map(|i| i % 2).collect();
        Dataset::from_samples(samples, y, servers)
    }

    #[test]
    fn from_samples_shapes() {
        let d = toy(10, 3, 4);
        assert_eq!(d.len(), 10);
        assert_eq!(d.n_features(), 4);
        assert_eq!(d.x.rows(), 30);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(d.class_counts(), vec![5, 5]);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let d = toy(50, 2, 3);
        let (train, test) = d.split(0.2, 42);
        assert_eq!(train.len() + test.len(), 50);
        assert_eq!(test.len(), 10);
        assert_eq!(train.x.rows(), train.len() * 2);
    }

    #[test]
    fn split_is_seeded() {
        let d = toy(40, 2, 3);
        let (a, _) = d.split(0.25, 7);
        let (b, _) = d.split(0.25, 7);
        assert_eq!(a.y, b.y);
        let (c, _) = d.split(0.25, 8);
        assert_ne!(a.y, c.y); // overwhelmingly likely
    }

    #[test]
    fn sample_rows_round_trip() {
        let d = toy(5, 2, 3);
        let s3 = d.sample_rows(3);
        assert_eq!(s3.rows(), 2);
        assert_eq!(s3.row(0), d.x.row(6));
        assert_eq!(s3.row(1), d.x.row(7));
    }

    #[test]
    fn standardizer_zero_means_unit_std() {
        let d = toy(20, 2, 3);
        let st = Standardizer::fit(&d.x);
        let mut x = d.x.clone();
        st.transform(&mut x);
        for c in 0..x.cols() {
            let mut mean = 0.0;
            for r in 0..x.rows() {
                mean += x.get(r, c);
            }
            mean /= x.rows() as f32;
            assert!(mean.abs() < 1e-5, "col {c} mean {mean}");
        }
    }

    #[test]
    fn constant_features_survive() {
        let x = Matrix::from_vec(3, 2, vec![5.0, 1.0, 5.0, 2.0, 5.0, 3.0]);
        let st = Standardizer::fit(&x);
        assert_eq!(st.std()[0], 1.0);
        let mut t = x.clone();
        st.transform(&mut t);
        assert!(t.data().iter().all(|v| v.is_finite()));
        assert_eq!(t.get(0, 0), 0.0);
    }
}
