//! Property-based tests for the neural-network stack.

use proptest::prelude::*;
use qi_ml::data::{Dataset, Standardizer};
use qi_ml::layers::{Dense, Mlp};
use qi_ml::loss::{softmax, softmax_cross_entropy, tempered_frequency_weights};
use qi_ml::matrix::Matrix;
use qi_ml::metrics::ConfusionMatrix;
use qi_ml::model::KernelNet;
use qi_ml::serialize::{model_from_text, model_to_text};
use qi_ml::train::TrainedModel;
use qi_monitor::schema::FeatureSchema;

fn mlp_from(widths: &[usize], params: &mut impl Iterator<Item = f32>) -> Mlp {
    let layers = widths
        .windows(2)
        .map(|p| {
            let w: Vec<f32> = params.by_ref().take(p[0] * p[1]).collect();
            let b: Vec<f32> = params.by_ref().take(p[1]).collect();
            Dense::from_params(p[0], p[1], w, b)
        })
        .collect();
    Mlp::from_layers(layers)
}

/// Any structurally valid `TrainedModel`: random architecture within the
/// kernel-net family (kernel ends in one score, head starts at the
/// server count) and random finite parameters.
fn arb_model() -> impl Strategy<Value = TrainedModel> {
    (2usize..5, 3usize..8, 2usize..6, 2usize..4).prop_flat_map(
        |(servers, feats, hidden, classes)| {
            let n_params =
                |widths: &[usize]| -> usize { widths.windows(2).map(|p| p[0] * p[1] + p[1]).sum() };
            let total = n_params(&[feats, hidden, 1]) + n_params(&[servers, hidden, classes]);
            (
                prop::collection::vec(-100.0f32..100.0, total),
                prop::collection::vec(-10.0f32..10.0, feats),
                prop::collection::vec(0.01f32..10.0, feats),
            )
                .prop_map(move |(net, mean, std)| {
                    let mut it = net.into_iter();
                    let kernel = mlp_from(&[feats, hidden, 1], &mut it);
                    let head = mlp_from(&[servers, hidden, classes], &mut it);
                    TrainedModel::from_parts(
                        KernelNet::from_parts(kernel, head, servers),
                        Standardizer::from_parts(mean, std),
                        FeatureSchema::custom(feats),
                    )
                })
        },
    )
}

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-50.0f32..50.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

proptest! {
    /// Softmax rows are probability distributions for any finite logits.
    #[test]
    fn softmax_rows_are_distributions(m in matrix_strategy(4, 5)) {
        let p = softmax(&m);
        for r in 0..p.rows() {
            let sum: f32 = p.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {} sums to {}", r, sum);
            prop_assert!(p.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// Cross-entropy loss is non-negative and its gradient rows sum to
    /// ~0 when all class weights are equal (softmax gradient property).
    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero(
        m in matrix_strategy(6, 3),
        labels in prop::collection::vec(0usize..3, 6),
    ) {
        let (loss, grad) = softmax_cross_entropy(&m, &labels, &[1.0, 1.0, 1.0]);
        prop_assert!(loss >= 0.0);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {} grad sums to {}", r, s);
        }
    }

    /// Matmul distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(4, 2),
        c in matrix_strategy(4, 2),
    ) {
        let mut bc = b.clone();
        for (x, &y) in bc.data_mut().iter_mut().zip(c.data()) {
            *x += y;
        }
        let left = a.matmul(&bc);
        let ab = a.matmul(&b);
        let ac = a.matmul(&c);
        for i in 0..left.data().len() {
            let rhs = ab.data()[i] + ac.data()[i];
            prop_assert!(
                (left.data()[i] - rhs).abs() <= 1e-2 * (1.0 + rhs.abs()),
                "index {}: {} vs {}",
                i,
                left.data()[i],
                rhs
            );
        }
    }

    /// `t_matmul` agrees with the explicit transpose, and `matmul_t`
    /// with the textbook dot product of rows (ascending `k`, one
    /// accumulator from `+0.0`) bit for bit — `matmul_t` is itself
    /// "transpose, then `matmul`", so that pair would compare a kernel
    /// with itself.
    #[test]
    fn transpose_products_agree(
        a in matrix_strategy(5, 3),
        b in matrix_strategy(5, 2),
        c in matrix_strategy(4, 3),
    ) {
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        prop_assert_eq!(fast, slow);
        let fast2 = a.matmul_t(&c);
        prop_assert_eq!((fast2.rows(), fast2.cols()), (5, 4));
        for r in 0..5 {
            for j in 0..4 {
                let mut dot = 0.0f32;
                for k in 0..3 {
                    dot += a.get(r, k) * c.get(j, k);
                }
                prop_assert_eq!(fast2.get(r, j).to_bits(), dot.to_bits(), "({}, {})", r, j);
            }
        }
    }

    /// Standardised training data has ~zero mean per feature; transform
    /// never produces non-finite values even with constant columns.
    #[test]
    fn standardizer_is_safe(
        rows in 2usize..30,
        constant in -5.0f32..5.0,
    ) {
        let cols = 4;
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            data.push(constant); // constant column
            data.push(r as f32);
            data.push((r as f32).sin() * 10.0);
            data.push(-(r as f32) * 0.25);
        }
        let x = Matrix::from_vec(rows, cols, data);
        let st = Standardizer::fit(&x);
        let mut t = x.clone();
        st.transform(&mut t);
        prop_assert!(t.data().iter().all(|v| v.is_finite()));
        for c in 0..cols {
            let mean: f32 = (0..rows).map(|r| t.get(r, c)).sum::<f32>() / rows as f32;
            prop_assert!(mean.abs() < 1e-3, "col {} mean {}", c, mean);
        }
    }

    /// Confusion-matrix identities hold for any recorded pairs:
    /// accuracy = diag/total, per-class recall·support sums to the
    /// number of correct predictions, and every score is in [0, 1].
    #[test]
    fn confusion_matrix_identities(
        pairs in prop::collection::vec((0usize..3, 0usize..3), 1..200),
    ) {
        let mut cm = ConfusionMatrix::new(3);
        for &(a, p) in &pairs {
            cm.record(a, p);
        }
        prop_assert_eq!(cm.total(), pairs.len() as u64);
        let diag: u64 = (0..3).map(|i| cm.get(i, i)).sum();
        prop_assert!((cm.accuracy() - diag as f64 / pairs.len() as f64).abs() < 1e-12);
        for c in 0..3 {
            for v in [cm.precision(c), cm.recall(c), cm.f1(c)] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
        prop_assert!((0.0..=1.0).contains(&cm.macro_f1()));
    }

    /// Inverse-frequency weights: present classes have positive weight
    /// whose mean is 1; rarer classes never get smaller weights.
    #[test]
    fn class_weights_order_by_rarity(
        labels in prop::collection::vec(0usize..3, 3..300),
    ) {
        let w = tempered_frequency_weights(&labels, 3, 1.0);
        let mut counts = [0usize; 3];
        for &l in &labels {
            counts[l] += 1;
        }
        for a in 0..3 {
            for b in 0..3 {
                if counts[a] > 0 && counts[b] > 0 && counts[a] < counts[b] {
                    prop_assert!(w[a] >= w[b], "rarer class got smaller weight");
                }
            }
        }
        let present: Vec<f32> = (0..3).filter(|&c| counts[c] > 0).map(|c| w[c]).collect();
        let mean: f32 = present.iter().sum::<f32>() / present.len() as f32;
        prop_assert!((mean - 1.0).abs() < 1e-4);
    }

    /// Dataset split is a partition for any size/fraction.
    #[test]
    fn dataset_split_partitions(
        n in 2usize..120,
        frac in 0.05f64..0.95,
        seed in 0u64..1000,
    ) {
        let servers = 2;
        let samples: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..servers * 3).map(|j| (i * 7 + j) as f32).collect())
            .collect();
        let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let d = Dataset::from_samples(samples, y, servers);
        let (train, test) = d.split(frac, seed);
        prop_assert_eq!(train.len() + test.len(), n);
        prop_assert!(!train.is_empty());
        prop_assert!(!test.is_empty());
        // Row multiset is preserved: compare sorted first-feature values.
        let mut all: Vec<f32> = Vec::new();
        for i in 0..train.len() {
            all.push(train.sample_rows(i).get(0, 0));
        }
        for i in 0..test.len() {
            all.push(test.sample_rows(i).get(0, 0));
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut orig: Vec<f32> = (0..n).map(|i| d.sample_rows(i).get(0, 0)).collect();
        orig.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert_eq!(all, orig);
        // The index lists partition `0..n` and name the two sides
        // sample for sample, bit for bit.
        let (train_idx, test_idx) = d.split_indices(frac, seed);
        let mut seen: Vec<usize> = train_idx.iter().chain(&test_idx).copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        for (side, idx) in [(&train, &train_idx), (&test, &test_idx)] {
            let picked = d.subset(idx);
            prop_assert_eq!(&side.y, &picked.y);
            let bits = |d: &Dataset| d.x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(side), bits(&picked));
        }
    }

    /// QIMODEL round trip is bit-identical for ANY valid model: the
    /// re-serialized text matches byte for byte (hex bit patterns, so
    /// parameter bits survive exactly) and predictions agree.
    #[test]
    fn serialized_model_round_trips_bit_identically(
        model in arb_model(),
        seed in 0u64..1_000,
    ) {
        let mut model = model;
        let text = model_to_text(&model);
        let mut back = model_from_text(&text).expect("own output parses");
        prop_assert_eq!(model_to_text(&back), text.clone());
        // Bit-identical predictions on a pseudo-random feature block.
        let shape = model.shape();
        let block: Vec<f32> = (0..shape.n_servers * shape.n_features)
            .map(|j| {
                let h = (j as u64 + 1).wrapping_mul(seed.wrapping_mul(2) + 1);
                ((h >> 16) as u32 % 4_000) as f32 / 1_000.0 - 2.0
            })
            .collect();
        let m = Matrix::from_vec(shape.n_servers, shape.n_features, block);
        prop_assert_eq!(model.predict_one(&m), back.predict_one(&m));
    }

    /// Truncating a QIMODEL file anywhere inside its content always
    /// yields a `ModelParseError` — never a panic, never a silently
    /// different model. (The trailing checksum line guarantees this.)
    #[test]
    fn truncated_model_files_always_error(
        model in arb_model(),
        frac in 0.0f64..1.0,
    ) {
        let text = model_to_text(&model);
        let content = text.trim_end().len();
        let cut = ((frac * content as f64) as usize).min(content - 1);
        prop_assert!(model_from_text(&text[..cut]).is_err());
    }

    /// Flipping any single bit of a QIMODEL file's content always yields
    /// a `ModelParseError`: a flip in the body breaks the FNV-1a
    /// checksum, a flip in the checksum line breaks its own syntax or
    /// the match. Never a panic.
    #[test]
    fn bit_flipped_model_files_always_error(
        model in arb_model(),
        frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let text = model_to_text(&model);
        let content = text.trim_end().len();
        let mut bytes = text.into_bytes();
        let i = ((frac * content as f64) as usize).min(content - 1);
        bytes[i] ^= 1 << bit;
        match String::from_utf8(bytes) {
            // Invalid UTF-8 would already be rejected by any reader.
            Err(_) => {}
            Ok(corrupt) => prop_assert!(
                model_from_text(&corrupt).is_err(),
                "flip of bit {} at byte {} parsed successfully",
                bit,
                i
            ),
        }
    }
}
