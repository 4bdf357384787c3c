//! Non-finite inputs must pick a class, never panic. Most of them are
//! squashed by the first ReLU (`NaN` clamps to `+0.0`), but an `inf`
//! that survives to the last hidden layer meets weights of both signs
//! there and leaves `inf − inf = NaN` in the logits, which every argmax
//! in the crate used to `expect` away (about one hostile block in eight
//! over the sweep below, before there was one total `argmax_row`).

use qi_ml::data::Standardizer;
use qi_ml::layers::{Dense, Mlp};
use qi_ml::model::KernelNet;
use qi_ml::train::{train, TrainConfig, TrainedModel};
use qi_ml::{Dataset, InferScratch, Matrix};
use qi_monitor::schema::FeatureSchema;

/// Two servers × two features, built so that `+inf` in the first
/// feature of server 0 reaches the logits by construction: the kernel
/// passes feature 0 through, both hidden units of the head copy server
/// 0's score (`relu(inf) = inf`), and `last` is the head's final 2 × 2
/// weight matrix.
fn pass_through_model(last: [f32; 4]) -> TrainedModel {
    let kernel = Mlp::from_layers(vec![Dense::from_params(2, 1, vec![1.0, 0.0], vec![0.0])]);
    let head = Mlp::from_layers(vec![
        Dense::from_params(2, 2, vec![1.0, 1.0, 0.0, 0.0], vec![0.0, 0.0]),
        Dense::from_params(2, 2, last.to_vec(), vec![0.0, 0.0]),
    ]);
    TrainedModel::from_parts(
        KernelNet::from_parts(kernel, head, 2),
        Standardizer::from_parts(vec![0.0, 0.0], vec![1.0, 1.0]),
        FeatureSchema::custom(2),
    )
}

fn classes(model: &TrainedModel, block: &[f32]) -> Vec<usize> {
    let mut out = Vec::new();
    model.predict_batch_into(block, 1, &mut InferScratch::new(), &mut out);
    out
}

#[test]
fn nan_logits_pick_a_class() {
    let block = [f32::INFINITY, 0.0, 0.0, 0.0];
    // Logits `[inf − inf, inf + inf]`: the NaN loses to `+inf`.
    let mut model = pass_through_model([1.0, 1.0, -1.0, 1.0]);
    assert_eq!(classes(&model, &block), vec![1]);
    let as_matrix = Matrix::from_vec(2, 2, block.to_vec());
    assert_eq!(model.predict_one(&as_matrix), 1);
    assert_eq!(model.predict_batch(&as_matrix), vec![1]);
    // Logits `[inf − inf, inf − inf]`: nothing but NaN answers class 0.
    let model = pass_through_model([1.0, 1.0, -1.0, -1.0]);
    assert_eq!(classes(&model, &block), vec![0]);
    // The same weights on a finite block still order the logits:
    // `[2 − 2, 2 + 2]` and then a tie at zero, where the last wins.
    let model = pass_through_model([1.0, 1.0, -1.0, 1.0]);
    assert_eq!(classes(&model, &[2.0, 0.0, 0.0, 0.0]), vec![1]);
    let model = pass_through_model([1.0, 1.0, -1.0, -1.0]);
    assert_eq!(classes(&model, &[2.0, 0.0, 0.0, 0.0]), vec![1]);
}

const SERVERS: usize = 3;
const FEATS: usize = 4;

/// Two clean bands, as the serving tests use: positives in `1..2`,
/// negatives in `-2..-1`.
fn banded(n: usize, seed: u64) -> Dataset {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
    let mut unit = move || {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let mut samples = Vec::new();
    let mut y = Vec::new();
    for i in 0..n {
        let positive = i % 2 == 0;
        let block: Vec<f32> = (0..SERVERS * FEATS)
            .map(|_| unit() + if positive { 1.0 } else { -2.0 })
            .collect();
        samples.push(block);
        y.push(usize::from(positive));
    }
    Dataset::from_samples(samples, y, SERVERS)
}

/// Trained models × real blocks with two features of server 0 replaced
/// by `±inf` / `±f32::MAX` (the latter overflow in standardisation).
/// Before the total argmax 2 040 of the 17 280 calls over seeds 0–29
/// panicked, the first being seed 0, sample 0, features 0 and 1 at
/// `f32::MAX` and `f32::MIN`; five seeds keep the test short and
/// include it.
#[test]
fn hostile_blocks_never_panic_a_trained_model() {
    let hostile = [f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
    for seed in 0..5u64 {
        let data = banded(80, seed);
        let cfg = TrainConfig {
            epochs: 3,
            seed,
            ..TrainConfig::default()
        };
        let model = train(&data, &cfg);
        for base in 0..6 {
            let block = data.sample_rows(base).data().to_vec();
            for i in 0..FEATS {
                for j in i + 1..FEATS {
                    for &vi in &hostile {
                        for &vj in &hostile {
                            let mut b = block.clone();
                            b[i] = vi;
                            b[j] = vj;
                            let got = classes(&model, &b);
                            assert!(got.len() == 1 && got[0] < 2, "{got:?}");
                        }
                    }
                }
            }
        }
    }
}
