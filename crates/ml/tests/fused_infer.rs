//! Property suite for the fused forward kernels: on ANY valid
//! architecture and finite parameters, the width-specialised kernels in
//! `qi_ml::infer` must match the naive `matmul` → `add_row_vec` → clamp
//! composition **bit for bit** — not approximately. Training
//! (`Mlp::forward`), `predict*` and serving (`forward_into`,
//! `predict_batch_into`) all run those kernels, so the reference here is
//! written out from public `Matrix` operations and shares no code with
//! any of them.

use proptest::prelude::*;
use qi_ml::data::Standardizer;
use qi_ml::layers::{Dense, Mlp};
use qi_ml::matrix::Matrix;
use qi_ml::model::KernelNet;
use qi_ml::train::TrainedModel;
use qi_ml::InferScratch;
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

fn n_params(widths: &[usize]) -> usize {
    widths.windows(2).map(|p| p[0] * p[1] + p[1]).sum()
}

/// Arbitrary MLP architecture — widths deliberately span both the
/// specialised kernel widths (1..32) and the dynamic fallback (>32,
/// odd sizes) — plus a matching random input batch.
fn arb_mlp_and_input() -> impl Strategy<Value = (Mlp, usize, Vec<f32>)> {
    (
        prop::collection::vec(1usize..40, 2..5), // layer widths
        1usize..9,                               // batch rows
    )
        .prop_flat_map(|(widths, rows)| {
            let total = n_params(&widths);
            let in_w = widths[0];
            (
                Just(widths),
                Just(rows),
                prop::collection::vec(-8.0f32..8.0, total),
                prop::collection::vec(-50.0f32..50.0, rows * in_w),
            )
        })
        .prop_map(|(widths, rows, params, x)| {
            let mut it = params.into_iter();
            (mlp_from(&widths, &mut it), rows, x)
        })
}

/// Any structurally valid `TrainedModel` (kernel-net family) — same
/// generator family as `tests/proptests.rs`.
fn arb_model() -> impl Strategy<Value = (TrainedModel, usize, Vec<f32>)> {
    (2usize..5, 3usize..8, 2usize..6, 2usize..4, 1usize..7).prop_flat_map(
        |(servers, feats, hidden, classes, samples)| {
            let total = n_params(&[feats, hidden, 1]) + n_params(&[servers, hidden, classes]);
            (
                prop::collection::vec(-100.0f32..100.0, total),
                prop::collection::vec(-10.0f32..10.0, feats),
                prop::collection::vec(0.01f32..10.0, feats),
                prop::collection::vec(-50.0f32..50.0, samples * servers * feats),
            )
                .prop_map(move |(net, mean, std, x)| {
                    let mut it = net.into_iter();
                    let kernel = mlp_from(&[feats, hidden, 1], &mut it);
                    let head = mlp_from(&[servers, hidden, classes], &mut it);
                    let model = TrainedModel::from_parts(
                        KernelNet::from_parts(kernel, head, servers),
                        Standardizer::from_parts(mean, std),
                        FeatureSchema::custom(feats),
                    );
                    (model, samples, x)
                })
        },
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The reference forward pass: per layer `matmul`, then `add_row_vec`,
/// then (every layer but the last) the ReLU clamp that sends anything
/// not strictly positive to `+0.0`.
fn naive_mlp(mlp: &Mlp, x: Matrix) -> Matrix {
    let n = mlp.layers().len();
    let mut cur = x;
    for (i, layer) in mlp.layers().iter().enumerate() {
        cur = cur.matmul(layer.weights());
        cur.add_row_vec(layer.bias());
        if i + 1 < n {
            for v in cur.data_mut() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
    }
    cur
}

/// Reference kernel network: the kernel MLP over every server row, its
/// `(batch·S) × 1` scores re-read as `batch × S`, then the head.
fn naive_net(net: &KernelNet, x: Matrix) -> Matrix {
    let batch = x.rows() / net.n_servers();
    let scores = naive_mlp(net.kernel(), x);
    let h_in = Matrix::from_vec(batch, net.n_servers(), scores.data().to_vec());
    naive_mlp(net.head(), h_in)
}

proptest! {
    /// `Mlp::forward` (training: keeps inputs, allocates per layer) and
    /// `Mlp::forward_into` (serving: `&self`, scratch buffers) both
    /// match the naive reference bit for bit, for arbitrary widths —
    /// the specialised kernel widths and the dynamic fallback alike.
    #[test]
    fn mlp_forward_into_matches_training_forward_bitwise(
        case in arb_mlp_and_input(),
    ) {
        let (mlp, rows, x) = case;
        let input = Matrix::from_vec(rows, mlp.inputs(), x.clone());
        let reference = naive_mlp(&mlp, input.clone());
        let mut mutable = mlp.clone();
        let trained = mutable.forward(&input);
        prop_assert_eq!(bits(trained.data()), bits(reference.data()));
        let mut scratch = InferScratch::new();
        let fused = mlp.forward_into(&x, rows, &mut scratch);
        prop_assert_eq!(bits(fused), bits(reference.data()));
        // Scratch reuse must not leak state between batches: run again
        // on the same warm scratch and require the same bits.
        let again = mlp.forward_into(&x, rows, &mut scratch);
        prop_assert_eq!(bits(again), bits(reference.data()));
    }

    /// `KernelNet::forward` and `KernelNet::forward_into` — the full
    /// kernel→reshape→head chain — match the naive reference bit for
    /// bit.
    #[test]
    fn kernel_net_forward_into_matches_bitwise(
        case in arb_model(),
    ) {
        let (model, samples, x) = case;
        let net = model.net();
        let rows = samples * net.n_servers();
        let input = Matrix::from_vec(rows, net.n_features(), x.clone());
        let reference = naive_net(net, input.clone());
        let mut mutable = net.clone();
        let trained = mutable.forward(&input);
        prop_assert_eq!(bits(trained.data()), bits(reference.data()));
        let mut scratch = InferScratch::new();
        let fused = net.forward_into(&x, rows, &mut scratch);
        prop_assert_eq!(bits(fused), bits(reference.data()));
    }

    /// The whole prediction entry point: `predict_batch_into` and
    /// `predict_batch` (standardise → fused forward → argmax) return
    /// the classes of the naive chain — `Standardizer::transform`, the
    /// reference forward, and the last maximum of each logit row.
    #[test]
    fn predict_batch_into_matches_predict_batch(
        case in arb_model(),
    ) {
        let (mut model, samples, x) = case;
        let rows = samples * model.n_servers();
        let stacked = Matrix::from_vec(rows, model.n_features(), x.clone());
        let mut standardized = stacked.clone();
        model.standardizer().transform(&mut standardized);
        let logits = naive_net(model.net(), standardized);
        let reference: Vec<usize> = (0..logits.rows())
            .map(|r| {
                let row = logits.row(r);
                (0..row.len()).fold(0, |best, i| if row[i] >= row[best] { i } else { best })
            })
            .collect();
        let mut scratch = InferScratch::new();
        let mut out = Vec::new();
        model.predict_batch_into(&x, samples, &mut scratch, &mut out);
        prop_assert_eq!(&out, &reference);
        prop_assert_eq!(model.predict_batch(&stacked), reference);
    }
}
