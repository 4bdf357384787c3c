//! The forward kernels: one fused dense layer that training, `predict*`
//! and serving all run, plus the allocation-free plumbing serving adds.
//!
//! Training keeps each layer's input for backprop and takes `&mut self`
//! ([`crate::layers::Dense::forward`]); serving wants throughput from an
//! *immutable* model: many shards reading one set of weights, no
//! per-batch allocation, nothing retained. Both call the same kernel:
//!
//! - `dense_fused` — one dense layer with the bias add and ReLU fused
//!   into the accumulation epilogue, dispatched to width-specialised
//!   micro-kernels (the serve shapes have tiny output widths: 32, 16, 1,
//!   2). Each kernel keeps a whole output row of accumulators on the
//!   stack — a `[f32; W]` the compiler holds in vector registers — and
//!   streams the weight matrix row-major, so the inner loop is a
//!   branch-free, autovectorizable axpy with no loads or stores of
//!   partial sums. Two input rows are processed per pass so each weight
//!   row fetched from cache is used twice.
//! - [`InferScratch`] — caller-owned ping-pong activation buffers. One
//!   scratch per serving shard; capacity grows to the largest batch seen
//!   and is reused forever after; `predict_batch_into` stages the
//!   input in it and standardises it there.
//! - `argmax_row` — the crate's one argmax, total over every `f32`
//!   row: a NaN among the logits (an `inf` feature can put `inf − inf`
//!   into the last layer) loses to every number instead of panicking.
//!
//! **Bit-identity invariant** (the same one `qi_ml::matrix` keeps):
//! every output element is accumulated in strictly ascending-`k` order
//! into a single accumulator, the bias is added after the full sum, and
//! ReLU turns everything not strictly positive — `-0.0` and NaN
//! included — into `+0.0`. Therefore the fused kernel produces results
//! bit-identical to the naive `matmul` → `add_row_vec` → clamp
//! composition — checked for arbitrary shapes, against a reference
//! written from those public `Matrix` operations, by the property suite
//! in `crates/ml/tests/fused_infer.rs`. The kernels run through
//! `matrix::wide`, eight lanes wide where the CPU has AVX2, with the same
//! bits (see there).

use crate::matrix::wide;

/// Caller-owned scratch for the immutable inference path: an input
/// staging buffer plus two ping-pong activation buffers. Reusing one of
/// these across batches removes every per-batch allocation from serving.
#[derive(Default)]
pub struct InferScratch {
    /// Standardized input staging (see
    /// [`crate::train::TrainedModel::predict_batch_into`]).
    pub(crate) x: Vec<f32>,
    pub(crate) a: Vec<f32>,
    pub(crate) b: Vec<f32>,
}

impl InferScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// One fused dense layer: `out[r] = act(x[r] · w + bias)` for each of
/// `rows` input rows, `w` row-major `in_w × out_w`. `relu` applies the
/// clamp `v > 0.0 ? v : 0.0`. `out` is cleared and filled with
/// `rows × out_w` values.
// Flat hot-path signature: the scratch-owned slices must stay separate
// borrows so the caller can ping-pong buffers without aliasing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dense_fused(
    x: &[f32],
    rows: usize,
    in_w: usize,
    w: &[f32],
    out_w: usize,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    debug_assert_eq!(x.len(), rows * in_w);
    debug_assert_eq!(w.len(), in_w * out_w);
    debug_assert_eq!(bias.len(), out_w);
    out.clear();
    out.reserve(rows * out_w);
    wide(
        #[inline(always)]
        || dense_rows(x, rows, in_w, w, out_w, bias, relu, out),
    );
}

/// The body of [`dense_fused`] that [`wide`] compiles twice.
// Width-specialised micro-kernels: with `W` a compile-time constant the
// accumulator array lives entirely in registers and the `j` loop
// unrolls/vectorizes. The widths below cover every layer shape the
// serve models use (and the common test shapes); anything else takes
// the tiled dynamic fallback.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dense_rows(
    x: &[f32],
    rows: usize,
    in_w: usize,
    w: &[f32],
    out_w: usize,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    match out_w {
        1 => dense_rows_fixed::<1>(x, rows, in_w, w, bias, relu, out),
        2 => dense_rows_fixed::<2>(x, rows, in_w, w, bias, relu, out),
        3 => dense_rows_fixed::<3>(x, rows, in_w, w, bias, relu, out),
        4 => dense_rows_fixed::<4>(x, rows, in_w, w, bias, relu, out),
        6 => dense_rows_fixed::<6>(x, rows, in_w, w, bias, relu, out),
        8 => dense_rows_fixed::<8>(x, rows, in_w, w, bias, relu, out),
        12 => dense_rows_fixed::<12>(x, rows, in_w, w, bias, relu, out),
        16 => dense_rows_fixed::<16>(x, rows, in_w, w, bias, relu, out),
        24 => dense_rows_fixed::<24>(x, rows, in_w, w, bias, relu, out),
        32 => dense_rows_fixed::<32>(x, rows, in_w, w, bias, relu, out),
        _ => dense_rows_any(x, rows, in_w, w, out_w, bias, relu, out),
    }
}

/// The activation every kernel ends on. The ReLU clamp sends anything
/// not strictly positive — `-0.0` and NaN included — to `+0.0`, which
/// is what lets backprop mask by the activation (`a > 0.0`).
#[inline(always)]
fn activate(v: f32, relu: bool) -> f32 {
    if !relu || v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Bias + activation epilogue of the fixed-width micro-kernels. The
/// bias is added after the complete ascending-`k` sum (matching
/// `matmul` → `add_row_vec`).
#[inline(always)]
fn finish<const W: usize>(acc: &mut [f32; W], bias: &[f32], relu: bool) {
    for j in 0..W {
        acc[j] = activate(acc[j] + bias[j], relu);
    }
}

/// Register-tiled kernel for a compile-time output width `W`, two input
/// rows per pass (each streamed weight row is used twice).
#[inline(always)]
fn dense_rows_fixed<const W: usize>(
    x: &[f32],
    rows: usize,
    in_w: usize,
    w: &[f32],
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    let mut r = 0;
    while r + 2 <= rows {
        let x0 = &x[r * in_w..(r + 1) * in_w];
        let x1 = &x[(r + 1) * in_w..(r + 2) * in_w];
        let mut acc0 = [0.0f32; W];
        let mut acc1 = [0.0f32; W];
        for (k, (&a0, &a1)) in x0.iter().zip(x1).enumerate() {
            let wk = &w[k * W..k * W + W];
            for j in 0..W {
                acc0[j] += a0 * wk[j];
                acc1[j] += a1 * wk[j];
            }
        }
        finish::<W>(&mut acc0, bias, relu);
        finish::<W>(&mut acc1, bias, relu);
        out.extend_from_slice(&acc0);
        out.extend_from_slice(&acc1);
        r += 2;
    }
    if r < rows {
        let x0 = &x[r * in_w..(r + 1) * in_w];
        let mut acc0 = [0.0f32; W];
        for (k, &a0) in x0.iter().enumerate() {
            let wk = &w[k * W..k * W + W];
            for j in 0..W {
                acc0[j] += a0 * wk[j];
            }
        }
        finish::<W>(&mut acc0, bias, relu);
        out.extend_from_slice(&acc0);
    }
}

/// Dynamic-width fallback: the output row is processed in 16-wide
/// column tiles with a stack accumulator per tile, two input rows per
/// pass like [`dense_rows_fixed`], preserving the ascending-`k`
/// single-accumulator order per element.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dense_rows_any(
    x: &[f32],
    rows: usize,
    in_w: usize,
    w: &[f32],
    out_w: usize,
    bias: &[f32],
    relu: bool,
    out: &mut Vec<f32>,
) {
    const T: usize = 16;
    out.resize(rows * out_w, 0.0);
    let mut r = 0;
    while r < rows {
        // An odd last row pairs with itself: same sums, written twice.
        let r1 = (r + 1).min(rows - 1);
        let x0 = &x[r * in_w..(r + 1) * in_w];
        let x1 = &x[r1 * in_w..(r1 + 1) * in_w];
        let mut j0 = 0;
        while j0 < out_w {
            let jw = T.min(out_w - j0);
            let mut acc0 = [0.0f32; T];
            let mut acc1 = [0.0f32; T];
            // A full tile gets the loop with a compile-time trip count:
            // that is what vectorises (`train_fit` reads 165 ms with the
            // split, 250 ms with the ragged loop alone).
            if jw == T {
                for (k, (&a0, &a1)) in x0.iter().zip(x1).enumerate() {
                    let wk = &w[k * out_w + j0..k * out_w + j0 + T];
                    for j in 0..T {
                        acc0[j] += a0 * wk[j];
                        acc1[j] += a1 * wk[j];
                    }
                }
            } else {
                for (k, (&a0, &a1)) in x0.iter().zip(x1).enumerate() {
                    let wk = &w[k * out_w + j0..k * out_w + j0 + jw];
                    for (j, &wv) in wk.iter().enumerate() {
                        acc0[j] += a0 * wv;
                        acc1[j] += a1 * wv;
                    }
                }
            }
            for (row, acc) in [(r, &acc0), (r1, &acc1)] {
                let o = &mut out[row * out_w + j0..row * out_w + j0 + jw];
                for ((o, aj), bj) in o.iter_mut().zip(acc).zip(&bias[j0..j0 + jw]) {
                    *o = activate(aj + bj, relu);
                }
            }
            j0 += jw;
        }
        r += 2;
    }
}

/// Row argmax, total over every `f32` row. On a row without NaN it is
/// the order `f32` comparison gives: `-inf` below and `+inf` above every
/// finite value, `-0.0` equal to `+0.0`, and the *last* maximum winning
/// a tie. A NaN never wins; a row of nothing but NaN (or an empty one)
/// answers class 0.
pub(crate) fn argmax_row(row: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NAN;
    for (i, &v) in row.iter().enumerate() {
        if !v.is_nan() && (best_v.is_nan() || v >= best_v) {
            best = i;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_fill(n: usize, salt: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
                ((h >> 40) as f32 / 2048.0) - 4.0
            })
            .collect()
    }

    /// Naive reference: ascending-k dot product, then bias, then relu.
    fn reference(
        x: &[f32],
        rows: usize,
        in_w: usize,
        w: &[f32],
        out_w: usize,
        bias: &[f32],
        relu: bool,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * out_w];
        for r in 0..rows {
            for j in 0..out_w {
                let mut acc = 0.0f32;
                for k in 0..in_w {
                    acc += x[r * in_w + k] * w[k * out_w + j];
                }
                let v = acc + bias[j];
                let pass = v > 0.0;
                out[r * out_w + j] = if !relu || pass { v } else { 0.0 };
            }
        }
        out
    }

    #[test]
    fn fixed_and_fallback_widths_match_reference_bitwise() {
        // Every specialised width plus fallback widths (5, 17, 40),
        // odd/even row counts to hit both the paired and tail row paths.
        for &out_w in &[1usize, 2, 3, 4, 5, 6, 8, 12, 16, 17, 24, 32, 40] {
            for &rows in &[1usize, 2, 5, 8] {
                for &in_w in &[1usize, 7, 42] {
                    let x = hash_fill(rows * in_w, 1);
                    let w = hash_fill(in_w * out_w, 2);
                    let bias = hash_fill(out_w, 3);
                    for relu in [false, true] {
                        let mut got = Vec::new();
                        dense_fused(&x, rows, in_w, &w, out_w, &bias, relu, &mut got);
                        let want = reference(&x, rows, in_w, &w, out_w, &bias, relu);
                        assert_eq!(
                            got, want,
                            "mismatch at rows={rows} in_w={in_w} out_w={out_w} relu={relu}"
                        );
                    }
                }
            }
        }
    }

    /// [`dense_rows`] called directly (the baseline compilation) and
    /// through [`dense_fused`] (dispatched by [`wide`]) gives the same
    /// bits: every specialised width and three fallback ones, odd and
    /// even row counts, inputs up to 299 wide, signed zeros, subnormals,
    /// infinities and NaN. The vector code under test exists only in an
    /// optimised build (`cargo test --release`).
    #[test]
    fn wide_dense_matches_the_baseline_bitwise() {
        use crate::matrix::{assert_wide_bits, say_what_wide_runs, sprinkle_specials};
        say_what_wide_runs();
        for &out_w in &[1usize, 2, 3, 4, 5, 6, 8, 12, 16, 17, 24, 32, 40] {
            for &rows in &[1usize, 2, 5, 8] {
                for &in_w in &[1usize, 7, 42, 299] {
                    let mut x = hash_fill(rows * in_w, 1);
                    sprinkle_specials(&mut x, in_w);
                    let mut w = hash_fill(in_w * out_w, 2);
                    sprinkle_specials(&mut w[out_w..], out_w);
                    let mut bias = hash_fill(out_w, 3);
                    bias[0] = -0.0;
                    for relu in [false, true] {
                        let mut base = Vec::new();
                        dense_rows(&x, rows, in_w, &w, out_w, &bias, relu, &mut base);
                        let mut got = Vec::new();
                        dense_fused(&x, rows, in_w, &w, out_w, &bias, relu, &mut got);
                        let what = format!("rows={rows} in_w={in_w} out_w={out_w} relu={relu}");
                        assert_wide_bits(&base, &got, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn standardize_matches_transform() {
        use crate::data::Standardizer;
        use crate::matrix::Matrix;
        let x = hash_fill(6 * 4, 9);
        let m = Matrix::from_vec(6, 4, x.clone());
        let st = Standardizer::fit(&m);
        let mut viamatrix = m.clone();
        st.transform(&mut viamatrix);
        let mut out = x.clone();
        st.transform_rows(&mut out);
        assert_eq!(out, viamatrix.data());
    }

    #[test]
    fn argmax_keeps_last_max_on_ties() {
        assert_eq!(argmax_row(&[1.0, 3.0, 3.0, 2.0]), 2);
        assert_eq!(argmax_row(&[0.5]), 0);
    }

    #[test]
    fn argmax_is_total() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        assert_eq!(argmax_row(&[nan, 1.0, nan]), 1);
        assert_eq!(argmax_row(&[2.0, nan]), 0);
        assert_eq!(argmax_row(&[nan, -inf]), 1);
        assert_eq!(argmax_row(&[nan, nan, nan]), 0);
        assert_eq!(argmax_row(&[-inf, inf, 3.0]), 1);
        assert_eq!(argmax_row(&[0.0, -0.0]), 1);
        assert_eq!(argmax_row(&[-0.0, 0.0, -1.0]), 1);
    }

    /// What every call site computed before there was one argmax: it
    /// panics on NaN, so it is the reference on NaN-free rows only.
    fn argmax_by_partial_cmp(row: &[f32]) -> usize {
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
            .map(|(i, _)| i)
            .expect("non-empty row")
    }

    proptest::proptest! {
        /// Rows drawn from few values, so ties, signed zeros and both
        /// infinities turn up in most cases.
        #[test]
        fn argmax_matches_the_old_expression_without_nan(
            picks in proptest::collection::vec(0usize..7, 1..6),
        ) {
            const VALUES: [f32; 7] =
                [f32::NEG_INFINITY, -1.5, -0.0, 0.0, 1.5, f32::MAX, f32::INFINITY];
            let row: Vec<f32> = picks.iter().map(|&i| VALUES[i]).collect();
            proptest::prop_assert_eq!(argmax_row(&row), argmax_by_partial_cmp(&row));
        }
    }
}
