//! Dense layers and the MLP container, with manual backprop.
//!
//! There is one forward kernel: every layer, training or serving, runs
//! through `crate::infer::dense_fused` (bias and ReLU in the
//! accumulation epilogue). Training differs only in what it keeps: each
//! [`Dense`] retains its input, which is also the previous layer's
//! post-ReLU activation, so ReLU's backward needs no mask of its own —
//! the gradient passes where that activation is `> 0.0`. Backward
//! forms parameter gradients always and the gradient with respect to a
//! network's input only where a caller takes it
//! ([`Mlp::backward`] vs [`Mlp::backward_params`]).

use rand::rngs::StdRng;
use rand::Rng;

use crate::infer::{dense_fused, InferScratch};
use crate::matrix::Matrix;
use crate::optim::Adam;

/// A fully connected layer `y = x·W + b`.
#[derive(Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    input: Option<Matrix>,
}

impl Dense {
    /// He-initialised layer (suits the ReLU activations used throughout).
    pub fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        let scale = (2.0 / inputs as f32).sqrt();
        let data = (0..inputs * outputs)
            .map(|_| {
                // Box-Muller standard normal.
                let u1: f32 = rng.gen_range(f32::MIN_POSITIVE..1.0);
                let u2: f32 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * scale
            })
            .collect();
        Dense {
            w: Matrix::from_vec(inputs, outputs, data),
            b: vec![0.0; outputs],
            grad_w: Matrix::zeros(inputs, outputs),
            grad_b: vec![0.0; outputs],
            input: None,
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass `act(x·W + b)` through the fused kernel, with the
    /// ReLU clamp when `relu`; keeps the input for backprop.
    pub fn forward(&mut self, x: &Matrix, relu: bool) -> Matrix {
        let mut y = Vec::new();
        self.fused(x.data(), x.rows(), relu, &mut y);
        self.input = Some(x.clone());
        Matrix::from_vec(x.rows(), self.outputs(), y)
    }

    /// `act(x·W + b)` over `rows` row-major rows of `x`, into `out`:
    /// the one call into [`dense_fused`] every forward makes.
    fn fused(&self, x: &[f32], rows: usize, relu: bool, out: &mut Vec<f32>) {
        dense_fused(
            x,
            rows,
            self.inputs(),
            self.w.data(),
            self.outputs(),
            &self.b,
            relu,
            out,
        );
    }

    /// Parameter gradients from dL/dy (the pre-activation gradient),
    /// without forming dL/dx.
    pub fn backward_params(&mut self, grad_out: &Matrix) {
        // Every caller (`Mlp`'s backward, via training) runs `forward` first.
        let x = self.input.as_ref().expect("backward before forward");
        self.grad_w = x.t_matmul(grad_out);
        self.grad_b = grad_out.col_sums();
    }

    /// Backward pass: parameter gradients, and returns dL/dx.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        self.backward_params(grad_out);
        grad_out.matmul_t(&self.w)
    }

    /// Apply the accumulated gradients through `opt`. `slot` must be a
    /// stable per-layer index so Adam keeps its moments straight.
    pub fn apply(&mut self, opt: &mut Adam, slot: &mut usize) {
        opt.step(*slot, self.w.data_mut(), self.grad_w.data());
        *slot += 1;
        opt.step(*slot, &mut self.b, &self.grad_b);
        *slot += 1;
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// The weight matrix (inputs × outputs).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Rebuild a layer from serialized parameters.
    pub fn from_params(inputs: usize, outputs: usize, w: Vec<f32>, b: Vec<f32>) -> Self {
        assert_eq!(w.len(), inputs * outputs, "weight shape mismatch");
        assert_eq!(b.len(), outputs, "bias shape mismatch");
        Dense {
            w: Matrix::from_vec(inputs, outputs, w),
            b,
            grad_w: Matrix::zeros(inputs, outputs),
            grad_b: vec![0.0; outputs],
            input: None,
        }
    }
}

/// A multilayer perceptron: Dense → ReLU → … → Dense (no final
/// activation; pair with a softmax loss or use raw outputs).
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// MLP with the given layer widths, e.g. `[39, 32, 16, 1]`.
    pub fn new(widths: &[usize], rng: &mut StdRng) -> Self {
        assert!(widths.len() >= 2, "MLP needs at least one layer");
        let layers = widths
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output width.
    pub fn outputs(&self) -> usize {
        // `new` and `from_layers` both assert at least one layer.
        self.layers.last().expect("non-empty").outputs()
    }

    /// Training forward pass: the layer chain of [`Mlp::forward_into`]
    /// (ReLU after every layer but the last), each layer keeping its
    /// input for backprop.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let n = self.layers.len();
        let mut cur = self.layers[0].forward(x, n > 1);
        for i in 1..n {
            cur = self.layers[i].forward(&cur, i + 1 < n);
        }
        cur
    }

    /// Immutable inference forward: the same kernels and the same bits
    /// as [`Mlp::forward`] (both are checked against a naive
    /// `matmul` → `add_row_vec` → clamp reference in
    /// `tests/fused_infer.rs`), but `&self`, nothing retained, and
    /// allocation-free once the scratch buffers are warm. `x` is
    /// `rows × inputs` row-major; the returned `rows × outputs` logits
    /// live in `scratch` until the next call.
    pub fn forward_into<'s>(
        &self,
        x: &[f32],
        rows: usize,
        scratch: &'s mut InferScratch,
    ) -> &'s [f32] {
        let InferScratch { a, b, .. } = scratch;
        self.forward_into_bufs(x, rows, a, b).0
    }

    /// [`Mlp::forward_into`] over explicit ping-pong buffers, so callers
    /// holding a destructured [`InferScratch`] (e.g. to keep `x` staged)
    /// can chain through the same allocation: the first layer reads `x`
    /// into `a`, the rest run the [`chain`]. Returns the buffer holding
    /// the output, then the free one.
    pub(crate) fn forward_into_bufs<'s>(
        &self,
        x: &[f32],
        rows: usize,
        a: &'s mut Vec<f32>,
        b: &'s mut Vec<f32>,
    ) -> (&'s mut Vec<f32>, &'s mut Vec<f32>) {
        assert_eq!(x.len(), rows * self.inputs(), "input shape mismatch");
        // `new` and `from_layers` both assert at least one layer.
        let (first, rest) = self.layers.split_first().expect("non-empty");
        first.fused(x, rows, !rest.is_empty(), a);
        chain(rest, rows, a, b)
    }

    /// Backward pass from dL/dy: parameter gradients in every layer;
    /// returns dL/dx.
    pub fn backward(&mut self, grad: &Matrix) -> Matrix {
        let g = self.backward_to_first(grad);
        self.layers[0].backward(&g)
    }

    /// [`Mlp::backward`] for a network whose input gradient nobody
    /// reads (the first network of a model): the same parameter
    /// gradients, without the first layer's `grad · Wᵀ` — the widest
    /// product of the pass when the input is the widest activation.
    pub fn backward_params(&mut self, grad: &Matrix) {
        let g = self.backward_to_first(grad);
        self.layers[0].backward_params(&g);
    }

    /// The one backward loop: every layer but the first, last to
    /// second, each followed by the ReLU backward of the layer before
    /// it. Returns the gradient at the first layer's pre-activation
    /// output (`grad` itself for a one-layer network).
    fn backward_to_first(&mut self, grad: &Matrix) -> Matrix {
        let mut g = grad.clone();
        for layer in self.layers.iter_mut().skip(1).rev() {
            g = layer.backward(&g);
            // ReLU backward. The layer's retained input is the previous
            // layer's post-ReLU activation: positive exactly where the
            // clamp let the value through, `+0.0` everywhere else (what
            // NaN and `-0.0` became), never NaN.
            // Training runs `forward` before every backward pass.
            let a = layer.input.as_ref().expect("backward before forward");
            for (d, &a) in g.data_mut().iter_mut().zip(a.data()) {
                if a <= 0.0 {
                    *d = 0.0;
                }
            }
        }
        g
    }

    /// Apply accumulated gradients.
    pub fn apply(&mut self, opt: &mut Adam, slot: &mut usize) {
        for l in &mut self.layers {
            l.apply(opt, slot);
        }
    }

    /// Number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.layers.iter().map(Dense::n_params).sum()
    }

    /// The layer widths, e.g. `[39, 32, 16, 1]`.
    pub fn widths(&self) -> Vec<usize> {
        let mut w = vec![self.layers[0].inputs()];
        w.extend(self.layers.iter().map(Dense::outputs));
        w
    }

    /// The layers, input-side first.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Rebuild an MLP from serialized layers.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        assert!(!layers.is_empty());
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].outputs(),
                pair[1].inputs(),
                "layer widths do not chain"
            );
        }
        Mlp { layers }
    }
}

/// The layer chain every immutable forward runs: each of `layers` reads
/// `cur` (`rows` rows) and writes `nxt`, then the two swap, with ReLU
/// after every layer but the last. Returns the buffer holding the
/// output, then the free one, so a second network can continue from
/// where the first stopped (the kernel network's head after its kernel).
pub(crate) fn chain<'s>(
    layers: &[Dense],
    rows: usize,
    mut cur: &'s mut Vec<f32>,
    mut nxt: &'s mut Vec<f32>,
) -> (&'s mut Vec<f32>, &'s mut Vec<f32>) {
    let n = layers.len();
    for (i, l) in layers.iter().enumerate() {
        l.fused(cur, rows, i + 1 < n, nxt);
        std::mem::swap(&mut cur, &mut nxt);
    }
    (cur, nxt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut r = rng();
        let mut d = Dense::new(3, 2, &mut r);
        d.b = vec![10.0, 20.0];
        let x = Matrix::zeros(4, 3);
        let y = d.forward(&x, false);
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input → output is the bias.
        for row in 0..4 {
            assert_eq!(y.row(row), &[10.0, 20.0]);
        }
    }

    #[test]
    fn backward_params_leaves_the_gradients_backward_does() {
        let mut r = rng();
        let mut full = Mlp::new(&[5, 7, 3, 2], &mut r);
        let mut skipped = full.clone();
        let x = Matrix::from_vec(
            4,
            5,
            (0..20).map(|i| ((i * 7) % 11) as f32 * 0.3 - 1.5).collect(),
        );
        let grad = Matrix::from_vec(4, 2, (0..8).map(|i| 0.25 - i as f32 * 0.1).collect());
        full.forward(&x);
        skipped.forward(&x);
        let dx = full.backward(&grad);
        skipped.backward_params(&grad);
        assert_eq!((dx.rows(), dx.cols()), (4, 5));
        for (a, b) in full.layers.iter().zip(&skipped.layers) {
            assert_eq!(a.grad_w, b.grad_w);
            assert_eq!(a.grad_b, b.grad_b);
        }
        // Some unit was clamped, so the ReLU mask had work to do.
        let hidden = full.layers[1].input.as_ref().expect("kept input");
        assert!(hidden.data().contains(&0.0));
    }

    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut r = rng();
        let mut d = Dense::new(2, 2, &mut r);
        let x = Matrix::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1]);
        // Loss = sum(y); dL/dy = ones.
        let loss = |d: &mut Dense, x: &Matrix| -> f32 { d.forward(x, false).data().iter().sum() };
        let base = loss(&mut d, &x);
        let ones = Matrix::from_vec(3, 2, vec![1.0; 6]);
        let _ = d.forward(&x, false);
        let _ = d.backward(&ones);
        let analytic = d.grad_w.get(0, 1);
        let eps = 1e-3;
        let old = d.w.get(0, 1);
        d.w.set(0, 1, old + eps);
        let bumped = loss(&mut d, &x);
        let numeric = (bumped - base) / eps;
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} numeric {numeric}"
        );
    }

    #[test]
    fn mlp_learns_a_linear_rule() {
        // y = 1 if x0 > x1 else 0 — trivially learnable.
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 8, 2], &mut r);
        let mut opt = Adam::new(0.01);
        let n = 64;
        let x: Vec<f32> = (0..n)
            .flat_map(|i| {
                let a = ((i * 37) % 100) as f32 / 100.0;
                let b = ((i * 53) % 100) as f32 / 100.0;
                [a, b]
            })
            .collect();
        let xm = Matrix::from_vec(n, 2, x);
        let labels: Vec<usize> = (0..n)
            .map(|i| usize::from(xm.get(i, 0) > xm.get(i, 1)))
            .collect();
        for _ in 0..300 {
            let logits = mlp.forward(&xm);
            let (_, grad) = crate::loss::softmax_cross_entropy(&logits, &labels, &[1.0, 1.0]);
            mlp.backward(&grad);
            let mut slot = 0;
            mlp.apply(&mut opt, &mut slot);
        }
        let logits = mlp.forward(&xm);
        let correct = (0..n)
            .filter(|&i| {
                let pred = usize::from(logits.get(i, 1) > logits.get(i, 0));
                pred == labels[i]
            })
            .count();
        assert!(correct as f64 / n as f64 > 0.9, "acc {}/{n}", correct);
    }

    #[test]
    fn param_counts() {
        let mut r = rng();
        let mlp = Mlp::new(&[4, 8, 3], &mut r);
        assert_eq!(mlp.n_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(mlp.inputs(), 4);
        assert_eq!(mlp.outputs(), 3);
    }
}
