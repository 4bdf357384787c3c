//! The paper's kernel-based network (§III-C).
//!
//! One small dense "kernel" MLP is applied to *every* server's feature
//! vector, producing a single value per server; the per-server outputs
//! are concatenated and fed through an MLP classification head. Because
//! the kernel weights are shared across servers, the model generalises
//! over which OSTs an application happens to touch.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::infer::InferScratch;
use crate::layers::{chain, Mlp};
use crate::matrix::Matrix;
use crate::optim::Adam;

/// Shared-kernel per-server network.
#[derive(Clone)]
pub struct KernelNet {
    kernel: Mlp,
    head: Mlp,
    n_servers: usize,
}

impl KernelNet {
    /// Build the network.
    ///
    /// - `n_features`: width of each per-server vector.
    /// - `n_servers`: vectors per sample (OSTs + MDT).
    /// - `kernel_hidden`: hidden widths of the kernel MLP (its output is
    ///   always 1 per server).
    /// - `head_hidden`: hidden widths of the classification head.
    /// - `n_classes`: output bins (2 for the binary model, 3 for Fig. 4).
    pub fn new(
        n_features: usize,
        n_servers: usize,
        kernel_hidden: &[usize],
        head_hidden: &[usize],
        n_classes: usize,
        seed: u64,
    ) -> Self {
        assert!(n_features > 0 && n_servers > 0 && n_classes >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut kw = vec![n_features];
        kw.extend_from_slice(kernel_hidden);
        kw.push(1);
        let mut hw = vec![n_servers];
        hw.extend_from_slice(head_hidden);
        hw.push(n_classes);
        KernelNet {
            kernel: Mlp::new(&kw, &mut rng),
            head: Mlp::new(&hw, &mut rng),
            n_servers,
        }
    }

    /// Vectors per sample.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// Output classes.
    pub fn n_classes(&self) -> usize {
        self.head.outputs()
    }

    /// Feature width per server vector.
    pub fn n_features(&self) -> usize {
        self.kernel.inputs()
    }

    /// Trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.kernel.n_params() + self.head.n_params()
    }

    /// Forward a batch: `x` is `(batch * n_servers) × n_features`, rows
    /// grouped per sample. Returns `batch × n_classes` logits.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.rows() % self.n_servers,
            0,
            "rows not a multiple of n_servers"
        );
        let batch = x.rows() / self.n_servers;
        let k = self.kernel.forward(x); // (batch*S) × 1
        debug_assert_eq!(k.cols(), 1);
        // Row-major (batch*S)×1 re-reads directly as batch×S.
        self.head.forward(&k.reshape(batch, self.n_servers))
    }

    /// Immutable inference forward: the same layer chain through the
    /// same kernels as [`KernelNet::forward`], but `&self`, nothing
    /// retained, and allocation-free once the scratch is warm. `x` is
    /// `(batch * n_servers) × n_features` row-major; the returned
    /// `batch × n_classes` logits live in `scratch` until the next call.
    pub fn forward_into<'s>(
        &self,
        x: &[f32],
        rows: usize,
        scratch: &'s mut InferScratch,
    ) -> &'s [f32] {
        let InferScratch { a, b, .. } = scratch;
        self.forward_into_bufs(x, rows, a, b)
    }

    /// [`KernelNet::forward_into`] over explicit ping-pong buffers: the
    /// kernel MLP, then the head's layers continuing the same [`chain`]
    /// from the buffer the kernel left. The kernel's `(batch*S) × 1`
    /// output re-reads in place as the head's `batch × S` input (both
    /// row-major), so there is no reshape copy.
    pub(crate) fn forward_into_bufs<'s>(
        &self,
        x: &[f32],
        rows: usize,
        a: &'s mut Vec<f32>,
        b: &'s mut Vec<f32>,
    ) -> &'s [f32] {
        assert_eq!(rows % self.n_servers, 0, "rows not a multiple of n_servers");
        let (scores, free) = self.kernel.forward_into_bufs(x, rows, a, b);
        chain(self.head.layers(), rows / self.n_servers, scores, free).0
    }

    /// Backward from dL/dlogits; accumulates gradients in both MLPs.
    /// The head's input gradient feeds the kernel; the kernel's own
    /// (dL/d features) has no reader and is not formed.
    pub fn backward(&mut self, grad_logits: &Matrix) {
        let g_head = self.head.backward(grad_logits); // batch × S
        let rows = g_head.rows() * self.n_servers;
        self.kernel.backward_params(&g_head.reshape(rows, 1));
    }

    /// Apply accumulated gradients via Adam.
    pub fn apply(&mut self, opt: &mut Adam) {
        opt.tick();
        let mut slot = 0;
        self.kernel.apply(opt, &mut slot);
        self.head.apply(opt, &mut slot);
    }

    /// The shared kernel MLP.
    pub fn kernel(&self) -> &Mlp {
        &self.kernel
    }

    /// The classification head.
    pub fn head(&self) -> &Mlp {
        &self.head
    }

    /// Rebuild a network from serialized parts.
    pub fn from_parts(kernel: Mlp, head: Mlp, n_servers: usize) -> Self {
        assert_eq!(kernel.outputs(), 1, "kernel must emit one score");
        assert_eq!(head.inputs(), n_servers, "head width != servers");
        KernelNet {
            kernel,
            head,
            n_servers,
        }
    }

    /// Per-server kernel scores for one sample (interpretability helper:
    /// which server the model considers "hot").
    pub fn server_scores(&mut self, sample: &Matrix) -> Vec<f32> {
        assert_eq!(sample.rows(), self.n_servers);
        let k = self.kernel.forward(sample);
        k.data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn forward_shapes() {
        let mut net = KernelNet::new(6, 3, &[8], &[8], 2, 1);
        let x = Matrix::zeros(4 * 3, 6);
        let logits = net.forward(&x);
        assert_eq!((logits.rows(), logits.cols()), (4, 2));
        assert_eq!(net.n_classes(), 2);
        assert_eq!(net.n_features(), 6);
        assert!(net.n_params() > 0);
    }

    #[test]
    #[should_panic(expected = "multiple of n_servers")]
    fn misaligned_batch_panics() {
        let mut net = KernelNet::new(4, 3, &[4], &[4], 2, 1);
        let x = Matrix::zeros(7, 4);
        let _ = net.forward(&x);
    }

    #[test]
    fn kernel_is_shared_across_server_positions() {
        // Permuting which server carries the signal must keep the kernel
        // outputs a permutation of each other (head inputs differ only in
        // order).
        let mut net = KernelNet::new(4, 2, &[6], &[6], 2, 3);
        let hot = [5.0f32, -2.0, 1.0, 0.5];
        let cold = [0.0f32; 4];
        let mut a = Vec::new();
        a.extend_from_slice(&hot);
        a.extend_from_slice(&cold);
        let mut b = Vec::new();
        b.extend_from_slice(&cold);
        b.extend_from_slice(&hot);
        let sa = net.server_scores(&Matrix::from_vec(2, 4, a));
        let sb = net.server_scores(&Matrix::from_vec(2, 4, b));
        assert!((sa[0] - sb[1]).abs() < 1e-6);
        assert!((sa[1] - sb[0]).abs() < 1e-6);
    }

    #[test]
    fn learns_any_server_hot_rule() {
        // Label = 1 iff ANY server's feature 0 is large. The flat head
        // sees the servers in different positions, so this is exactly the
        // generalisation the kernel design exists for.
        let mut net = KernelNet::new(3, 4, &[8], &[8], 2, 5);
        let mut opt = Adam::new(0.02);
        let n = 120;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let hot_server = if i % 2 == 0 { Some(i % 4) } else { None };
            for s in 0..4 {
                let hot = Some(s) == hot_server;
                rows.extend_from_slice(&[
                    if hot { 3.0 } else { 0.1 },
                    if hot { 2.0 } else { -0.1 },
                    0.5,
                ]);
            }
            labels.push(usize::from(hot_server.is_some()));
        }
        let x = Matrix::from_vec(n * 4, 3, rows);
        for _ in 0..200 {
            let logits = net.forward(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &labels, &[1.0, 1.0]);
            net.backward(&grad);
            net.apply(&mut opt);
        }
        let logits = net.forward(&x);
        let correct = (0..n)
            .filter(|&i| usize::from(logits.get(i, 1) > logits.get(i, 0)) == labels[i])
            .count();
        assert!(correct as f64 / n as f64 > 0.95, "acc {correct}/{n}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let build = || {
            let mut net = KernelNet::new(3, 2, &[4], &[4], 2, 9);
            let mut opt = Adam::new(0.01);
            let x = Matrix::from_vec(
                4,
                3,
                vec![1.0, 0.0, 2.0, 0.5, 1.5, -1.0, 2.0, 2.0, 0.0, -1.0, 0.3, 0.7],
            );
            let labels = vec![0, 1];
            for _ in 0..20 {
                let logits = net.forward(&x);
                let (_, grad) = softmax_cross_entropy(&logits, &labels, &[1.0, 1.0]);
                net.backward(&grad);
                net.apply(&mut opt);
            }
            let out = net.forward(&x);
            out.data().to_vec()
        };
        assert_eq!(build(), build());
    }
}
