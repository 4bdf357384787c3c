//! **Ablation: the paper's future-work extensions** (§VI: "we plan to
//! further investigate other possible network architectures, such as
//! transformers").
//!
//! Compares, on the same IO500 dataset and split:
//!
//! 1. the paper's kernel network (baseline);
//! 2. a single-head self-attention model over per-server tokens (the
//!    transformer direction of the paper's future work);
//! 3. a degradation-level *regressor* whose predictions are thresholded
//!    back into the paper's bins (quantifying why the paper classifies
//!    instead of regressing).

use qi_ml::attention::AttentionNet;
use qi_ml::data::{Dataset, Standardizer};
use qi_ml::loss::{inverse_frequency_weights, softmax_cross_entropy};
use qi_ml::metrics::ConfusionMatrix;
use qi_ml::optim::Adam;
use qi_ml::regress::train_regression;
use qi_ml::train::TrainConfig;
use qi_telemetry::MetricsSnapshot;
use quanterference::predict::EvalReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{summary_table, Context, Family, View};

/// Train the attention model with the same protocol as the kernel net
/// and score it on `test_set`.
fn train_attention(train_set: &Dataset, test_set: &Dataset, cfg: &TrainConfig) -> ConfusionMatrix {
    let standardizer = Standardizer::fit(&train_set.x);
    let mut x = train_set.x.clone();
    standardizer.transform(&mut x);
    let std_train = Dataset {
        x,
        y: train_set.y.clone(),
        n_servers: train_set.n_servers,
    };
    let mut net = AttentionNet::new(
        std_train.n_features(),
        std_train.n_servers,
        24,
        &[16],
        cfg.n_classes,
        cfg.seed,
    );
    let mut opt = Adam::new(cfg.lr);
    let weights = inverse_frequency_weights(&std_train.y, cfg.n_classes);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA77);
    let mut order: Vec<usize> = (0..std_train.len()).collect();
    for _ in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for chunk in order.chunks(cfg.batch) {
            let sub = std_train.subset(chunk);
            let logits = net.forward(&sub.x);
            let (_, grad) = softmax_cross_entropy(&logits, &sub.y, &weights);
            net.backward(&grad);
            net.apply(&mut opt);
        }
        opt.set_lr(opt.lr() * cfg.lr_decay);
    }
    let mut xt = test_set.x.clone();
    standardizer.transform(&mut xt);
    let logits = net.forward(&xt);
    let mut cm = ConfusionMatrix::new(cfg.n_classes);
    for (r, &actual) in test_set.y.iter().enumerate() {
        cm.record_logits(actual, logits.row(r));
    }
    cm
}

pub fn run(ctx: &mut Context) {
    // 1. Kernel network: Figure 3(a)'s fit; the extensions train on its
    // split, whose index lists keep the raw levels aligned for the
    // regressor.
    let kernel = ctx.fit(Family::Io500, View::Own);
    let (gen, split) = (&kernel.gen, &kernel.split);
    let cfg = ctx.binary_tcfg();
    let report = |cm| EvalReport::new(gen, split, cm, MetricsSnapshot::new());

    // 2. Attention model.
    println!("training the self-attention extension...");
    ctx.count_fit();
    let attention = report(train_attention(&split.train, &split.test, &cfg));

    // 3. Regression + thresholding.
    println!("training the level regressor...");
    ctx.count_fit();
    let train_levels: Vec<f64> = split.train_idx.iter().map(|&i| gen.meta[i].level).collect();
    let mut reg = train_regression(&split.train, &train_levels, &cfg);
    let preds = reg.predict_levels(&split.test);
    let mut cm = ConfusionMatrix::new(2);
    for (p, &actual) in preds.iter().zip(&split.test.y) {
        cm.record(actual, gen.bins.classify(*p));
    }
    let regression = report(cm);
    let kernel = &kernel.report;

    println!("\nmodel-extension comparison (same data, same split):");
    let rows = [
        ("kernel-net (paper)", kernel),
        ("self-attention (future work)", &attention),
        ("regression + threshold", &regression),
    ];
    let table = summary_table(&rows);
    println!("{}", table.render());
    println!(
        "kernel F1 {:.3} | attention F1 {:.3} | regression F1 {:.3}",
        kernel.headline_f1(),
        attention.headline_f1(),
        regression.headline_f1()
    );

    ctx.write_results("ablation_model_extensions.csv", &table);
}
