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

use qi_bench::{is_smoke, summary_table, write_results};
use qi_ml::attention::AttentionNet;
use qi_ml::data::{Dataset, Standardizer};
use qi_ml::loss::{inverse_frequency_weights, softmax_cross_entropy};
use qi_ml::metrics::ConfusionMatrix;
use qi_ml::optim::Adam;
use qi_ml::regress::train_regression;
use qi_ml::train::{train, TrainConfig};
use quanterference::labeling::Bins;
use quanterference::predict::{family_spec, EvalReport};
use quanterference::{generate, WorkloadKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn report_from_cm(
    cm: ConfusionMatrix,
    train_n: usize,
    test_n: usize,
    labels: &[String],
) -> EvalReport {
    EvalReport {
        train_size: train_n,
        test_size: test_n,
        train_counts: vec![],
        test_counts: vec![],
        cm,
        labels: labels.to_vec(),
        metrics: qi_telemetry::MetricsSnapshot::new(),
    }
}

/// Train the attention model with the same protocol as the kernel net.
fn train_attention(
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    labels: &[String],
) -> EvalReport {
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
    // Evaluate.
    let mut xt = test_set.x.clone();
    standardizer.transform(&mut xt);
    let logits = net.forward(&xt);
    let mut cm = ConfusionMatrix::new(cfg.n_classes);
    for (r, &actual) in test_set.y.iter().enumerate() {
        let row = logits.row(r);
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        cm.record(actual, pred);
    }
    report_from_cm(cm, train_set.len(), test_set.len(), labels)
}

fn main() {
    let small = is_smoke();
    let spec = family_spec(&WorkloadKind::IO500, small);
    println!(
        "Ablation (model extensions): generating the IO500 dataset ({} runs)...",
        spec.n_runs()
    );
    let t0 = std::time::Instant::now();
    let gen = generate(&spec).expect("dataset generates");
    let labels = gen.bins.labels();
    let epochs = if small { 20 } else { 40 };

    // Split samples AND keep the raw levels aligned for the regressor.
    let n = gen.data.len();
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(42);
    for i in (1..idx.len()).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    let n_test = (n as f64 * 0.2).round() as usize;
    let (test_idx, train_idx) = idx.split_at(n_test);
    let train_set = gen.data.subset(train_idx);
    let test_set = gen.data.subset(test_idx);
    let train_levels: Vec<f64> = train_idx.iter().map(|&i| gen.meta[i].level).collect();

    // 1. Kernel network.
    let cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let mut kernel_model = train(&train_set, &cfg);
    let kernel = report_from_cm(
        kernel_model.evaluate(&test_set),
        train_set.len(),
        test_set.len(),
        &labels,
    );

    // 2. Attention model.
    println!("training the self-attention extension...");
    let attention = train_attention(&train_set, &test_set, &cfg, &labels);

    // 3. Regression + thresholding.
    println!("training the level regressor...");
    let mut reg = train_regression(&train_set, &train_levels, &cfg);
    let preds = reg.predict_levels(&test_set);
    let bins = Bins::binary();
    let mut cm = ConfusionMatrix::new(2);
    for (p, &actual) in preds.iter().zip(&test_set.y) {
        cm.record(actual, bins.classify(*p));
    }
    let regression = report_from_cm(cm, train_set.len(), test_set.len(), &labels);

    println!("\nmodel-extension comparison (same data, same split):");
    let rows = [
        ("kernel-net (paper)", &kernel),
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

    write_results("ablation_model_extensions.csv", &table);
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
