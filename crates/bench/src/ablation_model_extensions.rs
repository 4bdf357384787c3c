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
//!
//! All three fit in `qi-ml` through its one minibatch loop: the kernel
//! net through `train_with_schema` (the Figure 3(a) fit), the others
//! through `train_attention` and `train_regression`. This file only
//! scores them on the kernel net's split.

use qi_ml::attention::train_attention;
use qi_ml::metrics::ConfusionMatrix;
use qi_ml::regress::train_regression;
use qi_telemetry::MetricsSnapshot;
use quanterference::predict::EvalReport;

use crate::{summary_table, Context, Family, View};

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
    let mut attention = train_attention(&split.train, &cfg, 24, &[16]).expect("attention trains");
    let attention = report(attention.evaluate(&split.test));

    // 3. Regression + thresholding.
    println!("training the level regressor...");
    ctx.count_fit();
    let train_levels: Vec<f64> = split.train_idx.iter().map(|&i| gen.meta[i].level).collect();
    let mut reg = train_regression(&split.train, &train_levels, &cfg).expect("regressor trains");
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
