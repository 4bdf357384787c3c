//! **Ablation: model architecture** (DESIGN.md — paper challenge 2).
//!
//! The paper chose a *kernel-based* network — one shared MLP applied per
//! server, outputs concatenated into a small head — "to account for the
//! fact that some applications may only utilize a subset of OSTs or
//! target different ones in multiple runs". This ablation compares:
//!
//! 1. the kernel network (paper architecture);
//! 2. a flat MLP over the concatenated per-server vectors
//!    (position-dependent — must relearn each OST slot separately);
//! 3. a linear softmax over the concatenated vectors (capacity floor).

use qi_ml::data::Dataset;
use qi_ml::matrix::Matrix;
use qi_ml::train::{train, TrainConfig};
use quanterference::predict::EvalReport;

use crate::{summary_table, Context, Family, View};

/// View the same samples as one flat vector per sample (n_servers = 1).
fn flatten(d: &Dataset) -> Dataset {
    let n = d.len();
    let width = d.n_servers * d.n_features();
    Dataset {
        x: Matrix::from_vec(n, width, d.x.data().to_vec()),
        y: d.y.clone(),
        n_servers: 1,
    }
}

pub fn run(ctx: &mut Context) {
    // The kernel arm is Figure 3(a)'s fit; the other two train on its split.
    let kernel = ctx.fit(Family::Io500, View::Own);
    let flat_train = flatten(&kernel.split.train);
    let flat_test = flatten(&kernel.split.test);
    let base = ctx.binary_tcfg();
    let mut flat_arm = |cfg: TrainConfig| {
        ctx.count_fit();
        let mut model = train(&flat_train, &cfg);
        let cm = model.evaluate(&flat_test);
        EvalReport::new(&kernel.gen, &kernel.split, cm, model.metrics.clone())
    };
    // Parameter-matched flat MLP (roughly the same budget).
    let flat = flat_arm(TrainConfig {
        kernel_hidden: vec![48, 16],
        head_hidden: vec![],
        ..base.clone()
    });
    let linear = flat_arm(TrainConfig {
        kernel_hidden: vec![],
        head_hidden: vec![],
        ..base
    });
    let kernel = &kernel.report;

    println!("\narchitecture comparison (same data, same split):");
    let rows = [
        ("kernel-net (paper)", kernel),
        ("flat MLP", &flat),
        ("linear softmax", &linear),
    ];
    let table = summary_table(&rows);
    println!("{}", table.render());
    println!(
        "kernel {:.3} vs flat {:.3} vs linear {:.3} (F1) -> {}",
        kernel.headline_f1(),
        flat.headline_f1(),
        linear.headline_f1(),
        if kernel.headline_f1() >= flat.headline_f1() - 0.02 {
            "kernel matches or beats position-dependent models [supports the paper's choice]"
        } else {
            "flat model won on this grid"
        }
    );

    ctx.write_results("ablation_arch.csv", &table);
}
