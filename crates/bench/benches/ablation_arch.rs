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

use qi_bench::{is_smoke, summary_table, write_results};
use qi_ml::data::Dataset;
use qi_ml::matrix::Matrix;
use qi_ml::train::{train, TrainConfig};
use quanterference::predict::{family_spec, EvalReport};
use quanterference::{generate, WorkloadKind};

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

fn evaluate(
    train_set: &Dataset,
    test_set: &Dataset,
    cfg: &TrainConfig,
    labels: &[String],
) -> EvalReport {
    let mut model = train(train_set, cfg);
    let cm = model.evaluate(test_set);
    let count = |d: &Dataset| {
        let mut c = vec![0usize; cfg.n_classes];
        for &y in &d.y {
            c[y] += 1;
        }
        c
    };
    EvalReport {
        train_size: train_set.len(),
        test_size: test_set.len(),
        train_counts: count(train_set),
        test_counts: count(test_set),
        cm,
        labels: labels.to_vec(),
        metrics: model.metrics.clone(),
    }
}

fn main() {
    let small = is_smoke();
    let spec = family_spec(&WorkloadKind::IO500, small);
    println!(
        "Ablation (architecture): generating the IO500 dataset ({} runs)...",
        spec.n_runs()
    );
    let t0 = std::time::Instant::now();
    let gen = generate(&spec).expect("dataset generates");
    let labels = gen.bins.labels();
    let (train_set, test_set) = gen.data.split(0.2, 42);
    let epochs = if small { 20 } else { 40 };

    let kernel_cfg = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let kernel = evaluate(&train_set, &test_set, &kernel_cfg, &labels);

    let flat_train = flatten(&train_set);
    let flat_test = flatten(&test_set);
    // Parameter-matched flat MLP (roughly the same budget).
    let flat_cfg = TrainConfig {
        epochs,
        kernel_hidden: vec![48, 16],
        head_hidden: vec![],
        ..TrainConfig::default()
    };
    let flat = evaluate(&flat_train, &flat_test, &flat_cfg, &labels);

    let linear_cfg = TrainConfig {
        epochs,
        kernel_hidden: vec![],
        head_hidden: vec![],
        ..TrainConfig::default()
    };
    let linear = evaluate(&flat_train, &flat_test, &linear_cfg, &labels);

    println!("\narchitecture comparison (same data, same split):");
    let rows = [
        ("kernel-net (paper)", &kernel),
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

    write_results("ablation_arch.csv", &table);
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
