//! **Figure 4** — multi-class severity prediction on IO500: the output
//! layer grows to three bins (mild < 2×, moderate 2-5×, severe ≥ 5× —
//! thresholds after Lu et al.'s Perseus taxonomy, as in the paper), the
//! labels are re-bucketed, and the model is retrained. The paper
//! observes a strong diagonal with the middle bin slightly better
//! represented.

use qi_bench::{is_smoke, print_report, report_table, write_results};
use quanterference::labeling::Bins;
use quanterference::predict::{family_spec, train_and_evaluate};
use quanterference::{TrainConfig, WorkloadKind};

fn main() {
    let small = is_smoke();
    let mut spec = family_spec(&WorkloadKind::IO500, small);
    spec.bins = Bins::three_class();
    let tcfg = TrainConfig {
        epochs: if small { 25 } else { 50 },
        n_classes: 3,
        ..TrainConfig::default()
    };
    println!(
        "Figure 4: 3-class model on the IO500 grid ({} runs)...",
        spec.n_runs()
    );
    let t0 = std::time::Instant::now();
    let (gen, _, report) = train_and_evaluate(&spec, &tcfg, 42).expect("pipeline trains");
    print_report(
        "Fig. 4 — 3-class model, IO500 (bins at 2x and 5x)",
        &gen,
        &report,
    );

    // Diagonal-mass check (the paper's "vast majority" claim).
    let diag: u64 = (0..3).map(|c| report.cm.get(c, c)).sum();
    println!(
        "diagonal mass: {}/{} = {:.1}%  (paper: 'vast majority of samples')",
        diag,
        report.cm.total(),
        100.0 * diag as f64 / report.cm.total().max(1) as f64
    );
    for c in 0..3 {
        println!(
            "  bin {:<6} precision {:.3} recall {:.3} f1 {:.3}",
            report.labels[c],
            report.cm.precision(c),
            report.cm.recall(c),
            report.cm.f1(c)
        );
    }

    write_results(
        "fig4_io500_multiclass.csv",
        &report_table("io500-3class", &report),
    );
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
