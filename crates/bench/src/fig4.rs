//! **Figure 4** — multi-class severity prediction on IO500: the output
//! layer grows to three bins (mild < 2×, moderate 2-5×, severe ≥ 5× —
//! thresholds after Lu et al.'s Perseus taxonomy, as in the paper), the
//! labels are re-bucketed, and the model is retrained. The paper
//! observes a strong diagonal with the middle bin slightly better
//! represented.

use quanterference::TrainConfig;

use crate::{print_report, report_table, Context, Family, View};

pub fn run(ctx: &mut Context) {
    // The same windows as Figure 3(a), re-bucketed: no second simulation.
    let gen = ctx.dataset(Family::Io500, View::ThreeClass);
    let tcfg = TrainConfig {
        epochs: if ctx.small { 25 } else { 50 },
        ..TrainConfig::default()
    };
    let (_, report) = ctx.evaluate(&gen, &tcfg);
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

    ctx.write_results(
        "fig4_io500_multiclass.csv",
        &report_table("io500-3class", &report),
    );
}
