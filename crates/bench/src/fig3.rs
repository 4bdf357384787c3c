//! **Figure 3** — binary interference prediction on the benchmark
//! datasets: (a) a model trained and tested on IO500 windows, (b) one on
//! DLIO windows. The paper reports large true-positive/true-negative
//! mass and F1 > 90% on both; IO500 is positive-skewed (~75% ≥2x) while
//! DLIO is negative-skewed (~20% ≥2x).

use crate::{print_report, report_table, summary_table, Context, Family, View};

pub fn run(ctx: &mut Context) {
    let io500 = ctx.fit(Family::Io500, View::Own);
    print_report("Fig. 3(a) — binary model, IO500", &io500.gen, &io500.report);
    let dlio = ctx.fit(Family::Dlio, View::Own);
    print_report("Fig. 3(b) — binary model, DLIO", &dlio.gen, &dlio.report);

    println!("paper-vs-measured:");
    println!(
        "  IO500: paper F1 > 0.90; measured {:.3}",
        io500.report.headline_f1()
    );
    println!(
        "  DLIO:  paper F1 > 0.90; measured {:.3}",
        dlio.report.headline_f1()
    );
    let io500_pos = io500.gen.class_counts()[1] as f64 / io500.gen.data.len() as f64;
    let dlio_pos = dlio.gen.class_counts()[1] as f64 / dlio.gen.data.len() as f64;
    println!(
        "  class skew: IO500 {:.0}% positive (paper ~75%), DLIO {:.0}% positive (paper ~20%)",
        io500_pos * 100.0,
        dlio_pos * 100.0
    );

    ctx.write_results(
        "fig3a_io500_confusion.csv",
        &report_table("io500-binary", &io500.report),
    );
    ctx.write_results(
        "fig3b_dlio_confusion.csv",
        &report_table("dlio-binary", &dlio.report),
    );
    ctx.write_results(
        "fig3_summary.csv",
        &summary_table(&[
            ("io500-binary", &io500.report),
            ("dlio-binary", &dlio.report),
        ]),
    );
}
