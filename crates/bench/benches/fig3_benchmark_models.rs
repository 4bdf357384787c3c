//! **Figure 3** — binary interference prediction on the benchmark
//! datasets: (a) a model trained and tested on IO500 windows, (b) one on
//! DLIO windows. The paper reports large true-positive/true-negative
//! mass and F1 > 90% on both; IO500 is positive-skewed (~75% ≥2x) while
//! DLIO is negative-skewed (~20% ≥2x).

use qi_bench::{is_smoke, print_report, report_table, summary_table, write_results};
use quanterference::predict::{family_spec, train_and_evaluate};
use quanterference::{TrainConfig, WorkloadKind};

fn main() {
    let small = is_smoke();
    let tcfg = TrainConfig {
        epochs: if small { 20 } else { 40 },
        ..TrainConfig::default()
    };
    let t0 = std::time::Instant::now();

    let io500_spec = family_spec(&WorkloadKind::IO500, small);
    println!(
        "Figure 3(a): training on the IO500 grid ({} runs)...",
        io500_spec.n_runs()
    );
    let (io500_gen, _, io500_report) =
        train_and_evaluate(&io500_spec, &tcfg, 42).expect("io500 pipeline");
    print_report("Fig. 3(a) — binary model, IO500", &io500_gen, &io500_report);

    let dlio_spec = family_spec(&WorkloadKind::DLIO, small);
    println!(
        "Figure 3(b): training on the DLIO grid ({} runs)...",
        dlio_spec.n_runs()
    );
    let (dlio_gen, _, dlio_report) =
        train_and_evaluate(&dlio_spec, &tcfg, 42).expect("dlio pipeline");
    print_report("Fig. 3(b) — binary model, DLIO", &dlio_gen, &dlio_report);

    println!("paper-vs-measured:");
    println!(
        "  IO500: paper F1 > 0.90; measured {:.3}",
        io500_report.headline_f1()
    );
    println!(
        "  DLIO:  paper F1 > 0.90; measured {:.3}",
        dlio_report.headline_f1()
    );
    let io500_pos = io500_gen.class_counts()[1] as f64 / io500_gen.data.len() as f64;
    let dlio_pos = dlio_gen.class_counts()[1] as f64 / dlio_gen.data.len() as f64;
    println!(
        "  class skew: IO500 {:.0}% positive (paper ~75%), DLIO {:.0}% positive (paper ~20%)",
        io500_pos * 100.0,
        dlio_pos * 100.0
    );

    write_results(
        "fig3a_io500_confusion.csv",
        &report_table("io500-binary", &io500_report),
    );
    write_results(
        "fig3b_dlio_confusion.csv",
        &report_table("dlio-binary", &dlio_report),
    );
    write_results(
        "fig3_summary.csv",
        &summary_table(&[
            ("io500-binary", &io500_report),
            ("dlio-binary", &dlio_report),
        ]),
    );
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
