//! **Figure 5** — binary interference prediction for the three real-
//! application proxies: AMReX and Enzo (data-intensive) and OpenPMD
//! (metadata-intensive). Per the paper's protocol each application runs
//! once without interference and then with increasing amounts of IO500
//! noise; a model is trained and tested per application. The paper sees
//! strong results for AMReX and especially Enzo, and a weaker OpenPMD
//! model, attributed to its small sample count.

use qi_bench::{is_smoke, print_report, report_table, summary_table, write_results};
use quanterference::predict::{family_spec, train_and_evaluate, EvalReport};
use quanterference::{TrainConfig, WorkloadKind};

fn main() {
    let small = is_smoke();
    let tcfg = TrainConfig {
        epochs: if small { 20 } else { 40 },
        ..TrainConfig::default()
    };
    let t0 = std::time::Instant::now();
    let mut reports: Vec<(&str, EvalReport, usize)> = Vec::new();
    for app in WorkloadKind::APPS {
        let mut spec = family_spec(&[app], small);
        if app == WorkloadKind::OpenPmd {
            // The paper collected notably fewer OpenPMD samples and got
            // a weaker model; mirror that by shrinking its grid.
            spec.seeds.truncate(2);
            spec.intensities = vec![1, 3];
        }
        println!(
            "Figure 5: training on {} ({} runs)...",
            app.name(),
            spec.n_runs()
        );
        let (gen, _, report) = train_and_evaluate(&spec, &tcfg, 42).expect("pipeline trains");
        print_report(
            &format!("Fig. 5 — binary model, {}", app.name()),
            &gen,
            &report,
        );
        reports.push((app.name(), report, gen.data.len()));
    }

    println!("paper-vs-measured:");
    for (name, report, n) in &reports {
        println!(
            "  {:<8} F1 {:.3} on {:>5} windows{}",
            name,
            report.headline_f1(),
            n,
            match *name {
                "openpmd" => "  (paper: weakest of the three, small sample count)",
                "enzo" => "  (paper: best of the three)",
                _ => "",
            }
        );
    }

    for (name, report, _) in &reports {
        write_results(
            &format!("fig5_{name}_confusion.csv"),
            &report_table(name, report),
        );
    }
    let rows: Vec<(&str, &EvalReport)> = reports.iter().map(|(n, r, _)| (*n, r)).collect();
    write_results("fig5_summary.csv", &summary_table(&rows));
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
