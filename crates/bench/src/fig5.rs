//! **Figure 5** — binary interference prediction for the three real-
//! application proxies: AMReX and Enzo (data-intensive) and OpenPMD
//! (metadata-intensive). Per the paper's protocol each application runs
//! once without interference and then with increasing amounts of IO500
//! noise; a model is trained and tested per application. The paper sees
//! strong results for AMReX and especially Enzo, and a weaker OpenPMD
//! model, attributed to its small sample count.

use std::rc::Rc;

use quanterference::predict::EvalReport;

use crate::{print_report, report_table, summary_table, Context, Family, Fit, View};

pub fn run(ctx: &mut Context) {
    // `Family::ALL` lists the three application proxies last.
    let fits: Vec<(&str, Rc<Fit>)> = Family::ALL[2..]
        .iter()
        .map(|&app| {
            let fit = ctx.fit(app, View::Own);
            print_report(
                &format!("Fig. 5 — binary model, {}", app.name()),
                &fit.gen,
                &fit.report,
            );
            (app.name(), fit)
        })
        .collect();

    println!("paper-vs-measured:");
    for (name, fit) in &fits {
        println!(
            "  {:<8} F1 {:.3} on {:>5} windows{}",
            name,
            fit.report.headline_f1(),
            fit.gen.data.len(),
            match *name {
                "openpmd" => "  (paper: weakest of the three, small sample count)",
                "enzo" => "  (paper: best of the three)",
                _ => "",
            }
        );
    }

    for (name, fit) in &fits {
        ctx.write_results(
            &format!("fig5_{name}_confusion.csv"),
            &report_table(name, &fit.report),
        );
    }
    let rows: Vec<(&str, &EvalReport)> = fits.iter().map(|(n, f)| (*n, &f.report)).collect();
    ctx.write_results("fig5_summary.csv", &summary_table(&rows));
}
