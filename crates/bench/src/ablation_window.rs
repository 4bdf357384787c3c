//! **Ablation: time-window size** (DESIGN.md — the paper leaves the
//! aggregation window "user-defined"; §III-A/B).
//!
//! Shorter windows give more, noisier samples and faster reaction;
//! longer windows smooth the signal but blur phase transitions. This
//! sweep retrains the IO500 binary model at several window lengths.

use std::rc::Rc;

use quanterference::predict::EvalReport;

use crate::{summary_table, Context, Family, Fit, View};

pub fn run(ctx: &mut Context) {
    // Four harvests of the one IO500 simulation; 1000 ms is the family's
    // own window, so that arm is Figure 3(a)'s fit.
    let arms = [
        (500, View::WindowMs(500)),
        (1000, View::Own),
        (2000, View::WindowMs(2000)),
        (4000, View::WindowMs(4000)),
    ];
    let fits: Vec<(String, Rc<Fit>)> = arms
        .iter()
        .map(|&(ms, view)| (format!("{ms} ms"), ctx.fit(Family::Io500, view)))
        .collect();

    println!("\nwindow-size sweep:");
    let rows: Vec<(&str, &EvalReport)> =
        fits.iter().map(|(n, f)| (n.as_str(), &f.report)).collect();
    let table = summary_table(&rows);
    println!("{}", table.render());
    for (name, fit) in &fits {
        println!(
            "  {name:>8}: {:>6} windows, F1 {:.3}",
            fit.gen.data.len(),
            fit.report.headline_f1()
        );
    }

    ctx.write_results("ablation_window.csv", &table);
}
