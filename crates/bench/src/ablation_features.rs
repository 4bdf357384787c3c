//! **Ablation: feature sources** (DESIGN.md — paper challenge 1: "which
//! system metrics should be leveraged").
//!
//! The framework fuses client-side metrics (the application's own
//! request pattern, §III-A) with server-side metrics (shared-resource
//! state, Table II). This ablation trains the same model on:
//!
//! 1. client-side features only,
//! 2. server-side features only,
//! 3. both (the paper's design).

use std::rc::Rc;

use quanterference::predict::EvalReport;

use crate::{summary_table, Context, Family, Fit, View};

pub fn run(ctx: &mut Context) {
    // Three harvests of the one IO500 simulation; the fused arm is
    // Figure 3(a)'s fit.
    let arms = [
        ("client-only", View::ClientOnly),
        ("server-only", View::ServerOnly),
        ("client+server (paper)", View::Own),
    ];
    let fits: Vec<(&str, Rc<Fit>)> = arms
        .iter()
        .map(|&(label, view)| {
            let fit = ctx.fit(Family::Io500, view);
            println!(
                "Ablation (features): {label} ({} dims/server)",
                fit.gen.data.n_features()
            );
            (label, fit)
        })
        .collect();

    println!("\nfeature-source comparison:");
    let rows: Vec<(&str, &EvalReport)> = fits.iter().map(|(n, f)| (*n, &f.report)).collect();
    let table = summary_table(&rows);
    println!("{}", table.render());
    let f1 = |i: usize| rows[i].1.headline_f1();
    println!(
        "client-only {:.3} | server-only {:.3} | fused {:.3} -> {}",
        f1(0),
        f1(1),
        f1(2),
        if f1(2) >= f1(0).max(f1(1)) - 0.02 {
            "fusing both sources is never worse [supports the paper's design]"
        } else {
            "a single source sufficed on this grid"
        }
    );

    ctx.write_results("ablation_features.csv", &table);
}
