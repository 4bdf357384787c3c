//! **Figure 1** — per-operation I/O time of the Enzo proxy's opening
//! phase, baseline vs interference:
//!
//! - (a) increasing amounts of `ior-easy-write` noise (1-3 instances);
//! - (b) data-intensive vs metadata-intensive noise.
//!
//! The paper's observations to reproduce: impact is *non-uniform* across
//! operations; most impacted ops get worse with more interference; and
//! the two noise types hit *different* operations.

use qi_simkit::percentile;
use quanterference::experiments::{
    experiment_spec, fig_one_a, fig_one_b, impact_ratios, series_mean, series_table,
};

use crate::Context;

pub fn run(ctx: &mut Context) {
    let spec = experiment_spec(ctx.small);

    println!("Figure 1(a) — Enzo per-op I/O time vs write-noise intensity");
    let a = fig_one_a(&spec, 3).expect("fig 1a generates");
    for s in &a {
        println!(
            "  {:<24} mean op time {:>9.3} ms",
            s.label,
            series_mean(s) * 1e3
        );
    }
    // Non-uniform impact: spread of per-op slowdown under max intensity.
    let ratios = impact_ratios(&a[0], &a[3]);
    println!(
        "  per-op slowdown under 3x noise: p10 {:.2}x, median {:.2}x, p90 {:.2}x, max {:.2}x",
        percentile(&ratios, 10.0),
        percentile(&ratios, 50.0),
        percentile(&ratios, 90.0),
        percentile(&ratios, 100.0),
    );
    println!(
        "  -> impact is non-uniform across ops{}",
        if percentile(&ratios, 90.0) > 1.5 * percentile(&ratios, 10.0).max(1e-9) {
            "  [matches paper]"
        } else {
            "  (spread small)"
        }
    );
    // Monotonicity: more instances → more mean impact.
    let means: Vec<f64> = a.iter().map(series_mean).collect();
    println!(
        "  mean op time by intensity: {:.3} / {:.3} / {:.3} / {:.3} ms -> {}",
        means[0] * 1e3,
        means[1] * 1e3,
        means[2] * 1e3,
        means[3] * 1e3,
        if means[3] > means[1] {
            "impact grows with intensity [matches paper]"
        } else {
            "MISMATCH"
        }
    );
    ctx.write_results("fig1a_enzo_vs_write_levels.csv", &series_table(&a));

    println!("\nFigure 1(b) — Enzo per-op I/O time, data vs metadata noise");
    let b = fig_one_b(&spec, 3).expect("fig 1b generates");
    for s in &b {
        println!(
            "  {:<38} mean op time {:>9.3} ms",
            s.label,
            series_mean(s) * 1e3
        );
    }
    // The paper's arrows: some ops suffer more under metadata noise even
    // though data noise dominates on average.
    let rd = impact_ratios(&b[0], &b[1]);
    let rm = impact_ratios(&b[0], &b[2]);
    let meta_dominant = rd
        .iter()
        .zip(&rm)
        .filter(|(d, m)| **m > **d && **m > 1.1)
        .count();
    println!(
        "  ops where metadata noise hurt MORE than data noise: {} of {}{}",
        meta_dominant,
        rd.len(),
        if meta_dominant > 0 {
            "  [matches paper's arrows]"
        } else {
            "  (none)"
        }
    );
    ctx.write_results("fig1b_enzo_noise_types.csv", &series_table(&b));
}
