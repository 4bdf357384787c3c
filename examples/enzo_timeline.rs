//! Regenerate the paper's Figure 1: per-operation I/O times of the Enzo
//! proxy under increasing and differently-typed background interference,
//! rendered as an ASCII sparkline plus a CSV for plotting. Each panel is
//! `experiment_spec(false)` narrowed to the Enzo target and one seed,
//! run by the same parallel grid runner as Table I.
//!
//! ```sh
//! cargo run --release --example enzo_timeline
//! ```

use quanterference_repro::framework::experiments::{
    experiment_spec, fig_one_a, fig_one_b, series_mean, series_table, EnzoSeries,
};
use quanterference_repro::framework::prelude::QiError;

fn spark(series: &EnzoSeries, max: f64) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    series
        .durations
        .iter()
        .map(|&d| {
            let idx = ((d / max) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

fn show(title: &str, series: &[EnzoSeries]) {
    println!("{title}");
    let max = series
        .iter()
        .flat_map(|s| s.durations.iter().copied())
        .fold(f64::MIN_POSITIVE, f64::max);
    for s in series {
        println!(
            "  {:<38} mean {:>8.3} ms  {}",
            s.label,
            series_mean(s) * 1e3,
            spark(s, max)
        );
    }
    println!();
}

fn main() -> Result<(), QiError> {
    let spec = experiment_spec(false);

    println!("Figure 1(a): Enzo per-op I/O time vs amount of ior-easy-write noise\n");
    let a = fig_one_a(&spec, 3)?;
    show(
        "(x-axis: op index of rank 0, smoothed; bar height: op I/O time)",
        &a,
    );
    let _ = series_table(&a).write_csv("results/fig1a_enzo_vs_write_levels.csv");

    println!("Figure 1(b): Enzo per-op I/O time, data- vs metadata-intensive noise\n");
    let b = fig_one_b(&spec, 3)?;
    show(
        "(same op sequence; note different ops suffer under different noise)",
        &b,
    );
    let _ = series_table(&b).write_csv("results/fig1b_enzo_noise_types.csv");

    println!("CSVs written to results/fig1a_*.csv and results/fig1b_*.csv");
    Ok(())
}
