//! Shared plumbing for the experiment benches: smoke-mode detection,
//! the `results/` record, and report rendering.
//!
//! Every paper table/figure has a `[[bench]]` target in this crate with
//! `harness = false`; each regenerates its table/series, prints it, and
//! records it through [`write_results`]. Set `QI_SMOKE=1` (or pass
//! `--smoke`) to run the reduced-scale variants, which print their
//! tables and leave `results/` alone. `scripts/bench.sh --only
//! experiments` runs them all and fails if the committed record moved.

pub mod closed_loop;

use std::path::PathBuf;

use qi_simkit::table::AsciiTable;
use quanterference::dataset::GeneratedDataset;
use quanterference::predict::EvalReport;

/// True when the reduced-scale (fast) variant was requested.
pub fn is_smoke() -> bool {
    std::env::var("QI_SMOKE").map(|v| v == "1").unwrap_or(false)
        || std::env::args().any(|a| a == "--smoke")
}

/// The repository's `results/` directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

/// Record one experiment table as `results/<name>`, the tracked
/// reproduction record. A smoke run prints the rows instead: its
/// reduced-scale numbers must never replace the full-scale ones.
pub fn write_results(name: &str, table: &AsciiTable) {
    if is_smoke() {
        print!("{}", table.to_csv());
        println!("smoke: results/{name} not written");
        return;
    }
    table
        .write_csv(results_dir().join(name))
        .expect("write CSV");
    println!("wrote results/{name}");
}

/// Print one model-evaluation report in the style of the paper's
/// Figures 3-5 (dataset stats + confusion matrix + F1).
pub fn print_report(title: &str, gen: &GeneratedDataset, report: &EvalReport) {
    println!("=== {title} ===");
    println!(
        "dataset: {} windows total | train {} {:?} | test {} {:?}",
        gen.data.len(),
        report.train_size,
        report.train_counts,
        report.test_size,
        report.test_counts,
    );
    println!("{}", report.render());
    println!(
        "headline F1 = {:.3}  (accuracy {:.3}, macro-F1 {:.3})",
        report.headline_f1(),
        report.cm.accuracy(),
        report.cm.macro_f1()
    );
    if !report.metrics.metrics.is_empty() {
        println!(
            "telemetry: {} metrics (ml.train.* / ml.eval.*)",
            report.metrics.metrics.len()
        );
    }
    println!();
}

/// Serialise a report's confusion matrix as CSV rows.
pub fn report_table(name: &str, report: &EvalReport) -> AsciiTable {
    let mut t = AsciiTable::new(vec![
        "model".to_string(),
        "actual".to_string(),
        "predicted".to_string(),
        "count".to_string(),
    ]);
    let n = report.cm.n_classes();
    for a in 0..n {
        for p in 0..n {
            t.add_row(vec![
                name.to_string(),
                report.labels[a].clone(),
                report.labels[p].clone(),
                report.cm.get(a, p).to_string(),
            ]);
        }
    }
    t
}

/// Summary metrics rows (F1/accuracy) for several reports.
pub fn summary_table(rows: &[(&str, &EvalReport)]) -> AsciiTable {
    let mut t = AsciiTable::new(vec![
        "model".to_string(),
        "train_windows".to_string(),
        "test_windows".to_string(),
        "accuracy".to_string(),
        "headline_f1".to_string(),
        "macro_f1".to_string(),
    ]);
    for (name, r) in rows {
        t.add_row(vec![
            name.to_string(),
            r.train_size.to_string(),
            r.test_size.to_string(),
            format!("{:.4}", r.cm.accuracy()),
            format!("{:.4}", r.headline_f1()),
            format!("{:.4}", r.cm.macro_f1()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_points_at_repo() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn summary_table_shapes() {
        // Build a trivial report through the public pipeline would be
        // slow here; just check the table skeleton.
        let t = summary_table(&[]);
        assert_eq!(t.len(), 0);
        assert!(t.render().contains("headline_f1"));
    }
}
