//! The experiments runner: every paper table/figure as one entry of
//! [`EXPERIMENTS`], all driven by the crate's single `experiments`
//! target (`cargo bench -p qi-bench [-- NAME...]`).
//!
//! Each entry regenerates its table/series, prints it with its
//! paper-vs-measured lines, and records it through
//! [`Context::write_results`]. The [`Context`] is what the entries
//! share: each family's grid is simulated once and harvested under every
//! view an experiment reads, and the binary fit on a harvest is trained
//! once, so rows that are the same number are the same computation.
//! Set `QI_SMOKE=1` (or pass `--smoke`) to run the reduced-scale
//! variants, which print their rows and leave `results/` alone.
//! `scripts/bench.sh --only experiments` runs everything and fails if
//! the committed record moved.

pub mod ablation_arch;
pub mod ablation_features;
pub mod ablation_window;
pub mod anomaly_scale;
pub mod closed_loop;
pub mod context;
pub mod feature_importance;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod split_leak;
pub mod table1;
pub mod table2;

use std::path::PathBuf;

use qi_simkit::table::AsciiTable;
use quanterference::dataset::GeneratedDataset;
use quanterference::predict::EvalReport;

pub use context::{Context, Family, Fit, View};

/// One paper table/figure (or ablation): the positional argument that
/// selects it, every `results/` file it writes (it may write no other),
/// and the code that regenerates, prints and records it.
pub type Experiment = (&'static str, &'static [&'static str], fn(&mut Context));

/// Every experiment, in the order a full run executes them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1_io500_matrix", &["table1_io500_matrix.csv"], table1::run),
    ("fig1_enzo_series", &["fig1a_enzo_vs_write_levels.csv", "fig1b_enzo_noise_types.csv"], fig1::run),
    ("table2_server_metrics", &["table2_server_metrics.csv"], table2::run),
    ("fig3_benchmark_models", &["fig3a_io500_confusion.csv", "fig3b_dlio_confusion.csv", "fig3_summary.csv"], fig3::run),
    ("fig4_multiclass", &["fig4_io500_multiclass.csv"], fig4::run),
    ("fig5_real_apps", &["fig5_amrex_confusion.csv", "fig5_enzo_confusion.csv", "fig5_openpmd_confusion.csv", "fig5_summary.csv"], fig5::run),
    ("split_leak", &["split_leak.csv"], split_leak::run),
    ("ablation_arch", &["ablation_arch.csv"], ablation_arch::run),
    ("ablation_features", &["ablation_features.csv"], ablation_features::run),
    ("ablation_window", &["ablation_window.csv"], ablation_window::run),
    ("feature_importance", &["feature_importance.csv"], feature_importance::run),
    ("control_loop", &["control_loop.csv"], closed_loop::experiment),
    ("anomaly_scale", &["anomaly_detection.csv", "anomaly_monitoring.csv"], anomaly_scale::run),
];

/// The experiments `names` select, in [`EXPERIMENTS`] order (all of
/// them for an empty list), or the message for a name that is not one.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    if let Some(unknown) = names.iter().find(|n| !valid.contains(&n.as_str())) {
        return Err(format!(
            "unknown experiment `{unknown}`; the experiments are:\n  {}",
            valid.join("\n  ")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| n == e.0))
        .collect())
}

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
    println!(
        "split leak: {} of {} test windows occur bit for bit in train \
         ({} distinct feature blocks in the dataset)",
        report.test_rows_in_train, report.test_size, report.distinct_rows,
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
    use std::collections::BTreeSet;

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

    /// A new experiment cannot be left out of the record and a deleted
    /// one cannot leave an orphan behind.
    #[test]
    fn the_declared_files_are_the_csvs_on_disk() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "experiment named twice");
        let declared: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.1).copied().collect();
        let declared_set: BTreeSet<String> = declared.iter().map(|f| f.to_string()).collect();
        assert_eq!(declared_set.len(), declared.len(), "file declared twice");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results_dir())
            .expect("results/ is tracked")
            .map(|e| e.expect("readable entry").file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".csv"))
            .collect();
        assert_eq!(declared_set, on_disk);
    }

    #[test]
    fn select_keeps_table_order_and_names_the_unknown() {
        let names = |picked: &[&str]| -> Result<Vec<&str>, String> {
            let picked: Vec<String> = picked.iter().map(|n| n.to_string()).collect();
            Ok(select(&picked)?.iter().map(|e| e.0).collect())
        };
        assert_eq!(names(&[]).expect("everything").len(), EXPERIMENTS.len());
        assert_eq!(
            names(&["fig4_multiclass", "table1_io500_matrix"]),
            Ok(vec!["table1_io500_matrix", "fig4_multiclass"])
        );
        let err = names(&["fig3_benchmark_models", "fig6"]).expect_err("fig6 is not one");
        assert!(
            err.contains("`fig6`") && err.contains("fig5_real_apps"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "does not declare results/b.csv")]
    fn write_results_refuses_an_undeclared_name() {
        let undeclared =
            |ctx: &mut Context| ctx.write_results("b.csv", &AsciiTable::new(vec!["x"]));
        Context::new(true).run(&("writes_b", &["a.csv"], undeclared));
    }
}
