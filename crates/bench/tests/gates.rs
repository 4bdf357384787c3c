//! The closed-loop and anomaly-detection behaviour gates, in simulated
//! time and therefore the same on every host: they run in Tier-1 and
//! nothing waives them.

use std::sync::OnceLock;

use qi_bench::anomaly_scale::{self, DetectionRow};
use qi_bench::closed_loop::{self, RegimeOutcome};
use qi_bench::results_dir;

/// The experiment, run once for both tests.
fn outcomes() -> &'static [RegimeOutcome] {
    static RUN: OnceLock<Vec<RegimeOutcome>> = OnceLock::new();
    RUN.get_or_init(closed_loop::run)
}

/// In every regime the guided controller must help (or at least not
/// hurt) the target, must actually act, and must tax the background
/// strictly less than the paper's "uniform treatment" strawman.
#[test]
fn guided_helps_acts_and_costs_less_than_uniform_in_every_regime() {
    assert_eq!(outcomes().len(), 3);
    for r in outcomes() {
        let (g, u) = (&r.guided, &r.uniform);
        assert!(
            g.mitigated_s <= 1.05 * g.unmitigated_s,
            "{}: guided mitigation hurt the target ({:.3}s vs {:.3}s unmitigated)",
            r.regime,
            g.mitigated_s,
            g.unmitigated_s
        );
        assert!(
            !g.directives.is_empty(),
            "{}: the guided loop never acted",
            r.regime
        );
        assert!(
            g.noise_cost_fraction() < u.noise_cost_fraction(),
            "{}: guided cost {:.0}% did not beat uniform cost {:.0}%",
            r.regime,
            g.noise_cost_fraction() * 100.0,
            u.noise_cost_fraction() * 100.0
        );
    }
}

/// `results/control_loop.csv` is a golden: the committed record is what
/// the experiment produces. Regenerate it with `cargo bench -p qi-bench
/// -- control_loop` and review the diff.
#[test]
fn rows_equal_the_committed_csv() {
    let committed = std::fs::read_to_string(results_dir().join("control_loop.csv"))
        .expect("results/control_loop.csv is tracked");
    assert_eq!(closed_loop::table(outcomes()).to_csv(), committed);
}

/// The detection table, computed once for the three tests below.
fn detection() -> &'static [DetectionRow] {
    static RUN: OnceLock<Vec<DetectionRow>> = OnceLock::new();
    RUN.get_or_init(anomaly_scale::detection)
}

/// `results/anomaly_detection.csv` is a golden too. Regenerate it with
/// `cargo bench -p qi-bench -- anomaly_scale` and review the diff.
#[test]
fn detection_rows_equal_the_committed_csv() {
    let committed = std::fs::read_to_string(results_dir().join("anomaly_detection.csv"))
        .expect("results/anomaly_detection.csv is tracked");
    assert_eq!(
        anomaly_scale::detection_table(detection()).to_csv(),
        committed
    );
}

/// The forest earns its place over a one-metric threshold where the
/// fault reaches every OST: its AUC is at least the best threshold's on
/// each such row, sampler or not. (On one slowed OST it does not; those
/// rows are reported, not gated.)
#[test]
fn forest_auc_matches_the_best_threshold_on_every_all_ost_row() {
    let gated: Vec<&DetectionRow> = detection().iter().filter(|r| r.all_osts).collect();
    assert!(!gated.is_empty());
    for cond in gated.iter().map(|r| r.condition) {
        let rows: Vec<&&DetectionRow> = gated.iter().filter(|r| r.condition == cond).collect();
        let auc = |r: &DetectionRow| r.auc.expect("a faulted row has both classes");
        let best_threshold = rows
            .iter()
            .filter(|r| !r.detector.starts_with("forest"))
            .map(|r| auc(r))
            .fold(0.0, f64::max);
        for forest in rows.iter().filter(|r| r.detector.starts_with("forest")) {
            assert!(
                forest.positives >= 100,
                "{cond}: {} positives",
                forest.positives
            );
            assert!(
                auc(forest) >= best_threshold,
                "{cond}: {} AUC {:.4} < best threshold {best_threshold:.4}",
                forest.detector,
                auc(forest)
            );
        }
    }
}

/// Held-out healthy windows stay below the healthy-p95 cut, read
/// through the sampler or not: at most 5 % of them flag.
#[test]
fn held_out_healthy_windows_rarely_flag() {
    let healthy: Vec<&DetectionRow> = detection()
        .iter()
        .filter(|r| r.condition == "healthy" && r.detector.starts_with("forest"))
        .collect();
    assert_eq!(healthy.len(), 2, "forest and forest + sampler");
    for r in healthy {
        assert_eq!(r.positives, 0);
        let rate = r.false_flag_rate.expect("healthy windows were scored");
        assert!(
            rate <= 0.05,
            "{}: {:.1}% of {} healthy windows flagged",
            r.detector,
            rate * 100.0,
            r.negatives
        );
    }
}
