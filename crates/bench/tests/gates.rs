//! The closed-loop behaviour gates, in simulated time and therefore the
//! same on every host: they run in Tier-1 and nothing waives them.

use std::sync::OnceLock;

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
