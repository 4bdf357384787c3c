//! **Feature importance** — the paper's challenge 1 ("which system
//! metrics should be leveraged") answered empirically: permutation
//! importance of every client-side and server-side (Table II) feature
//! on the trained IO500 model.

use qi_simkit::table::AsciiTable;
use quanterference::importance::permutation_importance;

use crate::{Context, Family, View};

pub fn run(ctx: &mut Context) {
    // Figure 3(a)'s model, scored on its own test side.
    let fit = ctx.fit(Family::Io500, View::Own);
    let mut model = fit.predictor.model().clone();
    let test_set = &fit.split.test;
    let features = fit.gen.schema.feature_config();
    let imp =
        permutation_importance(&mut model, test_set, features, 7, 3).expect("importance computes");
    println!(
        "base F1 {:.3} on {} test windows; permutation importance (top 15):\n",
        imp.base_f1,
        test_set.len()
    );
    let mut table = AsciiTable::new(vec!["rank", "feature", "F1 drop"]);
    for (i, (name, drop)) in imp.ranked().into_iter().enumerate() {
        if i < 15 {
            println!("  {:>2}. {:<26} {:+.4}", i + 1, name, drop);
        }
        table.add_row(vec![(i + 1).to_string(), name, format!("{drop:.5}")]);
    }
    // How do the metric *families* stack up?
    let family = |prefix: &str| -> f64 {
        imp.names
            .iter()
            .zip(&imp.drops)
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, &d)| d.max(0.0))
            .sum()
    };
    println!(
        "\nfamily totals: client-global {:+.3} | client-targeting {:+.3} | server-side {:+.3}",
        family("cl_"),
        family("tgt_"),
        family("srv_")
    );
    ctx.write_results("feature_importance.csv", &table);
}
