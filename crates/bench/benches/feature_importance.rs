//! **Feature importance** — the paper's challenge 1 ("which system
//! metrics should be leveraged") answered empirically: permutation
//! importance of every client-side and server-side (Table II) feature
//! on the trained IO500 model.

use qi_bench::{is_smoke, write_results};
use qi_simkit::table::AsciiTable;
use quanterference::importance::permutation_importance;
use quanterference::predict::family_spec;
use quanterference::{generate, TrainConfig, WorkloadKind};

fn main() {
    let small = is_smoke();
    let spec = family_spec(&WorkloadKind::IO500, small);
    println!(
        "Feature importance: generating the IO500 dataset ({} runs)...",
        spec.n_runs()
    );
    let t0 = std::time::Instant::now();
    let gen = generate(&spec).expect("dataset generates");
    let (train_set, test_set) = gen.data.split(0.2, 42);
    let tcfg = TrainConfig {
        epochs: if small { 20 } else { 40 },
        ..TrainConfig::default()
    };
    let mut model = qi_ml::train::train(&train_set, &tcfg);
    let imp = permutation_importance(&mut model, &test_set, spec.features, 7, 3)
        .expect("importance computes");
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
    write_results("feature_importance.csv", &table);
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
