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

use qi_bench::{is_smoke, summary_table, write_results};
use qi_monitor::features::FeatureConfig;
use quanterference::predict::{family_spec, train_and_evaluate, EvalReport};
use quanterference::{TrainConfig, WorkloadKind};

fn main() {
    let small = is_smoke();
    let tcfg = TrainConfig {
        epochs: if small { 20 } else { 40 },
        ..TrainConfig::default()
    };
    let arms = [
        (
            "client-only",
            FeatureConfig {
                client: true,
                server: false,
            },
        ),
        (
            "server-only",
            FeatureConfig {
                client: false,
                server: true,
            },
        ),
        (
            "client+server (paper)",
            FeatureConfig {
                client: true,
                server: true,
            },
        ),
    ];
    let t0 = std::time::Instant::now();
    let mut reports: Vec<(&str, EvalReport)> = Vec::new();
    for (label, features) in arms {
        let mut spec = family_spec(&WorkloadKind::IO500, small);
        spec.features = features;
        println!(
            "Ablation (features): {label} ({} dims/server)...",
            features.len()
        );
        let (_, _, report) = train_and_evaluate(&spec, &tcfg, 42).expect("pipeline trains");
        reports.push((label, report));
    }

    println!("\nfeature-source comparison:");
    let rows: Vec<(&str, &EvalReport)> = reports.iter().map(|(n, r)| (*n, r)).collect();
    let table = summary_table(&rows);
    println!("{}", table.render());
    let f1 = |i: usize| reports[i].1.headline_f1();
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

    write_results("ablation_features.csv", &table);
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
