//! **Ablation: time-window size** (DESIGN.md — the paper leaves the
//! aggregation window "user-defined"; §III-A/B).
//!
//! Shorter windows give more, noisier samples and faster reaction;
//! longer windows smooth the signal but blur phase transitions. This
//! sweep retrains the IO500 binary model at several window lengths.

use qi_bench::{is_smoke, summary_table, write_results};
use qi_monitor::window::WindowConfig;
use qi_simkit::time::SimDuration;
use quanterference::predict::{family_spec, train_and_evaluate, EvalReport};
use quanterference::{TrainConfig, WorkloadKind};

fn main() {
    let small = is_smoke();
    let tcfg = TrainConfig {
        epochs: if small { 20 } else { 40 },
        ..TrainConfig::default()
    };
    let windows_ms: [u64; 4] = [500, 1000, 2000, 4000];
    let t0 = std::time::Instant::now();
    let mut reports: Vec<(String, EvalReport, usize)> = Vec::new();
    for ms in windows_ms {
        let mut spec = family_spec(&WorkloadKind::IO500, small);
        spec.window = WindowConfig {
            window: SimDuration::from_millis(ms),
        };
        println!("Ablation (window): {ms} ms windows...");
        let (gen, _, report) = train_and_evaluate(&spec, &tcfg, 42).expect("pipeline trains");
        reports.push((format!("{ms} ms"), report, gen.data.len()));
    }

    println!("\nwindow-size sweep:");
    let rows: Vec<(&str, &EvalReport)> = reports.iter().map(|(n, r, _)| (n.as_str(), r)).collect();
    let table = summary_table(&rows);
    println!("{}", table.render());
    for (name, report, n) in &reports {
        println!(
            "  {name:>8}: {n:>6} windows, F1 {:.3}",
            report.headline_f1()
        );
    }

    write_results("ablation_window.csv", &table);
    println!("\ngenerated in {:.1?}", t0.elapsed());
}
