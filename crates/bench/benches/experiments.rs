//! The one experiments target: `cargo bench -p qi-bench` runs every
//! entry of [`qi_bench::EXPERIMENTS`], `cargo bench -p qi-bench -- NAME...`
//! the named ones, and either ends with the table of what each cost.

use std::process::ExitCode;

use qi_bench::{is_smoke, select, Context};

fn main() -> ExitCode {
    // Cargo hands a `harness = false` target `--bench`; `--smoke` is
    // read by `is_smoke`. Everything else names an experiment.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench" && a != "--smoke")
        .collect();
    let selected = match select(&names) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Context::new(is_smoke());
    for experiment in selected {
        ctx.run(experiment);
    }
    println!("\n{}", ctx.closing_table().render());
    ExitCode::SUCCESS
}
