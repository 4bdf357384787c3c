//! The repository's benchmark.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! benchmark set --out FILE [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//! benchmark bless                                               rewrite golden.json
//! benchmark compare A.json B.json                               two sets, metric by metric
//! benchmark manifest                                            print BENCHMARK.json
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and what each layer metric is expected to move.

use std::process::ExitCode;

mod compare;
mod digest;
mod heap;
mod host;
mod json;
mod metrics;
mod probes;
mod recorder;
mod reference;
mod runner;
mod set;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("set") => set::main(&args[1..]),
        Some("bless") => set::bless(),
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().render_pretty());
            Ok(true)
        }
        _ => one_run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// One run of one workload. Prints every metric by name and unit, a
/// stamp line, and the result object as the last line. A failed check
/// still prints the result (`"correct": false`) and exits non-zero.
fn one_run(args: &[String]) -> Result<bool, String> {
    let args = runner::parse_args(args)?;
    let outcome = runner::run(&args)?;
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for problem in &outcome.problems {
        eprintln!("benchmark: check failed: {problem}");
    }
    if args.trace {
        let path = set::artifacts_dir().join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, outcome.spans.render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("benchmark: spans written to {}", path.display());
    }
    println!(
        "{}",
        json::Value::obj(vec![("stamp", outcome.stamp.clone())]).render()
    );
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}
