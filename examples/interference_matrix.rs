//! Regenerate the paper's Table I at full cluster scale: the 7×7 IO500
//! cross-interference slowdown matrix. The grid is a `DatasetSpec`
//! (`experiment_spec`), run by the same parallel runner as the
//! training datasets.
//!
//! ```sh
//! cargo run --release --example interference_matrix
//! ```
//!
//! Pass `--smoke` for the reduced-scale variant used in tests.

use quanterference_repro::framework::experiments::{experiment_spec, table_one};
use quanterference_repro::framework::prelude::QiError;

fn main() -> Result<(), QiError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = experiment_spec(smoke);
    println!(
        "Table I — IO500 task slowdown under interference ({} scale)",
        if smoke { "smoke" } else { "paper" }
    );
    println!(
        "{} instances x {} ranks of background noise per cell; mean over {} seeds\n",
        spec.intensities[0],
        spec.noise_ranks,
        spec.seeds.len()
    );
    let t0 = std::time::Instant::now();
    let table = table_one(&spec)?;
    println!("{}", table.render());
    println!("(generated in {:.1?})", t0.elapsed());

    let out = std::path::Path::new("results/table1_io500_matrix.csv");
    if table.to_table().write_csv(out).is_ok() {
        println!("CSV written to {}", out.display());
    }
    Ok(())
}
