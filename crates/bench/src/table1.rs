//! **Table I** — IO500 task slowdown under each type of interfering I/O
//! pattern: every IO500 task runs standalone and then with 3 concurrent
//! instances of each of the 7 tasks as background noise; cells report
//! the mean completion-time slowdown.
//!
//! Paper reference values (shape, not absolutes): the heaviest cells are
//! read-vs-read (29.3×, 10.7×), bulk-write-vs-bulk-write (2.7-5.0×) and
//! tiny-writes-behind-bulk-writes (26.2×, 40.9×); metadata noise barely
//! touches data tasks, and mdt-hard-read is only sensitive to metadata
//! mutations.

use quanterference::experiments::{experiment_spec, table_one};
use quanterference::WorkloadKind;

use crate::Context;

pub fn run(ctx: &mut Context) {
    println!(
        "Table I — IO500 cross-interference slowdown matrix ({} scale)",
        if ctx.small { "smoke" } else { "paper" }
    );
    let table = table_one(&experiment_spec(ctx.small)).expect("table generates");
    println!("{}", table.render());

    // Shape checks mirroring the paper's two key insights (§II-A).
    let cell = |a, b| table.cell(a, b).unwrap_or(f64::NAN);
    use WorkloadKind::*;
    println!("\nshape checks (paper insight 1: impact depends on noise type):");
    let rr = cell(IorEasyRead, IorEasyRead);
    let rw = cell(IorEasyRead, IorEasyWrite);
    println!(
        "  ior-easy-read: read-noise {rr:.2}x vs write-noise {rw:.2}x  -> {}",
        if rr > rw {
            "reads hurt reads more  [matches paper]"
        } else {
            "MISMATCH"
        }
    );
    let ww = cell(IorEasyWrite, IorHardWrite);
    let wm = cell(IorEasyWrite, MdtEasyWrite);
    println!(
        "  ior-easy-write: write-noise {ww:.2}x vs mdt-noise {wm:.2}x -> {}",
        if ww > wm {
            "writes hurt writes more [matches paper]"
        } else {
            "MISMATCH"
        }
    );
    let tiny = cell(MdtHardWrite, IorEasyWrite);
    println!(
        "  mdt-hard-write under bulk writes: {tiny:.2}x -> {}",
        if tiny > 2.0 {
            "tiny writes drown behind bulk writes [matches paper]"
        } else {
            "MISMATCH"
        }
    );
    println!("\nshape check (paper insight 2: phases suffer disproportionately):");
    let col: Vec<f64> = table.tasks.iter().map(|&t| cell(t, IorEasyWrite)).collect();
    let max = col.iter().cloned().fold(f64::NAN, f64::max);
    let min = col.iter().cloned().fold(f64::NAN, f64::min);
    println!("  under the SAME ior-easy-write noise, task slowdowns span {min:.2}x..{max:.2}x");

    ctx.write_results("table1_io500_matrix.csv", &table.to_table());
}
