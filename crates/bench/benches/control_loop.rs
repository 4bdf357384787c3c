//! **Closed-loop control** (DESIGN.md — control loop): guided vs uniform
//! throttling across three interference regimes, each run four ways —
//! ideal, unmitigated, guided, and uniform always-on — reporting how
//! much slowdown each controller recovered and how much background
//! throughput it cost. The experiment itself is
//! [`qi_bench::closed_loop`]; `crates/bench/tests/gates.rs` holds its
//! assertions and pins these rows to `results/control_loop.csv`.

use qi_bench::{closed_loop, write_results};

fn main() {
    let t0 = std::time::Instant::now();
    let table = closed_loop::table(&closed_loop::run());
    println!("{}", table.render());
    println!(
        "selective throttling engages only where the model predicts >=2x \
         slowdown — uniform throttling pays the noise cost everywhere.\n"
    );
    write_results("control_loop.csv", &table);
    println!("generated in {:.1?}", t0.elapsed());
}
