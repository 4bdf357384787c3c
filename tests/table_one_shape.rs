//! Integration test: the smoke-scale Table I must reproduce the paper's
//! qualitative interference structure (who hurts whom).

use quanterference_repro::framework::experiments::{experiment_spec, table_one};
use quanterference_repro::framework::WorkloadKind::*;

#[test]
fn table_one_reproduces_the_papers_shape() {
    let table = table_one(&experiment_spec(true)).expect("smoke table generates");
    let cell = |a, b| table.cell(a, b).expect("cell exists");

    // 1. Streaming reads suffer from read noise, not from write noise.
    assert!(
        cell(IorEasyRead, IorEasyRead) > 1.5,
        "read-read {:.2}",
        cell(IorEasyRead, IorEasyRead)
    );
    assert!(
        cell(IorEasyRead, IorEasyWrite) < cell(IorEasyRead, IorEasyRead),
        "write noise should hurt reads less than read noise"
    );
    assert!(
        cell(IorEasyRead, MdtEasyWrite) < 1.3,
        "metadata noise should barely touch streaming reads: {:.2}",
        cell(IorEasyRead, MdtEasyWrite)
    );

    // 2. Bulk writes suffer from other writes far more than from
    //    metadata noise.
    assert!(cell(IorEasyWrite, IorEasyWrite) > 2.0);
    assert!(cell(IorEasyWrite, IorHardWrite) > 2.0);
    assert!(cell(IorEasyWrite, MdtEasyWrite) < 1.5);

    // 3. Tiny writes (mdtest-hard bodies) drown behind bulk writers.
    assert!(
        cell(MdtHardWrite, IorEasyWrite) > 2.0,
        "mdt-hard-write under bulk writes {:.2}",
        cell(MdtHardWrite, IorEasyWrite)
    );

    // 4. mdt-hard-read (cached bodies + lookups) is insensitive to data
    //    noise but feels metadata mutations.
    assert!(cell(MdtHardRead, IorEasyWrite) < 1.5);
    assert!(cell(MdtHardRead, MdtEasyWrite) > cell(MdtHardRead, IorHardWrite));

    // 5. Under one fixed noise type, different tasks span a wide
    //    slowdown range (the paper's phase-disproportionality claim).
    let col: Vec<f64> = table.tasks.iter().map(|&t| cell(t, IorEasyWrite)).collect();
    let max = col.iter().cloned().fold(f64::MIN, f64::max);
    let min = col.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min > 2.0,
        "slowdowns under ior-easy-write too uniform: {min:.2}..{max:.2}"
    );

    // Baselines exist and are positive for every task.
    for (i, &b) in table.baseline_secs.iter().enumerate() {
        assert!(b > 0.0, "task {} has no baseline", table.tasks[i]);
    }
}
