//! Two callers in one process at once, each on its own rayon pool — the
//! shape of a benchmark pass that runs two workers side by side. Nothing
//! the simulator, the dataset grid or the monitor keeps may leak between
//! them: each caller's dataset and traces must equal a lone caller's.

use quanterference_repro::framework::prelude::*;

/// What one caller produces: the smoke grid's feature bits and labels,
/// then `(events_processed, telemetry JSON)` of an interfered run and
/// its baseline.
#[derive(PartialEq)]
struct Outcome {
    features: Vec<u32>,
    labels: Vec<usize>,
    runs: Vec<(u64, String)>,
}

fn caller() -> Outcome {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("explicit thread counts always build");
    // The smoke grid has several noise combos per (target, seed), so it
    // finishes them from copied warm-ups.
    let grid = generate_on(&pool, &DatasetSpec::smoke()).expect("smoke grid");
    let scenario = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, 11)
    }
    .with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyWrite,
        instances: 2,
        ranks: 2,
    });
    let runs = pool.install(|| {
        [scenario.run(), scenario.run_baseline()]
            .into_iter()
            .map(|run| {
                let (_, trace) = run.expect("scenario runs");
                (trace.events_processed, trace.metrics.to_json())
            })
            .collect()
    });
    Outcome {
        features: grid.data.x.data().iter().map(|f| f.to_bits()).collect(),
        labels: grid.data.y,
        runs,
    }
}

#[test]
fn two_concurrent_callers_match_a_lone_caller() {
    let lone = caller();
    assert!(!lone.labels.is_empty(), "the smoke grid yields windows");
    for round in 0..10 {
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(caller);
            let b = s.spawn(caller);
            (
                a.join().expect("first caller"),
                b.join().expect("second caller"),
            )
        });
        assert!(a == lone, "round {round}: the first caller diverged");
        assert!(b == lone, "round {round}: the second caller diverged");
    }
}
