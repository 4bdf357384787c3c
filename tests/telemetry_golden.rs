//! Golden-snapshot tests for the telemetry layer.
//!
//! Each test runs a fixed smoke-scale scenario, renders its
//! [`RunTrace::metrics`] snapshot, and compares the bytes against a
//! checked-in golden file under `tests/golden/`. Because the simulator
//! and the renderer are deterministic, any byte difference means either
//! an intentional model/metric change or a determinism regression.
//!
//! To regenerate the goldens after an intentional change:
//!
//! ```sh
//! QI_REGEN_GOLDEN=1 cargo test --test telemetry_golden
//! ```
//!
//! then inspect the diff of `tests/golden/` before committing.

use std::path::PathBuf;

use quanterference_repro::anomaly_demo::run_anomaly_session;
use quanterference_repro::framework::prelude::*;
use quanterference_repro::serve_demo::run_serve_session;
use quanterference_repro::telemetry::MetricsSnapshot;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn regen() -> bool {
    std::env::var("QI_REGEN_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Compare `actual` against the golden file `name`, or rewrite it when
/// `QI_REGEN_GOLDEN=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if regen() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden/");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with \
             QI_REGEN_GOLDEN=1 cargo test --test telemetry_golden",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "telemetry snapshot diverged from tests/golden/{name}.\n\
         If the change is intentional, regenerate with \
         QI_REGEN_GOLDEN=1 cargo test --test telemetry_golden and review \
         the diff.\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// The fixed smoke scenario the goldens are pinned to. Must not depend
/// on environment variables or scale switches.
fn golden_scenario() -> Scenario {
    Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, 11)
    }
}

fn interfered_scenario() -> Scenario {
    golden_scenario().with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyWrite,
        instances: 2,
        ranks: 2,
    })
}

#[test]
fn baseline_smoke_snapshot_matches_golden() {
    let (_, trace) = golden_scenario().run().expect("golden scenario runs");
    let snap = &trace.metrics;
    // Sanity before comparing bytes: the pfs layer reported activity.
    assert!(snap.counter("pfs.ost0.enqueued").unwrap_or(0) > 0);
    assert!(snap.stats("pfs.ost0.queue_depth").is_some());
    assert!(snap.histogram("pfs.ost0.service_us").is_some());
    check_golden("baseline_ior_easy_read_s11.metrics.json", &snap.to_json());
}

#[test]
fn interfered_smoke_snapshot_matches_golden() {
    let (_, trace) = interfered_scenario()
        .run()
        .expect("interfered scenario runs");
    check_golden(
        "interfered_ior_easy_read_s11.metrics.json",
        &trace.metrics.to_json(),
    );
}

/// The simulator's own event count, which the snapshots leave out:
/// queue work that moves no simulated event (a continuation run inline
/// instead of queued) must still count each delivery once.
#[test]
fn smoke_runs_deliver_pinned_event_counts() {
    for (what, scenario, events) in [
        ("baseline", golden_scenario(), 338),
        ("interfered", interfered_scenario(), 15_882),
    ] {
        let (_, trace) = scenario.run().expect("smoke scenario runs");
        assert_eq!(trace.events_processed, events, "{what}");
    }
}

/// The full online-serving session (train → registry → micro-batched
/// replay with a hot swap → overloaded replay under Shed) pinned to
/// golden snapshots, then re-run under other rayon pool widths AND
/// shard counts: the serving telemetry must be byte-identical at every
/// combination. The session runs under an active `FaultPlan`, so fault
/// injection is covered too.
#[test]
fn serve_session_snapshot_matches_golden_across_thread_counts() {
    let session = |threads: usize, shards: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build rayon pool")
            .install(|| run_serve_session(shards))
            .expect("serving session runs")
    };
    let reference = session(1, 1);
    reference
        .check_accounting()
        .expect("every request answered, answered stale, or shed");
    // Sanity before comparing bytes: the engine actually served.
    let snap = &reference.snapshot;
    assert!(snap.counter("serve.answered").unwrap_or(0) > 0);
    assert_eq!(snap.counter("serve.shed"), Some(0), "generous engine shed");
    assert_eq!(snap.gauge("serve.registry.active_version"), Some(2.0));
    assert!(reference.overload.shed > 0, "overload engine never shed");
    check_golden("serve_loop.sharded.metrics.json", &snap.to_json());
    check_golden(
        "serve_loop.overload.metrics.json",
        &reference.overload_snapshot.to_json(),
    );
    let pairs = [1usize, 2, 8]
        .into_iter()
        .flat_map(|t| [1usize, 2, 4, 8].map(|s| (t, s)));
    for (threads, shards) in pairs.skip(1) {
        let other = session(threads, shards);
        assert_eq!(
            other.snapshot.to_json(),
            reference.snapshot.to_json(),
            "serving telemetry diverged at {threads} threads, {shards} shards"
        );
        assert_eq!(
            other.overload_snapshot.to_json(),
            reference.overload_snapshot.to_json(),
            "overload telemetry diverged at {threads} threads, {shards} shards"
        );
    }
}

/// The full anomaly session (healthy training → held-out healthy and
/// faulted scoring → budget-bounded sampled scoring) pinned to one
/// golden snapshot, then re-run under rayon pools of 2 and 8 worker
/// threads: anomaly telemetry — scores, verdict counts, histogram,
/// sampler accounting — must be byte-identical at every width. Note
/// the `anomaly.*` namespace exists ONLY because this session installs
/// a scorer; plain simulator runs (the goldens above) never emit it.
#[test]
fn anomaly_session_snapshot_matches_golden_across_thread_counts() {
    let reference = run_anomaly_session().expect("anomaly session runs");
    reference.check_detection().expect("detection invariant");
    // Sanity before comparing bytes: all three legs actually scored.
    let snap = &reference.snapshot;
    assert!(snap.counter("healthy.anomaly.windows_scored").unwrap_or(0) > 0);
    assert_eq!(snap.counter("healthy.anomaly.flagged"), Some(0));
    assert!(snap.counter("faulted.anomaly.flagged").unwrap_or(0) > 0);
    assert!(snap.counter("sampled.monitor.sampler.dropped").unwrap_or(0) > 0);
    check_golden("anomaly_session.metrics.json", &snap.to_json());
    for threads in [2usize, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build rayon pool");
        let other = pool
            .install(run_anomaly_session)
            .expect("anomaly session runs");
        assert_eq!(
            other.snapshot.to_json(),
            reference.snapshot.to_json(),
            "anomaly telemetry diverged at {threads} worker threads"
        );
    }
}

#[test]
fn interfered_run_shows_more_device_work_than_baseline() {
    // The snapshots differ in the direction interference predicts:
    // more requests enqueued across OSTs.
    let (_, base) = golden_scenario().run().expect("baseline runs");
    let (_, noisy) = interfered_scenario().run().expect("interfered run");
    let total = |s: &MetricsSnapshot| -> u64 {
        s.metrics
            .iter()
            .filter(|(k, _)| k.starts_with("pfs.ost") && k.ends_with(".enqueued"))
            .filter_map(|(k, _)| s.counter(k))
            .sum()
    };
    assert!(total(&noisy.metrics) > total(&base.metrics));
}
