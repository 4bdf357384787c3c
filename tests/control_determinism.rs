//! Closed-loop determinism suite for the `qi-control` control plane.
//!
//! The control loop runs *inside* the simulation: it ingests trace
//! suffixes at window boundaries, queries the sharded serve engine, and
//! applies directives through the cluster. None of that may depend on
//! wall clock, worker-thread count, or iteration order — a controlled
//! run must replay byte-for-byte. This suite proves it by running
//! guided (prediction-fed) and uniform (predictorless) controlled
//! scenarios — healthy and faulted — under 1/2/8-thread rayon pools and
//! asserting bit-identical [`RunTrace`]s, applied directive sequences,
//! and telemetry JSON against a golden run. A property test then checks
//! the hysteresis gate's core contract on arbitrary desire streams: at
//! most one decision per (subject, window), and never a release for a
//! subject that is not engaged.

use proptest::prelude::*;
use qi_control::{Hysteresis, HysteresisGate};
use qi_simkit::{SimDuration, SimTime};
use quanterference_repro::framework::prelude::*;
use quanterference_repro::pfs::ids::DeviceId;

const THREADS: [usize; 3] = [1, 2, 8];

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A metadata target crushed ~7-12x per window by two looping bulk
/// writers — interference strong enough that the guided policy actually
/// engages (goldens assert it).
fn scenario(faulted: bool) -> Scenario {
    let s = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::MdtHardWrite, 55)
    }
    .with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyWrite,
        instances: 2,
        ranks: 2,
    });
    if !faulted {
        return s;
    }
    s.with_fault_plan(
        FaultPlan::new()
            .with(FaultEvent::SlowDisk {
                dev: 0,
                factor: 3.0,
                from: t(1),
                until: t(20),
            })
            .with(FaultEvent::RpcDrop {
                src: None,
                dst: None,
                prob: 0.05,
                from: t(0),
                until: t(60),
            }),
    )
}

/// Train the smoke predictor once; every controlled run deploys a clone
/// of it through `serve_predictor`, which loads the model's QIMODEL text
/// into a fresh registry, so the model is identical across the whole
/// grid by construction.
fn trained_predictor() -> Predictor {
    let mut spec = DatasetSpec::smoke();
    spec.seeds = (1..=4).collect();
    spec.window = WindowConfig::millis(100);
    let tcfg = TrainConfig {
        epochs: 30,
        ..TrainConfig::default()
    };
    let (_, predictor, _) = train_and_evaluate(&spec, &tcfg, 3).expect("smoke training");
    predictor
}

/// One guided controlled run of `scenario(faulted)`.
fn guided_run(predictor: &Predictor, faulted: bool) -> (AppId, RunTrace) {
    let s = scenario(faulted);
    let target = AppId(0);
    let noise = noise_app_ids(&s);
    let mut tenants = vec![target];
    tenants.extend(noise.iter().copied());
    let service = serve_predictor(predictor.clone(), &tenants, 2).expect("two shards build");
    let ctl = ControlLoop::builder()
        .predictor(service)
        .policy(GuidedThrottle::new(target, noise, 1, 5.0e6).expect("valid policy"))
        .n_devices(s.cluster.n_devices())
        .build()
        .expect("guided loop builds");
    s.run_with(|cl| cl.install_controller(Box::new(ctl)))
        .expect("guided run completes")
}

/// One predictorless uniform-throttle controlled run.
fn uniform_run(faulted: bool) -> (AppId, RunTrace) {
    let s = scenario(faulted);
    let ctl = ControlLoop::builder()
        .policy(UniformThrottle::new(noise_app_ids(&s), 5.0e6).expect("valid policy"))
        .window(WindowConfig::millis(100))
        .build()
        .expect("uniform loop builds");
    s.run_with(|cl| cl.install_controller(Box::new(ctl)))
        .expect("uniform run completes")
}

/// Field-by-field bit equality of two controlled runs, including the
/// applied directive sequence and the rendered telemetry JSON.
fn assert_runs_identical(a: &(AppId, RunTrace), b: &(AppId, RunTrace), ctx: &str) {
    assert_eq!(a.0, b.0, "{ctx}: app id diverged");
    let (a, b) = (&a.1, &b.1);
    assert_eq!(a.directives, b.directives, "{ctx}: directives diverged");
    assert_eq!(a.ops, b.ops, "{ctx}: op records diverged");
    assert_eq!(a.rpcs, b.rpcs, "{ctx}: rpc records diverged");
    assert_eq!(a.samples, b.samples, "{ctx}: server samples diverged");
    assert_eq!(a.app_completion, b.app_completion, "{ctx}: completions");
    assert_eq!(a.failed_ops, b.failed_ops, "{ctx}: failed ops diverged");
    assert_eq!(a.end, b.end, "{ctx}: end time diverged");
    assert_eq!(
        a.events_processed, b.events_processed,
        "{ctx}: event count diverged"
    );
    assert_eq!(a.metrics, b.metrics, "{ctx}: telemetry diverged");
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "{ctx}: telemetry JSON diverged"
    );
}

/// Run `run` under every pool in the grid (plus one same-size rerun)
/// and require each result bit-identical to `golden`.
fn assert_grid_matches(golden: &(AppId, RunTrace), run: impl Fn() -> (AppId, RunTrace), ctx: &str) {
    for threads in THREADS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("explicit thread counts always build");
        let got = pool.install(&run);
        assert_runs_identical(golden, &got, &format!("{ctx} @ {threads} threads"));
    }
    // Same ambient pool, run twice: replays, not merely agrees.
    assert_runs_identical(golden, &run(), &format!("{ctx} rerun"));
}

#[test]
fn guided_control_loop_replays_byte_identically() {
    let predictor = trained_predictor();
    for faulted in [false, true] {
        let golden = guided_run(&predictor, faulted);
        let ctx = format!("guided (faulted={faulted})");
        assert!(
            !golden.1.directives.is_empty(),
            "{ctx}: controller must actually act or this proves nothing"
        );
        assert!(
            golden.1.metrics.counter("control.predictions").unwrap_or(0) > 0,
            "{ctx}: predictions must flow through the serve engine"
        );
        if faulted {
            assert!(
                golden.1.metrics.counter("pfs.rpc.dropped").unwrap_or(0) > 0,
                "{ctx}: the fault plan must visibly bite"
            );
        }
        assert_grid_matches(&golden, || guided_run(&predictor, faulted), &ctx);
    }
}

#[test]
fn uniform_control_loop_replays_byte_identically() {
    for faulted in [false, true] {
        let golden = uniform_run(faulted);
        let ctx = format!("uniform (faulted={faulted})");
        assert!(
            !golden.1.directives.is_empty(),
            "{ctx}: the always-on policy must emit directives"
        );
        assert_grid_matches(&golden, || uniform_run(faulted), &ctx);
    }
}

// ---------------------------------------------------------------------
// Gate contract: one decision per (subject, window), releases only when
// engaged — on arbitrary desire streams and gate configurations.
// ---------------------------------------------------------------------

/// The gate's conflict unit, re-derived independently of the crate's
/// private `Subject` type: rate limits and inflight caps are per-app,
/// layout steering is cluster-global.
fn subject(d: &ControlDirective) -> (u8, u32) {
    match d {
        ControlDirective::RateLimit { app, .. } | ControlDirective::ClearRateLimit { app } => {
            (0, app.0)
        }
        ControlDirective::CapInflight { app, .. } | ControlDirective::ClearCapInflight { app } => {
            (1, app.0)
        }
        ControlDirective::AvoidOsts { .. } | ControlDirective::ClearAvoidOsts => (2, 0),
    }
}

fn arb_directive() -> impl Strategy<Value = ControlDirective> {
    (0u8..6, 0u32..3, 1u32..4).prop_map(|(kind, a, v)| match kind {
        0 => ControlDirective::RateLimit {
            app: AppId(a),
            bytes_per_sec: f64::from(v) * 1.0e6,
        },
        1 => ControlDirective::ClearRateLimit { app: AppId(a) },
        2 => ControlDirective::CapInflight {
            app: AppId(a),
            max_inflight: v,
        },
        3 => ControlDirective::ClearCapInflight { app: AppId(a) },
        4 => ControlDirective::AvoidOsts {
            osts: (0..v).map(DeviceId).collect(),
        },
        _ => ControlDirective::ClearAvoidOsts,
    })
}

proptest! {
    #[test]
    fn gate_never_conflicts_and_never_releases_unengaged(
        engage_windows in 1u32..4,
        release_windows in 1u32..4,
        cooldown_windows in 0u32..4,
        windows in proptest::collection::vec(
            proptest::collection::vec(arb_directive(), 0..8),
            1..24,
        ),
    ) {
        let mut gate = HysteresisGate::new(Hysteresis {
            engage_windows,
            release_windows,
            cooldown_windows,
        })
        .expect("non-zero streaks build");
        let mut engaged = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for (w, desired) in windows.iter().enumerate() {
            out.clear();
            gate.filter(desired, &mut out);
            let mut decided = std::collections::BTreeSet::new();
            for d in &out {
                let s = subject(d);
                prop_assert!(
                    decided.insert(s),
                    "window {w}: two directives for subject {s:?}: {out:?}"
                );
                if d.is_engage() {
                    engaged.insert(s);
                } else {
                    prop_assert!(
                        engaged.remove(&s),
                        "window {w}: released subject {s:?} that was never engaged"
                    );
                }
            }
        }
    }
}
