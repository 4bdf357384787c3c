//! Cross-crate integration tests: the full pipeline from simulated
//! cluster to trained predictor, exercised end to end at smoke scale.

use quanterference_repro::framework::experiments::TableOne;
use quanterference_repro::framework::prelude::*;
use quanterference_repro::monitor::{client_windows, server_windows};

fn small_scenario(target: WorkloadKind, seed: u64) -> Scenario {
    Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(target, seed)
    }
}

#[test]
fn baseline_and_interfered_runs_are_deterministic() {
    let s = small_scenario(WorkloadKind::IorEasyRead, 11).with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyWrite,
        instances: 2,
        ranks: 2,
    });
    let (app_a, a) = s.run().expect("first run");
    let (app_b, b) = s.run().expect("second run");
    assert_eq!(app_a, app_b);
    assert_eq!(a.ops.len(), b.ops.len());
    for (x, y) in a.ops.iter().zip(b.ops.iter()) {
        assert_eq!(x.token, y.token);
        assert_eq!(x.issued, y.issued);
        assert_eq!(x.completed, y.completed);
    }
    assert_eq!(a.samples.len(), b.samples.len());
    assert_eq!(a.end, b.end);
    // The telemetry snapshot must be value-equal AND byte-stable when
    // rendered — goldens and diffing rely on this.
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
}

/// Two datasets are the same bytes: features, labels, every provenance
/// field, and the schema.
fn assert_same_dataset(a: &GeneratedDataset, b: &GeneratedDataset, ctx: &str) {
    let bits = |g: &GeneratedDataset| {
        g.data
            .x
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(a), bits(b), "feature bytes diverged: {ctx}");
    assert_eq!(a.data.y, b.data.y, "labels diverged: {ctx}");
    assert_eq!(a.data.n_servers, b.data.n_servers, "{ctx}");
    assert_eq!(a.meta.len(), b.meta.len(), "{ctx}");
    for (ma, mb) in a.meta.iter().zip(&b.meta) {
        let fields = |m: &SampleMeta| {
            (
                m.target,
                m.noise,
                m.fault,
                m.seed,
                m.window,
                m.level.to_bits(),
            )
        };
        assert_eq!(fields(ma), fields(mb), "provenance diverged: {ctx}");
    }
    assert_eq!(a.bins, b.bins, "{ctx}");
    assert_eq!(a.schema, b.schema, "{ctx}");
}

#[test]
fn dataset_sweep_is_byte_identical_across_repeat_runs_and_thread_counts() {
    // Two generations in one process use differently seeded HashMaps
    // internally, so this catches any map-iteration-order dependence in
    // the sweep. Since the vendored rayon backend runs real worker
    // threads, the same sweep is also repeated under 1-, 2- and 8-thread
    // pools: the ordered result collection must make every output byte
    // equal to the sequential run regardless of execution interleaving.
    let mut spec = DatasetSpec::smoke();
    spec.include_baseline_windows = true;
    let a = generate(&spec).expect("first sweep");
    let b = generate(&spec).expect("second sweep");
    assert_same_dataset(&a, &b, "repeat run");
    let pool = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("explicit thread counts always build");
        assert_eq!(pool.current_num_threads(), threads);
        pool
    };
    // Table I goes through the same grid runner: a 2 × 2, one-seed
    // corner of it must come out as the same bits at every pool size.
    let pair = vec![WorkloadKind::IorEasyRead, WorkloadKind::IorEasyWrite];
    let corner = DatasetSpec {
        targets: pair.clone(),
        noise_kinds: pair,
        ..experiment_spec(true)
    };
    let table_bits = |t: &TableOne| {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            t.matrix.iter().map(|r| bits(r)).collect::<Vec<_>>(),
            bits(&t.baseline_secs),
        )
    };
    let table = table_bits(&table_one(&corner).expect("Table I corner"));
    for threads in [1, 2, 8] {
        // The pool override is scoped: it must not leak into callers.
        let ambient = rayon::current_num_threads();
        let c = generate_on(&pool(threads), &spec).expect("pooled sweep");
        assert_eq!(rayon::current_num_threads(), ambient);
        assert_same_dataset(&a, &c, &format!("{threads} threads"));
        let t = pool(threads)
            .install(|| table_one(&corner))
            .expect("pooled Table I");
        assert_eq!(table_bits(&t), table, "Table I at {threads} threads");
    }

    // One simulation harvested under three views at once equals three
    // single-view sweeps: nothing a view holds reaches the simulation.
    let own = spec.view();
    let views = [
        own.clone(),
        DatasetView {
            window: WindowConfig::millis(100),
            features: FeatureConfig {
                client: true,
                server: false,
            },
            ..own.clone()
        },
        DatasetView {
            bins: Bins::three_class(),
            ..own
        },
    ];
    let single = |view: &DatasetView| {
        let mut spec = spec.clone();
        spec.window = view.window;
        spec.features = view.features;
        spec.bins = view.bins.clone();
        generate(&spec).expect("single-view sweep")
    };
    let singles = [a, single(&views[1]), single(&views[2])];
    assert_ne!(singles[0].data.len(), singles[1].data.len());
    assert_ne!(singles[0].data.y, singles[2].data.y);
    for threads in [1, 2] {
        let together = pool(threads)
            .install(|| generate_views(&spec, &views))
            .expect("three-view sweep");
        assert_eq!(together.len(), views.len());
        for (v, (one, alone)) in together.iter().zip(&singles).enumerate() {
            assert_same_dataset(one, alone, &format!("view {v} at {threads} threads"));
        }
    }
}

#[test]
fn interference_produces_positive_windows_and_baseline_does_not() {
    let s = small_scenario(WorkloadKind::IorEasyRead, 5).with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyRead,
        instances: 2,
        ranks: 2,
    });
    let (app, base) = s.run_baseline().expect("baseline runs");
    let (_, noisy) = s.run().expect("interfered run");
    let idx = BaselineIndex::new(&base, app);
    let wcfg = WindowConfig::seconds(1);
    // Self-comparison: every window degrades by exactly 1.0.
    let self_levels = window_degradation(&idx, &base, app, wcfg);
    assert!(!self_levels.is_empty());
    for (&w, &lv) in &self_levels {
        assert!((lv - 1.0).abs() < 1e-9, "window {w} self-level {lv}");
    }
    // Interfered: at least one window beyond 1.5x.
    let levels = window_degradation(&idx, &noisy, app, wcfg);
    let max = levels.values().cloned().fold(0.0, f64::max);
    assert!(max > 1.5, "max degradation only {max:.2}");
}

#[test]
fn monitors_cover_every_active_window() {
    let mut s = small_scenario(WorkloadKind::DlioUnet3d, 9);
    // Sample fast enough that even a sub-second run yields server data.
    s.cluster.sample_interval = qi_simkit::SimDuration::from_millis(100);
    let (app, trace) = s.run().expect("scenario runs");
    assert!(trace.completion_of(app).is_some());
    let wcfg = WindowConfig::seconds(1);
    let n_dev = s.cluster.n_devices();
    let cw = client_windows(&trace, wcfg, n_dev);
    let sw = server_windows(&trace.samples, wcfg);
    assert!(cw.keys().any(|(a, _)| *a == app));
    // Every client window of the target must have matching server
    // windows for the sampled period (except the final partial window).
    let max_sampled = trace
        .samples
        .iter()
        .map(|s| s.time)
        .max()
        .expect("samples exist");
    for &(a, w) in cw.keys() {
        if a != app {
            continue;
        }
        if wcfg.start_of(w + 1) > max_sampled {
            continue; // beyond the last full sampling interval
        }
        if w == 0 {
            continue; // first window has no preceding sample to delta
        }
        assert!(
            (0..n_dev).any(|d| sw.contains_key(&(quanterference_repro::pfs::ids::DeviceId(d), w))),
            "no server window for client window {w}"
        );
    }
}

#[test]
fn feature_blocks_have_stable_shape_across_runs() {
    let spec = DatasetSpec::smoke();
    let scenario =
        small_scenario(WorkloadKind::MdtHardWrite, 3).with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyWrite,
            instances: 1,
            ranks: 2,
        });
    let (app, trace) = scenario.run().expect("scenario runs");
    let vecs = window_vectors_with(
        &trace,
        app,
        spec.window,
        spec.features,
        scenario.cluster.n_devices(),
        spec.imputation,
    );
    assert!(!vecs.is_empty());
    let expect = scenario.cluster.n_devices() as usize * spec.features.len();
    for v in vecs.values() {
        assert_eq!(v.len(), expect);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}

#[test]
fn full_pipeline_beats_majority_class_at_smoke_scale() {
    let mut spec = DatasetSpec::smoke();
    spec.seeds = (1..=6).collect();
    spec.intensities = vec![1, 2, 3];
    let tcfg = TrainConfig {
        epochs: 25,
        ..TrainConfig::default()
    };
    let (gen, _, report) = train_and_evaluate(&spec, &tcfg, 17).expect("pipeline trains");
    let counts = gen.class_counts();
    assert!(
        counts[0] > 0 && counts[1] > 0,
        "degenerate dataset {counts:?}"
    );
    // The model must beat always-predicting the majority class.
    let majority = *counts.iter().max().expect("non-empty") as f64 / gen.data.len() as f64;
    assert!(
        report.cm.accuracy() > majority.min(0.95) - 0.1,
        "accuracy {:.3} vs majority {:.3}",
        report.cm.accuracy(),
        majority
    );
    assert!(report.headline_f1() > 0.3, "F1 {:.3}", report.headline_f1());
    // The pipeline surfaces its training/eval telemetry on the report.
    assert!(report.metrics.counter("ml.train.epochs_run").unwrap_or(0) > 0);
    assert!(report.metrics.gauge("ml.eval.accuracy").is_some());
    assert!(report.metrics.gauge("ml.eval.headline_f1").is_some());
}

#[test]
fn predictor_round_trips_through_blocks() {
    let spec = DatasetSpec::smoke();
    let tcfg = TrainConfig {
        epochs: 10,
        ..TrainConfig::default()
    };
    let (gen, mut predictor, _) = train_and_evaluate(&spec, &tcfg, 3).expect("pipeline trains");
    // predict_block on a dataset row must equal the batch prediction.
    let sample = gen.data.sample_rows(0);
    let flat: Vec<f32> = sample.data().to_vec();
    let via_block = predictor
        .predict_block(&flat)
        .expect("row has the right shape");
    assert!(via_block < 2);
}

#[test]
fn every_registered_workload_completes_on_the_small_cluster() {
    for kind in WorkloadKind::IO500
        .into_iter()
        .chain(WorkloadKind::DLIO)
        .chain(WorkloadKind::APPS)
    {
        let s = small_scenario(kind, 23);
        let (app, trace) = s.run().expect("workload completes");
        assert!(
            trace.completion_of(app).is_some(),
            "{kind} did not complete"
        );
        assert!(!trace.ops.is_empty(), "{kind} issued no ops");
    }
}
