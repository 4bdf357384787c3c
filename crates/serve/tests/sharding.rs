//! Cross-shard-count / cross-thread-count byte-equality suite.
//!
//! The tentpole invariant of the sharded serving layer: predicted
//! classes and telemetry snapshots are **byte-identical at any shard
//! count and any thread count**. These tests drive the same request
//! stream through `ShardedServeEngine` at 1/2/4/8 shards (serially)
//! and through parallel `ShardWorker` drives on 1/2/8-thread rayon
//! pools, and require exact `Prediction` equality plus byte-equal
//! telemetry JSON. A routing-stability test pins the FNV-1a tenant
//! hash (the routing table is part of the engine's observable
//! contract), and a hot-swap test proves no batch mixes model
//! versions.

use qi_ml::data::{Dataset, Standardizer};
use qi_ml::layers::{Dense, Mlp};
use qi_ml::model::KernelNet;
use qi_ml::serialize::model_to_text;
use qi_ml::train::{train, TrainConfig, TrainedModel};
use qi_monitor::schema::FeatureSchema;
use qi_pfs::ids::AppId;
use qi_serve::{
    shard_of_tenant, ModelRegistry, OverloadPolicy, PredictRequest, Prediction, ServeConfig,
    ShardedServeEngine,
};
use qi_simkit::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SERVERS: usize = 3;
const FEATS: usize = 5;

/// Small two-class model over hand-built blocks (same recipe as the
/// registry unit tests): positive blocks in `1.0..2.0`, negative in
/// `-2.0..-1.0`, so held-out blocks from either band classify cleanly.
fn trained(seed: u64) -> TrainedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut samples = Vec::new();
    let mut y = Vec::new();
    for i in 0..80 {
        let pos = i % 2 == 0;
        let block: Vec<f32> = (0..SERVERS * FEATS)
            .map(|_| {
                if pos {
                    rng.gen_range(1.0..2.0)
                } else {
                    rng.gen_range(-2.0..-1.0)
                }
            })
            .collect();
        samples.push(block);
        y.push(usize::from(pos));
    }
    let data = Dataset::from_samples(samples, y, SERVERS);
    let cfg = TrainConfig {
        epochs: 4,
        ..TrainConfig::default()
    };
    train(&data, &cfg)
}

fn tenants() -> Vec<AppId> {
    [1u32, 2, 3, 5, 8, 13].map(AppId).to_vec()
}

/// A deterministic multi-tenant request stream: `n` requests round-
/// robined over the tenants, arrivals 1 ms apart, blocks drawn from
/// the model's own training bands so classes are meaningful.
fn stream(n: usize, seed: u64) -> Vec<(SimTime, PredictRequest)> {
    let ts = tenants();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let tenant = ts[i % ts.len()];
            let pos = rng.gen_bool(0.5);
            let block: Vec<f32> = (0..SERVERS * FEATS)
                .map(|_| {
                    if pos {
                        rng.gen_range(1.0..2.0)
                    } else {
                        rng.gen_range(-2.0..-1.0)
                    }
                })
                .collect();
            let now = SimTime(i as u64 * 1_000_000);
            let req = PredictRequest {
                tenant,
                window: (i / ts.len()) as u64,
                block,
            };
            (now, req)
        })
        .collect()
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 4,
        max_delay: SimDuration::from_millis(10),
        queue_cap: 16,
        admission: Some((2_000.0, 4.0)),
        overload: OverloadPolicy::DegradeToStale,
        tenants: tenants(),
        threads: None,
    }
}

fn engine(n_shards: usize) -> ShardedServeEngine {
    let model = trained(7);
    let mut reg = ModelRegistry::new(model.shape(), model.schema().clone());
    reg.load_text(1, &model_to_text(&model)).expect("v1 loads");
    reg.activate(1).expect("v1 activates");
    let mut eng = ShardedServeEngine::new(serve_cfg(), reg, n_shards).expect("engine builds");
    // Register v2 up front so every engine's registry telemetry agrees.
    let v2 = model_to_text(&trained(8));
    eng.load_model_text(2, &v2).expect("v2 loads");
    eng
}

/// Serial drive: submit the whole stream, polling as time advances,
/// then finish. Returns every prediction plus the telemetry JSON.
fn drive_serial(
    eng: &mut ShardedServeEngine,
    reqs: &[(SimTime, PredictRequest)],
) -> Vec<Prediction> {
    let mut out = Vec::new();
    for (now, req) in reqs {
        out.extend(eng.poll(*now).expect("poll"));
        let (_adm, done) = eng.submit(*now, req.clone()).expect("submit");
        out.extend(done);
    }
    let end = reqs.last().map_or(SimTime(0), |(t, _)| *t) + SimDuration::from_millis(50);
    out.extend(eng.finish(end).expect("finish"));
    out
}

/// Sort key making prediction lists comparable across drive orders:
/// within one tenant the order is already identical, so (tenant,
/// done_at, window) is a total order for deduped streams.
fn sorted(mut preds: Vec<Prediction>) -> Vec<Prediction> {
    preds.sort_by_key(|p| (p.tenant.0, p.done_at, p.window));
    preds
}

#[test]
fn classes_and_telemetry_identical_across_shard_counts() {
    let reqs = stream(240, 11);
    let mut eng1 = engine(1);
    let base_preds = sorted(drive_serial(&mut eng1, &reqs));
    let base_json = eng1.metrics_snapshot().to_json();
    assert!(
        !base_preds.is_empty(),
        "stream must produce predictions for the comparison to mean anything"
    );
    for n_shards in [2usize, 4, 8] {
        let mut eng = engine(n_shards);
        let preds = sorted(drive_serial(&mut eng, &reqs));
        assert_eq!(
            preds, base_preds,
            "predictions diverged at {n_shards} shards"
        );
        let json = eng.metrics_snapshot().to_json();
        assert_eq!(
            json, base_json,
            "telemetry bytes diverged at {n_shards} shards"
        );
    }
}

#[test]
fn parallel_worker_drive_matches_serial_at_any_thread_count() {
    let reqs = stream(240, 11);
    let mut serial_eng = engine(4);
    let serial_preds = sorted(drive_serial(&mut serial_eng, &reqs));
    let serial_json = serial_eng.metrics_snapshot().to_json();

    for threads in [1usize, 2, 8] {
        let mut eng = engine(4);
        // Every worker walks the SAME global event schedule — polling
        // its lanes at every instant, submitting only requests it owns
        // — because flush timing is a function of when poll runs, and
        // the serial drive polls every lane at every event time.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let end = reqs.last().map_or(SimTime(0), |(t, _)| *t) + SimDuration::from_millis(50);
        let mut workers = eng.workers();
        let shard_outs: Vec<Vec<Prediction>> = pool.install(|| {
            use rayon::prelude::*;
            workers
                .par_iter_mut()
                .map(|w| {
                    let mut out = Vec::new();
                    for (now, req) in &reqs {
                        out.extend(w.poll(*now).expect("poll"));
                        if w.owns(req.tenant) {
                            let (_adm, done) = w.submit(*now, req.clone()).expect("submit");
                            out.extend(done);
                        }
                    }
                    out.extend(w.finish(end).expect("finish"));
                    out
                })
                .collect()
        });
        drop(workers);
        let preds = sorted(shard_outs.into_iter().flatten().collect());
        assert_eq!(
            preds, serial_preds,
            "parallel drive diverged at {threads} threads"
        );
        let json = eng.metrics_snapshot().to_json();
        assert_eq!(
            json, serial_json,
            "telemetry bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn tenant_hash_routing_is_stable() {
    // Pinned FNV-1a(LE id) mod n literals: changing the hash silently
    // re-shards every deployment, so the table is contract, not detail.
    let expect = [
        (1u32, [0usize, 0, 4]),
        (2, [1, 3, 7]),
        (3, [0, 2, 6]),
        (5, [0, 0, 0]),
        (8, [1, 1, 5]),
        (13, [0, 0, 0]),
        (21, [0, 0, 0]),
        (42, [1, 3, 7]),
        (1000, [0, 0, 4]),
    ];
    for (id, by_count) in expect {
        assert_eq!(shard_of_tenant(AppId(id), 1), 0);
        for (i, n) in [2usize, 4, 8].into_iter().enumerate() {
            assert_eq!(
                shard_of_tenant(AppId(id), n),
                by_count[i],
                "app{id} at {n} shards"
            );
        }
    }
    // The engine's own routing agrees with the public function.
    let eng = engine(4);
    for t in tenants() {
        assert_eq!(eng.shard_of(t), Some(shard_of_tenant(t, 4)));
    }
    assert_eq!(eng.shard_of(AppId(999)), None, "unknown tenant");
}

#[test]
fn hot_swap_flushes_every_shard_and_never_mixes_versions() {
    let reqs = stream(240, 13);
    let mut eng = engine(4);
    let mut preds = Vec::new();
    let mut swapped = false;
    for (i, (now, req)) in reqs.iter().enumerate() {
        preds.extend(eng.poll(*now).expect("poll"));
        if i == reqs.len() / 2 {
            // Mid-stream hot swap: queued work flushes under v1 first.
            let flushed = eng.activate(*now, 2).expect("swap to v2");
            assert!(
                flushed.iter().all(|p| p.version == 1),
                "pre-swap flush must be answered by the old version"
            );
            preds.extend(flushed);
            swapped = true;
            assert_eq!(eng.queue_depth(), 0, "swap point leaves nothing queued");
        }
        let (_adm, done) = eng.submit(*now, req.clone()).expect("submit");
        preds.extend(done);
    }
    let end = reqs.last().unwrap().0 + SimDuration::from_millis(50);
    preds.extend(eng.finish(end).expect("finish"));
    assert!(swapped);

    // Both versions answered, and no batch mixes them: batch-mates
    // share (tenant, done_at), so every such group is version-uniform.
    assert!(preds.iter().any(|p| p.version == 1), "v1 answered early");
    assert!(preds.iter().any(|p| p.version == 2), "v2 answered late");
    use std::collections::HashMap;
    let mut groups: HashMap<(u32, SimTime), Vec<u64>> = HashMap::new();
    for p in &preds {
        groups
            .entry((p.tenant.0, p.done_at))
            .or_default()
            .push(p.version);
    }
    for ((tenant, done_at), versions) in groups {
        assert!(
            versions.windows(2).all(|w| w[0] == w[1]),
            "batch for app{tenant} at {done_at:?} mixed versions {versions:?}"
        );
    }
}

#[test]
fn unknown_tenant_and_wrong_shape_are_rejected() {
    let mut eng = engine(2);
    let bad_tenant = PredictRequest {
        tenant: AppId(999),
        window: 0,
        block: vec![0.0; SERVERS * FEATS],
    };
    let err = eng
        .submit(SimTime(0), bad_tenant)
        .expect_err("unknown tenant");
    assert!(err.to_string().contains("unknown tenant"), "{err}");
    let bad_shape = PredictRequest {
        tenant: AppId(1),
        window: 0,
        block: vec![0.0; 3],
    };
    let err = eng.submit(SimTime(0), bad_shape).expect_err("wrong shape");
    assert!(err.to_string().contains("serve request block"), "{err}");
    // Worker-level routing: a worker refuses tenants it does not own.
    let t = tenants()[0];
    let owner = eng.shard_of(t).expect("known tenant");
    let mut workers = eng.workers();
    let other = (owner + 1) % 2;
    let req = PredictRequest {
        tenant: t,
        window: 0,
        block: vec![1.5; SERVERS * FEATS],
    };
    let err = workers[other]
        .submit(SimTime(0), req.clone())
        .expect_err("wrong shard");
    assert!(err.to_string().contains("does not route"), "{err}");
    assert!(workers[owner].owns(t));
    workers[owner].submit(SimTime(0), req).expect("right shard");
}

/// A block whose logits come out `[NaN, +inf]` must be answered, not
/// panic the engine: `check_block` looks at the length only (scanning
/// every float of every request costs `serve_stream` 11 %), so the
/// guard is the total argmax at the two logits. The model is built by
/// hand — 2 servers × 2 features, the kernel passes feature 0 through,
/// both hidden units of the head copy server 0's score, and the last
/// layer takes their difference and their sum — so `+inf` in that one
/// feature gives `inf − inf` and `inf + inf`.
#[test]
fn non_finite_logits_are_answered_not_panicked_on() {
    let kernel = Mlp::from_layers(vec![Dense::from_params(2, 1, vec![1.0, 0.0], vec![0.0])]);
    let head = Mlp::from_layers(vec![
        Dense::from_params(2, 2, vec![1.0, 1.0, 0.0, 0.0], vec![0.0, 0.0]),
        Dense::from_params(2, 2, vec![1.0, 1.0, -1.0, 1.0], vec![0.0, 0.0]),
    ]);
    let model = TrainedModel::from_parts(
        KernelNet::from_parts(kernel, head, 2),
        Standardizer::from_parts(vec![0.0, 0.0], vec![1.0, 1.0]),
        FeatureSchema::custom(2),
    );
    let mut reg = ModelRegistry::new(model.shape(), model.schema().clone());
    reg.load_text(1, &model_to_text(&model)).expect("v1 loads");
    reg.activate(1).expect("v1 activates");
    let cfg = ServeConfig {
        max_batch: 1,
        admission: None,
        ..serve_cfg()
    };
    let mut eng = ShardedServeEngine::new(cfg, reg, 1).expect("engine builds");
    let req = PredictRequest {
        tenant: AppId(1),
        window: 0,
        block: vec![f32::INFINITY, 0.0, 0.0, 0.0],
    };
    let (_adm, mut done) = eng.submit(SimTime(0), req).expect("submit");
    done.extend(eng.finish(SimTime(1_000_000)).expect("finish"));
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].class, 1, "the NaN logit loses to +inf");
}
