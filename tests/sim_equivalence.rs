//! Differential replay harness for the simulator core.
//!
//! The packed-key event queue, the arena-routed op tables and shared
//! warm-ups are pure performance work: they must not move a single
//! event. This harness
//! proves it by running the same seeded scenarios — healthy, faulted,
//! injected, controlled and dense — under 1/2/8-thread rayon pools
//! through the naive sorted-`Vec` `Reference` test double and the
//! `Packed` core, and by finishing two targets from one copied warm-up,
//! asserting bit-identical [`RunTrace`]s, telemetry JSON, and dataset
//! feature blocks.

use qi_simkit::{QueueBackend, SimDuration, SimTime};
use quanterference_repro::framework::prelude::*;
use quanterference_repro::pfs::ids::AppId;

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Every queue backend the cluster can run on. `Packed` first: it is
/// the default and the golden the reference double is compared against.
const BACKENDS: [QueueBackend; 2] = [QueueBackend::Packed, QueueBackend::Reference];

const THREADS: [usize; 3] = [1, 2, 8];

/// A mixed read/metadata scenario on the small cluster, optionally under
/// a fault plan exercising the retry machinery (drops → timeouts →
/// jittered resends), a degraded disk, and an MDS lock storm.
fn scenario(backend: QueueBackend, faulted: bool) -> Scenario {
    let mut cluster = ClusterConfig::small();
    cluster.event_queue = backend;
    let s = Scenario {
        cluster,
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, 33)
    }
    .with_interference(InterferenceSpec {
        kind: WorkloadKind::MdtHardWrite,
        instances: 1,
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
            })
            .with(FaultEvent::MdsLockStorm {
                from: t(2),
                until: t(10),
                revoke_factor: 3.0,
            }),
    )
}

/// Field-by-field bit equality of two run traces, including the raw
/// event count and the rendered telemetry JSON (the byte-exact surface
/// the goldens pin).
fn assert_traces_identical(a: &RunTrace, b: &RunTrace, ctx: &str) {
    assert_eq!(a.ops, b.ops, "{ctx}: op records diverged");
    assert_eq!(a.rpcs, b.rpcs, "{ctx}: rpc records diverged");
    assert_eq!(a.samples, b.samples, "{ctx}: server samples diverged");
    assert_eq!(a.directives, b.directives, "{ctx}: directives diverged");
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

/// Run `run` on the packed queue as the golden, then on every backend
/// under every pool size, asserting each trace is bit-identical to the
/// golden. Returns the golden so the caller can check the scenario bit.
fn assert_replays_identically(what: &str, run: impl Fn(QueueBackend) -> RunTrace) -> RunTrace {
    let golden = run(QueueBackend::Packed);
    assert!(
        !golden.ops.is_empty(),
        "{what}: golden run must do real work"
    );
    assert!(!golden.samples.is_empty(), "{what}: golden run must sample");
    for backend in BACKENDS {
        for threads in THREADS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("explicit thread counts always build");
            let got = pool.install(|| run(backend));
            let ctx = format!("{what}: {backend:?} @ {threads} threads");
            assert_traces_identical(&golden, &got, &ctx);
        }
    }
    golden
}

fn scenario_run(backend: QueueBackend, faulted: bool) -> RunTrace {
    scenario(backend, faulted).run().expect("scenario runs").1
}

#[test]
fn healthy_replay_is_byte_identical_across_backends_and_threads() {
    assert_replays_identically("healthy", |b| scenario_run(b, false));
}

#[test]
fn faulted_replay_is_byte_identical_across_backends_and_threads() {
    let golden = assert_replays_identically("faulted", |b| scenario_run(b, true));
    // The plan visibly did something, or this test proves nothing.
    assert!(golden.metrics.counter("pfs.rpc.dropped").unwrap_or(0) > 0);
    assert!(golden.metrics.counter("pfs.rpc.retries").unwrap_or(0) > 0);
}

/// The faulted scenario with a slow MDT added to its plan: the device
/// path's fail-slow handling on the metadata server, not only on OSTs.
fn injected_run(backend: QueueBackend) -> RunTrace {
    let mut s = scenario(backend, true);
    let mdt = s.cluster.n_osts();
    let plan = s
        .fault_plan
        .as_mut()
        .expect("the faulted scenario has a plan");
    plan.push(FaultEvent::SlowDisk {
        dev: mdt,
        factor: 4.0,
        from: t(1),
        until: t(600),
    });
    s.run().expect("injected run completes").1
}

#[test]
fn injected_replay_is_byte_identical_across_backends_and_threads() {
    let golden = assert_replays_identically("injected", injected_run);
    assert_ne!(
        golden.metrics,
        scenario_run(QueueBackend::Packed, true).metrics,
        "the slow MDT must visibly bite or this proves nothing"
    );
}

/// One predictorless uniform-throttle controlled run of the scenario on
/// a four-OSS cluster: directives and rate limits.
fn controlled_run(backend: QueueBackend, faulted: bool, sim_shards: u32) -> RunTrace {
    let mut s = scenario(backend, faulted);
    s.cluster.oss_nodes = 4;
    s.cluster.sim_shards = sim_shards;
    let ctl = ControlLoop::builder()
        .policy(UniformThrottle::new(noise_app_ids(&s), 5.0e6).expect("valid policy"))
        .window(WindowConfig::millis(100))
        .build()
        .expect("uniform loop builds");
    s.run_with(|cl| cl.install_controller(Box::new(ctl)))
        .expect("controlled run completes")
        .1
}

#[test]
fn controlled_replay_is_byte_identical_across_backends_and_threads() {
    for faulted in [false, true] {
        let what = format!("controlled (faulted={faulted})");
        let golden = assert_replays_identically(&what, |b| controlled_run(b, faulted, 1));
        assert!(
            !golden.directives.is_empty(),
            "{what}: controller must actually act or this proves nothing"
        );
    }
}

/// `sim_shards` is accepted and ignored: every value, 0 included, runs
/// the same events and yields the same full trace.
#[test]
fn sim_shards_is_accepted_and_ignored() {
    let one = controlled_run(QueueBackend::Packed, true, 1);
    for sim_shards in [0, 2, 4] {
        let got = controlled_run(QueueBackend::Packed, true, sim_shards);
        assert_traces_identical(&one, &got, &format!("sim_shards = {sim_shards} vs 1"));
    }
}

/// Two targets that preload the same files continue from one warm-up,
/// the way the dataset grid runs them: one from a copy, the other from
/// the original. Each equals its own fresh run, with ops and RPCs
/// compared on the target (a grid warm-up records no other app's). The
/// fault plan's windows open during the warm-up, and a sampler tick is
/// due at the very instant the target's ranks wake.
#[test]
fn targets_finish_from_one_warm_up_like_fresh_runs() {
    use quanterference_repro::framework::scenario::TARGET;
    let member = |target| Scenario {
        target,
        ..scenario(QueueBackend::Packed, true)
    };
    let read = member(WorkloadKind::IorEasyRead);
    let write = member(WorkloadKind::IorEasyWrite);
    assert_eq!(read.target_preloads(), write.target_preloads());
    let warmup = read.warmup.as_nanos();
    assert_eq!(warmup % read.cluster.sample_interval.as_nanos(), 0);
    let plan = read.fault_plan.as_ref().expect("the faulted scenario");
    assert!(plan.events().iter().any(|e| matches!(
        e,
        FaultEvent::SlowDisk { from, .. } if (1..warmup).contains(&from.as_nanos())
    )));

    let warm = read
        .warm_up(Cluster::builder().record_only(TARGET), |_| {})
        .expect("the warm-up runs");
    let copy = warm.try_clone().expect("no controller is installed");
    for (s, from) in [(&write, copy), (&read, warm)] {
        let ctx = format!("{} from a shared warm-up", s.target);
        let (app, got) = from.finish_as(s).expect("the target finishes");
        let (fresh_app, fresh) = s.run().expect("the fresh run completes");
        assert_eq!(app, fresh_app);
        assert!(got.completion_of(app).is_some(), "{ctx}: incomplete");
        let projected = RunTrace {
            ops: fresh.ops_of(app).copied().collect(),
            rpcs: fresh
                .rpcs
                .iter()
                .filter(|r| r.app == app)
                .copied()
                .collect(),
            ..fresh.clone()
        };
        let noise_before_start = fresh
            .ops
            .iter()
            .any(|o| o.token.app != app && o.completed.as_nanos() < warmup);
        assert!(noise_before_start, "{ctx}: the warm-up did nothing");
        assert_traces_identical(&projected, &got, &ctx);
    }
}

/// Every client of an 8-OSS cluster streams 1 MiB writes to its own
/// file, each start staggered by a distinct sub-RPC delay, so every
/// server is busy at once.
fn dense_write_run(backend: QueueBackend) -> RunTrace {
    use quanterference_repro::pfs::prelude::{FileKey, IoOp, NodeId, ProgramStep};
    const MIB: u64 = 1024 * 1024;
    const MIB_PER_CLIENT: u64 = 64;
    let cfg = ClusterConfig {
        oss_nodes: 8,
        osts_per_oss: 1,
        client_nodes: 16,
        event_queue: backend,
        ..ClusterConfig::default()
    };
    let clients = cfg.client_nodes;
    let mut cl = Cluster::builder()
        .config(cfg)
        .seed(7)
        .build()
        .expect("valid dense-write config");
    for c in 0..clients {
        let file = FileKey {
            app: AppId(c),
            num: 1,
        };
        let mut started = false;
        let mut written = 0;
        let prog = move |_now: SimTime| {
            if !started {
                started = true;
                return ProgramStep::Compute(SimDuration::from_nanos(1_300 * c as u64 + 1));
            }
            if written == MIB_PER_CLIENT {
                return ProgramStep::Finished;
            }
            written += 1;
            ProgramStep::Op(IoOp::Write {
                file,
                offset: (written - 1) * MIB,
                len: MIB,
            })
        };
        cl.add_app(&format!("w{c}"), vec![Box::new(prog)], &[NodeId(c)]);
    }
    cl.run(t(10))
}

#[test]
fn dense_write_replay_is_byte_identical_across_backends_and_threads() {
    let golden = assert_replays_identically("dense writes", dense_write_run);
    assert_eq!(golden.ops.len(), 16 * 64, "every write must complete");
}

/// A tiny dataset sweep (healthy + slow-OST conditions) whose feature
/// matrix and labels must come out bit-identical on every backend.
fn tiny_spec(backend: QueueBackend) -> DatasetSpec {
    let mut spec = DatasetSpec::smoke();
    spec.cluster.event_queue = backend;
    spec.targets = vec![WorkloadKind::IorEasyRead];
    spec.noise_kinds = vec![WorkloadKind::IorEasyWrite];
    spec.intensities = vec![1];
    spec.seeds = vec![1, 2];
    spec.include_baseline_windows = false;
    spec.faults = vec![
        FaultSpec::Healthy,
        FaultSpec::SlowOsts {
            factor: 3.0,
            from_s: 0,
            dur_s: 60,
        },
    ];
    spec
}

#[test]
fn dataset_feature_blocks_are_bit_identical_across_backends() {
    let golden = generate(&tiny_spec(QueueBackend::Packed)).expect("golden sweep");
    assert!(!golden.data.y.is_empty(), "sweep must produce windows");
    for threads in THREADS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("explicit thread counts always build");
        let spec = tiny_spec(QueueBackend::Reference);
        let got = generate_on(&pool, &spec).expect("pooled sweep");
        let ctx = format!("Reference @ {threads} threads");
        assert_eq!(golden.data.y, got.data.y, "{ctx}: labels diverged");
        assert_eq!(
            golden.data.x.data(),
            got.data.x.data(),
            "{ctx}: feature bytes diverged"
        );
        assert_eq!(golden.meta.len(), got.meta.len(), "{ctx}: window metadata");
        for (ma, mb) in golden.meta.iter().zip(got.meta.iter()) {
            assert_eq!(
                (ma.window, ma.seed, ma.fault),
                (mb.window, mb.seed, mb.fault),
                "{ctx}: window metadata diverged"
            );
        }
    }
}
