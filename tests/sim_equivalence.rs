//! Differential replay harness for the simulator core.
//!
//! The calendar event queue and the arena-routed op tables are pure
//! performance work: they must not move a single event. This harness
//! proves it by running the same seeded scenario grid — healthy and
//! faulted, under 1/2/8-thread rayon pools — through the naive
//! sorted-`Vec` `Reference` test double and the `Calendar` core,
//! asserting bit-identical [`RunTrace`]s, telemetry JSON, and dataset
//! feature blocks.

use qi_simkit::{QueueBackend, SimDuration, SimTime};
use quanterference_repro::framework::prelude::*;
use quanterference_repro::pfs::ids::AppId;

/// Shard counts for the parallel-simulator sweep. The sweep cluster has
/// four OSS nodes, so every count here is a real partition (no clamp).
const SHARDS: [u32; 2] = [2, 4];

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Every queue backend the cluster can run on. `Calendar` first: it is
/// the default and the golden the reference double is compared against.
const BACKENDS: [QueueBackend; 2] = [QueueBackend::Calendar, QueueBackend::Reference];

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

/// Field-by-field bit equality of two run traces, including the
/// rendered telemetry JSON (the byte-exact surface the goldens pin).
fn assert_traces_identical(a: &RunTrace, b: &RunTrace, ctx: &str) {
    assert_traces_equivalent(a, b, ctx);
    assert_eq!(
        a.events_processed, b.events_processed,
        "{ctx}: event count diverged"
    );
}

/// Bit equality of everything a run *observes* — ops, RPCs, samples,
/// directives, telemetry JSON — but not `events_processed`. Different
/// shard counts process different bookkeeping events (one sampler chain
/// per shard, admission-recheck events on shard queues), so the raw
/// event count is the one trace field that legitimately varies across
/// shard counts while every observable stays bit-identical.
fn assert_traces_equivalent(a: &RunTrace, b: &RunTrace, ctx: &str) {
    assert_eq!(a.ops, b.ops, "{ctx}: op records diverged");
    assert_eq!(a.rpcs, b.rpcs, "{ctx}: rpc records diverged");
    assert_eq!(a.samples, b.samples, "{ctx}: server samples diverged");
    assert_eq!(a.directives, b.directives, "{ctx}: directives diverged");
    assert_eq!(a.app_completion, b.app_completion, "{ctx}: completions");
    assert_eq!(a.failed_ops, b.failed_ops, "{ctx}: failed ops diverged");
    assert_eq!(a.end, b.end, "{ctx}: end time diverged");
    assert_eq!(a.metrics, b.metrics, "{ctx}: telemetry diverged");
    assert_eq!(
        a.metrics.to_json(),
        b.metrics.to_json(),
        "{ctx}: telemetry JSON diverged"
    );
}

/// Run `scenario(backend, faulted)` on every thread count in the grid
/// and assert each result is bit-identical to `golden`.
fn assert_backend_matches_golden(golden: &(AppId, RunTrace), backend: QueueBackend, faulted: bool) {
    let s = scenario(backend, faulted);
    for threads in THREADS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("explicit thread counts always build");
        let (app, trace) = pool.install(|| s.run()).expect("scenario runs");
        let ctx = format!("{backend:?} @ {threads} threads (faulted={faulted})");
        assert_eq!(golden.0, app, "{ctx}: app id diverged");
        assert_traces_identical(&golden.1, &trace, &ctx);
    }
}

#[test]
fn healthy_replay_is_byte_identical_across_backends_and_threads() {
    let golden = scenario(QueueBackend::Calendar, false)
        .run()
        .expect("golden healthy run");
    assert!(!golden.1.ops.is_empty(), "golden run must do real work");
    assert!(!golden.1.samples.is_empty(), "golden run must sample");
    for backend in BACKENDS {
        assert_backend_matches_golden(&golden, backend, false);
    }
}

#[test]
fn faulted_replay_is_byte_identical_across_backends_and_threads() {
    let golden = scenario(QueueBackend::Calendar, true)
        .run()
        .expect("golden faulted run");
    // The plan visibly did something, or this test proves nothing.
    assert!(golden.1.metrics.counter("pfs.rpc.dropped").unwrap_or(0) > 0);
    assert!(golden.1.metrics.counter("pfs.rpc.retries").unwrap_or(0) > 0);
    for backend in BACKENDS {
        assert_backend_matches_golden(&golden, backend, true);
    }
}

/// The shard-sweep scenario: the mixed read/metadata workload on a
/// four-OSS cluster so that `sim_shards = 4` is a genuine four-way
/// partition, with the same optional fault plan as `scenario`.
fn sharded_scenario(backend: QueueBackend, faulted: bool, shards: u32) -> Scenario {
    let mut s = scenario(backend, faulted);
    s.cluster.oss_nodes = 4;
    s.cluster.sim_shards = shards;
    s
}

/// The parallel-simulator differential replay: at every shard count the
/// observable trace must be bit-identical to the sequential (one-shard)
/// run of the same scenario, on every queue backend and rayon pool
/// size, healthy and faulted. Within a fixed shard count the *entire*
/// trace — including the raw event count — must replay exactly.
#[test]
fn sharded_replay_is_byte_identical_across_backends_and_threads() {
    for faulted in [false, true] {
        let sequential = sharded_scenario(QueueBackend::Calendar, faulted, 1)
            .run()
            .expect("sequential golden run");
        assert!(!sequential.1.ops.is_empty(), "golden run must do real work");
        if faulted {
            assert!(
                sequential.1.metrics.counter("pfs.rpc.dropped").unwrap_or(0) > 0,
                "the fault plan must visibly bite"
            );
        }
        for shards in SHARDS {
            let golden = sharded_scenario(QueueBackend::Calendar, faulted, shards)
                .run()
                .expect("sharded golden run");
            assert_eq!(sequential.0, golden.0, "app id diverged");
            assert_traces_equivalent(
                &sequential.1,
                &golden.1,
                &format!("{shards} shards vs sequential (faulted={faulted})"),
            );
            for backend in BACKENDS {
                let s = sharded_scenario(backend, faulted, shards);
                for threads in THREADS {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("explicit thread counts always build");
                    let (app, trace) = pool.install(|| s.run()).expect("scenario runs");
                    let ctx = format!(
                        "{backend:?} @ {threads} threads, {shards} shards (faulted={faulted})"
                    );
                    assert_eq!(golden.0, app, "{ctx}: app id diverged");
                    assert_traces_identical(&golden.1, &trace, &ctx);
                }
            }
        }
    }
}

/// The faulted shard-sweep scenario with pre-run `inject_fail_slow`
/// calls on top: one on the MDT (realm-owned) and one on OST 0 at the
/// very instant the plan's `SlowDisk` on OST 0 begins. The injection is
/// queued first, so the plan's factor must win the tie on whichever
/// queue owns the device.
fn sharded_injected_run(shards: u32) -> (AppId, RunTrace) {
    sharded_scenario(QueueBackend::Calendar, true, shards)
        .run_with(|cl| {
            let (ost0, mdt) = (cl.ost(0), cl.mdt());
            cl.inject_fail_slow(ost0, t(1), 9.0);
            cl.inject_fail_slow(mdt, t(1), 4.0);
        })
        .expect("injected run completes")
}

/// The pre-run-injection leg of the shard sweep: injections are posted
/// to their owner's queue when they are made, ahead of the fault plan,
/// and every observable must come out bit-identical to the sequential
/// run at every shard count and pool size.
#[test]
fn sharded_injected_replay_is_byte_identical() {
    let sequential = sharded_injected_run(1);
    let plain = sharded_scenario(QueueBackend::Calendar, true, 1)
        .run()
        .expect("uninjected run");
    assert_ne!(
        sequential.1.metrics, plain.1.metrics,
        "the injections must visibly bite or this proves nothing"
    );
    for shards in SHARDS {
        let golden = sharded_injected_run(shards);
        assert_eq!(sequential.0, golden.0, "app id diverged");
        assert_traces_equivalent(
            &sequential.1,
            &golden.1,
            &format!("injected {shards} shards vs sequential"),
        );
        for threads in THREADS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("explicit thread counts always build");
            let got = pool.install(|| sharded_injected_run(shards));
            assert_eq!(golden.0, got.0, "app id diverged");
            assert_traces_identical(
                &golden.1,
                &got.1,
                &format!("injected {shards} shards @ {threads} threads"),
            );
        }
    }
}

/// One predictorless uniform-throttle controlled run of the shard-sweep
/// scenario — the controller tick path pins epoch boundaries to the
/// control window, so the controlled leg exercises the mini-epoch
/// schedule the healthy leg never touches.
fn sharded_controlled_run(faulted: bool, shards: u32) -> (AppId, RunTrace) {
    let s = sharded_scenario(QueueBackend::Calendar, faulted, shards);
    let ctl = ControlLoop::builder()
        .policy(UniformThrottle::new(noise_app_ids(&s), 5.0e6).expect("valid policy"))
        .window(WindowConfig::millis(100))
        .build()
        .expect("uniform loop builds");
    s.run_with(|cl| cl.install_controller(Box::new(ctl)))
        .expect("controlled run completes")
}

/// The controlled leg of the shard sweep: directives, admission caps,
/// and the epoch mini-tick schedule must leave every observable — the
/// applied directive sequence included — bit-identical to the
/// sequential controlled run, at every shard count and pool size.
#[test]
fn sharded_controlled_replay_is_byte_identical() {
    for faulted in [false, true] {
        let sequential = sharded_controlled_run(faulted, 1);
        let ctx = format!("controlled sequential (faulted={faulted})");
        assert!(
            !sequential.1.directives.is_empty(),
            "{ctx}: controller must actually act or this proves nothing"
        );
        for shards in SHARDS {
            let golden = sharded_controlled_run(faulted, shards);
            assert_eq!(sequential.0, golden.0, "app id diverged");
            assert_traces_equivalent(
                &sequential.1,
                &golden.1,
                &format!("controlled {shards} shards vs sequential (faulted={faulted})"),
            );
            for threads in THREADS {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("explicit thread counts always build");
                let got = pool.install(|| sharded_controlled_run(faulted, shards));
                assert_eq!(golden.0, got.0, "app id diverged");
                assert_traces_identical(
                    &golden.1,
                    &got.1,
                    &format!("controlled {shards} shards @ {threads} threads (faulted={faulted})"),
                );
            }
        }
    }
}

/// Every client of an 8-OSS cluster streams 1 MiB writes to its own
/// file, each start staggered by a distinct sub-RPC delay. The stagger
/// breaks the clients' symmetry, which would otherwise complete whole
/// cohorts of ops at one instant — and record order *within* an instant
/// is the one surface the parallel merge does not reproduce (DESIGN.md,
/// parallel simulation, residual ties).
fn dense_write_run(shards: u32) -> RunTrace {
    use quanterference_repro::pfs::prelude::{FileKey, IoOp, NodeId, ProgramStep};
    const MIB: u64 = 1024 * 1024;
    const MIB_PER_CLIENT: u64 = 64;
    let cfg = ClusterConfig {
        oss_nodes: 8,
        osts_per_oss: 1,
        client_nodes: 16,
        sim_shards: shards,
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

/// The dense leg of the shard sweep: twice the OSS count of the scenario
/// legs above, so eight shards are a real eight-way partition, and every
/// server busy at once.
#[test]
fn dense_write_replay_is_identical_at_every_shard_count() {
    let sequential = dense_write_run(1);
    assert_eq!(sequential.ops.len(), 16 * 64, "every write must complete");
    for shards in [2, 4, 8] {
        assert_traces_equivalent(
            &sequential,
            &dense_write_run(shards),
            &format!("dense writes, {shards} shards vs sequential"),
        );
    }
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
    let golden = generate(&tiny_spec(QueueBackend::Calendar)).expect("golden sweep");
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
