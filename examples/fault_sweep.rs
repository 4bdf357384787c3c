//! Fault-injection smoke sweep: run one scenario healthy and under a
//! battery of fault plans, print how each degradation regime shifts
//! completion time and the retry/fault telemetry, gate on byte-exact
//! replay of the nastiest plan, and show the label-distribution shift a
//! `SlowDisk` plan produces in a dataset sweep.
//!
//! ```sh
//! cargo run --release --example fault_sweep
//! ```
//!
//! Exits non-zero if a faulted replay is not byte-identical;
//! `tests/fault_injection.rs` holds the same replay check in Tier-1.

use quanterference_repro::framework::prelude::*;
use quanterference_repro::simkit::{SimDuration, SimTime};

fn t(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// The fixed target: ior-easy-read alone on a small cluster. All fault
/// plans are injected into this same scenario so slowdowns isolate the
/// fault, not workload mix.
fn scenario() -> Scenario {
    Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, 11)
    }
}

/// The fault regimes to sweep, roughly in increasing nastiness.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "slow-disk (dev 0 4x, 0s-20s)",
            FaultPlan::new().with(FaultEvent::SlowDisk {
                dev: 0,
                factor: 4.0,
                from: t(0),
                until: t(20),
            }),
        ),
        (
            "disk-stall (dev 0, 100ms at 50ms)",
            FaultPlan::new().with(FaultEvent::DiskStall {
                dev: 0,
                at: SimTime::ZERO + SimDuration::from_millis(50),
                duration: SimDuration::from_millis(100),
            }),
        ),
        (
            "rpc-loss (5% everywhere, 0s-60s)",
            FaultPlan::new().with(FaultEvent::RpcDrop {
                src: None,
                dst: None,
                prob: 0.05,
                from: t(0),
                until: t(60),
            }),
        ),
        (
            "oss-crash + lock-storm",
            FaultPlan::new()
                .with(FaultEvent::OssThreadCrash {
                    oss: 0,
                    at: SimTime::ZERO + SimDuration::from_millis(20),
                    restart: Some(t(10)),
                    remaining: 0.25,
                })
                .with(FaultEvent::MdsLockStorm {
                    from: t(0),
                    until: t(10),
                    revoke_factor: 3.0,
                }),
        ),
    ]
}

fn fault_counters(trace: &RunTrace) -> String {
    let c = |k: &str| trace.metrics.counter(k).unwrap_or(0);
    format!(
        "drops {} retries {} timeouts {} stalls {} storm-revocations {}",
        c("pfs.rpc.dropped"),
        c("pfs.rpc.retries"),
        c("pfs.rpc.timeouts"),
        c("pfs.faults.disk_stalls"),
        c("pfs.faults.lock_storm_revocations"),
    )
}

fn main() -> Result<(), QiError> {
    // ------------------------------------------------------------------
    // 1. Healthy reference run.
    // ------------------------------------------------------------------
    let s = scenario();
    let (app, healthy) = s.run()?;
    let healthy_dur = target_duration(&healthy, app).expect("healthy run finishes");
    println!("== fault smoke sweep (target: ior-easy-read, small cluster) ==");
    println!("healthy: {healthy_dur}  [{}]", fault_counters(&healthy));

    // ------------------------------------------------------------------
    // 2. The same scenario under each fault regime.
    // ------------------------------------------------------------------
    for (name, plan) in plans() {
        let (_, faulted) = s.clone().with_fault_plan(plan).run()?;
        let slowdown = completion_slowdown(&healthy, &faulted, app).expect("faulted run finishes");
        println!(
            "{name}: slowdown {slowdown:.2}x  [{}]",
            fault_counters(&faulted)
        );
    }

    // ------------------------------------------------------------------
    // 3. Determinism gate: the chaos plan (every event type at once plus
    //    retries with jitter) must replay byte-identically, telemetry
    //    JSON included.
    // ------------------------------------------------------------------
    let mut chaos = FaultPlan::new();
    for (_, plan) in plans() {
        for ev in plan.events() {
            chaos.push(*ev);
        }
    }
    let chaotic = s.clone().with_fault_plan(chaos);
    let (_, a) = chaotic.run()?;
    let (_, b) = chaotic.run()?;
    if a.metrics.to_json() != b.metrics.to_json() || a.end != b.end {
        eprintln!("FAIL: faulted replay diverged between identical runs");
        std::process::exit(1);
    }
    println!(
        "replay: byte-identical across reruns  [{}]",
        fault_counters(&a)
    );

    // ------------------------------------------------------------------
    // 4. Dataset dimension: a SlowDisk fault spec widens the label
    //    distribution versus the identical healthy sweep.
    // ------------------------------------------------------------------
    let mut spec = DatasetSpec::smoke();
    spec.targets = vec![WorkloadKind::IorEasyRead];
    spec.noise_kinds = vec![WorkloadKind::IorEasyWrite];
    spec.intensities = vec![1];
    spec.seeds = vec![1, 2];
    spec.include_baseline_windows = false;
    spec.faults = vec![
        FaultSpec::Healthy,
        FaultSpec::SlowOsts {
            factor: 4.0,
            from_s: 0,
            dur_s: 60,
        },
    ];
    let gen = generate(&spec)?;
    let labels = gen.bins.labels();
    println!("\n== faulted dataset sweep (healthy + slow-osts grid) ==");
    for fault in &spec.faults {
        let mut counts = vec![0usize; labels.len()];
        for (m, &y) in gen.meta.iter().zip(gen.data.y.iter()) {
            if m.fault == *fault {
                counts[y] += 1;
            }
        }
        let total: usize = counts.iter().sum::<usize>().max(1);
        let shares: Vec<String> = labels
            .iter()
            .zip(&counts)
            .map(|(l, &c)| format!("{l} {:.0}%", 100.0 * c as f64 / total as f64))
            .collect();
        println!(
            "{fault:?}: {} windows ({})",
            counts.iter().sum::<usize>(),
            shares.join(", ")
        );
    }
    Ok(())
}
