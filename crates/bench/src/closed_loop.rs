//! **Closed-loop control** (DESIGN.md — control loop): guided vs uniform
//! throttling across three interference regimes, each run four ways —
//! ideal, unmitigated, guided, and uniform always-on — reporting how
//! much slowdown each controller recovered and how much background
//! throughput it cost. Defined once: the `control_loop` experiment
//! prints it and writes `results/control_loop.csv`, and `tests/gates.rs`
//! asserts on the same run and pins its rows to that file.
//!
//! The payoff the paper motivates: "users can develop more effective
//! methods to mitigate such impacts" (§II-B). A model is trained on the
//! smoke IO500 grid at 100 ms windows, then deployed *online*: a
//! [`ControlLoop`] rides the simulation, asks the sharded serve engine
//! for per-window predictions, and rate-limits the interfering
//! applications only while the target's predicted slowdown is ≥2x. Three
//! interference regimes (severe metadata-vs-bulk, moderate read-vs-read,
//! and the severe regime on faulted hardware) are each run under the
//! guided controller and under uniform always-on throttling. Everything
//! is simulated time, so the outcomes are the same on every host.

use qi_simkit::table::AsciiTable;
use qi_simkit::time::{SimDuration, SimTime};
use quanterference::prelude::*;

use crate::Context;

/// Rate given to both policies, so the comparison isolates *when* they
/// throttle, not *how hard*.
const RATE: f64 = 5.0e6;

struct Regime {
    name: &'static str,
    target: WorkloadKind,
    noise_kind: WorkloadKind,
    faulted: bool,
}

const REGIMES: [Regime; 3] = [
    Regime {
        name: "mdt-hard-write vs 2x ior-easy-write",
        target: WorkloadKind::MdtHardWrite,
        noise_kind: WorkloadKind::IorEasyWrite,
        faulted: false,
    },
    Regime {
        name: "ior-easy-read vs 2x ior-easy-read",
        target: WorkloadKind::IorEasyRead,
        noise_kind: WorkloadKind::IorEasyRead,
        faulted: false,
    },
    Regime {
        name: "mdt-hard-write vs 2x ior-easy-write, slow MDT",
        target: WorkloadKind::MdtHardWrite,
        noise_kind: WorkloadKind::IorEasyWrite,
        faulted: true,
    },
];

fn scenario(r: &Regime) -> Scenario {
    let s = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(r.target, 55)
    }
    .with_interference(InterferenceSpec {
        kind: r.noise_kind,
        instances: 2,
        ranks: 2,
    });
    if !r.faulted {
        return s;
    }
    // Slow the *MDT* backing disk (device index n_osts): the metadata
    // target feels it directly, so the faulted regime visibly diverges
    // from the healthy one instead of only shaving OST bandwidth the
    // target never uses.
    s.with_fault_plan(FaultPlan::new().with(FaultEvent::SlowDisk {
        dev: ClusterConfig::small().n_osts(),
        factor: 3.0,
        from: SimTime::ZERO + SimDuration::from_secs(1),
        until: SimTime::ZERO + SimDuration::from_secs(20),
    }))
}

/// A guided loop over a fresh two-shard engine; `serve_predictor` loads
/// the model through its QIMODEL text, so every regime deploys the
/// identical model.
fn guided_loop(predictor: &Predictor, s: &Scenario) -> ControlLoop {
    let target = AppId(0);
    let noise = noise_app_ids(s);
    let mut tenants = vec![target];
    tenants.extend(noise.iter().copied());
    let service = serve_predictor(predictor.clone(), &tenants, 2).expect("two shards build");
    ControlLoop::builder()
        .predictor(service)
        .policy(GuidedThrottle::new(target, noise, 1, RATE).expect("valid policy"))
        .n_devices(s.cluster.n_devices())
        .build()
        .expect("guided loop builds")
}

/// One regime under both controllers.
pub struct RegimeOutcome {
    pub regime: &'static str,
    pub guided: MitigationOutcome,
    pub uniform: MitigationOutcome,
}

/// Train the predictor and run every regime under both controllers.
pub fn run() -> Vec<RegimeOutcome> {
    // Train at 100 ms windows: sub-second windows give the online loop
    // several decision points inside the short smoke-scale target runs.
    let mut spec = DatasetSpec::smoke();
    spec.seeds = (1..=6).collect();
    spec.window = WindowConfig::millis(100);
    println!(
        "training the predictor on the IO500 grid ({} runs, 100 ms windows)...",
        spec.n_runs()
    );
    let tcfg = TrainConfig {
        epochs: 40,
        ..TrainConfig::default()
    };
    let (_, predictor, report) = train_and_evaluate(&spec, &tcfg, 3).expect("pipeline trains");
    println!("model F1 = {:.3}\n", report.headline_f1());

    REGIMES
        .iter()
        .map(|regime| {
            let s = scenario(regime);
            let guided = evaluate_mitigation(&s, guided_loop(&predictor, &s))
                .expect("guided mitigation runs");
            let uniform_ctl = ControlLoop::builder()
                .policy(UniformThrottle::new(noise_app_ids(&s), RATE).expect("valid policy"))
                .window(WindowConfig::millis(100))
                .build()
                .expect("uniform loop builds");
            let uniform = evaluate_mitigation(&s, uniform_ctl).expect("uniform mitigation runs");
            RegimeOutcome {
                regime: regime.name,
                guided,
                uniform,
            }
        })
        .collect()
}

/// The guided-vs-uniform table: two rows per regime.
pub fn table(outcomes: &[RegimeOutcome]) -> AsciiTable {
    let mut table = AsciiTable::new(vec![
        "regime",
        "policy",
        "baseline (s)",
        "interfered (s)",
        "mitigated (s)",
        "recovered",
        "noise cost",
        "directives",
    ]);
    for r in outcomes {
        for (policy, o) in [("guided", &r.guided), ("uniform", &r.uniform)] {
            table.add_row(vec![
                r.regime.to_string(),
                policy.to_string(),
                format!("{:.3}", o.baseline_s),
                format!("{:.3}", o.unmitigated_s),
                format!("{:.3}", o.mitigated_s),
                format!("{:.0}%", o.recovered_fraction() * 100.0),
                format!("{:.0}%", o.noise_cost_fraction() * 100.0),
                o.directives.len().to_string(),
            ]);
        }
    }
    table
}

/// The `control_loop` experiment: run, print, record.
pub fn experiment(ctx: &mut Context) {
    let table = table(&run());
    println!("{}", table.render());
    println!(
        "selective throttling engages only where the model predicts >=2x \
         slowdown — uniform throttling pays the noise cost everywhere.\n"
    );
    ctx.write_results("control_loop.csv", &table);
}
