//! `paper_grid`: the whole chain a reproducer waits for: scenario grid
//! -> labelled dataset -> 80/20 split -> fit -> evaluate -> QIMODEL text
//! round trip -> served replay of one interfered run -> one guided
//! controlled re-run.

use std::time::Instant;

use qi_ml::train::train_with_schema;
use qi_ml::{model_from_text, model_to_text, Dataset};
use qi_monitor::FeaturePipeline;
use qi_serve::replay_trace;
use quanterference::prelude::*;

use super::grid;
use super::{two_thread_pool, Env, Pass, Workload};
use crate::digest;
use crate::recorder::{timed, Recorder};
use crate::trace::Tracer;

const EPOCHS: usize = 40;

/// A policy that asks for predictions every window and never acts: the
/// run pays for monitor, serve and the tick but the cluster is left
/// alone. Its wall time over the unmitigated run's is the control
/// plane's cost, and its observables must equal the unmitigated run's.
struct ObserveOnly;

impl MitigationPolicy for ObserveOnly {
    fn name(&self) -> &'static str {
        "observe-only"
    }

    fn decide(&mut self, _obs: &WindowObservation<'_>, _out: &mut Vec<ControlDirective>) {}
}

pub struct PaperGrid {
    spec: DatasetSpec,
    /// The interfered run that is replayed through the serving tier and
    /// re-run under guided control: the grid's hardest-hit pair.
    victim: Scenario,
    seen: u64,
}

pub fn setup(env: &Env) -> Result<Box<dyn Workload + Send>, QiError> {
    let spec = grid::spec(env.seed, env.scale);
    // Set-up is a pre-flight: every target must finish before its
    // deadline, alone and under the grid's heaviest noise, or the grid
    // would fail half-way through a timed pass.
    let heaviest = spec.intensities.iter().copied().max().unwrap_or(1);
    for (&target, &noise) in spec.targets.iter().zip(&spec.noise_kinds) {
        let alone = grid::scenario(&spec, target, env.seed);
        let noisy = grid::interfered(&spec, target, noise, heaviest, env.seed);
        for scenario in [alone, noisy] {
            let (app, trace) = scenario.run()?;
            if trace.completion_of(app).is_none() {
                return Err(QiError::Incomplete(format!(
                    "{} hit the deadline in the pre-flight",
                    target.name()
                )));
            }
        }
    }
    let victim = grid::interfered(
        &spec,
        WorkloadKind::MdtHardWrite,
        WorkloadKind::IorEasyWrite,
        heaviest,
        env.seed,
    );
    Ok(Box::new(PaperGrid {
        spec,
        victim,
        seen: 0,
    }))
}

/// Windows of one run as `(features, label)` rows, the way
/// `quanterference::dataset` collects them.
fn collect(
    spec: &DatasetSpec,
    trace: &RunTrace,
    app: AppId,
    baseline: &RunTrace,
    tracer: &mut Tracer,
    rec: &mut Recorder,
    rows: &mut (Vec<Vec<f32>>, Vec<usize>),
) {
    let levels = tracer.span("core.label", |_| {
        window_degradation(&BaselineIndex::new(baseline, app), trace, app, spec.window)
    });
    let vectors = tracer.span("monitor.vectors", |_| {
        window_vectors_with(
            trace,
            app,
            spec.window,
            spec.features,
            spec.cluster.n_devices(),
            spec.imputation,
        )
    });
    rec.add(
        "monitor.records_per_pass",
        (trace.ops.len() + trace.rpcs.len() + trace.samples.len()) as f64,
    );
    rec.add("monitor.windows_per_pass", vectors.len() as f64);
    let mut windows: Vec<u64> = levels.keys().copied().collect();
    windows.sort_unstable();
    for w in windows {
        if let Some(v) = vectors.get(&w) {
            rows.0.push(v.clone());
            rows.1.push(spec.bins.classify(levels[&w]));
        }
    }
}

/// The grid one call at a time on the calling thread, in the order
/// `generate` stitches its samples, with a span around every call into
/// pfs, core and monitor: the traced run's view inside `generate_on`.
fn generate_stepwise(
    spec: &DatasetSpec,
    tracer: &mut Tracer,
    rec: &mut Recorder,
) -> Result<Dataset, QiError> {
    let mut rows = (Vec::new(), Vec::new());
    let mut baselines = Vec::new();
    for &target in &spec.targets {
        for &seed in &spec.seeds {
            let (app, trace) =
                tracer.span("pfs.run", |_| grid::scenario(spec, target, seed).run())?;
            rec.scenario_run(&trace, trace.completion_of(app).is_some());
            baselines.push(((target, seed), app, trace));
        }
    }
    for &target in &spec.targets {
        for &noise in &spec.noise_kinds {
            for &instances in &spec.intensities {
                for &seed in &spec.seeds {
                    let scenario = grid::interfered(spec, target, noise, instances, seed);
                    let (app, trace) = tracer.span("pfs.run", |_| scenario.run())?;
                    rec.scenario_run(&trace, trace.completion_of(app).is_some());
                    let (_, _, base) = baselines
                        .iter()
                        .find(|(key, _, _)| *key == (target, seed))
                        .expect("every key has a baseline");
                    collect(spec, &trace, app, base, tracer, rec, &mut rows);
                }
            }
        }
    }
    if spec.include_baseline_windows {
        for (_, app, base) in &baselines {
            collect(spec, base, *app, base, tracer, rec, &mut rows);
        }
    }
    Ok(Dataset::from_samples(
        rows.0,
        rows.1,
        spec.cluster.n_devices() as usize,
    ))
}

impl PaperGrid {
    /// The chain once. Returns the pass, a cheap digest of what it
    /// produced (every pass must reproduce it) and, when `checked`, the
    /// full digest including both traces.
    fn chain(
        &self,
        env: &Env,
        tracer: &mut Tracer,
        rec: &mut Recorder,
        checked: bool,
    ) -> Result<(Pass, u64, u64), QiError> {
        let mut out = Pass::default();
        let spec = &self.spec;
        let runs = grid::runs(spec) as u64;

        let (gen, _) = timed(tracer, "core.generate", &mut out.segments, || {
            generate_on(&env.pool, spec)
        });
        let gen = match gen {
            Ok(gen) => gen,
            Err(e) => {
                rec.ops(runs, runs);
                return Err(e);
            }
        };
        rec.ops(runs, 0);
        out.work += runs as f64;
        let data_digest = digest::dataset(&gen.data);

        if tracer.enabled() {
            let stepwise = generate_stepwise(spec, tracer, rec)?;
            rec.check(digest::dataset(&stepwise) == data_digest, || {
                "the grid run call by call gave another dataset than generate_on".to_string()
            });
        }

        let (train, test) = gen.data.split(0.2, env.seed);
        let tcfg = grid::train_config(spec, env.seed, EPOCHS);
        let (model, _) = timed(tracer, "ml.train", &mut out.segments, || {
            train_with_schema(&train, &tcfg, gen.schema.clone())
        });
        rec.ops(1, u64::from(model.is_err()));
        let mut model = model?;
        let (predicted, _) = timed(tracer, "ml.eval", &mut out.segments, || {
            model.predict(&test)
        });
        let f1 = grid::f1(tcfg.n_classes, &test.y, &predicted);

        let (reloaded, _) = timed(tracer, "ml.serialize", &mut out.segments, || {
            let text = model_to_text(&model);
            model_from_text(&text).map(|m| (text, m))
        });
        let (text, mut reloaded) = reloaded.map_err(|e| QiError::Serve(e.to_string()))?;

        let (victim, victim_s) = timed(tracer, "pfs.run", &mut out.segments, || self.victim.run());
        let (app, victim) = victim?;
        let mut engine = grid::service(&text, spec, &self.victim)?;
        let n_devices = self.victim.cluster.n_devices();
        let (replay, _) = timed(tracer, "serve.replay", &mut out.segments, || {
            replay_trace(&mut engine, &victim, n_devices)
        });
        let replay = replay?;
        let unanswered = replay.submitted - replay.predictions.len() as u64;
        rec.ops(replay.submitted, unanswered);

        let guided = grid::guided(&text, spec, &self.victim)?;
        let (mitigated, _) = timed(tracer, "control.run", &mut out.segments, || {
            grid::run_controlled(&self.victim, guided)
        });
        let (_, mitigated) = mitigated?;
        let control = |name: &str| mitigated.metrics.counter(name).unwrap_or(0);
        let errors = control("control.errors");
        rec.ops(
            2,
            u64::from(mitigated.completion_of(app).is_none()) + errors.min(1),
        );

        if tracer.enabled() {
            rec.scenario_run(&victim, true);
            rec.add(
                "ml.train.sample_epochs_per_pass",
                (train.len() * EPOCHS) as f64,
            );
            rec.add("ml.eval.samples", test.len() as f64);
            rec.add("serve.replay.windows", replay.windows as f64);
            rec.add(
                "control.windows_per_pass",
                control("control.windows") as f64,
            );
            rec.add("control.ticks_per_pass", control("control.ticks") as f64);
            rec.add(
                "control.desired_per_pass",
                control("control.desired") as f64,
            );
            rec.add(
                "control.emitted_per_pass",
                control("control.emitted") as f64,
            );
            rec.add(
                "control.gate.suppressed_per_pass",
                (control("control.gate.suppressed_hysteresis")
                    + control("control.gate.suppressed_cooldown")) as f64,
            );
            rec.add("control.errors", errors as f64);

            let observer = grid::controller(&text, spec, &self.victim, ObserveOnly)?;
            let (observed, observed_s) =
                timed(tracer, "control.run_observed", &mut Vec::new(), || {
                    grid::run_controlled(&self.victim, observer)
                });
            let (_, observed) = observed?;
            rec.check(
                digest::observables(&observed) == digest::observables(&victim),
                || "an observe-only controller changed what the cluster did".to_string(),
            );
            rec.add("control.tick_s", observed_s - victim_s);
            rec.add("control.observed_s", observed_s);
            rec.add(
                "control.observed_windows",
                observed.metrics.counter("control.windows").unwrap_or(0) as f64,
            );
        }
        if checked {
            rec.set("ml.f1_binary", f1);
            let floor = grid::f1_floor(env.scale);
            rec.check(f1 >= floor, || format!("held-out F1 {f1:.3} below {floor}"));
            rec.check(reloaded.predict(&test) == predicted, || {
                "the reloaded model predicts otherwise".to_string()
            });
            rec.check(errors == 0, || {
                format!("{errors} control errors in the guided re-run")
            });
            rec.check(control("control.windows") > 0, || {
                "the guided re-run closed no window".to_string()
            });
            // What guided control bought the victim and cost its noise:
            // reported, since one pair at one seed may well recover nothing.
            let (_, alone) = self.victim.run_baseline()?;
            let duration = |t: &RunTrace| target_duration(t, app).map_or(0.0, |d| d.as_secs_f64());
            let noise_ops = |t: &RunTrace| t.ops.iter().filter(|o| o.token.app != app).count();
            let outcome = MitigationOutcome {
                baseline_s: duration(&alone),
                unmitigated_s: duration(&victim),
                mitigated_s: duration(&mitigated),
                throttled_windows: Default::default(),
                noise_ops_unmitigated: noise_ops(&victim),
                noise_ops_mitigated: noise_ops(&mitigated),
                directives: Vec::new(),
                metrics: Default::default(),
            };
            rec.set("control.recovered_fraction", outcome.recovered_fraction());
            rec.set("control.noise_cost_fraction", outcome.noise_cost_fraction());
            let mut pipeline = FeaturePipeline::new(spec.window, spec.features, n_devices);
            pipeline.ingest_trace(&victim)?;
            rec.set("monitor.windows_dropped", pipeline.dropped() as f64);
        }
        let classes = digest::fold(
            predicted
                .iter()
                .chain(replay.predictions.iter().map(|p| &p.class))
                .map(|&c| c as u64),
        );
        let cheap = digest::fold([
            data_digest,
            classes,
            victim.events_processed,
            mitigated.events_processed,
        ]);
        let full = if checked {
            digest::fold([cheap, digest::trace(&victim), digest::trace(&mitigated)])
        } else {
            0
        };
        Ok((out, cheap, full))
    }
}

impl PaperGrid {
    /// One thread's time for the grid over what a 2-thread pool's
    /// threads spend on it: 1.0 is a perfect split.
    fn pool_efficiency(&self, env: &Env) -> Result<f64, QiError> {
        let two = two_thread_pool()?;
        let mut seconds = [0.0; 2];
        for (pool, s) in [&env.pool, &two].into_iter().zip(&mut seconds) {
            let t0 = Instant::now();
            generate_on(pool, &self.spec)?;
            *s = t0.elapsed().as_secs_f64();
        }
        Ok(seconds[0] / (2.0 * seconds[1]))
    }
}

impl Workload for PaperGrid {
    fn check(&mut self, env: &Env, tracer: &mut Tracer, rec: &mut Recorder) -> u64 {
        if tracer.enabled() {
            match self.pool_efficiency(env) {
                Ok(x) => rec.set("core.generate.pool_efficiency", x),
                Err(e) => rec.check(false, || format!("grid on two threads: {e}")),
            }
        }
        match self.chain(env, &mut Tracer::new(false), rec, true) {
            Ok((_, cheap, full)) => {
                self.seen = cheap;
                full
            }
            Err(e) => {
                rec.check(false, || e.to_string());
                0
            }
        }
    }

    fn pass(&mut self, env: &Env, tracer: &mut Tracer, rec: &mut Recorder) -> Pass {
        match self.chain(env, tracer, rec, false) {
            Ok((pass, cheap, _)) => {
                rec.check(cheap == self.seen, || {
                    "a pass produced other outputs than the checked pass".to_string()
                });
                pass
            }
            Err(e) => {
                rec.check(false, || e.to_string());
                Pass::default()
            }
        }
    }
}
