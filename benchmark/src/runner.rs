//! One run of one workload, in the form the driver asks for:
//! `--workload NAME --seed N --seconds S --trace 0|1`.
//!
//! One set-up and a checked warm-up pass come first. Then, until
//! `--seconds` have gone by, passes repeat, with further timed set-ups
//! between them so that set-up is measured over the same stretch of
//! time as the passes. Timings are read at the run's first decile
//! (`stats::QUIET`) and reported at a nominal host speed (`reference`).
//! The last line of standard output is the result object.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::host;
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::probes;
use crate::recorder::Recorder;
use crate::reference::{self, Reference};
use crate::stats::{quantile, quiet_pass_s, tail, QUIET};
use crate::trace::{Busy, Tracer};
use crate::workloads::{self, Env, Pass, Scale, Spec, Workload};

#[derive(Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                out.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if workloads::spec(&out.workload).is_none() {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(out)
}

/// What one run produced, before it is printed.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `(name, value, unit)` of the mode's metrics, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub stamp: Value,
    pub spans: Value,
}

impl Outcome {
    /// The result object the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Value::obj(vec![
                                    ("value", Value::Num(value)),
                                    ("unit", Value::str(unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// Share of the measuring loop spent on repeated set-ups. They run
/// between passes, outside every timed region.
const SETUP_SHARE: f64 = 0.25;

/// Share of the measuring loop spent timing the reference kernel,
/// before each pass: at least once, and more often before long passes,
/// so that a run of a few long passes still reads the host's speed from
/// a hundred samples.
const REFERENCE_SHARE: f64 = 0.02;

/// Callers of the untraced run: each runs the same closed loop on a
/// thread of its own, with its own copy of the inputs, and their
/// timings are pooled. The shared host slows one hardware thread at a
/// time far more often than both, so the first decile of the pool
/// reads the thread that was left alone. A host with one hardware
/// thread runs one caller and stamps the result `degraded`.
const CALLERS: usize = 2;

/// One caller: a closed loop over its own copy of the inputs.
struct Caller<'a> {
    spec: &'a Spec,
    env: Env,
    workload: Box<dyn Workload + Send>,
    setups: Vec<f64>,
    passes: Vec<Pass>,
    reference: Reference,
    /// Seconds the reference kernel took, each time it ran.
    reference_s: Vec<f64>,
    /// Wall seconds inside passes.
    passes_s: f64,
    digest: u64,
    tracer: Tracer,
    rec: Recorder,
}

fn timed_setup(spec: &Spec, env: &Env) -> Result<(Box<dyn Workload + Send>, f64), String> {
    let t0 = Instant::now();
    let w = env
        .pool
        .install(|| (spec.setup)(env))
        .map_err(|e| format!("{} set-up: {e}", spec.name))?;
    Ok((w, t0.elapsed().as_secs_f64()))
}

impl<'a> Caller<'a> {
    /// A set-up and the checked warm-up pass.
    fn start(spec: &'a Spec, args: &Args) -> Result<Self, String> {
        let env = Env {
            seed: args.seed,
            scale: args.scale,
            pool: rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .map_err(|e| format!("pool: {e}"))?,
        };
        let (mut workload, setup_s) = timed_setup(spec, &env)?;
        let mut tracer = Tracer::new(args.trace);
        let mut rec = Recorder::default();
        let digest = env
            .pool
            .install(|| workload.check(&env, &mut tracer, &mut rec));
        Ok(Caller {
            spec,
            env,
            workload,
            setups: vec![setup_s],
            passes: Vec::new(),
            reference: Reference::new(),
            reference_s: Vec::new(),
            passes_s: 0.0,
            digest,
            tracer,
            rec,
        })
    }

    /// Passes until `deadline` (at least one), with further timed
    /// set-ups between them.
    fn measure(mut self, deadline: Instant) -> Result<Self, String> {
        let loop_start = Instant::now();
        let (mut loop_setup_s, mut loop_reference_s) = (0.0, 0.0);
        loop {
            loop {
                let s = self.reference.time();
                self.reference_s.push(s);
                loop_reference_s += s;
                if loop_reference_s >= REFERENCE_SHARE * loop_start.elapsed().as_secs_f64() {
                    break;
                }
            }
            self.tracer.set_run(self.passes.len() as u32 + 1);
            let (env, workload, rec) = (&self.env, &mut self.workload, &mut self.rec);
            let t0 = Instant::now();
            let pass = self.tracer.span("bench.pass", |t| {
                env.pool.install(|| workload.pass(env, t, rec))
            });
            self.passes_s += t0.elapsed().as_secs_f64();
            self.passes.push(pass);
            if Instant::now() >= deadline {
                return Ok(self);
            }
            if loop_setup_s < SETUP_SHARE * loop_start.elapsed().as_secs_f64() {
                let (again, setup_s) = timed_setup(self.spec, &self.env)?;
                drop(again);
                self.setups.push(setup_s);
                loop_setup_s += setup_s;
            }
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec: &Spec = workloads::spec(&args.workload).expect("parse_args checked the name");
    let hardware_threads = host::hardware_threads();
    // The traced run has one caller: its spans are one thread's story,
    // and its 2-thread probes find the second hardware thread free.
    let callers = if args.trace {
        1
    } else {
        CALLERS.min(hardware_threads)
    };

    // The first caller starts alone. What the process has held by the
    // end of its set-up and checked pass is the workload's memory; once
    // callers run side by side the peak depends on how their
    // allocations happen to overlap.
    let (cpu0, wall0) = (host::cpu_seconds(), Instant::now());
    let first = Caller::start(spec, args)?;
    let peak_heap_mb = crate::heap::stop();
    // Later callers set up while the first already measures, and all
    // stop at the same moment.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let joined: Vec<Result<Caller, String>> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..callers)
            .map(|_| scope.spawn(move || Caller::start(spec, args)?.measure(deadline)))
            .collect();
        std::iter::once(first.measure(deadline))
            .chain(
                others
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("a caller panicked".into()))),
            )
            .collect()
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    let cpu_s = cpu0.zip(host::cpu_seconds()).map_or(0.0, |(a, b)| b - a);
    let mut joined = joined
        .into_iter()
        .collect::<Result<Vec<Caller>, String>>()?;
    let others = joined.split_off(1);
    let Caller {
        mut setups,
        mut passes,
        mut reference_s,
        passes_s,
        digest,
        tracer,
        mut rec,
        ..
    } = joined.pop().expect("there is at least one caller");
    let first_passes = passes.len();
    for mut other in others {
        rec.check(other.digest == digest, || {
            "two callers produced different outputs from the same inputs".to_string()
        });
        rec.ops(other.rec.attempted, other.rec.failed);
        rec.problems.append(&mut other.rec.problems);
        setups.append(&mut other.setups);
        passes.append(&mut other.passes);
        reference_s.append(&mut other.reference_s);
    }
    // How fast the host ran during this run, against the nominal host:
    // every reported timing is scaled to the latter.
    let reference_s = quantile(&reference_s, QUIET);
    let host_speed = reference::NOMINAL_S / reference_s;

    rec.check(
        passes.iter().all(|p| p.work > 0.0 && p.timed_s() > 0.0),
        || "a pass did no timed work".to_string(),
    );
    // Every pass runs the same inputs, so they all do the same work.
    let work = passes.first().map_or(0.0, |p| p.work);
    rec.check(passes.iter().all(|p| p.work == work), || {
        "passes did different amounts of work".to_string()
    });
    let first_totals_ms: Vec<f64> = passes[..first_passes]
        .iter()
        .map(|p| p.timed_s() * 1e3)
        .collect();
    let segments: Vec<Vec<f64>> = passes.into_iter().map(|p| p.segments).collect();
    let raw_pass_s = quiet_pass_s(&segments);
    let pass_s = raw_pass_s * host_speed;

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        probes::run(args.scale, &mut rec);
        let mut values = rec.layer_values(first_passes);
        let busy = tracer.busy(1..=first_passes as u32);
        values.insert("bench.pass_ms", pass_s * 1e3);
        values.insert("bench.reference_ms", reference_s * 1e3);
        values.insert("bench.host_speed", host_speed);
        values.insert("bench.peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
        values.insert("bench.cpu_util", ratio(cpu_s, wall_s));
        derive(&mut values, &busy, &first_totals_ms, passes_s, &tracer);
        for name in values.keys() {
            debug_assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in PER_LAYER"
            );
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        let value = |name: &str| match name {
            "setup_s" => quantile(&setups, QUIET) * host_speed,
            "pass_ms" => pass_s * 1e3,
            "work_per_s" => ratio(work, pass_s),
            "peak_heap_mb" => peak_heap_mb,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect()
    };
    rec.check(metrics.iter().all(|(_, v, _)| v.is_finite()), || {
        "a metric is not finite".to_string()
    });

    let stamp = Value::obj(vec![
        ("workload", Value::str(spec.name)),
        ("work_unit", Value::str(spec.work_unit)),
        ("seed", Value::Num(args.seed as f64)),
        ("scale", Value::str(args.scale.name())),
        ("trace", Value::Bool(args.trace)),
        ("seconds", Value::Num(args.seconds)),
        ("hardware_threads", Value::Num(hardware_threads as f64)),
        ("callers", Value::Num(callers as f64)),
        ("degraded", Value::Bool(hardware_threads < CALLERS)),
        ("setups", Value::Num(setups.len() as f64)),
        ("passes", Value::Num(segments.len() as f64)),
        ("reference_ms", Value::Num(reference_s * 1e3)),
        ("host_speed", Value::Num(host_speed)),
        ("raw_pass_ms", Value::Num(raw_pass_s * 1e3)),
        ("digest", Value::Str(format!("{digest:016x}"))),
    ]);
    Ok(Outcome {
        correct: rec.problems.is_empty(),
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        problems: rec.problems,
        metrics,
        stamp,
        spans: tracer.to_json(),
    })
}

fn ms_per_pass(busy: &BTreeMap<&'static str, Busy>, span: &str, passes: f64) -> f64 {
    busy.get(span)
        .map_or(0.0, |b| b.self_ns as f64 / 1e6 / passes)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics that come from spans, or from a span and a
/// count recorded at the same boundary. Counts the workloads record
/// under names outside `PER_LAYER` are inputs here and are taken out.
fn derive(
    values: &mut BTreeMap<&'static str, f64>,
    busy: &BTreeMap<&'static str, Busy>,
    pass_totals_ms: &[f64],
    passes_s: f64,
    tracer: &Tracer,
) {
    let passes = pass_totals_ms.len() as f64;
    let calls = |span: &str| busy.get(span).map_or(0.0, |b| b.calls as f64 / passes);
    let ms = |span: &str| ms_per_pass(busy, span, passes);
    let mut take = |name: &str| values.remove(name).unwrap_or(0.0);
    let sim_s = take("pfs.run.sim_s");
    let eval_samples = take("ml.eval.samples");
    let replay_windows = take("serve.replay.windows");
    let (tick_s, observed_s, observed_windows) = (
        take("control.tick_s"),
        take("control.observed_s"),
        take("control.observed_windows"),
    );
    let get =
        |values: &BTreeMap<&'static str, f64>, name: &str| values.get(name).copied().unwrap_or(0.0);

    let mut put = |name: &'static str, value: f64| {
        values.insert(name, value);
    };
    put("pfs.run.ms_per_pass", ms("pfs.run"));
    put("pfs.run.calls_per_pass", calls("pfs.run"));
    put(
        "pfs.run.host_s_per_sim_s",
        ratio(ms("pfs.run") / 1e3, sim_s),
    );
    put("monitor.vectors.ms_per_pass", ms("monitor.vectors"));
    put("monitor.vectors.calls_per_pass", calls("monitor.vectors"));
    put("core.generate.ms_per_pass", ms("core.generate"));
    put("core.label.ms_per_pass", ms("core.label"));
    put(
        "core.label.us_per_run",
        ratio(ms("core.label") * 1e3, calls("core.label")),
    );
    put("ml.train.ms_per_pass", ms("ml.train"));
    put("ml.eval.ms_per_pass", ms("ml.eval"));
    put(
        "ml.eval.us_per_sample",
        ratio(ms("ml.eval") * 1e3, eval_samples),
    );
    put(
        "ml.serialize.roundtrip_us",
        ratio(ms("ml.serialize") * 1e3, calls("ml.serialize")),
    );
    put("serve.submit.ms_per_pass", ms("serve.submit"));
    put("serve.replay.ms_per_pass", ms("serve.replay"));
    put(
        "serve.replay.windows_per_s",
        ratio(replay_windows, ms("serve.replay") / 1e3),
    );
    put("control.run.ms_per_pass", ms("control.run"));
    // The observe-only run pays for monitor, serve and the tick and
    // leaves the cluster alone: its time over the unmitigated run's is
    // the control plane's.
    put(
        "control.tick_us_per_window",
        ratio(tick_s * 1e6, observed_windows),
    );
    put("control.tick_share", ratio(tick_s, observed_s));

    let pfs_events = get(values, "pfs.run.events_per_pass");
    values.insert(
        "pfs.run.ns_per_event",
        ratio(ms("pfs.run") * 1e6, pfs_events),
    );
    let (records, windows) = (
        get(values, "monitor.records_per_pass"),
        get(values, "monitor.windows_per_pass"),
    );
    values.insert(
        "monitor.ns_per_record",
        ratio(ms("monitor.vectors") * 1e6, records),
    );
    values.insert(
        "monitor.vectors.us_per_window",
        ratio(ms("monitor.vectors") * 1e3, windows),
    );
    // The engine's self time: what a request costs beyond the fused
    // forward pass at the batch size of the leg.
    for (overhead, submit, infer) in [
        (
            "serve.overhead_ns_per_req.batch32",
            "serve.submit.ns_per_req.batch32",
            "ml.infer.ns_per_sample.batch32",
        ),
        (
            "serve.overhead_ns_per_req.batch1",
            "serve.submit.ns_per_req.batch1",
            "ml.infer.ns_per_sample.batch1",
        ),
    ] {
        if let Some(&submit_ns) = values.get(submit) {
            let infer_ns = get(values, infer);
            values.insert(overhead, submit_ns - infer_ns);
        }
    }
    let control_windows = get(values, "control.windows_per_pass");
    values.insert(
        "control.windows_per_s",
        ratio(control_windows, ms("control.run") / 1e3),
    );
    let (emitted, desired) = (
        get(values, "control.emitted_per_pass"),
        get(values, "control.desired_per_pass"),
    );
    values.insert("control.emit_share", ratio(emitted, desired));

    let root = busy.get("bench.pass").copied().unwrap_or_default();
    values.insert("bench.passes", passes);
    values.insert(
        "bench.pass_tail_ms",
        tail(pass_totals_ms).map_or(0.0, |t| t.value),
    );
    values.insert(
        "bench.harness_share",
        ratio(root.self_ns as f64, root.total_ns as f64),
    );
    let spans = tracer.spans().len() as f64;
    let span_ns = get(values, "bench.trace.span_ns");
    values.insert("bench.trace.spans", spans);
    values.insert(
        "bench.trace.overhead_share",
        ratio(spans * span_ns / 1e9, passes_s),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let a = parse_args(&strings(&[
            "--workload",
            "sim_big",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.scale),
            ("sim_big", 7, 3.0, true, Scale::Full)
        );
        let d = parse_args(&strings(&["--workload", "train_fit"])).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (1, RUN_SECONDS as f64, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            vec![],
            vec!["--workload", "nope"],
            vec!["--workload", "sim_big", "--seed", "x"],
            vec!["--workload", "sim_big", "--seconds", "0"],
            vec!["--workload", "sim_big", "--seconds", "600"],
            vec!["--workload", "sim_big", "--trace", "yes"],
            vec!["--workload", "sim_big", "--trace"],
            vec!["--workload", "sim_big", "--frobnicate", "1"],
        ] {
            assert!(parse_args(&strings(&bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload once at smoke scale, untraced and traced: the
    /// checks pass, each mode reports exactly its table's metrics, and
    /// the result carries the scale so `compare` can refuse it.
    #[test]
    fn smoke_pass_over_every_workload() {
        for spec in &workloads::SPECS {
            for trace in [false, true] {
                let args = Args {
                    workload: spec.name.to_string(),
                    seed: 3,
                    seconds: 0.01,
                    trace,
                    scale: Scale::Smoke,
                };
                let outcome = run(&args).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(
                    outcome.correct,
                    "{} (trace {trace}): {:?}",
                    spec.name, outcome.problems
                );
                assert!(
                    outcome.attempted >= 1 && outcome.failed == 0,
                    "{}",
                    spec.name
                );
                let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                let want: Vec<&str> = if trace {
                    PER_LAYER.iter().map(|m| m.name).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                assert_eq!(names, want, "{}", spec.name);
                if !trace {
                    assert!(
                        outcome.metrics.iter().all(|m| m.1 > 0.0),
                        "{}: {:?}",
                        spec.name,
                        outcome.metrics
                    );
                }
                assert_eq!(
                    outcome.stamp.get("scale").and_then(Value::as_str),
                    Some("smoke")
                );
                let line = crate::json::parse(&outcome.result_line()).expect("result line is JSON");
                let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }
}
