//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units, directions and bounds; `benchmark manifest`
//! prints that file from these tables and a test keeps the two equal.

use crate::json::Value;
use crate::workloads::SPECS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload reports every one of these, with tracing off.
///
/// `pass_ms` is the host time of the timed regions of one pass over the
/// workload's fixed inputs, the time to the result a user waits for,
/// read at the first decile of the run's passes (`stats::quiet_pass_s`).
/// `work_per_s` is the workload's own unit of work (`Spec::work_unit`:
/// simulator events, scenario runs, sample-epochs or predictions) in one
/// pass over that time. `setup_s` is the first decile of the run's
/// set-ups. All three are at nominal host speed (`reference`).
/// `peak_heap_mb` is the most heap bytes live at once during one
/// caller's set-up and checked pass (`heap`).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.1,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload's traced run reports every one of these; a layer the
/// workload never calls reads 0, which is the prediction "no change".
/// `*_per_pass` figures are totals over the measured passes divided by
/// their number; timings are span self times.
pub const PER_LAYER: [PerLayer; 89] = [
    // simkit
    pl("simkit.queue.hold_ns_per_op", "ns", Lower),
    // pfs
    pl("pfs.run.ms_per_pass", "ms", Lower),
    pl("pfs.run.calls_per_pass", "count", Lower),
    pl("pfs.run.events_per_pass", "count", Lower),
    pl("pfs.run.ops_per_pass", "count", Higher),
    pl("pfs.run.rpcs_per_pass", "count", Lower),
    pl("pfs.run.samples_per_pass", "count", Lower),
    pl("pfs.run.ns_per_event", "ns", Lower),
    pl("pfs.run.ns_per_event.data", "ns", Lower),
    pl("pfs.run.ns_per_event.meta", "ns", Lower),
    pl("pfs.run.ns_per_event.shared", "ns", Lower),
    pl("pfs.run.ns_per_event.mixed", "ns", Lower),
    pl("pfs.run.ns_per_event.dl", "ns", Lower),
    pl("pfs.run.ns_per_event.burst", "ns", Lower),
    pl("pfs.run.host_s_per_sim_s", "s/s", Lower),
    pl("pfs.run.deadline_hits", "count", Lower),
    pl("pfs.rpc.retries", "count", Lower),
    pl("pfs.rpc.timeouts", "count", Lower),
    pl("pfs.build.us_per_cluster", "us", Lower),
    pl("pfs.parsim.one_thread_cost", "x", Lower),
    pl("pfs.parsim.speedup", "x", Higher),
    pl("pfs.parsim.digest_match", "count", Higher),
    // monitor
    pl("monitor.vectors.ms_per_pass", "ms", Lower),
    pl("monitor.vectors.calls_per_pass", "count", Lower),
    pl("monitor.vectors.us_per_window", "us", Lower),
    pl("monitor.records_per_pass", "count", Lower),
    pl("monitor.ns_per_record", "ns", Lower),
    pl("monitor.windows_per_pass", "count", Higher),
    pl("monitor.windows_dropped", "count", Lower),
    // core
    pl("core.generate.ms_per_pass", "ms", Lower),
    pl("core.generate.pool_efficiency", "ratio", Higher),
    pl("core.label.ms_per_pass", "ms", Lower),
    pl("core.label.us_per_run", "us", Lower),
    // ml
    pl("ml.train.ms_per_pass", "ms", Lower),
    pl("ml.train.sample_epochs_per_pass", "count", Higher),
    pl("ml.train.sample_epochs_per_s.default", "1/s", Higher),
    pl("ml.train.sample_epochs_per_s.wide", "1/s", Higher),
    pl("ml.eval.ms_per_pass", "ms", Lower),
    pl("ml.eval.us_per_sample", "us", Lower),
    pl("ml.serialize.roundtrip_us", "us", Lower),
    pl("ml.f1_binary", "ratio", Higher),
    pl("ml.matmul.gflops.n192", "GFLOP/s", Higher),
    pl("ml.matmul.gflops.n512", "GFLOP/s", Higher),
    pl("ml.infer.ns_per_sample.batch1", "ns", Lower),
    pl("ml.infer.ns_per_sample.batch32", "ns", Lower),
    // serve
    pl("serve.submit.ms_per_pass", "ms", Lower),
    pl("serve.submit.ns_per_req.batch32", "ns", Lower),
    pl("serve.submit.ns_per_req.batch1", "ns", Lower),
    pl("serve.overhead_ns_per_req.batch32", "ns", Lower),
    pl("serve.overhead_ns_per_req.batch1", "ns", Lower),
    pl("serve.requests_per_pass", "count", Higher),
    pl("serve.answered_per_pass", "count", Higher),
    pl("serve.shed_per_pass", "count", Lower),
    pl("serve.stale_per_pass", "count", Lower),
    pl("serve.batches_per_pass", "count", Lower),
    pl("serve.batch_size_mean", "count", Higher),
    pl("serve.latency.p50_us", "us", Lower),
    pl("serve.latency.tail_us", "us", Lower),
    pl("serve.latency.tail_percentile", "%", Higher),
    pl("serve.latency.samples", "count", Higher),
    pl("serve.replay.ms_per_pass", "ms", Lower),
    pl("serve.replay.windows_per_s", "1/s", Higher),
    pl("serve.workers2.speedup", "x", Higher),
    // control
    pl("control.run.ms_per_pass", "ms", Lower),
    pl("control.windows_per_pass", "count", Higher),
    pl("control.windows_per_s", "1/s", Higher),
    pl("control.ticks_per_pass", "count", Lower),
    pl("control.desired_per_pass", "count", Lower),
    pl("control.emitted_per_pass", "count", Lower),
    pl("control.emit_share", "ratio", Lower),
    pl("control.gate.suppressed_per_pass", "count", Lower),
    pl("control.errors", "count", Lower),
    pl("control.tick_us_per_window", "us", Lower),
    pl("control.tick_share", "ratio", Lower),
    pl("control.recovered_fraction", "ratio", Higher),
    pl("control.noise_cost_fraction", "ratio", Lower),
    // the vendored pool
    pl("rayon.join_us", "us", Lower),
    pl("rayon.par_iter_us.n2", "us", Lower),
    // the harness itself
    pl("bench.passes", "count", Higher),
    pl("bench.pass_ms", "ms", Lower),
    pl("bench.pass_tail_ms", "ms", Lower),
    pl("bench.reference_ms", "ms", Lower),
    pl("bench.host_speed", "x", Higher),
    pl("bench.harness_share", "ratio", Lower),
    pl("bench.cpu_util", "cores", Lower),
    pl("bench.peak_rss_mb", "MiB", Lower),
    pl("bench.trace.spans", "count", Lower),
    pl("bench.trace.span_ns", "ns", Lower),
    pl("bench.trace.overhead_share", "ratio", Lower),
];

/// Names, units and `why`s may only use these characters (and a name
/// must start with a letter or digit): the driver refuses others.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, from the tables.
pub fn manifest() -> Value {
    Value::obj(vec![
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Value::str(s))
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                SPECS
                    .iter()
                    .map(|s| {
                        Value::obj(vec![
                            ("name", Value::str(s.name)),
                            ("why", Value::str(s.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj(vec![
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_units_and_whys_fit_the_drivers_limits() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "metric {name} listed twice");
        }
        for s in &SPECS {
            assert!(valid_name(s.name), "bad workload name {:?}", s.name);
            assert!(seen.insert(s.name), "name {} used twice", s.name);
            assert!(
                s.why.len() <= 200 && !s.why.contains('\n'),
                "{}: why too long",
                s.name
            );
        }
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound {}",
                m.name,
                m.bound
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16 && (2..=8).contains(&SPECS.len()));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn name_charset_is_enforced() {
        for ok in ["a", "pfs.run.ns_per_event.data", "9lives", "a-b_c.d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".a", "_a", "a b", "a/b", "µs", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("GFLOP/s") && valid_unit("%"));
        assert!(
            !valid_unit("") && !valid_unit("per second") && !valid_unit("a-unit-that-is-too-long")
        );
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
