//! What a run accumulates besides spans: operations attempted and
//! failed, failed checks, and the samples behind per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use qi_pfs::ops::RunTrace;

use crate::stats::median;
use crate::trace::Tracer;

#[derive(Default)]
pub struct Recorder {
    /// Operations attempted (scenario runs, fits, requests, control
    /// windows) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// One observation of a per-layer metric reported as a median.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Add to a per-layer metric reported as a total per pass.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// Set a per-layer metric measured once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    /// The counts of one scenario run, recorded where its `pfs.run` span
    /// closes so `pfs.run.ns_per_event` divides like by like.
    pub fn scenario_run(&mut self, trace: &RunTrace, completed: bool) {
        let counter = |name: &str| trace.metrics.counter(name).unwrap_or(0) as f64;
        self.add("pfs.run.events_per_pass", trace.events_processed as f64);
        self.add("pfs.run.ops_per_pass", trace.ops.len() as f64);
        self.add("pfs.run.rpcs_per_pass", trace.rpcs.len() as f64);
        self.add("pfs.run.samples_per_pass", trace.samples.len() as f64);
        self.add("pfs.run.sim_s", trace.end.as_secs_f64());
        self.add("pfs.rpc.retries", counter("pfs.rpc.retries"));
        self.add("pfs.rpc.timeouts", counter("pfs.rpc.timeouts"));
        self.add("pfs.run.deadline_hits", f64::from(u8::from(!completed)));
    }

    /// Every recorded per-layer value: medians of samples, and sums
    /// divided by `passes`.
    pub fn layer_values(&self, passes: usize) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> =
            self.samples.iter().map(|(k, v)| (*k, median(v))).collect();
        for (k, v) in &self.sums {
            out.insert(k, v / passes.max(1) as f64);
        }
        out
    }
}

/// Run `f` inside span `name` and append its wall time to `segments`:
/// the parts of a pass that count as measured. Work the harness does
/// between such regions (building requests or controllers) is not.
pub fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    segments: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    tracer.span(name, |_| {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        segments.push(dt);
        (out, dt)
    })
}
