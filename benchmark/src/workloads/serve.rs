//! `serve_stream`: the serving tier alone. A model is trained and
//! registered in set-up; a pass streams real feature blocks through a
//! fresh `ShardedServeEngine`, once per leg.

use std::time::Instant;

use qi_pfs::ids::AppId;
use qi_serve::{
    Admission, ModelRegistry, OverloadPolicy, PredictRequest, ServeConfig, ShardedServeEngine,
};
use qi_simkit::{SimDuration, SimTime};
use quanterference::prelude::*;
use rayon::prelude::*;

use super::grid;
use super::{Env, Pass, Scale, Workload};
use crate::digest;
use crate::probes::XorShift;
use crate::recorder::{timed, Recorder};
use crate::stats::{median, tail};
use crate::trace::Tracer;

const TENANTS: u32 = 8;
const SHARDS: usize = 2;
/// Simulated nanoseconds between submits: the engine wants a clock that
/// never goes back, and batches close on size, not on delay.
const TICK_NS: u64 = 1_000;

/// One drive of the stream. At `max_batch` 32 the engine is kernel
/// throughput; at 1 batching is bypassed, the answer comes back from the
/// submit, and dispatch overhead is what is left.
struct Leg {
    max_batch: usize,
    submit_ns_per_req: &'static str,
}

const LEGS: [Leg; 2] = [
    Leg {
        max_batch: 32,
        submit_ns_per_req: "serve.submit.ns_per_req.batch32",
    },
    Leg {
        max_batch: 1,
        submit_ns_per_req: "serve.submit.ns_per_req.batch1",
    },
];

pub struct Serve {
    text: String,
    /// Flattened feature block of every sample of the grid (44% zeros:
    /// the engine's sparsity probe sees real input).
    blocks: Vec<Vec<f32>>,
    /// Per request: which block, and the class `TrainedModel::predict`
    /// gives it.
    stream: Vec<(usize, usize)>,
}

pub fn setup(env: &Env) -> Result<Box<dyn Workload + Send>, QiError> {
    let mut t = grid::trained(env, 40)?;
    let expected = t.model.predict(&t.gen.data);
    let blocks: Vec<Vec<f32>> = (0..t.gen.data.len())
        .map(|i| t.gen.data.sample_rows(i).data().to_vec())
        .collect();
    let requests = match env.scale {
        Scale::Full => 50_000,
        Scale::Smoke => 2_000,
    };
    let mut rng = XorShift(env.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let stream = (0..requests)
        .map(|_| {
            let b = (rng.next() % blocks.len() as u64) as usize;
            (b, expected[b])
        })
        .collect();
    Ok(Box::new(Serve {
        text: t.text,
        blocks,
        stream,
    }))
}

/// Request `i` of the stream goes to this tenant and window, so every
/// request has its own `(tenant, window)` and answers map back by it.
fn tenant_of(i: usize) -> AppId {
    AppId(1 + i as u32 % TENANTS)
}

fn window_of(i: usize) -> u64 {
    i as u64 / u64::from(TENANTS)
}

fn index_of(tenant: AppId, window: u64) -> usize {
    (window * u64::from(TENANTS) + u64::from(tenant.0 - 1)) as usize
}

/// What one drive of the stream produced.
struct Round {
    /// Class answered per request; `usize::MAX` where none came.
    classes: Vec<usize>,
    shed: u64,
    stale: u64,
    latencies_us: Vec<f64>,
}

impl Serve {
    fn engine(&self, max_batch: usize) -> Result<ShardedServeEngine, QiError> {
        let model =
            qi_ml::model_from_text(&self.text).map_err(|e| QiError::Serve(e.to_string()))?;
        let mut registry = ModelRegistry::new(model.shape(), model.schema().clone());
        registry.load_text(1, &self.text)?;
        registry.activate(1)?;
        ShardedServeEngine::new(
            ServeConfig {
                max_batch,
                max_delay: SimDuration::from_secs(1_000_000),
                queue_cap: 2 * max_batch,
                admission: None,
                overload: OverloadPolicy::Shed,
                tenants: (1..=TENANTS).map(AppId).collect(),
                threads: None,
            },
            registry,
            SHARDS,
        )
    }

    fn requests(&self) -> Vec<PredictRequest> {
        self.stream
            .iter()
            .enumerate()
            .map(|(i, &(b, _))| PredictRequest {
                tenant: tenant_of(i),
                window: window_of(i),
                block: self.blocks[b].clone(),
            })
            .collect()
    }

    /// Submit the whole stream from one caller, then flush. With
    /// `per_request` each submit is timed: at `max_batch` 1 the answer
    /// comes back from the submit, so that is the request's latency.
    fn drive(
        engine: &mut ShardedServeEngine,
        requests: Vec<PredictRequest>,
        per_request: bool,
    ) -> Result<Round, QiError> {
        let mut round = Round {
            classes: vec![usize::MAX; requests.len()],
            shed: 0,
            stale: 0,
            latencies_us: Vec::with_capacity(if per_request { requests.len() } else { 0 }),
        };
        let mut now = 0;
        for req in requests {
            now += TICK_NS;
            let t0 = per_request.then(Instant::now);
            let (admission, done) = engine.submit(SimTime(now), req)?;
            if let Some(t0) = t0 {
                round
                    .latencies_us
                    .push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            match admission {
                Admission::Enqueued => {}
                Admission::Stale(_) => round.stale += 1,
                Admission::Shed => round.shed += 1,
            }
            for p in done {
                round.classes[index_of(p.tenant, p.window)] = p.class;
            }
        }
        for p in engine.finish(SimTime(now + TICK_NS))? {
            round.classes[index_of(p.tenant, p.window)] = p.class;
        }
        Ok(round)
    }

    /// One round of `leg` on a fresh engine; the engine and the requests
    /// are built outside the timed region. Counts failures and checks
    /// the engine's own accounting.
    fn round(
        &self,
        leg: &Leg,
        tracer: &mut Tracer,
        rec: &mut Recorder,
        segments: &mut Vec<f64>,
    ) -> Result<Round, QiError> {
        let n = self.stream.len() as u64;
        let mut engine = self.engine(leg.max_batch)?;
        let requests = self.requests();
        let per_request = tracer.enabled() && leg.max_batch == 1;
        let (round, dt) = timed(tracer, "serve.submit", segments, || {
            Self::drive(&mut engine, requests, per_request)
        });
        let round = round?;
        let wrong = round
            .classes
            .iter()
            .zip(&self.stream)
            .filter(|(got, (_, want))| *got != want)
            .count() as u64;
        rec.ops(n, wrong.max(round.shed + round.stale));
        rec.check(wrong == 0, || {
            format!("{wrong} of {n} requests answered otherwise than TrainedModel::predict")
        });
        let snap = engine.metrics_snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        rec.check(
            count("serve.requests")
                == count("serve.answered") + count("serve.stale") + count("serve.shed"),
            || "serve.requests != answered + stale + shed".to_string(),
        );
        if tracer.enabled() {
            rec.add("serve.requests_per_pass", count("serve.requests") as f64);
            rec.add("serve.answered_per_pass", count("serve.answered") as f64);
            rec.add("serve.shed_per_pass", count("serve.shed") as f64);
            rec.add("serve.stale_per_pass", count("serve.stale") as f64);
            rec.add("serve.batches_per_pass", count("serve.batches") as f64);
            rec.sample(leg.submit_ns_per_req, dt * 1e9 / n as f64);
            if leg.max_batch > 1 {
                rec.sample(
                    "serve.batch_size_mean",
                    snap.stats("serve.batch_size").map_or(0.0, |s| s.mean()),
                );
            }
            if per_request {
                rec.sample("serve.latency.p50_us", median(&round.latencies_us));
                if let Some(t) = tail(&round.latencies_us) {
                    rec.sample("serve.latency.tail_us", t.value);
                    rec.set("serve.latency.tail_percentile", t.percentile);
                    rec.set("serve.latency.samples", t.samples as f64);
                }
            }
        }
        Ok(round)
    }

    /// Every leg once. A leg that errors counts as every request
    /// failing. Returns the pass and the classes each leg answered.
    fn rounds(&self, tracer: &mut Tracer, rec: &mut Recorder) -> (Pass, Vec<Vec<usize>>) {
        let mut out = Pass::default();
        let mut classes = Vec::new();
        for leg in &LEGS {
            match self.round(leg, tracer, rec, &mut out.segments) {
                Ok(round) => {
                    out.work += self.stream.len() as f64;
                    classes.push(round.classes);
                }
                Err(e) => {
                    rec.ops(self.stream.len() as u64, self.stream.len() as u64);
                    rec.check(false, || e.to_string());
                }
            }
        }
        (out, classes)
    }

    /// Two `ShardWorker`s on two threads against the same two driven
    /// one after the other: what the shard split buys on real cores.
    fn workers2_speedup(&self) -> Result<f64, QiError> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(SHARDS)
            .build()
            .map_err(|e| QiError::Serve(e.to_string()))?;
        let mut elapsed = [Vec::new(), Vec::new()];
        for rep in 0..6 {
            let parallel = rep % 2 == 1;
            let mut engine = self.engine(LEGS[0].max_batch)?;
            let mut per_shard = vec![Vec::new(); SHARDS];
            for (i, req) in self.requests().into_iter().enumerate() {
                let shard = engine.shard_of(req.tenant).expect("tenant is configured");
                per_shard[shard].push((i as u64 + 1, req));
            }
            let mut workers = engine.workers();
            let t0 = Instant::now();
            let drive = |w: &mut qi_serve::ShardWorker<'_>| {
                let mut answered = 0;
                for (i, req) in &per_shard[w.index()] {
                    answered += w
                        .submit(SimTime(i * TICK_NS), req.clone())
                        .map_or(0, |(_, done)| done.len());
                }
                answered + w.finish(SimTime(u64::MAX / 2)).map_or(0, |done| done.len())
            };
            let answered: usize = if parallel {
                pool.install(|| workers.par_iter_mut().map(drive).collect::<Vec<_>>())
                    .into_iter()
                    .sum()
            } else {
                workers.iter_mut().map(drive).sum()
            };
            elapsed[usize::from(parallel)].push(t0.elapsed().as_secs_f64());
            if answered != self.stream.len() {
                return Err(QiError::Serve(format!(
                    "workers answered {answered} of {}",
                    self.stream.len()
                )));
            }
        }
        Ok(median(&elapsed[0]) / median(&elapsed[1]))
    }
}

impl Workload for Serve {
    fn check(&mut self, _env: &Env, tracer: &mut Tracer, rec: &mut Recorder) -> u64 {
        let (_, classes) = self.rounds(&mut Tracer::new(false), rec);
        if tracer.enabled() {
            match self.workers2_speedup() {
                Ok(x) => rec.set("serve.workers2.speedup", x),
                Err(e) => rec.check(false, || format!("two-worker drive: {e}")),
            }
        }
        digest::fold(classes.into_iter().flatten().map(|c| c as u64))
    }

    fn pass(&mut self, _env: &Env, tracer: &mut Tracer, rec: &mut Recorder) -> Pass {
        self.rounds(tracer, rec).0
    }
}
