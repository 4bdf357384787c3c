//! Layer probes of the traced run: small fixed kernels timed from
//! outside, the same on every workload, so a layer's own number exists
//! even where no workload isolates it. Each reports a median of
//! repeats and takes well under a second.

use std::hint::black_box;
use std::time::Instant;

use qi_ml::{train, Dataset, InferScratch, Matrix, TrainConfig};
use qi_pfs::cluster::Cluster;
use qi_pfs::config::ClusterConfig;
use qi_simkit::{EventQueue, SimDuration, SimTime};
use rayon::prelude::*;

use crate::recorder::Recorder;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Scale;

/// xorshift64*: a dependency-free, seed-stable source for probe inputs.
pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [-1, 1).
    pub fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

fn median_of<const N: usize>(mut f: impl FnMut() -> f64) -> f64 {
    let samples: [f64; N] = std::array::from_fn(|_| f());
    median(&samples)
}

/// The hold model on the default queue: pop the earliest event, push a
/// replacement, at the pending depth of a 32-OSS cluster (64 x 97) and
/// with the cluster's mix of horizons (70% RPC/CPU at 1-100 us, 25%
/// disk at 0.1-10 ms, 5% sampler timers near 1 s).
fn queue_hold_ns_per_op(steps: usize) -> f64 {
    const PENDING: usize = 64 * 97;
    let mut rng = XorShift(0x51);
    let mut delta = move || {
        let (pick, spread) = (rng.next() % 100, rng.next());
        SimDuration::from_nanos(match pick {
            0..=69 => 1_000 + spread % 99_000,
            70..=94 => 100_000 + spread % 9_900_000,
            _ => 900_000_000 + spread % 200_000_000,
        })
    };
    let mut q: EventQueue<[u64; 4]> = EventQueue::new();
    for i in 0..PENDING {
        q.schedule(SimTime::ZERO + delta(), [i as u64; 4]);
    }
    median_of::<5>(|| {
        let t0 = Instant::now();
        for _ in 0..steps {
            let (_, ev) = q.pop().expect("the hold model never drains");
            let at = q.now() + delta();
            q.schedule(at, ev);
        }
        t0.elapsed().as_nanos() as f64 / steps as f64
    })
}

fn cluster_build_us() -> f64 {
    median_of::<50>(|| {
        let t0 = Instant::now();
        let cluster = Cluster::builder()
            .config(ClusterConfig::default())
            .seed(1)
            .build();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        black_box(cluster.is_ok());
        us
    })
}

/// Square `Matrix::matmul` at its default dispatch; computed as 2n^3
/// flops over the median time.
fn matmul_gflops(n: usize) -> f64 {
    let mut rng = XorShift(n as u64 | 1);
    let mut dense = || Matrix::from_vec(n, n, (0..n * n).map(|_| rng.unit()).collect());
    let (a, b) = (dense(), dense());
    let s = median_of::<7>(|| {
        let t0 = Instant::now();
        black_box(black_box(&a).matmul(black_box(&b)));
        t0.elapsed().as_secs_f64()
    });
    2.0 * (n as f64).powi(3) / s / 1e9
}

/// Serving shape of the small cluster: 5 server blocks of 42 features.
const SERVERS: usize = 5;
const FEATS: usize = 42;

/// `predict_batch_into` with no engine around it, per sample.
fn infer_ns_per_sample(batch: usize, calls: usize) -> f64 {
    let mut rng = XorShift(42);
    let mut block = |positive: bool| -> Vec<f32> {
        (0..SERVERS * FEATS)
            .map(|_| rng.unit() + if positive { 1.5 } else { -1.5 })
            .collect()
    };
    let samples: Vec<Vec<f32>> = (0..240).map(|i| block(i % 2 == 0)).collect();
    let labels = (0..240).map(|i| usize::from(i % 2 == 0)).collect();
    let model = train(
        &Dataset::from_samples(samples.clone(), labels, SERVERS),
        &TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        },
    );
    let stacked: Vec<f32> = samples[..batch].concat();
    let (mut scratch, mut out) = (InferScratch::new(), Vec::new());
    median_of::<7>(|| {
        let t0 = Instant::now();
        for _ in 0..calls {
            model.predict_batch_into(black_box(&stacked), batch, &mut scratch, &mut out);
            black_box(&out);
        }
        t0.elapsed().as_nanos() as f64 / (calls * batch) as f64
    })
}

/// An empty fork-join on a 2-thread pool: what every parallel region of
/// the vendored pool pays before doing any work.
fn rayon_us(regions: usize, region: impl Fn()) -> f64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("2-thread pool");
    let samples: Vec<f64> = (0..regions)
        .map(|_| {
            let t0 = Instant::now();
            pool.install(&region);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

fn span_ns(spans: usize) -> f64 {
    let mut tracer = Tracer::new(true);
    let t0 = Instant::now();
    for _ in 0..spans {
        tracer.span("bench.probe", |_| black_box(()));
    }
    t0.elapsed().as_nanos() as f64 / spans as f64
}

pub fn run(scale: Scale, rec: &mut Recorder) {
    // Smoke scale only shows that every probe runs; its sizes are far
    // too small to time anything.
    let (repeats, small, large) = match scale {
        Scale::Full => (1_000, 192, 512),
        Scale::Smoke => (10, 8, 16),
    };
    rec.set(
        "simkit.queue.hold_ns_per_op",
        queue_hold_ns_per_op(500 * repeats),
    );
    rec.set("pfs.build.us_per_cluster", cluster_build_us());
    rec.set("ml.matmul.gflops.n192", matmul_gflops(small));
    rec.set("ml.matmul.gflops.n512", matmul_gflops(large));
    rec.set(
        "ml.infer.ns_per_sample.batch1",
        infer_ns_per_sample(1, 2 * repeats),
    );
    rec.set(
        "ml.infer.ns_per_sample.batch32",
        infer_ns_per_sample(32, 2 * repeats),
    );
    rec.set(
        "rayon.join_us",
        rayon_us(repeats, || {
            rayon::join(|| (), || ());
        }),
    );
    rec.set(
        "rayon.par_iter_us.n2",
        rayon_us(repeats, || [0u8; 2].par_iter().for_each(|_| ())),
    );
    rec.set("bench.trace.span_ns", span_ns(100 * repeats));
}
