//! The workloads. Each is a closed loop: a caller runs a pass over a
//! fixed list of inputs made from the seed, and starts the next pass
//! when the previous one has finished. Every workload runs on one
//! thread per caller; what two threads buy is a per-layer question the
//! traced run answers.

use quanterference::prelude::*;

use crate::recorder::Recorder;
use crate::trace::Tracer;

mod grid;
mod paper_grid;
mod serve;
mod sim;
mod train_fit;

/// Input sizes. `Smoke` exists for the package's own tests: results
/// carry the scale, and `compare` refuses to mix the two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// What a workload is given: the seed its inputs derive from, and the
/// caller's one-thread pool every measured call into the library runs
/// on.
pub struct Env {
    pub seed: u64,
    pub scale: Scale,
    pub pool: rayon::ThreadPool,
}

/// One measured pass: seconds spent inside each timed region, in call
/// order, and the work done in them, in the workload's own unit. Every
/// pass of a workload times the same regions in the same order, so the
/// run can compare region `j` of one pass with region `j` of another.
#[derive(Default)]
pub struct Pass {
    pub segments: Vec<f64>,
    pub work: f64,
}

impl Pass {
    pub fn timed_s(&self) -> f64 {
        self.segments.iter().sum()
    }
}

/// A 2-thread pool, for the traced run's questions about what a second
/// thread buys. The traced run has one caller, so the second hardware
/// thread is free for it.
pub fn two_thread_pool() -> Result<rayon::ThreadPool, QiError> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .map_err(|e| QiError::Serve(format!("2-thread pool: {e}")))
}

pub trait Workload {
    /// A first pass with every output checked (digests, invariants,
    /// agreement with a reference path). Returns the digest of what the
    /// pass produced; it also warms caches and lazy set-up.
    fn check(&mut self, env: &Env, tracer: &mut Tracer, rec: &mut Recorder) -> u64;

    /// One measured pass over the same inputs. Must reproduce what
    /// `check` saw (cheaply verified), and records per-layer samples
    /// when `tracer` is on.
    fn pass(&mut self, env: &Env, tracer: &mut Tracer, rec: &mut Recorder) -> Pass;
}

pub struct Spec {
    pub name: &'static str,
    /// The unit `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    pub why: &'static str,
    pub setup: fn(&Env) -> Result<Box<dyn Workload + Send>, QiError>,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "paper_grid",
        work_unit: "scenario runs",
        why: "The whole paper chain: IO500 grid, label, train, evaluate, QIMODEL round trip, served replay, guided re-run. Cluster::run dominates, which caps what any other layer can move.",
        setup: paper_grid::setup,
    },
    Spec {
        name: "sim_big",
        work_unit: "simulator events",
        why: "Six interference pairs on 32 OSS x 2 OST, one shard, no ML: event queue, disk/net/MDS models and op routing only. Per-event cost spans 3x across access patterns.",
        setup: sim::setup_one_shard,
    },
    Spec {
        name: "sim_big_sharded",
        work_unit: "simulator events",
        why: "The same six inputs at sim_shards = 2 on one thread: what the epoch driver, mailbox and barrier cost over the sequential path. A driver change must gain here without costing sim_big.",
        setup: sim::setup_two_shards,
    },
    Spec {
        name: "train_fit",
        work_unit: "sample-epochs",
        why: "Two fits on a grid built in set-up: default widths stay under the pooled matmul threshold, wide ones cross it. Matmul, backward and Adam only; the simulator is idle.",
        setup: train_fit::setup,
    },
    Spec {
        name: "serve_stream",
        work_unit: "predictions",
        why: "50 000 real feature blocks over 8 tenants through ShardedServeEngine, once at max_batch 32 (fused inference, kernel throughput) and once at 1 (batching bypassed, dispatch overhead).",
        setup: serve::setup,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}
