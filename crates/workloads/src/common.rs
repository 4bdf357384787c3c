//! Workload plumbing: script programs, the [`Workload`] trait, looping
//! interference instances, and cluster deployment.
//!
//! Every workload is described by a type implementing [`Workload`]; it
//! pre-generates a deterministic per-rank *script* (a list of ops and
//! compute gaps). Scripts depend only on `(namespace, rank, seed)`, never
//! on simulated timing, which keeps the op sequence identical between
//! baseline and interfered runs — the property the paper's labelling
//! relies on.

use std::sync::Arc;

use qi_pfs::cluster::Cluster;
use qi_pfs::config::{ClusterConfig, StripeConfig};
use qi_pfs::ids::{AppId, DeviceId, FileKey, NodeId};
use qi_pfs::ops::{IoOp, ProgramStep, RankProgram};
use qi_simkit::time::{SimDuration, SimTime};

/// One step of a pre-generated rank script.
#[derive(Clone, Debug)]
pub enum ScriptStep {
    /// Issue an I/O operation.
    Op(IoOp),
    /// Compute (no I/O) for this long.
    Compute(SimDuration),
}

/// A rank program that replays a fixed script then finishes.
#[derive(Clone)]
pub struct ScriptProgram {
    steps: Vec<ScriptStep>,
    i: usize,
}

impl ScriptProgram {
    /// Program replaying `steps`.
    pub fn new(steps: Vec<ScriptStep>) -> Self {
        ScriptProgram { steps, i: 0 }
    }

    /// Number of steps in the script.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the script is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl RankProgram for ScriptProgram {
    fn next(&mut self, _now: SimTime) -> ProgramStep {
        match self.steps.get(self.i) {
            Some(step) => {
                self.i += 1;
                match step.clone() {
                    ScriptStep::Op(op) => ProgramStep::Op(op),
                    ScriptStep::Compute(d) => ProgramStep::Compute(d),
                }
            }
            None => ProgramStep::Finished,
        }
    }

    fn boxed_copy(&self) -> Box<dyn RankProgram> {
        Box::new(self.clone())
    }
}

/// Where a precreated file's data lives.
#[derive(Clone, Debug, PartialEq)]
pub enum Placement {
    /// Round-robin OST assignment with an optional stripe override.
    RoundRobin(Option<StripeConfig>),
    /// `count` consecutive OSTs from `first`, wrapping at the OST count.
    Explicit {
        /// Stripe unit in bytes.
        stripe_size: u64,
        /// OST of stripe 0.
        first: DeviceId,
        /// Stripe count.
        count: u32,
    },
}

/// A file that must exist (with data) before the workload starts.
#[derive(Clone, Debug, PartialEq)]
pub struct PrecreateFile {
    /// File identity (within the workload's namespace).
    pub file: FileKey,
    /// Logical length in bytes.
    pub len: u64,
    /// Data placement.
    pub placement: Placement,
}

/// A deployable workload: precreated input files plus one script per rank.
pub trait Workload: Send + Sync {
    /// Human-readable workload name (used in tables and app names).
    fn name(&self) -> String;

    /// Files that must exist before the run (e.g. read benchmarks' input).
    fn precreate(&self, ns: AppId, ranks: u32, cfg: &ClusterConfig) -> Vec<PrecreateFile> {
        let _ = (ns, ranks, cfg);
        Vec::new()
    }

    /// Build rank `rank`'s script. Must be deterministic in
    /// `(ns, rank, ranks, seed)` and independent of simulated time.
    fn script(
        &self,
        ns: AppId,
        rank: u32,
        ranks: u32,
        seed: u64,
        cfg: &ClusterConfig,
    ) -> Vec<ScriptStep>;
}

/// A rank program that replays a workload's script forever, regenerating
/// it (with a varied seed) each time it drains — this is how background
/// interference instances are "kept active for the entirety" of a run, as
/// in the paper's Table I methodology.
#[derive(Clone)]
pub struct LoopingProgram {
    workload: Arc<dyn Workload>,
    ns: AppId,
    rank: u32,
    ranks: u32,
    seed: u64,
    cfg: ClusterConfig,
    iter: u64,
    cur: ScriptProgram,
}

impl LoopingProgram {
    /// Looping replay of `workload`'s rank script.
    pub fn new(
        workload: Arc<dyn Workload>,
        ns: AppId,
        rank: u32,
        ranks: u32,
        seed: u64,
        cfg: ClusterConfig,
    ) -> Self {
        let cur = ScriptProgram::new(workload.script(ns, rank, ranks, seed, &cfg));
        LoopingProgram {
            workload,
            ns,
            rank,
            ranks,
            seed,
            cfg,
            iter: 0,
            cur,
        }
    }
}

impl RankProgram for LoopingProgram {
    fn next(&mut self, now: SimTime) -> ProgramStep {
        match self.cur.next(now) {
            ProgramStep::Finished => {
                self.iter += 1;
                let seed = self.seed.wrapping_add(self.iter.wrapping_mul(0x9E37_79B9));
                self.cur = ScriptProgram::new(
                    self.workload
                        .script(self.ns, self.rank, self.ranks, seed, &self.cfg),
                );
                match self.cur.next(now) {
                    // Guard against an empty script looping at zero cost.
                    ProgramStep::Finished => ProgramStep::Compute(SimDuration::from_millis(100)),
                    step => step,
                }
            }
            step => step,
        }
    }

    fn boxed_copy(&self) -> Box<dyn RankProgram> {
        Box::new(self.clone())
    }
}

/// A program that computes for `delay` before running its inner program.
/// Used to let interference reach steady state (caches filled, queues
/// deep) before a measured target starts — the paper's Table I keeps
/// interference "active for the entirety" of the measured runs.
#[derive(Clone)]
pub struct DelayedProgram {
    delay: Option<SimDuration>,
    inner: Box<dyn RankProgram>,
}

impl DelayedProgram {
    /// Delay `inner` by `delay`.
    pub fn new(delay: SimDuration, inner: Box<dyn RankProgram>) -> Self {
        DelayedProgram {
            delay: Some(delay),
            inner,
        }
    }
}

impl RankProgram for DelayedProgram {
    fn next(&mut self, now: SimTime) -> ProgramStep {
        match self.delay.take() {
            Some(d) if d > SimDuration::ZERO => ProgramStep::Compute(d),
            _ => self.inner.next(now),
        }
    }

    fn boxed_copy(&self) -> Box<dyn RankProgram> {
        Box::new(self.clone())
    }
}

/// Install a workload on the cluster: precreate its inputs and register
/// its ranks as an application on `nodes`. When `looping` is set the
/// ranks replay their scripts forever (interference mode); otherwise the
/// application finishes after one pass (target mode). `start_delay`
/// holds every rank in compute before its first operation.
///
/// Mitigation is NOT deployed here: rate limiting is a server-side
/// actuator applied through
/// `qi_pfs::cluster::Cluster::apply_directive` (normally by an installed
/// `qi-control` control loop), so workload programs stay
/// timing-independent.
#[allow(clippy::too_many_arguments)]
pub fn deploy_delayed(
    cl: &mut Cluster,
    workload: &Arc<dyn Workload>,
    ranks: u32,
    nodes: &[NodeId],
    seed: u64,
    looping: bool,
    start_delay: SimDuration,
) -> AppId {
    assert!(ranks > 0);
    let ns = cl.next_app_id();
    let cfg = cl.config().clone();
    for pf in workload.precreate(ns, ranks, &cfg) {
        match pf.placement {
            Placement::RoundRobin(stripe) => cl.precreate_file(pf.file, pf.len, stripe),
            Placement::Explicit {
                stripe_size,
                first,
                count,
            } => cl.precreate_file_on(pf.file, pf.len, stripe_size, first, count),
        }
    }
    let programs = rank_programs(workload, ns, ranks, seed, looping, start_delay, &cfg);
    let app = cl.add_app(&workload.name(), programs, nodes);
    debug_assert_eq!(app, ns, "namespace/app id mismatch");
    app
}

/// The rank programs [`deploy_delayed`] registers for `workload` in
/// namespace `ns`, one per rank.
pub fn rank_programs(
    workload: &Arc<dyn Workload>,
    ns: AppId,
    ranks: u32,
    seed: u64,
    looping: bool,
    start_delay: SimDuration,
    cfg: &ClusterConfig,
) -> Vec<Box<dyn RankProgram>> {
    (0..ranks)
        .map(|r| -> Box<dyn RankProgram> {
            let inner: Box<dyn RankProgram> = if looping {
                Box::new(LoopingProgram::new(
                    Arc::clone(workload),
                    ns,
                    r,
                    ranks,
                    seed,
                    cfg.clone(),
                ))
            } else {
                Box::new(ScriptProgram::new(workload.script(ns, r, ranks, seed, cfg)))
            };
            if start_delay > SimDuration::ZERO {
                Box::new(DelayedProgram::new(start_delay, inner))
            } else {
                inner
            }
        })
        .collect()
}

/// [`deploy_delayed`] with no start delay.
pub fn deploy(
    cl: &mut Cluster,
    workload: &Arc<dyn Workload>,
    ranks: u32,
    nodes: &[NodeId],
    seed: u64,
    looping: bool,
) -> AppId {
    deploy_delayed(cl, workload, ranks, nodes, seed, looping, SimDuration::ZERO)
}

/// File key helper within a namespace.
pub fn nsfile(ns: AppId, num: u64) -> FileKey {
    FileKey { app: ns, num }
}

/// Directory key helper within a namespace.
pub fn nsdir(ns: AppId, num: u64) -> qi_pfs::ids::DirKey {
    qi_pfs::ids::DirKey { app: ns, num }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TwoWrites;
    impl Workload for TwoWrites {
        fn name(&self) -> String {
            "two-writes".into()
        }
        fn script(
            &self,
            ns: AppId,
            rank: u32,
            _ranks: u32,
            _seed: u64,
            _cfg: &ClusterConfig,
        ) -> Vec<ScriptStep> {
            (0..2)
                .map(|i| {
                    ScriptStep::Op(IoOp::Write {
                        file: nsfile(ns, rank as u64),
                        offset: i * 4096,
                        len: 4096,
                    })
                })
                .collect()
        }
    }

    #[test]
    fn script_program_replays_then_finishes() {
        let mut p = ScriptProgram::new(vec![
            ScriptStep::Compute(SimDuration::from_millis(1)),
            ScriptStep::Op(IoOp::Stat {
                file: nsfile(AppId(0), 0),
            }),
        ]);
        assert!(matches!(p.next(SimTime::ZERO), ProgramStep::Compute(_)));
        assert!(matches!(p.next(SimTime::ZERO), ProgramStep::Op(_)));
        assert!(matches!(p.next(SimTime::ZERO), ProgramStep::Finished));
        assert!(matches!(p.next(SimTime::ZERO), ProgramStep::Finished));
    }

    #[test]
    fn looping_program_regenerates() {
        let w: Arc<dyn Workload> = Arc::new(TwoWrites);
        let cfg = ClusterConfig::small();
        let mut p = LoopingProgram::new(Arc::clone(&w), AppId(0), 0, 1, 1, cfg);
        // 2 ops, then the loop regenerates: never Finished.
        for _ in 0..10 {
            assert!(matches!(p.next(SimTime::ZERO), ProgramStep::Op(_)));
        }
    }

    #[test]
    fn deploy_runs_target_to_completion() {
        let mut cl = Cluster::builder()
            .config(ClusterConfig::small())
            .seed(5)
            .build()
            .expect("valid test cluster");
        let w: Arc<dyn Workload> = Arc::new(TwoWrites);
        let nodes = cl.client_nodes();
        let app = deploy(&mut cl, &w, 2, &nodes[..2], 7, false);
        let trace = cl.run_until_app(app, SimTime::from_secs(10));
        assert!(trace.completion_of(app).is_some());
        assert_eq!(trace.ops.len(), 4); // 2 ranks × 2 writes
    }

    #[test]
    fn deploy_looping_never_completes() {
        let mut cl = Cluster::builder()
            .config(ClusterConfig::small())
            .seed(5)
            .build()
            .expect("valid test cluster");
        let w: Arc<dyn Workload> = Arc::new(TwoWrites);
        let nodes = cl.client_nodes();
        let app = deploy(&mut cl, &w, 1, &nodes[..1], 7, true);
        let trace = cl.run(SimTime::from_millis(500));
        assert!(trace.completion_of(app).is_none());
        assert!(trace.ops.len() > 4, "looping app kept issuing ops");
    }
}
