//! Scenario construction and execution: a *target* workload measured
//! alone (baseline) or together with looping *interference* workloads on
//! disjoint client nodes — the paper's data-collection methodology
//! (§III-D: "interference workloads always run on separate nodes from
//! the original application").

use qi_faults::FaultPlan;
use qi_pfs::cluster::{Cluster, ClusterBuilder};
use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::{AppId, NodeId};
use qi_pfs::ops::RunTrace;
use qi_simkit::error::QiError;
use qi_simkit::time::{SimDuration, SimTime};
use qi_workloads::common::{deploy_delayed, rank_programs, PrecreateFile};
use qi_workloads::registry::WorkloadKind;

/// The target's [`AppId`]: a scenario deploys it first.
pub const TARGET: AppId = AppId(0);

/// One interference source: `instances` concurrent looping copies of a
/// workload, each with `ranks` ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterferenceSpec {
    /// Which workload produces the background noise.
    pub kind: WorkloadKind,
    /// Concurrent instances kept active (the paper keeps 3).
    pub instances: u32,
    /// Ranks per instance.
    pub ranks: u32,
}

/// A complete experiment scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The measured application.
    pub target: WorkloadKind,
    /// Ranks of the target application.
    pub target_ranks: u32,
    /// Background noise (empty = baseline).
    pub interference: Vec<InterferenceSpec>,
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Base seed: controls workload scripts and MDS randomness.
    pub seed: u64,
    /// Safety stop if the target never completes (measured after warmup).
    pub deadline: SimDuration,
    /// Use the reduced-scale workload variants (tests/CI).
    pub small: bool,
    /// How long interference runs before the target starts, letting the
    /// system reach steady state (caches filled, queues deep) — Table I
    /// keeps background noise active for the entirety of measured runs.
    pub warmup: SimDuration,
    /// Optional fault plan injected into the cluster (degraded servers,
    /// lossy links, …). `None` = healthy hardware. The baseline variant
    /// strips it, so degradation labels measure the faulted run against
    /// healthy hardware.
    pub fault_plan: Option<FaultPlan>,
}

impl Scenario {
    /// A baseline scenario (no interference) at default scale.
    pub fn baseline(target: WorkloadKind, seed: u64) -> Self {
        Scenario {
            target,
            target_ranks: 4,
            interference: Vec::new(),
            cluster: ClusterConfig::default(),
            seed,
            deadline: SimDuration::from_secs(600),
            small: false,
            warmup: SimDuration::from_secs(6),
            fault_plan: None,
        }
    }

    /// Same scenario with interference added.
    pub fn with_interference(mut self, spec: InterferenceSpec) -> Self {
        self.interference.push(spec);
        self
    }

    /// Same scenario with a fault plan injected.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The baseline variant of this scenario (interference and faults
    /// stripped: the reference execution is alone on healthy hardware).
    pub fn as_baseline(&self) -> Scenario {
        Scenario {
            interference: Vec::new(),
            fault_plan: None,
            ..self.clone()
        }
    }

    /// Client nodes reserved for the target (the first half).
    pub fn target_nodes(&self) -> Vec<NodeId> {
        let c = self.cluster.client_nodes;
        let take = (c / 2).max(1);
        (0..take).map(NodeId).collect()
    }

    /// Client nodes reserved for interference (the second half).
    pub fn noise_nodes(&self) -> Vec<NodeId> {
        let c = self.cluster.client_nodes;
        let take = (c / 2).max(1);
        (take.min(c - 1)..c).map(NodeId).collect()
    }

    fn build_workload(&self, kind: WorkloadKind) -> std::sync::Arc<dyn qi_workloads::Workload> {
        if self.small {
            kind.build_small()
        } else {
            kind.build()
        }
    }

    /// How long the noise runs alone: [`Scenario::warmup`], or nothing
    /// when there is no noise.
    fn warmup_len(&self) -> SimDuration {
        if self.interference.is_empty() {
            SimDuration::ZERO
        } else {
            self.warmup
        }
    }

    /// The files the target preloads. With the noise, the seed, the
    /// fault plan and the rest of the configuration they fix the
    /// cluster's state at the end of the warm-up: until then the
    /// target's ranks only wait, so scenarios that differ only in
    /// targets with equal preloads can finish from one warm-up
    /// ([`WarmedUp::finish_as`]).
    pub fn target_preloads(&self) -> Vec<PrecreateFile> {
        self.build_workload(self.target)
            .precreate(TARGET, self.target_ranks, &self.cluster)
    }

    /// Execute the scenario. Returns the target's [`AppId`] and the trace.
    ///
    /// The run stops when the target completes (or at the deadline).
    /// Fails if the cluster configuration or fault plan is invalid, or
    /// if the scenario has noise but only one client node, which the
    /// target and the noise would have to share.
    pub fn run(&self) -> Result<(AppId, RunTrace), QiError> {
        self.run_with(|_| {})
    }

    /// Like [`Scenario::run`], but lets the caller adjust the freshly
    /// built cluster (e.g. install a controller) after the
    /// applications are deployed and before the event loop starts.
    pub fn run_with(
        &self,
        prepare: impl FnOnce(&mut Cluster),
    ) -> Result<(AppId, RunTrace), QiError> {
        Ok(self.warm_up(Cluster::builder(), prepare)?.finish(self))
    }

    /// Build the cluster from `builder` with this scenario's
    /// configuration, seed and fault plan, deploy the target and the
    /// noise, let `prepare` adjust it, and run the noise alone through
    /// the warm-up: every event before the target's first step.
    pub fn warm_up(
        &self,
        builder: ClusterBuilder,
        prepare: impl FnOnce(&mut Cluster),
    ) -> Result<WarmedUp, QiError> {
        if !self.interference.is_empty() && self.cluster.client_nodes < 2 {
            return Err(QiError::Config(format!(
                "interference runs on other nodes than the target, but the cluster has {} client node(s)",
                self.cluster.client_nodes
            )));
        }
        let mut builder = builder.config(self.cluster.clone()).seed(self.seed);
        if let Some(plan) = &self.fault_plan {
            builder = builder.fault_plan(plan.clone());
        }
        let mut cl = builder.build()?;
        let target_nodes = self.target_nodes();
        let noise_nodes = self.noise_nodes();
        let target_w = self.build_workload(self.target);
        let warmup = self.warmup_len();
        let target = deploy_delayed(
            &mut cl,
            &target_w,
            self.target_ranks,
            &target_nodes,
            self.seed,
            false,
            warmup,
        );
        debug_assert_eq!(target, TARGET);
        // Spread interference instances over the noise nodes, one node
        // offset per instance so they don't all share a NIC.
        let mut salt = 1u64;
        for spec in &self.interference {
            let w = self.build_workload(spec.kind);
            for inst in 0..spec.instances {
                let mut nodes = Vec::with_capacity(noise_nodes.len());
                for i in 0..noise_nodes.len() {
                    nodes.push(noise_nodes[(inst as usize + i) % noise_nodes.len()]);
                }
                deploy_delayed(
                    &mut cl,
                    &w,
                    spec.ranks,
                    &nodes,
                    self.seed ^ (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    true,
                    SimDuration::ZERO,
                );
                salt += 1;
            }
        }
        prepare(&mut cl);
        cl.run_before(SimTime::ZERO + warmup);
        Ok(WarmedUp { cluster: cl })
    }

    /// Execute the baseline variant.
    pub fn run_baseline(&self) -> Result<(AppId, RunTrace), QiError> {
        self.as_baseline().run()
    }
}

/// A scenario's cluster run through its warm-up ([`Scenario::warm_up`]):
/// the noise has run alone, and the target's ranks wait for their first
/// step.
pub struct WarmedUp {
    cluster: Cluster,
}

impl WarmedUp {
    /// A copy, to finish another scenario from the same warm-up. Fails
    /// with [`QiError::Control`] if `prepare` installed a controller.
    pub fn try_clone(&self) -> Result<WarmedUp, QiError> {
        Ok(WarmedUp {
            cluster: self.cluster.try_clone()?,
        })
    }

    /// Run on until `scenario`'s target completes, or its deadline.
    fn finish(self, scenario: &Scenario) -> (AppId, RunTrace) {
        let deadline = SimTime::ZERO + scenario.warmup_len() + scenario.deadline;
        (TARGET, self.cluster.run_until_app(TARGET, deadline))
    }

    /// Finish as `scenario`, which differs from the warmed-up one at
    /// most in a target with the same [`Scenario::target_preloads`]:
    /// its target's programs take over the waiting ranks. The result
    /// equals `scenario.run()`.
    pub fn finish_as(mut self, scenario: &Scenario) -> Result<(AppId, RunTrace), QiError> {
        let w = scenario.build_workload(scenario.target);
        let programs = rank_programs(
            &w,
            TARGET,
            scenario.target_ranks,
            scenario.seed,
            false,
            SimDuration::ZERO,
            &scenario.cluster,
        );
        self.cluster.replace_programs(TARGET, &w.name(), programs)?;
        Ok(self.finish(scenario))
    }
}

/// Wall time the target actually spent working: first op issue to
/// completion. Robust to warmup delays before the target starts.
pub fn target_duration(trace: &RunTrace, target: AppId) -> Option<SimDuration> {
    let done = trace.completion_of(target)?;
    let first = trace.ops_of(target).map(|o| o.issued).min()?;
    Some(done - first)
}

/// Completion-time slowdown of the target under this scenario relative
/// to `baseline` (both must have completed), measured from each run's
/// first target operation so warmup does not dilute the ratio.
pub fn completion_slowdown(
    baseline: &RunTrace,
    interfered: &RunTrace,
    target: AppId,
) -> Option<f64> {
    let b = target_duration(baseline, target)?.as_secs_f64();
    let i = target_duration(interfered, target)?.as_secs_f64();
    if b <= 0.0 {
        return None;
    }
    Some(i / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(target: WorkloadKind, seed: u64) -> Scenario {
        Scenario {
            cluster: ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            deadline: SimDuration::from_secs(900),
            ..Scenario::baseline(target, seed)
        }
    }

    #[test]
    fn node_sets_are_disjoint() {
        let s = Scenario::baseline(WorkloadKind::IorEasyRead, 1);
        let t = s.target_nodes();
        let n = s.noise_nodes();
        assert!(!t.is_empty() && !n.is_empty());
        for node in &t {
            assert!(!n.contains(node), "node {node:?} shared");
        }
        assert_eq!(t.len() + n.len(), s.cluster.client_nodes as usize);
    }

    #[test]
    fn interference_needs_a_client_node_of_its_own() {
        let mut s = small(WorkloadKind::IorEasyWrite, 3);
        s.cluster.client_nodes = 1;
        assert_eq!(s.target_nodes(), s.noise_nodes(), "one node for both");
        let (app, alone) = s.run().expect("a baseline needs one node");
        assert!(alone.completion_of(app).is_some());
        let noisy = s.with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyRead,
            instances: 1,
            ranks: 1,
        });
        let shared = noisy.run().map(|(app, _)| app);
        assert!(matches!(shared, Err(QiError::Config(_))), "{shared:?}");
    }

    #[test]
    fn baseline_completes_and_matches_rerun() {
        let s = small(WorkloadKind::IorEasyRead, 3);
        let (app, a) = s.run_baseline().expect("baseline runs");
        let (_, b) = s.run_baseline().expect("baseline runs");
        assert!(a.completion_of(app).is_some());
        assert_eq!(a.completion_of(app), b.completion_of(app));
        assert_eq!(a.ops.len(), b.ops.len());
    }

    #[test]
    fn interference_slows_the_target() {
        let s = small(WorkloadKind::IorEasyRead, 5).with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyRead,
            instances: 3,
            ranks: 2,
        });
        let (app, base) = s.run_baseline().expect("baseline runs");
        let (_, noisy) = s.run().expect("interfered run");
        let slow = completion_slowdown(&base, &noisy, app).expect("both completed");
        assert!(slow > 1.3, "read-vs-read slowdown only {slow:.2}x");
    }

    #[test]
    fn op_sequences_match_between_baseline_and_interfered() {
        let s = small(WorkloadKind::MdtHardWrite, 7).with_interference(InterferenceSpec {
            kind: WorkloadKind::IorEasyWrite,
            instances: 2,
            ranks: 2,
        });
        let (app, base) = s.run_baseline().expect("baseline runs");
        let (_, noisy) = s.run().expect("interfered run");
        let base_tokens: Vec<_> = base
            .ops_of(app)
            .map(|o| (o.token, o.kind, o.bytes))
            .collect();
        let mut noisy_tokens: Vec<_> = noisy
            .ops_of(app)
            .map(|o| (o.token, o.kind, o.bytes))
            .collect();
        // Completion order may differ; identity sets must match.
        let mut b = base_tokens.clone();
        b.sort_by_key(|(t, _, _)| (t.rank, t.seq));
        noisy_tokens.sort_by_key(|(t, _, _)| (t.rank, t.seq));
        assert_eq!(b, noisy_tokens);
    }
}
