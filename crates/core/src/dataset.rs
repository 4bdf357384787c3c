//! Training-data generation: run scenario grids, label windows against
//! baselines, and assemble per-server feature vectors into datasets.

use std::collections::HashMap;

use rayon::prelude::*;

use qi_faults::{FaultEvent, FaultPlan};
use qi_ml::data::Dataset;
use qi_monitor::features::{FeatureConfig, Imputation};
use qi_monitor::pipeline::FeaturePipeline;
use qi_monitor::schema::FeatureSchema;
use qi_monitor::window::WindowConfig;
use qi_pfs::cluster::Cluster;
use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::AppId;
use qi_pfs::ops::RunTrace;
use qi_simkit::error::QiError;
use qi_simkit::time::{SimDuration, SimTime};
use qi_workloads::registry::WorkloadKind;

use crate::labeling::{window_degradation, BaselineIndex, Bins};
use crate::scenario::{InterferenceSpec, Scenario, WarmedUp, TARGET};

/// Assemble, for every window in which `target` completed operations or
/// issued RPCs, the flattened per-server feature block
/// (`n_devices × features`).
///
/// This is a thin adapter over the canonical
/// [`FeaturePipeline`]: batch
/// dataset generation and the online serving path drive the same
/// windowing, accumulation, and vector-assembly code, so the two can
/// never drift apart. See [`FeaturePipeline::run_vectors`]. The last
/// parameter can only say [`Imputation::Zero`], which is what the
/// pipeline does; see [`Imputation`] for why it is still here.
pub fn window_vectors_with(
    trace: &RunTrace,
    target: AppId,
    wcfg: WindowConfig,
    fcfg: FeatureConfig,
    n_devices: u32,
    _imputation: Imputation,
) -> HashMap<u64, Vec<f32>> {
    FeaturePipeline::new(wcfg, fcfg, n_devices).run_vectors(trace, target)
}

/// A server-degradation condition swept as a dataset dimension, so
/// Table-I-style grids also cover runs on degraded hardware. Each spec
/// expands to a [`FaultPlan`] sized for the cluster it runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// Healthy hardware (no fault plan).
    Healthy,
    /// Every OST device serves `factor`× slower during the window
    /// `[from_s, from_s + dur_s)` seconds.
    SlowOsts {
        /// Service-time multiplier (≥ 1.0).
        factor: f64,
        /// Window start, seconds into the run.
        from_s: u64,
        /// Window length, seconds.
        dur_s: u64,
    },
    /// One OST device serves `factor`× slower during the window.
    SlowOst {
        /// Degraded device index.
        dev: u32,
        /// Service-time multiplier (≥ 1.0).
        factor: f64,
        /// Window start, seconds into the run.
        from_s: u64,
        /// Window length, seconds.
        dur_s: u64,
    },
}

impl FaultSpec {
    /// Expand to the fault plan for `cluster` (`None` for `Healthy`).
    pub fn plan(&self, cluster: &ClusterConfig) -> Option<FaultPlan> {
        let window = |from_s: u64, dur_s: u64| {
            let from = SimTime::ZERO + SimDuration::from_secs(from_s);
            (from, from + SimDuration::from_secs(dur_s))
        };
        match *self {
            FaultSpec::Healthy => None,
            FaultSpec::SlowOsts {
                factor,
                from_s,
                dur_s,
            } => {
                let (from, until) = window(from_s, dur_s);
                let mut plan = FaultPlan::new();
                for dev in 0..cluster.n_osts() {
                    plan.push(FaultEvent::SlowDisk {
                        dev,
                        factor,
                        from,
                        until,
                    });
                }
                Some(plan)
            }
            FaultSpec::SlowOst {
                dev,
                factor,
                from_s,
                dur_s,
            } => {
                let (from, until) = window(from_s, dur_s);
                Some(FaultPlan::new().with(FaultEvent::SlowDisk {
                    dev,
                    factor,
                    from,
                    until,
                }))
            }
        }
    }
}

/// Where a sample came from (kept alongside the dataset for analysis).
#[derive(Clone, Debug)]
pub struct SampleMeta {
    /// Target workload.
    pub target: WorkloadKind,
    /// Interference source and instance count (`None` = baseline run).
    pub noise: Option<(WorkloadKind, u32)>,
    /// Server-degradation condition the run executed under.
    pub fault: FaultSpec,
    /// Scenario seed.
    pub seed: u64,
    /// Window index within the run.
    pub window: u64,
    /// Raw degradation level before binning.
    pub level: f64,
}

/// A generated dataset plus its provenance.
#[derive(Debug)]
pub struct GeneratedDataset {
    /// Feature/label data ready for `qi_ml::train`.
    pub data: Dataset,
    /// Per-sample provenance, parallel to `data.y`.
    pub meta: Vec<SampleMeta>,
    /// Bin definition used for the labels.
    pub bins: Bins,
    /// The feature layout every sample was assembled under. Stamp this
    /// into trained models (`train_with_schema`) so serving can verify
    /// it is feeding the model vectors of the same shape and meaning.
    pub schema: FeatureSchema,
}

impl GeneratedDataset {
    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.bins.n_classes()];
        for &l in &self.data.y {
            c[l] += 1;
        }
        c
    }

    /// The paper's 80/20 protocol: a seeded shuffle of *windows*
    /// ([`Dataset::split`] with 0.2), returned with the index lists so
    /// `meta` can follow either side. Every experiment and
    /// [`crate::predict::evaluate`] split here and nowhere else.
    pub fn split(&self, seed: u64) -> Split {
        let (train_idx, test_idx) = self.data.split_indices(0.2, seed);
        Split {
            train: self.data.subset(&train_idx),
            test: self.data.subset(&test_idx),
            train_idx,
            test_idx,
        }
    }
}

/// A train/test partition of a [`GeneratedDataset`].
#[derive(Debug)]
pub struct Split {
    /// Training samples.
    pub train: Dataset,
    /// Held-out samples.
    pub test: Dataset,
    /// `train`'s samples as indices into the generated `data` / `meta`.
    pub train_idx: Vec<usize>,
    /// `test`'s samples as indices into the generated `data` / `meta`.
    pub test_idx: Vec<usize>,
}

/// How a simulated grid is harvested into samples: the four
/// [`DatasetSpec`] fields no simulation reads. One pass over a grid can
/// be harvested under any number of views ([`generate_views`]); the
/// spec's own four fields are its default view ([`DatasetSpec::view`]).
#[derive(Clone, Debug)]
pub struct DatasetView {
    /// Monitor window length.
    pub window: WindowConfig,
    /// Feature blocks to include.
    pub features: FeatureConfig,
    /// Label bins.
    pub bins: Bins,
}

/// The scenario grid to run for a dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Target workloads to measure.
    pub targets: Vec<WorkloadKind>,
    /// Interference workload kinds.
    pub noise_kinds: Vec<WorkloadKind>,
    /// Interference intensities (concurrent instances), e.g. `[1, 2, 3]`.
    pub intensities: Vec<u32>,
    /// Seeds; every (target, noise, intensity) combo runs once per seed.
    pub seeds: Vec<u64>,
    /// Ranks of each target application.
    pub target_ranks: u32,
    /// Ranks of each interference instance.
    pub noise_ranks: u32,
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Monitor window length.
    pub window: WindowConfig,
    /// Feature blocks to include.
    pub features: FeatureConfig,
    /// Label bins.
    pub bins: Bins,
    /// Use reduced-scale workloads.
    pub small: bool,
    /// Per-run safety deadline.
    pub deadline: SimDuration,
    /// Also emit the baseline runs' windows (labelled by self-comparison,
    /// i.e. level 1.0 → the lowest bin) as extra negatives.
    pub include_baseline_windows: bool,
    /// Server-degradation conditions; every grid combo runs once per
    /// entry. `[Healthy]` reproduces the fault-free grid exactly.
    pub faults: Vec<FaultSpec>,
    /// How missing feature cells are filled: with zeros (see
    /// [`Imputation`] for why the field is still here).
    pub imputation: Imputation,
}

impl DatasetSpec {
    /// A small, fast spec for tests and examples: a reduced grid that
    /// still yields on the order of a hundred labelled windows.
    pub fn smoke() -> Self {
        DatasetSpec {
            targets: vec![WorkloadKind::IorEasyRead, WorkloadKind::MdtHardWrite],
            noise_kinds: vec![WorkloadKind::IorEasyWrite, WorkloadKind::IorEasyRead],
            intensities: vec![1, 2],
            seeds: vec![1, 2, 3],
            target_ranks: 2,
            noise_ranks: 2,
            cluster: ClusterConfig::small(),
            window: WindowConfig::seconds(1),
            features: FeatureConfig::default(),
            bins: Bins::binary(),
            small: true,
            deadline: SimDuration::from_secs(900),
            include_baseline_windows: true,
            faults: vec![FaultSpec::Healthy],
            imputation: Imputation::Zero,
        }
    }

    /// The view [`generate`] harvests under: this spec's own `window`,
    /// `features` and `bins`.
    pub fn view(&self) -> DatasetView {
        DatasetView {
            window: self.window,
            features: self.features,
            bins: self.bins.clone(),
        }
    }

    pub(crate) fn scenario(&self, target: WorkloadKind, seed: u64) -> Scenario {
        Scenario {
            target,
            target_ranks: self.target_ranks,
            interference: Vec::new(),
            cluster: self.cluster.clone(),
            seed,
            deadline: self.deadline,
            small: self.small,
            warmup: if self.small {
                SimDuration::from_secs(3)
            } else {
                SimDuration::from_secs(6)
            },
            fault_plan: None,
        }
    }

    /// Number of interfered runs the grid will execute.
    pub fn n_runs(&self) -> usize {
        self.targets.len()
            * self.noise_kinds.len()
            * self.intensities.len()
            * self.seeds.len()
            * self.faults.len()
    }
}

/// One run's harvest under one view: feature blocks, labels, provenance.
type RunSamples = (Vec<Vec<f32>>, Vec<usize>, Vec<SampleMeta>);

/// Run the grid on an explicit pool handle (shared with the caller's
/// other parallel work) and build the labelled dataset. Output is
/// byte-identical for every thread count — see [`generate_views`].
pub fn generate_on(
    pool: &rayon::ThreadPool,
    spec: &DatasetSpec,
) -> Result<GeneratedDataset, QiError> {
    pool.install(|| generate(spec))
}

/// Run the grid (in parallel) and build the labelled dataset under the
/// spec's own view: [`generate_views`] with one view.
pub fn generate(spec: &DatasetSpec) -> Result<GeneratedDataset, QiError> {
    generate_views(spec, &[spec.view()])?
        .pop()
        .ok_or_else(|| QiError::Pipeline("no dataset for the spec's view".into()))
}

/// One interfered run of a grid: its position in the canonical order
/// (targets × noises × intensities × seeds × faults) is its index in
/// what [`run_grid`] returns.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Combo {
    pub(crate) target: WorkloadKind,
    pub(crate) noise: WorkloadKind,
    pub(crate) intensity: u32,
    pub(crate) seed: u64,
    pub(crate) fault: FaultSpec,
}

/// `spec`'s interfered runs in canonical order (targets × noises ×
/// intensities × seeds × faults), each with the index of its `(target,
/// seed)` baseline in target-major order. The fault dimension is
/// innermost, so `[Healthy]` reproduces the fault-free grid order.
fn combos(spec: &DatasetSpec) -> Vec<(Combo, usize)> {
    let mut combos = Vec::with_capacity(spec.n_runs());
    for (ti, &target) in spec.targets.iter().enumerate() {
        for &noise in &spec.noise_kinds {
            for &intensity in &spec.intensities {
                for (si, &seed) in spec.seeds.iter().enumerate() {
                    for &fault in &spec.faults {
                        let combo = Combo {
                            target,
                            noise,
                            intensity,
                            seed,
                            fault,
                        };
                        combos.push((combo, ti * spec.seeds.len() + si));
                    }
                }
            }
        }
    }
    combos
}

/// The interfered scenario of `combo`.
fn interfered_scenario(spec: &DatasetSpec, combo: &Combo) -> Scenario {
    let mut scenario =
        spec.scenario(combo.target, combo.seed)
            .with_interference(InterferenceSpec {
                kind: combo.noise,
                instances: combo.intensity,
                ranks: spec.noise_ranks,
            });
    scenario.fault_plan = combo.fault.plan(&spec.cluster);
    scenario
}

/// Indices into `combos` grouped by warm-up: two combos share one when
/// they differ only in targets that preload the same files
/// ([`Scenario::target_preloads`]), since until the target's first step
/// nothing else of it touches the cluster. Groups come in the order of
/// their first member, members in canonical order.
fn warm_up_groups(spec: &DatasetSpec, combos: &[(Combo, usize)]) -> Vec<Vec<usize>> {
    let preloads: Vec<_> = combos
        .iter()
        .map(|(c, _)| interfered_scenario(spec, c).target_preloads())
        .collect();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (ci, (c, _)) in combos.iter().enumerate() {
        let shares = |g: &&mut Vec<usize>| {
            let (lead, _) = &combos[g[0]];
            (lead.noise, lead.intensity, lead.seed, lead.fault)
                == (c.noise, c.intensity, c.seed, c.fault)
                && preloads[g[0]] == preloads[ci]
        };
        match groups.iter_mut().find(shares) {
            Some(group) => group.push(ci),
            None => groups.push(vec![ci]),
        }
    }
    groups
}

/// Run `spec`'s grid in parallel and keep what the callers ask for from
/// each run: `baseline(target, seed, app, trace)` once per `(target,
/// seed)` key, in key order, and `interfered(combo, app, baseline,
/// trace)` once per [`Combo`], in canonical order.
///
/// The baselines run first, one job each; they always run healthy, so
/// a faulted combo is measured against fault-free hardware. Then one
/// job per [`warm_up_groups`] group runs the noise alone through the
/// warm-up once and finishes every member from a copy of it, the last
/// member from the original ([`WarmedUp::finish_as`]). Interfered runs
/// record only the target's ops and RPCs, all the callers read. Results
/// are returned in fixed order, so every caller's output is identical
/// at any thread count.
///
/// [`WarmedUp::finish_as`]: crate::scenario::WarmedUp::finish_as
pub(crate) fn run_grid<B: Send, C: Send>(
    spec: &DatasetSpec,
    baseline: impl Fn(WorkloadKind, u64, AppId, &RunTrace) -> B + Sync,
    interfered: impl Fn(&Combo, AppId, &RunTrace, &RunTrace) -> C + Sync,
) -> Result<(Vec<B>, Vec<C>), QiError> {
    if spec.faults.is_empty() {
        return Err(QiError::Config(
            "dataset spec has no fault conditions; use [FaultSpec::Healthy]".into(),
        ));
    }

    let base_keys: Vec<(WorkloadKind, u64)> = spec
        .targets
        .iter()
        .flat_map(|&t| spec.seeds.iter().map(move |&s| (t, s)))
        .collect();
    let bases: Vec<(B, AppId, RunTrace)> = base_keys
        .par_iter()
        .map(|&(target, seed)| -> Result<(B, AppId, RunTrace), QiError> {
            let (app, base) = spec.scenario(target, seed).run()?;
            if base.completion_of(app).is_none() {
                return Err(QiError::Incomplete(format!(
                    "baseline {target} (seed {seed}) hit the deadline"
                )));
            }
            Ok((baseline(target, seed, app, &base), app, base))
        })
        .collect::<Result<_, _>>()?;
    let (base_runs, bases): (Vec<B>, Vec<(AppId, RunTrace)>) = bases
        .into_iter()
        .map(|(b, app, base)| (b, (app, base)))
        .unzip();

    let combos = combos(spec);
    let groups = warm_up_groups(spec, &combos);
    let per_group: Vec<Vec<(usize, C)>> = groups
        .par_iter()
        .map(|members| -> Result<Vec<(usize, C)>, QiError> {
            let Some((&last, rest)) = members.split_last() else {
                return Ok(Vec::new());
            };
            let lead = interfered_scenario(spec, &combos[last].0);
            let warm = lead.warm_up(Cluster::builder().record_only(TARGET), |_| {})?;
            let mut runs = Vec::with_capacity(members.len());
            let mut finish = |ci: usize, from: WarmedUp| -> Result<(), QiError> {
                let (combo, key) = &combos[ci];
                let (app, trace) = from.finish_as(&interfered_scenario(spec, combo))?;
                let (base_app, base) = &bases[*key];
                debug_assert_eq!(app, *base_app);
                runs.push((ci, interfered(combo, app, base, &trace)));
                Ok(())
            };
            for &ci in rest {
                finish(ci, warm.try_clone()?)?;
            }
            finish(last, warm)?;
            Ok(runs)
        })
        .collect::<Result<_, _>>()?;

    let mut slots: Vec<Option<C>> = combos.iter().map(|_| None).collect();
    for (ci, run) in per_group.into_iter().flatten() {
        debug_assert!(slots[ci].is_none(), "combo {ci} run twice");
        slots[ci] = Some(run);
    }
    let runs = slots
        .into_iter()
        .enumerate()
        .map(|(ci, run)| run.ok_or_else(|| QiError::Pipeline(format!("combo {ci} was never run"))))
        .collect::<Result<_, _>>()?;
    Ok((base_runs, runs))
}

/// Run the grid once (in parallel, see `run_grid`) and harvest every
/// run under each of `views`, returning one labelled dataset per view,
/// in order. Each equals what [`generate`] returns for the spec carrying
/// that view: nothing a view holds reaches the simulation. Samples come
/// in canonical grid order, then the baseline windows per `(target,
/// seed)` key, byte-identical at any thread count.
pub fn generate_views(
    spec: &DatasetSpec,
    views: &[DatasetView],
) -> Result<Vec<GeneratedDataset>, QiError> {
    let n_devices = spec.cluster.n_devices();
    // One run's samples under each view, in `views` order.
    let harvest = |trace: &RunTrace, app, base: &RunTrace, target, noise, fault, seed| {
        let idx = BaselineIndex::new(base, app);
        let under = |view| {
            collect_samples(
                view, trace, app, &idx, n_devices, target, noise, fault, seed,
            )
        };
        views.iter().map(under).collect::<Vec<RunSamples>>()
    };
    let (base_runs, combo_runs) = run_grid(
        spec,
        |target, seed, app, base| {
            spec.include_baseline_windows
                .then(|| harvest(base, app, base, target, None, FaultSpec::Healthy, seed))
        },
        |c, app, base, trace| {
            let noise = Some((c.noise, c.intensity));
            harvest(trace, app, base, c.target, noise, c.fault, c.seed)
        },
    )?;

    let mut stitched: Vec<RunSamples> = views.iter().map(|_| RunSamples::default()).collect();
    let runs = combo_runs
        .into_iter()
        .chain(base_runs.into_iter().flatten());
    for run in runs {
        for (all, (s, l, m)) in stitched.iter_mut().zip(run) {
            all.0.extend(s);
            all.1.extend(l);
            all.2.extend(m);
        }
    }

    views
        .iter()
        .zip(stitched)
        .map(|(view, (samples, labels, meta))| {
            if samples.is_empty() {
                return Err(QiError::Pipeline("dataset grid produced no samples".into()));
            }
            Ok(GeneratedDataset {
                data: Dataset::from_samples(samples, labels, n_devices as usize),
                meta,
                bins: view.bins.clone(),
                schema: FeatureSchema::current(view.window, view.features, Imputation::Zero),
            })
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn collect_samples(
    view: &DatasetView,
    trace: &RunTrace,
    app: AppId,
    baseline: &BaselineIndex,
    n_devices: u32,
    target: WorkloadKind,
    noise: Option<(WorkloadKind, u32)>,
    fault: FaultSpec,
    seed: u64,
) -> RunSamples {
    let levels = window_degradation(baseline, trace, app, view.window);
    let mut vectors = window_vectors_with(
        trace,
        app,
        view.window,
        view.features,
        n_devices,
        Imputation::Zero,
    );
    let mut windows: Vec<u64> = levels.keys().copied().collect();
    windows.sort_unstable();
    let mut xs = Vec::with_capacity(windows.len());
    let mut ys = Vec::with_capacity(windows.len());
    let mut ms = Vec::with_capacity(windows.len());
    for w in windows {
        let Some(v) = vectors.remove(&w) else {
            continue;
        };
        let level = levels[&w];
        xs.push(v);
        ys.push(view.bins.classify(level));
        ms.push(SampleMeta {
            target,
            noise,
            fault,
            seed,
            window: w,
            level,
        });
    }
    (xs, ys, ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_generates_balanced_dataset() {
        let spec = DatasetSpec::smoke();
        let gen = generate(&spec).expect("smoke grid generates");
        assert!(gen.data.len() >= 8, "only {} samples", gen.data.len());
        assert_eq!(gen.meta.len(), gen.data.len());
        assert_eq!(gen.data.n_servers, spec.cluster.n_devices() as usize);
        assert_eq!(gen.data.n_features(), spec.features.len());
        let counts = gen.class_counts();
        // Baseline windows guarantee class 0; interference should create
        // at least some class-1 windows.
        assert!(counts[0] > 0, "no negative windows: {counts:?}");
        assert!(counts[1] > 0, "no positive windows: {counts:?}");
        // The dataset carries the schema its vectors were built under.
        assert_eq!(
            gen.schema,
            FeatureSchema::current(spec.window, spec.features, spec.imputation)
        );
        assert_eq!(gen.schema.vector_len(), gen.data.n_features());

        // The dataset-level split hands back the index lists that keep
        // `meta` aligned with either side, a fifth of the windows held out.
        let split = gen.split(9);
        let n = gen.data.len();
        assert_eq!(split.test.len(), (n as f64 * 0.2).round() as usize);
        assert_eq!(split.train_idx.len() + split.test_idx.len(), n);
        for (side, idx) in [
            (&split.train, &split.train_idx),
            (&split.test, &split.test_idx),
        ] {
            assert_eq!(side.x.data(), gen.data.subset(idx).x.data());
            let labels: Vec<usize> = idx
                .iter()
                .map(|&i| gen.bins.classify(gen.meta[i].level))
                .collect();
            assert_eq!(side.y, labels);
        }
    }

    #[test]
    fn baseline_windows_are_lowest_bin() {
        let mut spec = DatasetSpec::smoke();
        spec.noise_kinds = vec![];
        spec.intensities = vec![];
        spec.include_baseline_windows = true;
        let gen = generate(&spec).expect("baseline-only grid generates");
        assert!(gen.data.y.iter().all(|&y| y == 0));
        assert!(gen
            .meta
            .iter()
            .all(|m| m.noise.is_none() && (m.level - 1.0).abs() < 0.2));
        assert!(gen.meta.iter().all(|m| m.fault == FaultSpec::Healthy));
    }

    #[test]
    fn empty_fault_dimension_is_rejected() {
        let mut spec = DatasetSpec::smoke();
        spec.faults = vec![];
        let err = generate(&spec).expect_err("empty fault dimension");
        assert!(matches!(err, qi_simkit::QiError::Config(_)), "{err}");
    }

    #[test]
    fn fault_specs_expand_to_sized_plans() {
        let cluster = ClusterConfig::small();
        assert!(FaultSpec::Healthy.plan(&cluster).is_none());
        let all = FaultSpec::SlowOsts {
            factor: 4.0,
            from_s: 2,
            dur_s: 5,
        }
        .plan(&cluster)
        .expect("plan");
        assert_eq!(all.events().len(), cluster.n_osts() as usize);
        assert!(all
            .validate(
                cluster.n_devices() as usize,
                cluster.n_nodes() as usize,
                cluster.oss_nodes as usize,
            )
            .is_ok());
        let one = FaultSpec::SlowOst {
            dev: 1,
            factor: 8.0,
            from_s: 0,
            dur_s: 3,
        }
        .plan(&cluster)
        .expect("plan");
        assert_eq!(one.events().len(), 1);
    }

    /// The benchmark's IO500 grid: the seven tasks crossed with
    /// themselves at three intensities, on one seed.
    fn io500_grid() -> DatasetSpec {
        let mut spec = crate::predict::family_spec(&WorkloadKind::IO500, true);
        spec.seeds = vec![1];
        spec
    }

    #[test]
    fn the_io500_grid_warms_up_84_times_for_147_runs() {
        let spec = io500_grid();
        let combos = combos(&spec);
        assert_eq!(combos.len(), 147);
        let groups = warm_up_groups(&spec, &combos);
        assert_eq!(groups.len(), 84);
        // Per noise and intensity, the targets split four ways.
        use WorkloadKind::*;
        let expected = [
            vec![IorEasyWrite, IorEasyRead],
            vec![IorHardWrite, IorHardRead],
            vec![MdtEasyWrite, MdtHardWrite],
            vec![MdtHardRead],
        ];
        for class in &expected {
            let count = groups
                .iter()
                .filter(|g| {
                    g.len() == class.len()
                        && g.iter().all(|&ci| class.contains(&combos[ci].0.target))
                })
                .count();
            assert_eq!(count, 21, "{class:?}");
        }
        for g in &groups {
            assert!(g.windows(2).all(|w| w[0] < w[1]), "members in grid order");
        }
    }

    #[test]
    fn only_targets_with_equal_preloads_share_a_warm_up() {
        let mut spec = io500_grid();
        spec.intensities = vec![2];
        spec.seeds = vec![1, 2];
        spec.faults = vec![
            FaultSpec::Healthy,
            FaultSpec::SlowOst {
                dev: 0,
                factor: 4.0,
                from_s: 1,
                dur_s: 2,
            },
        ];
        let combos = combos(&spec);
        let groups = warm_up_groups(&spec, &combos);
        let mut group_of = vec![usize::MAX; combos.len()];
        for (gi, g) in groups.iter().enumerate() {
            for &ci in g {
                assert_eq!(group_of[ci], usize::MAX, "combo {ci} in two groups");
                group_of[ci] = gi;
            }
        }
        let preloads: Vec<_> = combos
            .iter()
            .map(|(c, _)| interfered_scenario(&spec, c).target_preloads())
            .collect();
        for (a, (ca, _)) in combos.iter().enumerate() {
            for (b, (cb, _)) in combos.iter().enumerate() {
                let same_noise = (ca.noise, ca.intensity, ca.seed, ca.fault)
                    == (cb.noise, cb.intensity, cb.seed, cb.fault);
                let shares = same_noise && preloads[a] == preloads[b];
                assert_eq!(group_of[a] == group_of[b], shares, "{ca:?} / {cb:?}");
            }
        }
    }

    #[test]
    fn window_vectors_align_with_degradation_windows() {
        let spec = DatasetSpec::smoke();
        let scenario = spec.scenario(WorkloadKind::IorEasyRead, 1);
        let (app, trace) = scenario.run().expect("scenario runs");
        let vecs = window_vectors_with(
            &trace,
            app,
            spec.window,
            spec.features,
            spec.cluster.n_devices(),
            spec.imputation,
        );
        assert!(!vecs.is_empty());
        for v in vecs.values() {
            assert_eq!(
                v.len(),
                spec.cluster.n_devices() as usize * spec.features.len()
            );
        }
    }
}
