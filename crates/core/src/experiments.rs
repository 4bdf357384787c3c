//! Table I, Figure 1 and the fail-slow probe as library functions, so
//! the `qi-bench` experiments runner, the integration tests and the
//! examples run the same code.

use rayon::prelude::*;

use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::AppId;
use qi_pfs::ops::RunTrace;
use qi_simkit::error::QiError;
use qi_simkit::stats::moving_average;
use qi_simkit::table::{fmt_f64, AsciiTable};
use qi_simkit::time::SimDuration;
use qi_workloads::registry::WorkloadKind;

use crate::scenario::{completion_slowdown, InterferenceSpec, Scenario};

/// Configuration for the Table I slowdown matrix.
#[derive(Clone, Debug)]
pub struct TableOneConfig {
    /// Concurrent interference instances (paper: 3).
    pub instances: u32,
    /// Ranks per target application.
    pub target_ranks: u32,
    /// Ranks per interference instance.
    pub noise_ranks: u32,
    /// Seeds; the reported slowdown is the mean over seeds (paper
    /// averages 3 consecutive runs).
    pub seeds: Vec<u64>,
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Use reduced-scale workloads.
    pub small: bool,
    /// Steady-state warmup before the target starts.
    pub warmup: SimDuration,
    /// Per-run deadline.
    pub deadline: SimDuration,
}

impl TableOneConfig {
    /// Paper-shaped configuration on the default 11-node cluster.
    pub fn paper() -> Self {
        TableOneConfig {
            instances: 3,
            target_ranks: 4,
            noise_ranks: 2,
            seeds: vec![1, 2, 3],
            cluster: ClusterConfig::default(),
            small: false,
            warmup: SimDuration::from_secs(6),
            deadline: SimDuration::from_secs(3600),
        }
    }

    /// Fast variant for tests.
    pub fn smoke() -> Self {
        TableOneConfig {
            instances: 2,
            target_ranks: 2,
            noise_ranks: 2,
            seeds: vec![1],
            cluster: ClusterConfig::small(),
            small: true,
            warmup: SimDuration::from_secs(3),
            deadline: SimDuration::from_secs(1800),
        }
    }
}

/// The 7×7 slowdown matrix (rows: measured task; columns: background
/// task), plus per-task baseline durations.
pub struct TableOne {
    /// Task order (rows and columns).
    pub tasks: Vec<WorkloadKind>,
    /// `matrix[row][col]` = mean slowdown of `tasks[row]` under
    /// `tasks[col]` interference.
    pub matrix: Vec<Vec<f64>>,
    /// Mean standalone duration per task, seconds.
    pub baseline_secs: Vec<f64>,
}

impl TableOne {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let mut header: Vec<String> = vec!["IO500 task \\ noise".into()];
        header.extend(self.tasks.iter().map(|k| k.name().to_string()));
        header.push("alone (s)".into());
        let mut t = AsciiTable::new(header);
        for (r, task) in self.tasks.iter().enumerate() {
            let mut row = vec![task.name().to_string()];
            for c in 0..self.tasks.len() {
                row.push(fmt_f64(self.matrix[r][c], 2));
            }
            row.push(fmt_f64(self.baseline_secs[r], 2));
            t.add_row(row);
        }
        t.render()
    }

    /// CSV form (same layout as [`TableOne::render`]).
    pub fn to_table(&self) -> AsciiTable {
        let mut header: Vec<String> = vec!["task".into()];
        header.extend(self.tasks.iter().map(|k| k.name().to_string()));
        header.push("baseline_secs".into());
        let mut t = AsciiTable::new(header);
        for (r, task) in self.tasks.iter().enumerate() {
            let mut row = vec![task.name().to_string()];
            for c in 0..self.tasks.len() {
                row.push(format!("{:.4}", self.matrix[r][c]));
            }
            row.push(format!("{:.4}", self.baseline_secs[r]));
            t.add_row(row);
        }
        t
    }

    /// The cell for (measured task, noise task).
    pub fn cell(&self, task: WorkloadKind, noise: WorkloadKind) -> Option<f64> {
        let r = self.tasks.iter().position(|&k| k == task)?;
        let c = self.tasks.iter().position(|&k| k == noise)?;
        Some(self.matrix[r][c])
    }
}

fn scenario_for(cfg: &TableOneConfig, target: WorkloadKind, seed: u64) -> Scenario {
    Scenario {
        target,
        target_ranks: cfg.target_ranks,
        interference: Vec::new(),
        cluster: cfg.cluster.clone(),
        seed,
        deadline: cfg.deadline,
        small: cfg.small,
        warmup: cfg.warmup,
        fault_plan: None,
    }
}

/// Regenerate the paper's Table I: run every IO500 task standalone and
/// under each of the seven interference patterns, and report mean
/// completion-time slowdowns.
///
/// Scheduling: one job per `(task, seed)` runs the baseline and then
/// fans that row's interfered cells out as nested parallel jobs, so
/// baselines and cells of different rows overlap instead of
/// serialising behind a matrix-wide barrier. Cell results are reduced
/// in canonical `(row, col, seed)` order, so the matrix is identical at
/// every thread count.
pub fn table_one(cfg: &TableOneConfig) -> Result<TableOne, QiError> {
    let tasks = WorkloadKind::IO500.to_vec();
    let base_jobs: Vec<(usize, u64)> = (0..tasks.len())
        .flat_map(|t| cfg.seeds.iter().map(move |&s| (t, s)))
        .collect();

    // One job per (task, seed): baseline first, then that row's cells.
    type RowResult = ((AppId, RunTrace), Vec<f64>);
    let per_key: Vec<RowResult> = base_jobs
        .par_iter()
        .map(|&(t, s)| -> Result<RowResult, QiError> {
            let (app, base) = scenario_for(cfg, tasks[t], s).run()?;
            if base.completion_of(app).is_none() {
                return Err(QiError::Incomplete(format!(
                    "baseline {} (seed {s}) hit the deadline",
                    tasks[t]
                )));
            }
            let cols: Vec<usize> = (0..tasks.len()).collect();
            let slowdowns: Vec<f64> = cols
                .par_iter()
                .map(|&c| -> Result<f64, QiError> {
                    let scenario =
                        scenario_for(cfg, tasks[t], s).with_interference(InterferenceSpec {
                            kind: tasks[c],
                            instances: cfg.instances,
                            ranks: cfg.noise_ranks,
                        });
                    let (cell_app, trace) = scenario.run()?;
                    Ok(completion_slowdown(&base, &trace, cell_app).unwrap_or(f64::NAN))
                })
                .collect::<Result<_, _>>()?;
            Ok(((app, base), slowdowns))
        })
        .collect::<Result<_, _>>()?;

    // Reduce in canonical (row, col, seed) order: for a fixed cell the
    // seed contributions sum in ascending-seed order, exactly as the
    // old flat cells loop did, keeping the f64 accumulation identical.
    let n = tasks.len();
    let mut sums = vec![vec![0.0; n]; n];
    let mut counts = vec![vec![0u32; n]; n];
    for (&(t, _), (_, slowdowns)) in base_jobs.iter().zip(&per_key) {
        for (c, &v) in slowdowns.iter().enumerate() {
            if v.is_finite() {
                sums[t][c] += v;
                counts[t][c] += 1;
            }
        }
    }
    let matrix: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            (0..n)
                .map(|c| {
                    if counts[r][c] == 0 {
                        f64::NAN
                    } else {
                        sums[r][c] / counts[r][c] as f64
                    }
                })
                .collect()
        })
        .collect();
    let n_seeds = cfg.seeds.len();
    let baseline_secs: Vec<f64> = (0..n)
        .map(|t| {
            let vals: Vec<f64> = (0..n_seeds)
                .filter_map(|si| {
                    let ((app, trace), _) = &per_key[t * n_seeds + si];
                    crate::scenario::target_duration(trace, *app).map(|d| d.as_secs_f64())
                })
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        })
        .collect();
    Ok(TableOne {
        tasks,
        matrix,
        baseline_secs,
    })
}

/// One series of Figure 1: per-operation I/O times of the Enzo proxy's
/// opening phase, matched op-for-op against the baseline.
pub struct EnzoSeries {
    /// Scenario label (e.g. "baseline", "2x ior-easy-write").
    pub label: String,
    /// Per-op durations in *op-index order* (seconds), smoothed.
    pub durations: Vec<f64>,
}

/// Configuration for the Figure 1 experiment.
#[derive(Clone, Debug)]
pub struct FigOneConfig {
    /// Ranks of the Enzo proxy.
    pub target_ranks: u32,
    /// Ranks per interference instance.
    pub noise_ranks: u32,
    /// Cluster description.
    pub cluster: ClusterConfig,
    /// Reduced-scale workloads.
    pub small: bool,
    /// Moving-average window (ops), as in the paper's smoothing.
    pub smooth: usize,
    /// Seed.
    pub seed: u64,
    /// Warmup and deadline as in Table I.
    pub warmup: SimDuration,
    /// Per-run deadline.
    pub deadline: SimDuration,
}

impl FigOneConfig {
    /// Paper-shaped configuration.
    pub fn paper() -> Self {
        FigOneConfig {
            target_ranks: 4,
            noise_ranks: 2,
            cluster: ClusterConfig::default(),
            small: false,
            smooth: 9,
            seed: 1,
            warmup: SimDuration::from_secs(6),
            deadline: SimDuration::from_secs(3600),
        }
    }

    /// Fast variant for tests.
    pub fn smoke() -> Self {
        FigOneConfig {
            target_ranks: 2,
            noise_ranks: 2,
            cluster: ClusterConfig::small(),
            small: true,
            smooth: 5,
            seed: 1,
            warmup: SimDuration::from_secs(3),
            deadline: SimDuration::from_secs(1800),
        }
    }
}

/// Per-op durations of rank 0 of the target, ordered by op index.
fn rank0_series(trace: &RunTrace, app: AppId) -> Vec<f64> {
    let mut ops: Vec<_> = trace
        .ops_of(app)
        .filter(|o| o.token.rank == 0)
        .map(|o| (o.token.seq, o.duration().as_secs_f64()))
        .collect();
    ops.sort_unstable_by_key(|&(seq, _)| seq);
    ops.into_iter().map(|(_, d)| d).collect()
}

/// One Figure 1 series per job: the Enzo proxy alone (`None`) or under
/// `instances` of a noise kind, all in parallel.
fn enzo_series(
    cfg: &FigOneConfig,
    jobs: Vec<(String, Option<(WorkloadKind, u32)>)>,
) -> Result<Vec<EnzoSeries>, QiError> {
    jobs.par_iter()
        .map(|(label, noise)| -> Result<EnzoSeries, QiError> {
            let mut s = Scenario {
                target: WorkloadKind::Enzo,
                target_ranks: cfg.target_ranks,
                interference: Vec::new(),
                cluster: cfg.cluster.clone(),
                seed: cfg.seed,
                deadline: cfg.deadline,
                small: cfg.small,
                warmup: cfg.warmup,
                fault_plan: None,
            };
            if let Some((kind, instances)) = *noise {
                s = s.with_interference(InterferenceSpec {
                    kind,
                    instances,
                    ranks: cfg.noise_ranks,
                });
            }
            let (app, trace) = s.run()?;
            Ok(EnzoSeries {
                label: label.clone(),
                durations: moving_average(&rank0_series(&trace, app), cfg.smooth),
            })
        })
        .collect()
}

/// Regenerate Figure 1(a): Enzo per-op I/O time under increasing
/// amounts of `ior-easy-write` interference (baseline, then 1..=levels
/// instances).
pub fn fig_one_a(cfg: &FigOneConfig, levels: u32) -> Result<Vec<EnzoSeries>, QiError> {
    let mut jobs = vec![("baseline".to_string(), None)];
    for l in 1..=levels {
        let noise = (WorkloadKind::IorEasyWrite, l);
        jobs.push((format!("{l}x ior-easy-write"), Some(noise)));
    }
    enzo_series(cfg, jobs)
}

/// Regenerate Figure 1(b): Enzo per-op I/O time under a data-intensive
/// (`ior-easy-write`) vs a metadata-intensive (`mdt-easy-write`)
/// background, plus the baseline.
pub fn fig_one_b(cfg: &FigOneConfig, instances: u32) -> Result<Vec<EnzoSeries>, QiError> {
    let noise = |kind| Some((kind, instances));
    let jobs = vec![
        ("baseline".into(), None),
        (
            "data-intensive (ior-easy-write)".into(),
            noise(WorkloadKind::IorEasyWrite),
        ),
        (
            "metadata-intensive (mdt-easy-write)".into(),
            noise(WorkloadKind::MdtEasyWrite),
        ),
    ];
    enzo_series(cfg, jobs)
}

/// Render Figure 1 series as a CSV-ready table (op index + one column
/// per series).
pub fn series_table(series: &[EnzoSeries]) -> AsciiTable {
    let mut header = vec!["op_index".to_string()];
    header.extend(series.iter().map(|s| s.label.clone()));
    let mut t = AsciiTable::new(header);
    let len = series.iter().map(|s| s.durations.len()).min().unwrap_or(0);
    for i in 0..len {
        let mut row = vec![i.to_string()];
        for s in series {
            row.push(format!("{:.6}", s.durations[i]));
        }
        t.add_row(row);
    }
    t
}

/// Mean of a series (summary statistic for assertions/reporting).
pub fn series_mean(s: &EnzoSeries) -> f64 {
    if s.durations.is_empty() {
        return 0.0;
    }
    s.durations.iter().sum::<f64>() / s.durations.len() as f64
}

/// Per-op ratio of interfered vs baseline durations (how non-uniform the
/// impact is — the phenomenon Fig. 1 highlights).
pub fn impact_ratios(baseline: &EnzoSeries, interfered: &EnzoSeries) -> Vec<f64> {
    baseline
        .durations
        .iter()
        .zip(&interfered.durations)
        .map(|(&b, &i)| if b > 0.0 { i / b } else { 1.0 })
        .collect()
}

/// Result of the fail-slow robustness experiment: does the interference
/// predictor *confuse* a gray-failing device with cross-application
/// interference? (Lu et al.'s Perseus — the source of the paper's
/// severity bins — detects fail-slow; this probes the boundary between
/// the two phenomena.)
pub struct FailSlowReport {
    /// Windows whose measured degradation (vs the healthy baseline) was
    /// at or above the binary threshold.
    pub degraded_windows: usize,
    /// Degraded windows the model attributed to interference (flagged
    /// >=2x) even though no interference was present.
    pub flagged_windows: usize,
    /// Windows with target activity, total.
    pub total_windows: usize,
}

impl FailSlowReport {
    /// Fraction of fail-slow-degraded windows mis-attributed to
    /// interference.
    pub fn misattribution_rate(&self) -> f64 {
        if self.degraded_windows == 0 {
            return 0.0;
        }
        self.flagged_windows as f64 / self.degraded_windows as f64
    }
}

/// Run the fail-slow probe: execute `scenario` (which must have NO
/// interference) with device `dev` degrading by `factor` from `at`,
/// label windows against the healthy baseline, and ask the trained
/// `predictor` which windows it would have flagged as interference.
pub fn fail_slow_probe(
    scenario: &Scenario,
    predictor: &mut crate::predict::Predictor,
    dev: qi_pfs::ids::DeviceId,
    at: qi_simkit::SimTime,
    factor: f64,
) -> Result<FailSlowReport, QiError> {
    if !scenario.interference.is_empty() {
        return Err(QiError::Config(
            "the fail-slow probe isolates device failure from interference".into(),
        ));
    }
    let (app, healthy) = scenario.run()?;
    let (_, sick) = scenario.run_with(|cl| cl.inject_fail_slow(dev, at, factor))?;
    let idx = crate::labeling::BaselineIndex::new(&healthy, app);
    let wcfg = predictor.window_config();
    let levels = crate::labeling::window_degradation(&idx, &sick, app, wcfg);
    let bins = crate::labeling::Bins::binary();
    let predictions: std::collections::HashMap<u64, usize> =
        predictor.predict_run(&sick, app)?.into_iter().collect();
    let mut degraded = 0;
    let mut flagged = 0;
    for (w, lv) in &levels {
        if bins.classify(*lv) >= 1 {
            degraded += 1;
            if predictions.get(w).copied().unwrap_or(0) >= 1 {
                flagged += 1;
            }
        }
    }
    Ok(FailSlowReport {
        degraded_windows: degraded,
        flagged_windows: flagged,
        total_windows: levels.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_one_has_sane_structure() {
        // Run only a 2x2 corner via a trimmed task list by checking the
        // full smoke table would be slow; instead run the full smoke
        // config once (it is the central experiment, worth the seconds).
        let cfg = TableOneConfig::smoke();
        let t = table_one(&cfg).expect("table one runs");
        assert_eq!(t.tasks.len(), 7);
        assert_eq!(t.matrix.len(), 7);
        // All cells present and >= ~1 (interference can't speed you up
        // much; allow small jitter below 1).
        for row in &t.matrix {
            for &v in row {
                assert!(v.is_finite(), "missing cell");
                assert!(v > 0.5, "nonsense slowdown {v}");
            }
        }
        // Headline shape: read-vs-read interference dwarfs
        // read-vs-metadata interference.
        let rr = t
            .cell(WorkloadKind::IorEasyRead, WorkloadKind::IorEasyRead)
            .unwrap();
        let rm = t
            .cell(WorkloadKind::IorEasyRead, WorkloadKind::MdtEasyWrite)
            .unwrap();
        assert!(rr > rm, "read-read {rr} <= read-mdt {rm}");
        let render = t.render();
        assert!(render.contains("ior-easy-read"));
    }

    #[test]
    fn smoke_fig_one_a_shows_interference() {
        let cfg = FigOneConfig::smoke();
        let series = fig_one_a(&cfg, 2).expect("fig 1a runs");
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].label, "baseline");
        let base = series_mean(&series[0]);
        let two = series_mean(&series[2]);
        assert!(two > base, "no visible impact: base {base} 2x {two}");
        // Non-uniform impact: ratios must spread.
        let ratios = impact_ratios(&series[0], &series[2]);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min.max(1e-9) > 1.5, "impact uniform: {min}..{max}");
    }

    #[test]
    fn fail_slow_probe_reports_degradation() {
        // Train nothing fancy: a tiny model on the smoke grid.
        let spec = crate::dataset::DatasetSpec::smoke();
        let tcfg = qi_ml::train::TrainConfig {
            epochs: 8,
            ..Default::default()
        };
        let (_, mut predictor, _) =
            crate::predict::train_and_evaluate(&spec, &tcfg, 2).expect("pipeline runs");
        let scenario = Scenario {
            cluster: qi_pfs::config::ClusterConfig::small(),
            small: true,
            target_ranks: 2,
            ..Scenario::baseline(WorkloadKind::IorEasyRead, 31)
        };
        let report = fail_slow_probe(
            &scenario,
            &mut predictor,
            qi_pfs::ids::DeviceId(0),
            qi_simkit::SimTime::ZERO,
            8.0,
        )
        .expect("probe runs");
        // An 8x fail-slow OST must degrade at least one window of a
        // reader whose files live partly on it.
        assert!(report.total_windows > 0);
        assert!(
            report.degraded_windows > 0,
            "fail-slow injection had no visible effect"
        );
        assert!(report.misattribution_rate() >= 0.0);
        assert!(report.flagged_windows <= report.degraded_windows);
    }

    #[test]
    fn series_table_is_rectangular() {
        let a = EnzoSeries {
            label: "a".into(),
            durations: vec![1.0, 2.0, 3.0],
        };
        let b = EnzoSeries {
            label: "b".into(),
            durations: vec![4.0, 5.0],
        };
        let t = series_table(&[a, b]);
        assert_eq!(t.len(), 2); // truncated to the shorter series
    }
}
