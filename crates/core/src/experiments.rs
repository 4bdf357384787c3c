//! Table I and Figure 1 as library functions, so the `qi-bench`
//! experiments runner, the integration tests and the examples run the
//! same code. Both are [`DatasetSpec`] grids run by the same parallel
//! `(target, seed)` runner as the training datasets; each keeps only
//! what it reports from a run (a duration, a slowdown, a per-op
//! series), so every number is identical at any thread count.

use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::AppId;
use qi_pfs::ops::RunTrace;
use qi_simkit::error::QiError;
use qi_simkit::stats::moving_average;
use qi_simkit::table::{fmt_f64, AsciiTable};
use qi_simkit::time::SimDuration;
use qi_workloads::registry::WorkloadKind;

use crate::dataset::{run_grid, Combo, DatasetSpec, FaultSpec};
use crate::scenario::{completion_slowdown, target_duration};

/// The grid Table I and Figure 1 run on. At paper scale: the seven
/// IO500 tasks crossed with themselves at 3 noise instances, 4 target
/// and 2 noise ranks, seeds 1–3, on the default cluster. `small` runs
/// 2 instances, 2 target ranks and seed 1 on the small cluster.
pub fn experiment_spec(small: bool) -> DatasetSpec {
    let io500 = WorkloadKind::IO500.to_vec();
    let paper = DatasetSpec {
        targets: io500.clone(),
        noise_kinds: io500,
        intensities: vec![3],
        seeds: vec![1, 2, 3],
        target_ranks: 4,
        noise_ranks: 2,
        cluster: ClusterConfig::default(),
        small: false,
        deadline: SimDuration::from_secs(3600),
        faults: vec![FaultSpec::Healthy],
        ..DatasetSpec::smoke()
    };
    if !small {
        return paper;
    }
    DatasetSpec {
        intensities: vec![2],
        seeds: vec![1],
        target_ranks: 2,
        cluster: ClusterConfig::small(),
        small: true,
        deadline: SimDuration::from_secs(1800),
        ..paper
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

/// Regenerate the paper's Table I: run every task of `spec.targets`
/// standalone and under each of the same tasks as noise, and report
/// mean completion-time slowdowns over the seeds. A spec whose noise
/// kinds differ from its targets, or that has other than one intensity
/// or no seed, is a [`QiError::Config`].
pub fn table_one(spec: &DatasetSpec) -> Result<TableOne, QiError> {
    if spec.noise_kinds != spec.targets || spec.intensities.len() != 1 || spec.seeds.is_empty() {
        return Err(QiError::Config(
            "Table I crosses its targets with themselves, at one intensity and at least one seed"
                .into(),
        ));
    }
    let (durations, slowdowns) = run_grid(
        spec,
        |_, _, app, base| target_duration(base, app).map(|d| d.as_secs_f64()),
        |_, app, base, trace| completion_slowdown(base, trace, app).unwrap_or(f64::NAN),
    )?;

    // Canonical order puts each cell's runs (seeds × faults) next to
    // each other, cells row-major: sum them in that order, as every
    // earlier implementation did, so the f64 means are unchanged.
    let n = spec.targets.len();
    let mut matrix = vec![vec![f64::NAN; n]; n];
    let per_cell = spec.seeds.len() * spec.faults.len();
    for (cell, runs) in slowdowns.chunks(per_cell).enumerate() {
        let (sum, count) = runs
            .iter()
            .filter(|v| v.is_finite())
            .fold((0.0, 0u32), |(sum, count), &v| (sum + v, count + 1));
        if count > 0 {
            matrix[cell / n][cell % n] = sum / count as f64;
        }
    }
    let baseline_secs = durations
        .chunks(spec.seeds.len())
        .map(|row| {
            let vals: Vec<f64> = row.iter().flatten().copied().collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        })
        .collect();
    Ok(TableOne {
        tasks: spec.targets.clone(),
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

/// One Figure 1 panel: the Enzo proxy alone, then under each of
/// `noise_kinds` × `intensities` in grid order, on `spec` narrowed to
/// its first seed. Series are smoothed over 9 ops (5 at smoke scale).
fn fig_one_panel(
    spec: &DatasetSpec,
    noise_kinds: Vec<WorkloadKind>,
    intensities: Vec<u32>,
    label: impl Fn(&Combo) -> String + Sync,
) -> Result<Vec<EnzoSeries>, QiError> {
    let Some(&seed) = spec.seeds.first() else {
        return Err(QiError::Config("Figure 1 needs a seed".into()));
    };
    let spec = DatasetSpec {
        targets: vec![WorkloadKind::Enzo],
        noise_kinds,
        intensities,
        seeds: vec![seed],
        ..spec.clone()
    };
    let smooth = if spec.small { 5 } else { 9 };
    let series = |app, trace: &RunTrace| moving_average(&rank0_series(trace, app), smooth);
    let (baseline, interfered) = run_grid(
        &spec,
        |_, _, app, base| EnzoSeries {
            label: "baseline".into(),
            durations: series(app, base),
        },
        |combo, app, _, trace| EnzoSeries {
            label: label(combo),
            durations: series(app, trace),
        },
    )?;
    Ok(baseline.into_iter().chain(interfered).collect())
}

/// Regenerate Figure 1(a): Enzo per-op I/O time under increasing
/// amounts of `ior-easy-write` interference (baseline, then 1..=levels
/// instances).
pub fn fig_one_a(spec: &DatasetSpec, levels: u32) -> Result<Vec<EnzoSeries>, QiError> {
    let noise = vec![WorkloadKind::IorEasyWrite];
    fig_one_panel(spec, noise, (1..=levels).collect(), |c| {
        format!("{}x {}", c.intensity, c.noise)
    })
}

/// Regenerate Figure 1(b): Enzo per-op I/O time under a data-intensive
/// (`ior-easy-write`) vs a metadata-intensive (`mdt-easy-write`)
/// background, plus the baseline.
pub fn fig_one_b(spec: &DatasetSpec, instances: u32) -> Result<Vec<EnzoSeries>, QiError> {
    let noise = vec![WorkloadKind::IorEasyWrite, WorkloadKind::MdtEasyWrite];
    fig_one_panel(spec, noise, vec![instances], |c| {
        let kind = match c.noise {
            WorkloadKind::MdtEasyWrite => "metadata-intensive",
            _ => "data-intensive",
        };
        format!("{kind} ({})", c.noise)
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_one_has_sane_structure() {
        // The full smoke grid, once: it is the central experiment,
        // worth the seconds.
        let t = table_one(&experiment_spec(true)).expect("table one runs");
        assert_eq!(t.tasks.len(), 7);
        assert_eq!(t.matrix.len(), 7);
        // All cells present and >= ~1 (interference can't speed you up
        // much; allow small jitter below 1).
        for row in &t.matrix {
            assert_eq!(row.len(), 7);
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
        let series = fig_one_a(&experiment_spec(true), 2).expect("fig 1a runs");
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
    fn table_one_rejects_a_grid_that_is_not_square() {
        let spec = experiment_spec(true);
        let bad = [
            DatasetSpec {
                noise_kinds: vec![WorkloadKind::IorEasyRead],
                ..spec.clone()
            },
            DatasetSpec {
                intensities: vec![1, 2],
                ..spec.clone()
            },
            DatasetSpec {
                seeds: vec![],
                ..spec
            },
        ];
        for spec in &bad {
            let err = table_one(spec).err().expect("not a Table I grid");
            assert!(matches!(err, QiError::Config(_)), "{err}");
        }
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
