//! **Table II** — the server-side metric list. This harness demonstrates
//! that each metric family (delivered I/O speed, device sector counters,
//! and the read/write queue statistics) is collected per window and
//! *discriminates between I/O patterns*: it runs four contrasting loads
//! and prints the windowed sum/mean/std of every metric on one OST.

use qi_monitor::server::{server_windows, SERVER_SERIES};
use qi_monitor::window::WindowConfig;
use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::DeviceId;
use qi_simkit::table::AsciiTable;
use qi_simkit::time::SimDuration;
use quanterference::scenario::Scenario;
use quanterference::WorkloadKind;

use crate::Context;

fn run_load(kind: Option<WorkloadKind>, small: bool) -> Vec<(String, [f64; 3])> {
    let mut cluster = if small {
        ClusterConfig::small()
    } else {
        ClusterConfig::default()
    };
    cluster.sample_interval = SimDuration::from_millis(250);
    let target = kind.unwrap_or(WorkloadKind::IorEasyRead);
    let scenario = Scenario {
        target,
        target_ranks: if small { 2 } else { 4 },
        cluster,
        small,
        ..Scenario::baseline(target, 3)
    };
    let (_, trace) = if kind.is_some() {
        scenario.run()
    } else {
        // Idle: deploy nothing measurable — run the cluster briefly by
        // measuring a trivial metadata-only workload far from OST 0.
        let s = Scenario {
            target: WorkloadKind::MdtEasyWrite,
            ..scenario
        };
        s.run()
    }
    .expect("scenario runs");
    let windows = server_windows(&trace.samples, WindowConfig::seconds(1));
    // Pick the busiest mid-run window of OST 0 by completed requests.
    let dev = DeviceId(0);
    let best = windows
        .iter()
        .filter(|((d, _), _)| *d == dev)
        .max_by(|(_, a), (_, b)| {
            a.series[0]
                .sum
                .partial_cmp(&b.series[0].sum)
                .expect("finite sums")
        });
    match best {
        Some((_, w)) => SERVER_SERIES
            .iter()
            .zip(&w.series)
            .map(|(name, s)| (name.to_string(), [s.sum, s.mean, s.std]))
            .collect(),
        None => SERVER_SERIES
            .iter()
            .map(|n| (n.to_string(), [0.0, 0.0, 0.0]))
            .collect(),
    }
}

pub fn run(ctx: &mut Context) {
    let small = ctx.small;
    let loads: [(&str, Option<WorkloadKind>); 4] = [
        ("metadata-only (idle OST)", None),
        (
            "streaming reads (ior-easy-read)",
            Some(WorkloadKind::IorEasyRead),
        ),
        (
            "bulk writes (ior-easy-write)",
            Some(WorkloadKind::IorEasyWrite),
        ),
        (
            "tiny writes (mdt-hard-write)",
            Some(WorkloadKind::MdtHardWrite),
        ),
    ];
    println!("Table II — server-side metrics on OST 0, busiest 1 s window per load\n");
    let mut per_load = Vec::new();
    for (label, kind) in loads {
        per_load.push((label, run_load(kind, small)));
    }

    let mut header = vec!["metric (per-second stats)".to_string()];
    for (label, _) in &per_load {
        header.push(label.to_string());
    }
    let mut table = AsciiTable::new(header);
    for (i, name) in SERVER_SERIES.iter().enumerate() {
        for (stat_i, stat) in ["sum", "mean", "std"].iter().enumerate() {
            let mut row = vec![format!("{name} ({stat})")];
            for (_, metrics) in &per_load {
                row.push(format!("{:.1}", metrics[i].1[stat_i]));
            }
            table.add_row(row);
        }
    }
    println!("{}", table.render());

    // Discrimination checks: the patterns must be tellable apart from
    // the metrics alone (that is what makes the model learnable).
    let get = |load: usize, series: usize| per_load[load].1[series].1[0]; // sum
    let reads_sectors = get(1, 1);
    let write_sectors_reader = get(1, 2);
    let write_sectors_writer = get(2, 2);
    println!("discrimination checks:");
    println!(
        "  reader window: sectors_read {reads_sectors:.0} >> sectors_written {write_sectors_reader:.0} -> {}",
        if reads_sectors > 10.0 * (write_sectors_reader + 1.0) { "ok" } else { "MISMATCH" }
    );
    println!(
        "  writer window: sectors_written {write_sectors_writer:.0} >> reader's {write_sectors_reader:.0} -> {}",
        if write_sectors_writer > 10.0 * (write_sectors_reader + 1.0) { "ok" } else { "MISMATCH" }
    );
    let merges_tiny = get(3, 4);
    let merges_reader = get(1, 4);
    println!(
        "  tiny-write window merges {merges_tiny:.0} vs reader merges {merges_reader:.0} -> {}",
        if merges_tiny > merges_reader {
            "merging visible under small writes [ok]"
        } else {
            "(pattern-dependent)"
        }
    );

    ctx.write_results("table2_server_metrics.csv", &table);
}
