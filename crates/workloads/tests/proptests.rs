//! Property-based tests over the workload generators, and over the one
//! door untrusted text comes through: `TraceReplay::from_dxt`.

use proptest::prelude::*;
use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::{AppId, OpToken};
use qi_pfs::ops::{IoOp, OpKind, OpRecord, RunTrace};
use qi_simkit::SimTime;
use qi_workloads::common::{ScriptStep, Workload};
use qi_workloads::registry::WorkloadKind;
use qi_workloads::replay::TraceReplay;

fn all_kinds() -> Vec<WorkloadKind> {
    WorkloadKind::IO500
        .into_iter()
        .chain(WorkloadKind::DLIO)
        .chain(WorkloadKind::APPS)
        .chain(WorkloadKind::IO500_EXTENDED)
        .collect()
}

fn script_of(kind: WorkloadKind, ns: u32, rank: u32, ranks: u32, seed: u64) -> Vec<ScriptStep> {
    kind.build_small()
        .script(AppId(ns), rank, ranks, seed, &ClusterConfig::small())
}

/// A valid `export_dxt` log: three ranks, every op kind, real gaps.
fn valid_dxt() -> String {
    const KINDS: [OpKind; 8] = [
        OpKind::Open,
        OpKind::Read,
        OpKind::Write,
        OpKind::Stat,
        OpKind::Create,
        OpKind::Mkdir,
        OpKind::Unlink,
        OpKind::Close,
    ];
    let mut trace = RunTrace::default();
    for i in 0..24u64 {
        let kind = KINDS[i as usize % KINDS.len()];
        trace.ops.push(OpRecord {
            token: OpToken {
                app: AppId(0),
                rank: (i % 3) as u32,
                seq: i / 3,
            },
            kind,
            bytes: if kind.is_data() { 4096 * (i + 1) } else { 0 },
            issued: SimTime::from_millis(i * 7),
            completed: SimTime::from_millis(i * 7 + 3),
        });
    }
    qi_monitor::dxt::export_dxt(&trace, AppId(0))
}

/// Load `text`; whatever loads must also plan: `precreate` and every
/// rank's `script` run to the end. A panic anywhere fails the caller
/// (an abort takes the test binary with it). Returns whether it loaded.
fn loads_and_plans(text: &str) -> bool {
    let Ok(replay) = TraceReplay::from_dxt(text) else {
        return false;
    };
    let cfg = ClusterConfig::small();
    let n = replay.n_ranks();
    let _ = replay.precreate(AppId(0), n, &cfg);
    for rank in 0..n {
        let _ = replay.script(AppId(0), rank, n, 0, &cfg);
    }
    true
}

#[test]
fn unmutated_dxt_loads_and_plans() {
    assert!(loads_and_plans(&valid_dxt()));
}

/// One line naming rank 2^32 − 1 used to size the per-rank table by it:
/// a 103 GB `vec!`, which aborts the process.
#[test]
fn dxt_with_an_absurd_rank_is_refused() {
    assert!(!loads_and_plans("X_POSIX 4294967295 read 0 0 1 0.0 1.0\n"));
}

/// Two reads of 2^64 − 1 bytes used to overflow the per-rank byte sum:
/// a panic in debug builds, a silent wrap in release.
#[test]
fn dxt_with_overflowing_byte_totals_is_refused() {
    let line = "X_POSIX 0 read 0 0 18446744073709551615 0.0 1.0\n";
    assert!(!loads_and_plans(&format!("{line}{line}")));
    // Writes are laid end to end the same way.
    assert!(!loads_and_plans(&line.repeat(2).replace("read", "write")));
}

/// `nan`, `inf` and negative timestamps used to load (`end < start` is
/// false for NaN, `as u64` saturates).
#[test]
fn dxt_with_unrepresentable_times_is_refused() {
    for times in ["nan 1.0", "0.0 nan", "0.0 inf", "-1 1.0", "0.0 1e300"] {
        let text = format!("X_POSIX 0 read 0 0 1 {times}\n");
        assert!(
            qi_monitor::dxt::import_dxt(&text, AppId(0)).is_err(),
            "{times}"
        );
        assert!(!loads_and_plans(&text), "{times}");
    }
}

/// Tokens a forged or corrupted log might carry in any field.
const HOSTILE_TOKENS: [&str; 16] = [
    "",
    "-1",
    "0",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999999999",
    "nan",
    "NaN",
    "inf",
    "-inf",
    "1e308",
    "read",
    "X_POSIX\u{a0}",
    "réad",
];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// One mutation of one operation line of a valid log — rewrite a
    /// field with a hostile token or an arbitrary integer, drop or
    /// duplicate a field, truncate the line: `from_dxt` answers `Ok` or
    /// `Err`, never a panic or an abort, and whatever loads also plans.
    #[test]
    fn mutated_dxt_never_panics(
        line_pick in 0usize..1000,
        field in 0usize..8,
        mutation in 0u8..5,
        token_pick in 0usize..HOSTILE_TOKENS.len(),
        number in (0u64..u64::MAX, 0u32..64).prop_map(|(n, shift)| n >> shift),
        cut in 0usize..1000,
    ) {
        let mut lines: Vec<String> = valid_dxt().lines().map(str::to_string).collect();
        let op_lines: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("X_POSIX"))
            .collect();
        let line = &mut lines[op_lines[line_pick % op_lines.len()]];
        let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
        match mutation {
            0 => fields[field] = HOSTILE_TOKENS[token_pick].to_string(),
            1 => fields[field] = number.to_string(),
            2 => {
                fields.remove(field);
            }
            3 => fields.insert(field, fields[field].clone()),
            _ => {
                let joined = fields.join("\t");
                fields = vec![joined[..cut % joined.len()].to_string()];
            }
        }
        *line = fields.join("\t");
        let _ = loads_and_plans(&format!("{}\n", lines.join("\n")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Scripts are pure functions of (ns, rank, ranks, seed).
    #[test]
    fn scripts_are_deterministic(
        kind_idx in 0usize..16,
        rank in 0u32..4,
        ranks in 1u32..5,
        seed in 0u64..1000,
    ) {
        let kind = all_kinds()[kind_idx];
        let rank = rank % ranks;
        let a = script_of(kind, 0, rank, ranks, seed);
        let b = script_of(kind, 0, rank, ranks, seed);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            match (x, y) {
                (ScriptStep::Op(p), ScriptStep::Op(q)) => prop_assert_eq!(p, q),
                (ScriptStep::Compute(p), ScriptStep::Compute(q)) => prop_assert_eq!(p, q),
                _ => prop_assert!(false, "step shape differs"),
            }
        }
    }

    /// Every operation a script issues stays inside its own namespace —
    /// no workload can touch another application's files.
    #[test]
    fn scripts_stay_in_their_namespace(
        kind_idx in 0usize..16,
        ns in 0u32..8,
        seed in 0u64..500,
    ) {
        let kind = all_kinds()[kind_idx];
        let app = AppId(ns);
        for step in script_of(kind, ns, 0, 2, seed) {
            if let ScriptStep::Op(op) = step {
                let file_app = match &op {
                    IoOp::Read { file, .. }
                    | IoOp::Write { file, .. }
                    | IoOp::Open { file }
                    | IoOp::Stat { file }
                    | IoOp::Close { file }
                    | IoOp::Unlink { file, .. }
                    | IoOp::Create { file, .. } => Some(file.app),
                    IoOp::Mkdir { .. } => None,
                };
                if let Some(a) = file_app {
                    prop_assert_eq!(a, app);
                }
                if let IoOp::Create { dir, .. } | IoOp::Unlink { dir, .. } = &op {
                    prop_assert_eq!(dir.app, app);
                }
                if let IoOp::Mkdir { dir } = &op {
                    prop_assert_eq!(dir.app, app);
                }
            }
        }
    }

    /// All data operations have positive length and metadata ops carry
    /// no payload.
    #[test]
    fn op_payloads_are_sane(kind_idx in 0usize..16, seed in 0u64..500) {
        let kind = all_kinds()[kind_idx];
        for step in script_of(kind, 1, 0, 2, seed) {
            if let ScriptStep::Op(op) = step {
                if op.kind().is_data() {
                    prop_assert!(op.bytes() > 0, "{:?} zero-length data op", op.kind());
                } else {
                    prop_assert_eq!(op.bytes(), 0);
                }
            }
        }
    }

    /// ior-hard offsets never overlap across ranks, for any rank count.
    #[test]
    fn ior_hard_is_conflict_free(ranks in 1u32..9, seed in 0u64..100) {
        let kind = WorkloadKind::IorHardWrite;
        let mut seen = std::collections::HashSet::new();
        for r in 0..ranks {
            for step in script_of(kind, 0, r, ranks, seed) {
                if let ScriptStep::Op(IoOp::Write { offset, len, .. }) = step {
                    prop_assert!(seen.insert(offset), "offset {} reused", offset);
                    prop_assert_eq!(len, qi_workloads::io500::IOR_HARD_XFER);
                }
            }
        }
    }

    /// Precreated inputs always cover what read-type scripts consume:
    /// every read targets a precreated file within its length.
    #[test]
    fn reads_are_backed_by_precreated_data(
        kind_idx in prop::sample::select(vec![0usize, 1, 2]), // the three read tasks
        ranks in 1u32..5,
        seed in 0u64..200,
    ) {
        let kind = WorkloadKind::IO500[kind_idx];
        let w = kind.build_small();
        let cfg = ClusterConfig::small();
        let pre: std::collections::HashMap<_, _> = w
            .precreate(AppId(0), ranks, &cfg)
            .into_iter()
            .map(|p| (p.file, p.len))
            .collect();
        for r in 0..ranks {
            for step in w.script(AppId(0), r, ranks, seed, &cfg) {
                if let ScriptStep::Op(IoOp::Read { file, offset, len }) = step {
                    let flen = pre.get(&file).copied();
                    prop_assert!(flen.is_some(), "read of unprecreated file {:?}", file);
                    prop_assert!(
                        offset + len <= flen.expect("present"),
                        "read past EOF: {}+{} > {:?}",
                        offset,
                        len,
                        flen
                    );
                }
            }
        }
    }

    /// Looping interference never finishes: the program keeps yielding
    /// steps far beyond one script length.
    #[test]
    fn looping_programs_never_finish(kind_idx in 0usize..7, seed in 0u64..50) {
        use qi_pfs::ops::{ProgramStep, RankProgram};
        use qi_workloads::common::LoopingProgram;
        let kind = WorkloadKind::IO500[kind_idx];
        let w = kind.build_small();
        let one_pass = w
            .script(AppId(0), 0, 2, seed, &ClusterConfig::small())
            .len();
        let mut p = LoopingProgram::new(
            kind.build_small(),
            AppId(0),
            0,
            2,
            seed,
            ClusterConfig::small(),
        );
        for i in 0..(one_pass * 2 + 10) {
            let step = p.next(qi_simkit::SimTime::ZERO);
            prop_assert!(
                !matches!(step, ProgramStep::Finished),
                "looping program finished at step {}",
                i
            );
        }
    }
}
