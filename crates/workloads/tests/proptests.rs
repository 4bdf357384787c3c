//! Property-based tests over the workload generators.

use std::collections::BTreeSet;

use proptest::prelude::*;
use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::AppId;
use qi_pfs::ops::IoOp;
use qi_workloads::common::ScriptStep;
use qi_workloads::registry::WorkloadKind;

fn all_kinds() -> Vec<WorkloadKind> {
    WorkloadKind::IO500
        .into_iter()
        .chain(WorkloadKind::DLIO)
        .chain(WorkloadKind::APPS)
        .collect()
}

fn script_of(kind: WorkloadKind, ns: u32, rank: u32, ranks: u32, seed: u64) -> Vec<ScriptStep> {
    kind.build_small()
        .script(AppId(ns), rank, ranks, seed, &ClusterConfig::small())
}

/// `op`'s position among the `IoOp` variants. The match is exhaustive,
/// so a new variant does not compile until it is listed here and
/// counted in [`IO_OP_VARIANTS`].
fn variant(op: &IoOp) -> usize {
    match op {
        IoOp::Read { .. } => 0,
        IoOp::Write { .. } => 1,
        IoOp::Create { .. } => 2,
        IoOp::Open { .. } => 3,
        IoOp::Stat { .. } => 4,
        IoOp::Close { .. } => 5,
        IoOp::Mkdir { .. } => 6,
    }
}

const IO_OP_VARIANTS: usize = 7;

/// Every `IoOp` variant is issued by some workload: a variant no script
/// produces is a simulator path no run reaches.
#[test]
fn every_io_op_variant_has_a_producer() {
    let mut seen = BTreeSet::new();
    for kind in all_kinds() {
        for ranks in 1..=4 {
            for rank in 0..ranks {
                for seed in 1..=3 {
                    for step in script_of(kind, 0, rank, ranks, seed) {
                        if let ScriptStep::Op(op) = step {
                            seen.insert(variant(&op));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(seen, (0..IO_OP_VARIANTS).collect::<BTreeSet<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Scripts are pure functions of (ns, rank, ranks, seed).
    #[test]
    fn scripts_are_deterministic(
        kind in prop::sample::select(all_kinds()),
        rank in 0u32..4,
        ranks in 1u32..5,
        seed in 0u64..1000,
    ) {
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
        kind in prop::sample::select(all_kinds()),
        ns in 0u32..8,
        seed in 0u64..500,
    ) {
        let app = AppId(ns);
        for step in script_of(kind, ns, 0, 2, seed) {
            if let ScriptStep::Op(op) = step {
                let file_app = match &op {
                    IoOp::Read { file, .. }
                    | IoOp::Write { file, .. }
                    | IoOp::Open { file }
                    | IoOp::Stat { file }
                    | IoOp::Close { file }
                    | IoOp::Create { file, .. } => Some(file.app),
                    IoOp::Mkdir { .. } => None,
                };
                if let Some(a) = file_app {
                    prop_assert_eq!(a, app);
                }
                if let IoOp::Create { dir, .. } = &op {
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
    fn op_payloads_are_sane(kind in prop::sample::select(all_kinds()), seed in 0u64..500) {
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
        kind in prop::sample::select(WorkloadKind::IO500[..3].to_vec()), // the three read tasks
        ranks in 1u32..5,
        seed in 0u64..200,
    ) {
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
    fn looping_programs_never_finish(
        kind in prop::sample::select(WorkloadKind::IO500.to_vec()),
        seed in 0u64..50,
    ) {
        use qi_pfs::ops::{ProgramStep, RankProgram};
        use qi_workloads::common::LoopingProgram;
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
