//! Property-based tests over the one door untrusted trace text comes
//! through: `import_dxt`. Whatever the bytes, it answers `Ok` or a
//! typed `DxtParseError` naming the offending line, never a panic.

use proptest::prelude::*;
use qi_monitor::dxt::{export_dxt, import_dxt};
use qi_pfs::ids::{AppId, OpToken};
use qi_pfs::ops::{OpKind, OpRecord, RunTrace};
use qi_simkit::SimTime;

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
    export_dxt(&trace, AppId(0))
}

#[test]
fn unmutated_dxt_imports_every_op() {
    let ops = import_dxt(&valid_dxt(), AppId(0)).expect("valid log");
    assert_eq!(ops.len(), 24);
}

/// `nan`, `inf` and negative timestamps used to load (`end < start` is
/// false for NaN, `as u64` saturates).
#[test]
fn dxt_with_unrepresentable_times_is_refused() {
    for times in ["nan 1.0", "0.0 nan", "0.0 inf", "-1 1.0", "0.0 1e300"] {
        let text = format!("X_POSIX 0 read 0 0 1 {times}\n");
        assert!(import_dxt(&text, AppId(0)).is_err(), "{times}");
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
    /// duplicate a field, truncate the line: `import_dxt` answers `Ok`
    /// or an error naming that line, never a panic or an abort, and
    /// whatever loads keeps every other line's op and runs forward in
    /// time.
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
        let mutated = op_lines[line_pick % op_lines.len()];
        let line = &mut lines[mutated];
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
        match import_dxt(&format!("{}\n", lines.join("\n")), AppId(0)) {
            Err(e) => prop_assert_eq!(e.line, mutated + 1, "{}", e),
            Ok(ops) => {
                // A line truncated to blanks is skipped, not an op.
                prop_assert!(ops.len() + 1 >= op_lines.len() && ops.len() <= op_lines.len());
                prop_assert!(ops.iter().all(|op| op.issued <= op.completed));
            }
        }
    }
}
