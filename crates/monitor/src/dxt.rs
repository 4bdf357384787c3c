//! Darshan DXT-style trace export and import.
//!
//! The paper's Figure 1 data comes from Darshan DXT logs ("The exact
//! time of each I/O request is collected from Darshan DXT logs",
//! §II-B). This module renders a run's operation trace in a DXT-like
//! text format — one line per operation with rank, operation class,
//! sequence number, offset/length, and start/end timestamps — and parses
//! it back, so traces can be stored, diffed, and re-analysed offline the
//! way the paper's labelling pipeline does.

use std::fmt::Write as _;

use qi_pfs::ids::{AppId, OpToken};
use qi_pfs::ops::{OpKind, OpRecord, RunTrace};
use qi_simkit::time::SimTime;

/// Render the target application's operations as a DXT-like log.
pub fn export_dxt(trace: &RunTrace, app: AppId) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# darshan-dxt-like trace, app {}", app.0);
    let _ = writeln!(
        out,
        "# Module  Rank  Op  Seq  Offset  Length  Start(s)  End(s)"
    );
    for op in trace.ops_of(app) {
        let _ = writeln!(
            out,
            "X_POSIX\t{}\t{}\t{}\t{}\t{}\t{:.9}\t{:.9}",
            op.token.rank,
            op.kind.label(),
            op.token.seq,
            0, // offsets are not retained in OpRecord; kept for format shape
            op.bytes,
            op.issued.as_secs_f64(),
            op.completed.as_secs_f64(),
        );
    }
    out
}

/// A parse failure with its line number.
#[derive(Debug, PartialEq, Eq)]
pub struct DxtParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for DxtParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DXT parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DxtParseError {}

fn parse_kind(s: &str) -> Option<OpKind> {
    match s {
        "read" => Some(OpKind::Read),
        "write" => Some(OpKind::Write),
        "open" => Some(OpKind::Open),
        "create" => Some(OpKind::Create),
        "stat" => Some(OpKind::Stat),
        "close" => Some(OpKind::Close),
        "unlink" => Some(OpKind::Unlink),
        "mkdir" => Some(OpKind::Mkdir),
        _ => None,
    }
}

/// A timestamp in seconds as a simulated instant; `None` unless it is
/// finite, non-negative and within `u64` nanoseconds (a bare `as u64`
/// would turn NaN into 0 and saturate the rest).
fn parse_time(s: &str) -> Option<SimTime> {
    let nanos = (s.parse::<f64>().ok()? * 1e9).round();
    // 2^64 is exactly representable; everything below it casts losslessly.
    (0.0..18_446_744_073_709_551_616.0)
        .contains(&nanos)
        .then_some(SimTime(nanos as u64))
}

/// Parse a DXT-like log produced by [`export_dxt`] back into operation
/// records attributed to `app`.
pub fn import_dxt(text: &str, app: AppId) -> Result<Vec<OpRecord>, DxtParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 8 {
            return Err(DxtParseError {
                line: lineno,
                message: format!("expected 8 fields, got {}", fields.len()),
            });
        }
        if fields[0] != "X_POSIX" {
            return Err(DxtParseError {
                line: lineno,
                message: format!("unknown module {:?}", fields[0]),
            });
        }
        let err = |m: &str| DxtParseError {
            line: lineno,
            message: m.to_string(),
        };
        let rank: u32 = fields[1].parse().map_err(|_| err("bad rank"))?;
        let kind = parse_kind(fields[2]).ok_or_else(|| err("bad op kind"))?;
        let seq: u64 = fields[3].parse().map_err(|_| err("bad seq"))?;
        let bytes: u64 = fields[5].parse().map_err(|_| err("bad length"))?;
        let issued = parse_time(fields[6]).ok_or_else(|| err("bad start"))?;
        let completed = parse_time(fields[7]).ok_or_else(|| err("bad end"))?;
        if completed < issued {
            return Err(err("end before start"));
        }
        out.push(OpRecord {
            token: OpToken { app, rank, seq },
            kind,
            bytes,
            issued,
            completed,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> RunTrace {
        let mut t = RunTrace::default();
        for (i, kind) in [OpKind::Open, OpKind::Read, OpKind::Write, OpKind::Close]
            .into_iter()
            .enumerate()
        {
            t.ops.push(OpRecord {
                token: OpToken {
                    app: AppId(2),
                    rank: (i % 2) as u32,
                    seq: i as u64,
                },
                kind,
                bytes: (i as u64) * 1000,
                issued: SimTime::from_millis(i as u64 * 10),
                completed: SimTime::from_millis(i as u64 * 10 + 5),
            });
        }
        // A foreign app's op that must not be exported.
        t.ops.push(OpRecord {
            token: OpToken {
                app: AppId(9),
                rank: 0,
                seq: 0,
            },
            kind: OpKind::Stat,
            bytes: 0,
            issued: SimTime::ZERO,
            completed: SimTime::from_millis(1),
        });
        t
    }

    #[test]
    fn export_import_round_trips() {
        let trace = sample_trace();
        let text = export_dxt(&trace, AppId(2));
        let ops = import_dxt(&text, AppId(2)).expect("parse");
        assert_eq!(ops.len(), 4);
        for (orig, parsed) in trace.ops_of(AppId(2)).zip(&ops) {
            assert_eq!(orig.token, parsed.token);
            assert_eq!(orig.kind, parsed.kind);
            assert_eq!(orig.bytes, parsed.bytes);
            assert_eq!(orig.issued, parsed.issued);
            assert_eq!(orig.completed, parsed.completed);
        }
    }

    #[test]
    fn export_filters_other_apps() {
        let text = export_dxt(&sample_trace(), AppId(2));
        assert!(!text.contains("stat"), "foreign op leaked:\n{text}");
        assert_eq!(text.lines().filter(|l| l.starts_with("X_POSIX")).count(), 4);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\n# more\nX_POSIX 0 read 0 0 100 1.0 1.5\n";
        let ops = import_dxt(text, AppId(0)).expect("parse");
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, OpKind::Read);
        assert_eq!(ops[0].bytes, 100);
    }

    #[test]
    fn malformed_lines_report_position() {
        let text = "# ok\nX_POSIX 0 read 0 0\n";
        let err = import_dxt(text, AppId(0)).expect_err("short line");
        assert_eq!(err.line, 2);
        assert!(err.message.contains("8 fields"));

        let text = "X_POSIX 0 frobnicate 0 0 10 1.0 2.0\n";
        let err = import_dxt(text, AppId(0)).expect_err("bad kind");
        assert!(err.message.contains("op kind"));

        let text = "X_POSIX 0 read 0 0 10 2.0 1.0\n";
        let err = import_dxt(text, AppId(0)).expect_err("inverted times");
        assert!(err.message.contains("end before start"));
    }

    #[test]
    fn unrepresentable_times_are_rejected_with_their_line() {
        for (start, end) in [
            ("nan", "1.0"),
            ("0.0", "NaN"),
            ("0.0", "inf"),
            ("-inf", "1.0"),
            ("-1", "1.0"),
            ("-0.5", "-0.25"),
            ("0.0", "18446744073.709551616"), // 2^64 ns
            ("0.0", "1e300"),
        ] {
            let text = format!("# header\nX_POSIX 0 read 0 0 10 {start} {end}\n");
            let err = import_dxt(&text, AppId(0)).expect_err("unrepresentable time");
            assert_eq!(err.line, 2, "{start} {end}");
            assert!(err.message.starts_with("bad "), "{}", err.message);
        }
        // Negative zero and century-scale instants are fine.
        let ops =
            import_dxt("X_POSIX 0 read 0 0 10 -0.0 4294967296.0\n", AppId(0)).expect("in range");
        assert_eq!(ops[0].issued, SimTime::ZERO);
        assert_eq!(ops[0].completed, SimTime::from_secs(1 << 32));
    }
}
