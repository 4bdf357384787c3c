//! Trace-replay workload: turn a recorded operation trace (e.g. a
//! Darshan-DXT-like log exported by `qi-monitor::dxt`) back into a
//! runnable workload.
//!
//! This closes the loop the paper's data pipeline implies: capture an
//! application's I/O once, then replay it — alone or under synthetic
//! interference — without the application. Replay preserves each rank's
//! operation order, sizes, and *think time* (the gap between one
//! operation completing and the next being issued becomes a compute
//! step); the actual I/O service times are re-simulated.
//!
//! Because the original trace does not retain file identities or
//! offsets (DXT-style logs are per-op timings), replay maps each rank's
//! data stream onto one private file with sequential offsets — the
//! pattern-preserving approximation documented in DESIGN.md.

use qi_pfs::config::ClusterConfig;
use qi_pfs::ids::AppId;
use qi_pfs::ops::{IoOp, OpKind, OpRecord};
use qi_simkit::time::SimTime;

use crate::common::{nsdir, nsfile, Placement, PrecreateFile, ScriptStep, Workload};

/// A workload that replays a recorded trace, rank by rank.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    /// Per-rank op lists (kind, bytes, issue time, completion time),
    /// sorted by sequence.
    per_rank: Vec<Vec<(OpKind, u64, SimTime, SimTime)>>,
    /// Total bytes each rank reads (for precreating its input file).
    read_bytes: Vec<u64>,
    /// Scale factor applied to think times (1.0 = as recorded).
    pub think_scale: f64,
}

/// Most ranks [`TraceReplay::from_dxt`] accepts per operation line.
/// Darshan numbers ranks densely from zero, so a real log names about
/// as many ranks as it has lines or fewer; the slack covers ranks that
/// logged nothing. Replay state is sized by the largest rank, so
/// without a bound one forged line allocates gigabytes.
const DXT_MAX_RANKS_PER_OP: usize = 16;

impl TraceReplay {
    /// Build a replay from operation records (any order; ranks are taken
    /// from the tokens, sequences restored from `seq`).
    ///
    /// In-process contract: `records` is non-empty and comes from a run,
    /// so per-rank byte totals fit in `u64`; both are asserted. Text from
    /// outside the program enters through [`TraceReplay::from_dxt`].
    pub fn from_records(records: &[OpRecord]) -> Self {
        assert!(!records.is_empty(), "empty trace");
        Self::group(records).expect("trace from a run")
    }

    /// Build a replay straight from a DXT-like log (see
    /// `qi_monitor::dxt::import_dxt` for the format). The text is
    /// untrusted: besides parse errors, a trace with no operations, a
    /// rank range out of proportion to its length, or per-rank byte
    /// totals beyond `u64` is an error, never a panic or a huge
    /// allocation.
    pub fn from_dxt(text: &str) -> Result<Self, String> {
        let records = qi_monitor::dxt::import_dxt(text, AppId(0)).map_err(|e| e.to_string())?;
        let Some(max_rank) = records.iter().map(|r| r.token.rank).max() else {
            return Err("trace contains no operations".to_string());
        };
        if max_rank as usize / DXT_MAX_RANKS_PER_OP >= records.len() {
            return Err(format!(
                "rank {max_rank} in a trace of {} operations (at most {DXT_MAX_RANKS_PER_OP} ranks per operation)",
                records.len()
            ));
        }
        Self::group(&records)
    }

    /// Group `records` (non-empty) by rank and restore sequence order.
    fn group(records: &[OpRecord]) -> Result<Self, String> {
        // (seq, kind, bytes, issued, completed) per rank, pre-sorting.
        type RawOp = (u64, OpKind, u64, SimTime, SimTime);
        let n_ranks = records.iter().map(|r| r.token.rank).max().unwrap_or(0) as usize + 1;
        let mut per_rank: Vec<Vec<RawOp>> = vec![Vec::new(); n_ranks];
        for r in records {
            per_rank[r.token.rank as usize].push((
                r.token.seq,
                r.kind,
                r.bytes,
                r.issued,
                r.completed,
            ));
        }
        let mut out = Vec::with_capacity(n_ranks);
        let mut read_bytes = Vec::with_capacity(n_ranks);
        for (rank, mut ops) in per_rank.into_iter().enumerate() {
            ops.sort_unstable_by_key(|&(seq, ..)| seq);
            // `script` lays a rank's reads, and its writes, end to end,
            // an empty op still advancing one byte: both extents must
            // fit in `u64` (which also bounds the read total below).
            for kind in [OpKind::Read, OpKind::Write] {
                ops.iter()
                    .filter(|&&(_, k, ..)| k == kind)
                    .try_fold(0u64, |end, &(_, _, b, ..)| end.checked_add(b.max(1)))
                    .ok_or_else(|| format!("rank {rank}: {} bytes overflow u64", kind.label()))?;
            }
            read_bytes.push(
                ops.iter()
                    .filter(|(_, k, ..)| *k == OpKind::Read)
                    .map(|&(_, _, b, ..)| b)
                    .sum(),
            );
            out.push(
                ops.into_iter()
                    .map(|(_, k, b, i, c)| (k, b, i, c))
                    .collect(),
            );
        }
        Ok(TraceReplay {
            per_rank: out,
            read_bytes,
            think_scale: 1.0,
        })
    }

    /// Ranks recorded in the trace.
    pub fn n_ranks(&self) -> u32 {
        self.per_rank.len() as u32
    }

    /// Operations recorded for `rank`.
    pub fn ops_of_rank(&self, rank: u32) -> usize {
        self.per_rank.get(rank as usize).map(Vec::len).unwrap_or(0)
    }
}

impl Workload for TraceReplay {
    fn name(&self) -> String {
        "trace-replay".into()
    }

    fn precreate(&self, ns: AppId, ranks: u32, _cfg: &ClusterConfig) -> Vec<PrecreateFile> {
        // One private data file per rank, big enough for its reads
        // (writes allocate on demand).
        (0..ranks.min(self.n_ranks()))
            .filter(|&r| self.read_bytes[r as usize] > 0)
            .map(|r| PrecreateFile {
                file: nsfile(ns, r as u64),
                len: self.read_bytes[r as usize],
                placement: Placement::RoundRobin(None),
            })
            .collect()
    }

    fn script(
        &self,
        ns: AppId,
        rank: u32,
        _ranks: u32,
        _seed: u64,
        _cfg: &ClusterConfig,
    ) -> Vec<ScriptStep> {
        let Some(ops) = self.per_rank.get(rank as usize) else {
            return Vec::new();
        };
        let file = nsfile(ns, rank as u64);
        let dir = nsdir(ns, 0);
        let mut steps = Vec::with_capacity(ops.len() * 2);
        let mut read_off = 0u64;
        let mut write_off = 0u64;
        let mut prev_complete: Option<SimTime> = None;
        for &(kind, bytes, issued, completed) in ops {
            // Think time: the recorded gap between the previous op's
            // completion and this op's issue.
            if let Some(prev) = prev_complete {
                let gap = issued.saturating_since(prev);
                if gap.as_nanos() > 0 && self.think_scale > 0.0 {
                    steps.push(ScriptStep::Compute(qi_simkit::SimDuration::from_secs_f64(
                        gap.as_secs_f64() * self.think_scale,
                    )));
                }
            }
            prev_complete = Some(completed);
            let op = match kind {
                OpKind::Read => {
                    let op = IoOp::Read {
                        file,
                        offset: read_off,
                        len: bytes.max(1),
                    };
                    read_off += bytes.max(1);
                    op
                }
                OpKind::Write => {
                    let op = IoOp::Write {
                        file,
                        offset: write_off,
                        len: bytes.max(1),
                    };
                    write_off += bytes.max(1);
                    op
                }
                OpKind::Open => IoOp::Open { file },
                OpKind::Stat => IoOp::Stat { file },
                OpKind::Close => IoOp::Close { file },
                OpKind::Create => IoOp::Create {
                    file: nsfile(ns, 1_000_000 + rank as u64),
                    dir,
                    stripe: None,
                },
                OpKind::Unlink => IoOp::Unlink {
                    file: nsfile(ns, 1_000_000 + rank as u64),
                    dir,
                },
                OpKind::Mkdir => IoOp::Mkdir { dir },
            };
            steps.push(ScriptStep::Op(op));
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::deploy;
    use qi_pfs::cluster::Cluster;
    use qi_pfs::ids::OpToken;
    use std::sync::Arc;

    fn record(
        rank: u32,
        seq: u64,
        kind: OpKind,
        bytes: u64,
        issue_ms: u64,
        dur_ms: u64,
    ) -> OpRecord {
        OpRecord {
            token: OpToken {
                app: AppId(0),
                rank,
                seq,
            },
            kind,
            bytes,
            issued: SimTime::from_millis(issue_ms),
            completed: SimTime::from_millis(issue_ms + dur_ms),
        }
    }

    fn sample_records() -> Vec<OpRecord> {
        vec![
            record(0, 0, OpKind::Open, 0, 0, 1),
            record(0, 1, OpKind::Read, 1024 * 1024, 10, 8),
            record(0, 2, OpKind::Read, 1024 * 1024, 120, 8), // 102 ms think
            record(0, 3, OpKind::Close, 0, 130, 1),
            record(1, 0, OpKind::Write, 4096, 0, 2),
        ]
    }

    #[test]
    fn replay_preserves_order_sizes_and_think_time() {
        let replay = TraceReplay::from_records(&sample_records());
        assert_eq!(replay.n_ranks(), 2);
        assert_eq!(replay.ops_of_rank(0), 4);
        let script = replay.script(AppId(0), 0, 2, 0, &ClusterConfig::small());
        // open, (think), read, (think), read, (think), close
        let kinds: Vec<&str> = script
            .iter()
            .map(|s| match s {
                ScriptStep::Op(op) => op.kind().label(),
                ScriptStep::Compute(_) => "think",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["open", "think", "read", "think", "read", "think", "close"]
        );
        // The second think gap is issue(120ms) - complete(18ms) = 102 ms.
        if let ScriptStep::Compute(d) = &script[3] {
            assert!((d.as_secs_f64() - 0.102).abs() < 1e-9, "{d}");
        } else {
            panic!("expected think time");
        }
        // Reads are sequential within the rank's private file.
        let offsets: Vec<u64> = script
            .iter()
            .filter_map(|s| match s {
                ScriptStep::Op(IoOp::Read { offset, .. }) => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offsets, vec![0, 1024 * 1024]);
    }

    #[test]
    fn replay_precreates_read_inputs() {
        let replay = TraceReplay::from_records(&sample_records());
        let pre = replay.precreate(AppId(0), 2, &ClusterConfig::small());
        // Rank 0 reads 2 MiB, rank 1 reads nothing.
        assert_eq!(pre.len(), 1);
        assert_eq!(pre[0].len, 2 * 1024 * 1024);
    }

    #[test]
    fn replay_runs_on_a_cluster() {
        let replay: Arc<dyn Workload> = Arc::new(TraceReplay::from_records(&sample_records()));
        let mut cl = Cluster::builder()
            .config(ClusterConfig::small())
            .seed(1)
            .build()
            .expect("valid test cluster");
        let nodes = cl.client_nodes();
        let app = deploy(&mut cl, &replay, 2, &nodes[..2], 0, false);
        let trace = cl.run_until_app(app, SimTime::from_secs(30));
        assert!(trace.completion_of(app).is_some());
        assert_eq!(trace.ops_of(app).count(), 5);
    }

    #[test]
    fn dxt_round_trip_into_replay() {
        // Export a real run's trace and replay it.
        let mut cl = Cluster::builder()
            .config(ClusterConfig::small())
            .seed(3)
            .build()
            .expect("valid test cluster");
        let file = qi_pfs::ids::FileKey {
            app: AppId(0),
            num: 7,
        };
        cl.precreate_file(file, 8 * 1024 * 1024, None);
        let mut i = 0u64;
        let prog = move |_now: SimTime| {
            if i >= 8 {
                return qi_pfs::ops::ProgramStep::Finished;
            }
            i += 1;
            qi_pfs::ops::ProgramStep::Op(IoOp::Read {
                file,
                offset: (i - 1) * 1024 * 1024,
                len: 1024 * 1024,
            })
        };
        let app = cl.add_app("orig", vec![Box::new(prog)], &[qi_pfs::ids::NodeId(0)]);
        let trace = cl.run_until_app(app, SimTime::from_secs(30));
        let dxt = qi_monitor::dxt::export_dxt(&trace, app);

        let replay: Arc<dyn Workload> = Arc::new(TraceReplay::from_dxt(&dxt).expect("parse trace"));
        let mut cl2 = Cluster::builder()
            .config(ClusterConfig::small())
            .seed(4)
            .build()
            .expect("valid test cluster");
        let nodes = cl2.client_nodes();
        let app2 = deploy(&mut cl2, &replay, 1, &nodes[..1], 0, false);
        let trace2 = cl2.run_until_app(app2, SimTime::from_secs(30));
        assert_eq!(trace2.ops_of(app2).count(), 8);
        let bytes: u64 = trace2.ops_of(app2).map(|o| o.bytes).sum();
        assert_eq!(bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn empty_trace_is_rejected() {
        assert!(TraceReplay::from_dxt("# nothing\n").is_err());
    }
}
