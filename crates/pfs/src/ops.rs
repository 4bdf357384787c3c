//! Workload-visible operations, rank programs, and trace records.
//!
//! A *rank program* is a closed-loop state machine: the cluster asks it
//! for its next step whenever the previous operation completes. Because
//! the sequence of returned steps may depend only on program-internal
//! state (never on timing), the op sequence of a run is invariant under
//! interference — which is what makes the paper's baseline-vs-interfered
//! operation matching (§III-D) well defined.

use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::MetricsSnapshot;

use crate::config::StripeConfig;
use crate::control::DirectiveRecord;
use crate::ids::{AppId, DeviceId, DirKey, FileKey, OpToken};
use crate::queue::DeviceCounters;

/// Classification of I/O operations, matching the three groups the
/// client-side monitor counts (read / write / metadata).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// File open (lookup).
    Open,
    /// File creation.
    Create,
    /// Attribute read.
    Stat,
    /// File close.
    Close,
    /// File removal.
    Unlink,
    /// Directory creation.
    Mkdir,
}

impl OpKind {
    /// True for `Read`/`Write`.
    pub fn is_data(self) -> bool {
        matches!(self, OpKind::Read | OpKind::Write)
    }

    /// True for the metadata group.
    pub fn is_meta(self) -> bool {
        !self.is_data()
    }

    /// Short lowercase label for tables.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Open => "open",
            OpKind::Create => "create",
            OpKind::Stat => "stat",
            OpKind::Close => "close",
            OpKind::Unlink => "unlink",
            OpKind::Mkdir => "mkdir",
        }
    }
}

/// One I/O operation issued by a rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// Read `len` bytes at `offset`.
    Read {
        /// Target file.
        file: FileKey,
        /// Byte offset.
        offset: u64,
        /// Byte count (> 0).
        len: u64,
    },
    /// Write `len` bytes at `offset`.
    Write {
        /// Target file.
        file: FileKey,
        /// Byte offset.
        offset: u64,
        /// Byte count (> 0).
        len: u64,
    },
    /// Create `file` inside `dir` (acquires the directory lock).
    Create {
        /// New file.
        file: FileKey,
        /// Parent directory.
        dir: DirKey,
        /// Optional stripe override; cluster default otherwise.
        stripe: Option<StripeConfig>,
    },
    /// Open an existing file (lookup on the MDS).
    Open {
        /// Target file.
        file: FileKey,
    },
    /// Stat a file (lookup on the MDS).
    Stat {
        /// Target file.
        file: FileKey,
    },
    /// Close a file (cheap MDS round-trip).
    Close {
        /// Target file.
        file: FileKey,
    },
    /// Create a directory (acquires the *parent*-less global lock — we
    /// model it as a mutation on its own key).
    Mkdir {
        /// New directory.
        dir: DirKey,
    },
}

impl IoOp {
    /// This operation's kind.
    pub fn kind(&self) -> OpKind {
        match self {
            IoOp::Read { .. } => OpKind::Read,
            IoOp::Write { .. } => OpKind::Write,
            IoOp::Create { .. } => OpKind::Create,
            IoOp::Open { .. } => OpKind::Open,
            IoOp::Stat { .. } => OpKind::Stat,
            IoOp::Close { .. } => OpKind::Close,
            IoOp::Mkdir { .. } => OpKind::Mkdir,
        }
    }

    /// Payload bytes moved by this operation (0 for metadata ops).
    pub fn bytes(&self) -> u64 {
        match self {
            IoOp::Read { len, .. } | IoOp::Write { len, .. } => *len,
            _ => 0,
        }
    }
}

/// What a rank does next.
#[derive(Debug)]
pub enum ProgramStep {
    /// Issue this operation; the program is asked again on completion.
    Op(IoOp),
    /// Compute (no I/O) for this long, then ask again.
    Compute(SimDuration),
    /// The rank is done.
    Finished,
}

/// A rank's workload: called once at start and then after each completed
/// step. Implementations must be timing-independent in the *sequence* of
/// ops they return (using `now` only for logging is fine).
pub trait RankProgram: Send {
    /// Produce the next step.
    fn next(&mut self, now: SimTime) -> ProgramStep;

    /// A boxed copy in this program's current state: it returns the same
    /// steps from here on. Copying a cluster copies its programs.
    fn boxed_copy(&self) -> Box<dyn RankProgram>;
}

impl Clone for Box<dyn RankProgram> {
    fn clone(&self) -> Self {
        self.boxed_copy()
    }
}

impl<F> RankProgram for F
where
    F: FnMut(SimTime) -> ProgramStep + Send + Clone + 'static,
{
    fn next(&mut self, now: SimTime) -> ProgramStep {
        self(now)
    }

    fn boxed_copy(&self) -> Box<dyn RankProgram> {
        Box::new(self.clone())
    }
}

/// Completed-operation trace record (the DXT-like client-side trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Operation identity, stable across baseline/interfered runs.
    pub token: OpToken,
    /// Operation kind.
    pub kind: OpKind,
    /// Payload bytes.
    pub bytes: u64,
    /// Issue time.
    pub issued: SimTime,
    /// Completion time.
    pub completed: SimTime,
}

impl OpRecord {
    /// Wall time the operation took.
    pub fn duration(&self) -> SimDuration {
        self.completed - self.issued
    }
}

/// Per-RPC client-side record: which server a request targeted. This is
/// what lets the monitor build *per-server* client metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RpcRecord {
    /// Issuing application.
    pub app: AppId,
    /// Target device (OST or MDT).
    pub dev: DeviceId,
    /// Kind of the parent operation.
    pub kind: OpKind,
    /// Payload bytes carried by this RPC.
    pub bytes: u64,
    /// Issue time.
    pub issued: SimTime,
}

/// One per-second server-side monitor sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServerSample {
    /// Sample timestamp (end of the 1 s interval).
    pub time: SimTime,
    /// Sampled device.
    pub dev: DeviceId,
    /// Cumulative device counters at `time`.
    pub counters: DeviceCounters,
    /// Dirty bytes in the device's write-back cache.
    pub dirty_bytes: u64,
    /// Writes currently throttled at the cache.
    pub throttled_now: u64,
}

/// Everything a simulated execution produces.
#[derive(Clone, Default)]
pub struct RunTrace {
    /// Completed operations, in completion order.
    pub ops: Vec<OpRecord>,
    /// Issued RPCs, in issue order.
    pub rpcs: Vec<RpcRecord>,
    /// Per-second server samples, grouped by time then device.
    pub samples: Vec<ServerSample>,
    /// Per-app completion time (set when every rank finished).
    pub app_completion: Vec<Option<SimTime>>,
    /// Operations abandoned by the RPC retry layer (deadline exceeded or
    /// retry budget exhausted under an injected fault plan). Empty on
    /// healthy runs.
    pub failed_ops: Vec<OpToken>,
    /// Every control directive applied during the run, in application
    /// order. Empty unless a controller was installed (or a directive
    /// was applied by hand); the full mitigation decision sequence is
    /// replayable from this alone.
    pub directives: Vec<DirectiveRecord>,
    /// Simulation end time.
    pub end: SimTime,
    /// Events the simulation loop delivered to produce this trace,
    /// counting each continuation a handler ran inline instead of
    /// queuing (`EventQueue::claim_now`) once, as the event it stands
    /// for. Not part of the telemetry snapshot (golden renderings stay
    /// byte-stable); recorded for the scaling benches, which report
    /// events/second from it.
    pub events_processed: u64,
    /// Cluster-wide telemetry snapshot taken when the run ended
    /// (per-device block-layer statistics, NIC utilisation, MDS
    /// metadata statistics). Deterministic and byte-stable when
    /// rendered; see the `qi-telemetry` crate.
    pub metrics: MetricsSnapshot,
}

impl RunTrace {
    /// Operations belonging to `app`.
    pub fn ops_of(&self, app: AppId) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(move |o| o.token.app == app)
    }

    /// Completion time of `app`, if it finished before the run ended.
    pub fn completion_of(&self, app: AppId) -> Option<SimTime> {
        self.app_completion.get(app.0 as usize).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_grouping() {
        assert!(OpKind::Read.is_data());
        assert!(OpKind::Write.is_data());
        for k in [
            OpKind::Open,
            OpKind::Create,
            OpKind::Stat,
            OpKind::Close,
            OpKind::Unlink,
            OpKind::Mkdir,
        ] {
            assert!(k.is_meta(), "{k:?}");
        }
    }

    #[test]
    fn op_bytes_and_kind() {
        let f = FileKey {
            app: AppId(0),
            num: 1,
        };
        let op = IoOp::Write {
            file: f,
            offset: 0,
            len: 4096,
        };
        assert_eq!(op.kind(), OpKind::Write);
        assert_eq!(op.bytes(), 4096);
        let st = IoOp::Stat { file: f };
        assert_eq!(st.bytes(), 0);
        assert_eq!(st.kind().label(), "stat");
    }

    #[test]
    fn closures_are_programs() {
        let mut calls = 0;
        let mut p = move |_now: SimTime| {
            calls += 1;
            if calls > 1 {
                ProgramStep::Finished
            } else {
                ProgramStep::Compute(SimDuration::from_secs(1))
            }
        };
        assert!(matches!(p.next(SimTime::ZERO), ProgramStep::Compute(_)));
        assert!(matches!(p.next(SimTime::ZERO), ProgramStep::Finished));
    }

    #[test]
    fn record_duration() {
        let r = OpRecord {
            token: OpToken {
                app: AppId(0),
                rank: 0,
                seq: 0,
            },
            kind: OpKind::Read,
            bytes: 1,
            issued: SimTime::from_millis(10),
            completed: SimTime::from_millis(25),
        };
        assert_eq!(r.duration(), SimDuration::from_millis(15));
    }
}
