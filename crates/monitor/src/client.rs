//! Client-side monitor (the modified-Darshan role, paper §III-A).
//!
//! Consumes a run's operation and RPC trace and aggregates, per
//! application and time window:
//!
//! - **# of I/O requests** — individual and combined counts of read,
//!   write, and metadata operations;
//! - **I/O sizes** — individual and combined byte totals;
//! - **actual I/O time** — total time spent in I/O inside the window,
//!   plus derived throughput and IOPS;
//! - **per-server targeting** — request/byte counts split by the storage
//!   device each RPC went to (what the per-server model vectors need).

use std::collections::HashMap;

use qi_pfs::ids::AppId;
use qi_pfs::ops::{OpKind, OpRecord, RpcRecord, RunTrace};
use qi_simkit::time::SimDuration;

use crate::features::FeatureConfig;
use crate::pipeline::FeaturePipeline;
use crate::window::WindowConfig;

/// Client-side metrics for one `(application, window)` cell:
/// aggregates only. The labelling stage, which matches individual
/// operations against a baseline, reads them from the `RunTrace`.
#[derive(Clone, Debug, Default)]
pub struct ClientWindow {
    /// Completed read operations.
    pub reads: u64,
    /// Completed write operations.
    pub writes: u64,
    /// Completed metadata operations.
    pub metas: u64,
    /// Bytes moved by reads.
    pub bytes_read: u64,
    /// Bytes moved by writes.
    pub bytes_written: u64,
    /// Total time spent in I/O (sum of op durations completing here).
    pub io_time: SimDuration,
    /// Per-device targeting counters, indexed by device id.
    pub per_dev: Vec<DevTargeting>,
}

/// How much of an application's window load targeted one device.
#[derive(Clone, Copy, Debug, Default)]
pub struct DevTargeting {
    /// Read RPCs sent to this device.
    pub read_reqs: u64,
    /// Write RPCs sent to this device.
    pub write_reqs: u64,
    /// Metadata RPCs sent to this device.
    pub meta_reqs: u64,
    /// Read payload bytes.
    pub bytes_read: u64,
    /// Write payload bytes.
    pub bytes_written: u64,
}

impl ClientWindow {
    /// An empty cell with per-device targeting slots for `n_devices`.
    pub fn sized(n_devices: usize) -> Self {
        ClientWindow {
            per_dev: vec![DevTargeting::default(); n_devices],
            ..ClientWindow::default()
        }
    }

    /// Accumulate one completed operation into this cell. This (with
    /// [`ClientWindow::record_rpc`]) is the *single* definition of
    /// client-side accumulation — both the streaming pipeline and the
    /// batch adapters go through it.
    pub fn record_op(&mut self, op: &OpRecord) {
        match op.kind {
            OpKind::Read => {
                self.reads += 1;
                self.bytes_read += op.bytes;
            }
            OpKind::Write => {
                self.writes += 1;
                self.bytes_written += op.bytes;
            }
            _ => self.metas += 1,
        }
        self.io_time += op.duration();
    }

    /// Accumulate one issued RPC's per-server targeting into this cell.
    pub fn record_rpc(&mut self, rpc: &RpcRecord) {
        let d = &mut self.per_dev[rpc.dev.index()];
        match rpc.kind {
            OpKind::Read => {
                d.read_reqs += 1;
                d.bytes_read += rpc.bytes;
            }
            OpKind::Write => {
                d.write_reqs += 1;
                d.bytes_written += rpc.bytes;
            }
            _ => d.meta_reqs += 1,
        }
    }

    /// Combined operation count.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.metas
    }

    /// Combined bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Bytes per second of window time.
    pub fn throughput(&self, window: SimDuration) -> f64 {
        self.total_bytes() as f64 / window.as_secs_f64()
    }

    /// Operations per second of window time.
    pub fn iops(&self, window: SimDuration) -> f64 {
        self.total_ops() as f64 / window.as_secs_f64()
    }
}

/// Aggregate a run's client-side trace into per-(app, window) metrics.
///
/// Operations are attributed to the window in which they *complete*
/// (matching how the aggregator flushes its shared-memory buffer); RPC
/// targeting is attributed to the issue window.
///
/// This is a thin batch adapter over the streaming
/// [`FeaturePipeline`] — the accumulation itself is defined once, in
/// [`ClientWindow::record_op`]/[`ClientWindow::record_rpc`] driven by
/// the pipeline, so the batch result is byte-identical to streaming
/// the same events.
pub fn client_windows(
    trace: &RunTrace,
    cfg: WindowConfig,
    n_devices: u32,
) -> HashMap<(AppId, u64), ClientWindow> {
    // Only the client streams matter here; an empty sample stream keeps
    // the pipeline from doing server-side work.
    let pipeline = FeaturePipeline::new(cfg, FeatureConfig::default(), n_devices);
    let mut out = HashMap::new();
    for ew in pipeline.run_streams(&trace.ops, &trace.rpcs, &[]) {
        for (app, cell) in ew.clients {
            out.insert((app, ew.window), cell);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_pfs::ids::{DeviceId, OpToken};
    use qi_pfs::ops::{OpRecord, RpcRecord};
    use qi_simkit::time::SimTime;

    fn tok(app: u32, seq: u64) -> OpToken {
        OpToken {
            app: AppId(app),
            rank: 0,
            seq,
        }
    }

    fn trace() -> RunTrace {
        let mut t = RunTrace::default();
        t.ops.push(OpRecord {
            token: tok(0, 0),
            kind: OpKind::Write,
            bytes: 1000,
            issued: SimTime::from_millis(100),
            completed: SimTime::from_millis(300),
        });
        t.ops.push(OpRecord {
            token: tok(0, 1),
            kind: OpKind::Read,
            bytes: 2000,
            issued: SimTime::from_millis(400),
            completed: SimTime::from_millis(1200), // next window
        });
        t.ops.push(OpRecord {
            token: tok(1, 0),
            kind: OpKind::Stat,
            bytes: 0,
            issued: SimTime::from_millis(50),
            completed: SimTime::from_millis(60),
        });
        t.rpcs.push(RpcRecord {
            app: AppId(0),
            dev: DeviceId(2),
            kind: OpKind::Write,
            bytes: 1000,
            issued: SimTime::from_millis(100),
        });
        t
    }

    #[test]
    fn ops_land_in_completion_window() {
        let w = client_windows(&trace(), WindowConfig::seconds(1), 4);
        let w0 = &w[&(AppId(0), 0)];
        assert_eq!(w0.writes, 1);
        assert_eq!(w0.reads, 0);
        assert_eq!(w0.bytes_written, 1000);
        let w1 = &w[&(AppId(0), 1)];
        assert_eq!(w1.reads, 1);
        assert_eq!(w1.bytes_read, 2000);
    }

    #[test]
    fn apps_are_separated() {
        let w = client_windows(&trace(), WindowConfig::seconds(1), 4);
        let m = &w[&(AppId(1), 0)];
        assert_eq!(m.metas, 1);
        assert_eq!(m.total_ops(), 1);
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn io_time_sums_durations() {
        let w = client_windows(&trace(), WindowConfig::seconds(1), 4);
        let w0 = &w[&(AppId(0), 0)];
        assert_eq!(w0.io_time, SimDuration::from_millis(200));
    }

    #[test]
    fn per_device_targeting() {
        let w = client_windows(&trace(), WindowConfig::seconds(1), 4);
        let w0 = &w[&(AppId(0), 0)];
        assert_eq!(w0.per_dev[2].write_reqs, 1);
        assert_eq!(w0.per_dev[2].bytes_written, 1000);
        assert_eq!(w0.per_dev[0].write_reqs, 0);
    }

    #[test]
    fn derived_rates() {
        let cw = ClientWindow {
            reads: 2,
            bytes_read: 4_000_000,
            ..ClientWindow::default()
        };
        let win = SimDuration::from_secs(2);
        assert!((cw.throughput(win) - 2_000_000.0).abs() < 1e-9);
        assert!((cw.iops(win) - 1.0).abs() < 1e-9);
    }
}
