//! The one featurization path (merge → windowing → accumulation →
//! vectors).
//!
//! At deployment time the paper's framework receives metrics
//! continuously — the MPI aggregator flushes its shared-memory buffer
//! each window, and the training server consumes window after window
//! (§III-A/C). [`FeaturePipeline`] implements that incremental engine
//! once, and every step from a trace to a feature block has one
//! definition here: one merge of the three event streams (behind
//! [`FeaturePipeline::ingest_trace`], [`FeaturePipeline::ingest_until`]
//! and the batch [`FeaturePipeline::run_streams`]), one accumulation
//! ([`ClientWindow::record_op`]/[`ClientWindow::record_rpc`],
//! [`FeaturePipeline::push_sample`]) and one block assembler
//! ([`EmittedWindow::feature_blocks`]). The dataset harvest, the replay
//! driver and the control loop are callers of these, so training and
//! serving cannot drift apart, and the pipeline describes its own
//! layout as a versioned [`FeatureSchema`].
//!
//! Event-time merge order matters at window boundaries: a server sample
//! at time `t` describes the interval `(t-1s, t]`, which belongs to the
//! window *ending* at `t`, while an op or RPC at `t` belongs to the
//! window *starting* at `t`. The canonical merge therefore processes
//! ties as samples → RPCs → ops, so a boundary-time sample's delta is
//! accumulated before the op rolls the window forward.

use std::borrow::Cow;
use std::collections::HashMap;

use qi_pfs::ids::{AppId, DeviceId};
use qi_pfs::ops::{OpRecord, RpcRecord, RunTrace, ServerSample};

use crate::client::ClientWindow;
use crate::features::{server_vector, FeatureConfig, Imputation};
use crate::schema::FeatureSchema;
use crate::server::{ServerWindow, N_SERVER_SERIES};
use crate::window::WindowConfig;
use qi_simkit::error::QiError;
use qi_simkit::stats::OnlineStats;
use qi_simkit::time::{SimDuration, SimTime};
use qi_telemetry::{MetricValue, MetricsSnapshot};

/// An event arrived behind the pipeline's watermark. Surfaced as the
/// `source()` of the [`QiError::Monitor`] the push methods return.
#[derive(Debug)]
pub struct OutOfOrder {
    /// The offending event time.
    pub t: SimTime,
    /// The watermark it fell behind.
    pub watermark: SimTime,
}

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event at {:?} arrived out of order behind watermark {:?}",
            self.t, self.watermark
        )
    }
}

impl std::error::Error for OutOfOrder {}

/// A fully assembled window emitted by the pipeline.
#[derive(Debug)]
pub struct EmittedWindow {
    /// Window index.
    pub window: u64,
    /// Per-application client metrics (apps active in this window).
    pub clients: HashMap<AppId, ClientWindow>,
    /// Per-device server metrics.
    pub servers: HashMap<DeviceId, ServerWindow>,
}

impl EmittedWindow {
    /// One application's flattened block for this window (`n_devices ×
    /// cfg.len()`, row-major), each server's cells written straight into
    /// it.
    fn block(
        &self,
        client: &ClientWindow,
        cfg: FeatureConfig,
        n_devices: u32,
        window: SimDuration,
    ) -> Vec<f32> {
        let mut block = Vec::with_capacity(n_devices as usize * cfg.len());
        for d in 0..n_devices {
            let dev = DeviceId(d);
            server_vector(
                cfg,
                Some(client),
                self.servers.get(&dev),
                dev,
                window,
                &mut block,
            );
        }
        block
    }

    /// Assemble, for every application active in this window, the
    /// flattened per-server feature block the predictor consumes — what
    /// the dataset layer trains on and
    /// what the serving layer turns into one prediction request per
    /// `(app, block)` pair, so apps come back sorted by id to keep the
    /// request order deterministic.
    pub fn feature_blocks(
        &self,
        cfg: FeatureConfig,
        n_devices: u32,
        window: SimDuration,
    ) -> Vec<(AppId, Vec<f32>)> {
        let mut apps: Vec<(&AppId, &ClientWindow)> = self.clients.iter().collect();
        apps.sort_unstable_by_key(|(app, _)| app.0);
        apps.into_iter()
            .map(|(&app, client)| (app, self.block(client, cfg, n_devices, window)))
            .collect()
    }
}

/// How far into one [`RunTrace`] a pipeline has read: records taken
/// from `ops`, `rpcs` and `samples`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TraceCursor {
    op: usize,
    rpc: usize,
    sample: usize,
}

/// The incremental window builder — the canonical feature pipeline.
/// All pushed inputs must arrive in non-decreasing time order (as they
/// do from the simulator and from real collectors); the batch helpers
/// ([`FeaturePipeline::run_windows`]/[`FeaturePipeline::run_vectors`])
/// stable-sort a finished trace into that order first if they must.
pub struct FeaturePipeline {
    cfg: WindowConfig,
    fcfg: FeatureConfig,
    n_devices: u32,
    cursor: TraceCursor,
    watermark: SimTime,
    current: u64,
    clients: HashMap<AppId, ClientWindow>,
    server_acc: HashMap<DeviceId, [OnlineStats; N_SERVER_SERIES]>,
    last_sample: HashMap<DeviceId, ServerSample>,
    emitted: u64,
    /// Windows flushed with no client or server content (time gaps in
    /// the stream); a real aggregator would drop these on the floor.
    dropped: u64,
    ops_ingested: u64,
    rpcs_ingested: u64,
    samples_ingested: u64,
}

impl FeaturePipeline {
    /// New pipeline starting at window 0.
    pub fn new(cfg: WindowConfig, fcfg: FeatureConfig, n_devices: u32) -> Self {
        FeaturePipeline {
            cfg,
            fcfg,
            n_devices,
            cursor: TraceCursor::default(),
            watermark: SimTime::ZERO,
            current: 0,
            clients: HashMap::new(),
            server_acc: HashMap::new(),
            last_sample: HashMap::new(),
            emitted: 0,
            dropped: 0,
            ops_ingested: 0,
            rpcs_ingested: 0,
            samples_ingested: 0,
        }
    }

    /// The versioned schema describing every vector this pipeline
    /// assembles. Models trained on this pipeline's output carry this
    /// schema; the serving layer refuses any other.
    pub fn schema(&self) -> FeatureSchema {
        FeatureSchema::current(self.cfg, self.fcfg, Imputation::Zero)
    }

    /// The window configuration.
    pub fn window_config(&self) -> WindowConfig {
        self.cfg
    }

    /// The feature-block configuration.
    pub fn feature_config(&self) -> FeatureConfig {
        self.fcfg
    }

    /// Windows emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Windows emitted empty (no client or server content) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Telemetry snapshot of the pipeline's ingest/emit counters
    /// (`monitor.*` namespace). Take it before calling
    /// [`FeaturePipeline::finish`], which consumes the pipeline.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.put(
            "monitor.ops_ingested",
            MetricValue::Counter(self.ops_ingested),
        );
        snap.put(
            "monitor.rpcs_ingested",
            MetricValue::Counter(self.rpcs_ingested),
        );
        snap.put(
            "monitor.samples_ingested",
            MetricValue::Counter(self.samples_ingested),
        );
        snap.put(
            "monitor.windows_emitted",
            MetricValue::Counter(self.emitted),
        );
        snap.put(
            "monitor.windows_dropped",
            MetricValue::Counter(self.dropped),
        );
        snap
    }

    fn check_order(&mut self, t: SimTime) -> Result<(), QiError> {
        if t < self.watermark {
            return Err(QiError::monitor(
                "ingesting a window event",
                OutOfOrder {
                    t,
                    watermark: self.watermark,
                },
            ));
        }
        self.watermark = t;
        Ok(())
    }

    /// Advance to window `w`, emitting every completed window before it.
    fn roll_to(&mut self, w: u64, out: &mut Vec<EmittedWindow>) {
        while self.current < w {
            out.push(self.flush_current());
        }
    }

    fn flush_current(&mut self) -> EmittedWindow {
        if self.clients.is_empty() && self.server_acc.is_empty() {
            self.dropped += 1;
        }
        let clients = std::mem::take(&mut self.clients);
        let servers = self
            .server_acc
            .drain()
            .map(|(dev, stats)| {
                let mut sw = ServerWindow {
                    samples: stats[0].count() as u32,
                    ..ServerWindow::default()
                };
                for (i, s) in stats.iter().enumerate() {
                    sw.series[i] = crate::server::SeriesStats {
                        sum: s.sum(),
                        mean: s.mean(),
                        std: s.std_dev(),
                    };
                }
                (dev, sw)
            })
            .collect();
        let window = self.current;
        self.current += 1;
        self.emitted += 1;
        EmittedWindow {
            window,
            clients,
            servers,
        }
    }

    fn client_cell(&mut self, app: AppId) -> &mut ClientWindow {
        let n = self.n_devices as usize;
        self.clients
            .entry(app)
            .or_insert_with(|| ClientWindow::sized(n))
    }

    /// Feed one completed client operation. Returns any windows that
    /// became final; fails if the event is behind the watermark.
    pub fn push_op(&mut self, op: &OpRecord) -> Result<Vec<EmittedWindow>, QiError> {
        self.check_order(op.completed)?;
        self.ops_ingested += 1;
        let mut out = Vec::new();
        self.roll_to(self.cfg.index_of(op.completed), &mut out);
        self.client_cell(op.token.app).record_op(op);
        Ok(out)
    }

    /// Feed one issued RPC (attributes per-server targeting).
    pub fn push_rpc(&mut self, rpc: &RpcRecord) -> Result<Vec<EmittedWindow>, QiError> {
        self.check_order(rpc.issued)?;
        self.rpcs_ingested += 1;
        let mut out = Vec::new();
        self.roll_to(self.cfg.index_of(rpc.issued), &mut out);
        self.client_cell(rpc.app).record_rpc(rpc);
        Ok(out)
    }

    /// Advance the watermark to `t`, emitting every window that closed
    /// strictly before it — even windows no event ever crossed. The
    /// online control loop calls this at each tick so a quiet window
    /// still closes (and still yields feature blocks for the apps that
    /// were active in it) at its boundary rather than whenever the next
    /// event happens to arrive.
    pub fn advance_to(&mut self, t: SimTime) -> Result<Vec<EmittedWindow>, QiError> {
        self.check_order(t)?;
        let mut out = Vec::new();
        self.roll_to(self.cfg.index_of(t), &mut out);
        Ok(out)
    }

    /// Feed one per-second server sample.
    pub fn push_sample(&mut self, sample: &ServerSample) -> Result<Vec<EmittedWindow>, QiError> {
        self.check_order(sample.time)?;
        self.samples_ingested += 1;
        let mut out = Vec::new();
        self.roll_to(self.cfg.sample_index_of(sample.time), &mut out);
        if let Some(prev) = self.last_sample.get(&sample.dev) {
            let deltas = crate::server::delta_series(prev, sample);
            let acc = self.server_acc.entry(sample.dev).or_default();
            for (stat, d) in acc.iter_mut().zip(deltas) {
                stat.push(d);
            }
        }
        self.last_sample.insert(sample.dev, *sample);
        Ok(out)
    }

    /// Signal end-of-stream: flush the final (partial) window.
    pub fn finish(mut self) -> Vec<EmittedWindow> {
        let mut out = Vec::new();
        if !self.clients.is_empty() || !self.server_acc.is_empty() {
            out.push(self.flush_current());
        }
        out
    }

    /// The one merge: drive time-sorted streams through the pipeline by
    /// time, ties broken samples → RPCs → ops (module docs), resuming at
    /// the cursor and moving it past each event taken. With a `bound`,
    /// events after it are left and the watermark then advances to it;
    /// without, the streams are drained. An out-of-order event is an
    /// error that leaves the cursor on it.
    fn drive_merged(
        &mut self,
        ops: &[OpRecord],
        rpcs: &[RpcRecord],
        samples: &[ServerSample],
        bound: Option<SimTime>,
    ) -> Result<Vec<EmittedWindow>, QiError> {
        let mut out = Vec::new();
        loop {
            let t_op = ops.get(self.cursor.op).map(|o| o.completed);
            let t_rpc = rpcs.get(self.cursor.rpc).map(|r| r.issued);
            let t_smp = samples.get(self.cursor.sample).map(|s| s.time);
            let next = [t_smp, t_rpc, t_op].into_iter().flatten().min();
            let Some(next) = next.filter(|&t| bound.is_none_or(|b| t <= b)) else {
                break;
            };
            if t_smp == Some(next) {
                out.extend(self.push_sample(&samples[self.cursor.sample])?);
                self.cursor.sample += 1;
            } else if t_rpc == Some(next) {
                out.extend(self.push_rpc(&rpcs[self.cursor.rpc])?);
                self.cursor.rpc += 1;
            } else {
                out.extend(self.push_op(&ops[self.cursor.op])?);
                self.cursor.op += 1;
            }
        }
        if let Some(bound) = bound {
            out.extend(self.advance_to(bound)?);
        }
        Ok(out)
    }

    /// Stream what this pipeline has not yet read of `trace` (a pipeline
    /// follows one trace; each stream must be time-sorted, as simulator
    /// traces are, or this errors), returning every window finalised on
    /// the way. [`FeaturePipeline::finish`] flushes the last, partial one.
    pub fn ingest_trace(&mut self, trace: &RunTrace) -> Result<Vec<EmittedWindow>, QiError> {
        self.drive_merged(&trace.ops, &trace.rpcs, &trace.samples, None)
    }

    /// The incremental form of [`FeaturePipeline::ingest_trace`], for a
    /// reader that follows a trace while it grows (the control loop's
    /// tick): take every unread event at or before `bound`, then
    /// [`advance_to`](FeaturePipeline::advance_to)`(bound)`. Events past
    /// the bound stay for the next call — the watermark never passes it.
    pub fn ingest_until(
        &mut self,
        trace: &RunTrace,
        bound: SimTime,
    ) -> Result<Vec<EmittedWindow>, QiError> {
        self.drive_merged(&trace.ops, &trace.rpcs, &trace.samples, Some(bound))
    }

    /// Batch entry point: run a finished trace through the pipeline and
    /// return every emitted window, in any stream order (see
    /// [`FeaturePipeline::run_streams`]).
    pub fn run_windows(self, trace: &RunTrace) -> Vec<EmittedWindow> {
        self.run_streams(&trace.ops, &trace.rpcs, &trace.samples)
    }

    /// Like [`FeaturePipeline::run_windows`] over bare event slices —
    /// what the batch adapters use to feed only the streams they own.
    /// A stream that is not already time-sorted (simulator traces are)
    /// is copied and stable-sorted first, so any trace is accepted.
    pub fn run_streams(
        mut self,
        ops: &[OpRecord],
        rpcs: &[RpcRecord],
        samples: &[ServerSample],
    ) -> Vec<EmittedWindow> {
        let ops = sorted_by_key(ops, |o| o.completed);
        let rpcs = sorted_by_key(rpcs, |r| r.issued);
        let samples = sorted_by_key(samples, |s| s.time);
        // The three streams were sorted just above, so none is out of order.
        let mut out = self
            .drive_merged(&ops, &rpcs, &samples, None)
            .expect("sorted streams cannot be out of order");
        out.extend(self.finish());
        out
    }

    /// Batch entry point: for every window in which `target` completed
    /// operations or issued RPCs, its flattened per-server feature
    /// block (`n_devices × features`). This is the vector assembly the
    /// dataset layer trains on — the same blocks, from the same emitted
    /// windows, the serving layer predicts on.
    ///
    /// Only the target's own ops and RPCs are read, with every server
    /// sample: another app's records write only that app's client cell,
    /// and which event closes a window never changes what is in it (a
    /// sample at `t'` belongs to a window no earlier than any event's at
    /// `t < t'`, and samples merge first at equal times), so the blocks
    /// are the bits [`FeaturePipeline::run_windows`] +
    /// [`EmittedWindow::feature_blocks`] give for the target.
    pub fn run_vectors(self, trace: &RunTrace, target: AppId) -> HashMap<u64, Vec<f32>> {
        let (fcfg, n_devices, window) = (self.fcfg, self.n_devices, self.cfg.window);
        let ops: Vec<OpRecord> = trace
            .ops
            .iter()
            .filter(|o| o.token.app == target)
            .copied()
            .collect();
        let rpcs: Vec<RpcRecord> = trace
            .rpcs
            .iter()
            .filter(|r| r.app == target)
            .copied()
            .collect();
        self.run_streams(&ops, &rpcs, &trace.samples)
            .iter()
            .filter_map(|ew| {
                let client = ew.clients.get(&target)?;
                Some((ew.window, ew.block(client, fcfg, n_devices, window)))
            })
            .collect()
    }
}

/// `events` as they are when already sorted by `key`, else a stably
/// sorted copy.
fn sorted_by_key<T: Clone, K: Ord>(events: &[T], key: impl Fn(&T) -> K) -> Cow<'_, [T]> {
    if events.is_sorted_by_key(&key) {
        Cow::Borrowed(events)
    } else {
        let mut sorted = events.to_vec();
        sorted.sort_by_key(key);
        Cow::Owned(sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_pfs::ids::OpToken;
    use qi_pfs::ops::{OpKind, RunTrace};
    use qi_simkit::time::SimDuration;

    fn pipeline(wcfg: WindowConfig, n_devices: u32) -> FeaturePipeline {
        FeaturePipeline::new(wcfg, FeatureConfig::default(), n_devices)
    }

    fn op(app: u32, seq: u64, completed_ms: u64) -> OpRecord {
        OpRecord {
            token: OpToken {
                app: AppId(app),
                rank: 0,
                seq,
            },
            kind: OpKind::Read,
            bytes: 100,
            issued: SimTime::from_millis(completed_ms.saturating_sub(5)),
            completed: SimTime::from_millis(completed_ms),
        }
    }

    #[test]
    fn windows_emit_when_complete() {
        let mut m = pipeline(WindowConfig::seconds(1), 4);
        assert!(m.push_op(&op(0, 0, 100)).expect("in order").is_empty());
        assert!(m.push_op(&op(0, 1, 900)).expect("in order").is_empty());
        // Crossing into window 2 finalises windows 0 and 1.
        let emitted = m.push_op(&op(0, 2, 2100)).expect("in order");
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].window, 0);
        assert_eq!(emitted[0].clients[&AppId(0)].reads, 2);
        assert_eq!(emitted[1].window, 1);
        assert!(emitted[1].clients.is_empty());
        let rest = m.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].window, 2);
        assert_eq!(rest[0].clients[&AppId(0)].reads, 1);
    }

    #[test]
    fn telemetry_counts_ingest_emits_and_drops() {
        let mut m = pipeline(WindowConfig::seconds(1), 4);
        m.push_op(&op(0, 0, 100)).expect("in order");
        // Jumping to second 5 flushes windows 0..=4; 1..=4 are empty.
        let emitted = m.push_op(&op(0, 1, 5_100)).expect("in order");
        assert_eq!(emitted.len(), 5);
        let snap = m.metrics_snapshot();
        assert_eq!(snap.counter("monitor.ops_ingested"), Some(2));
        assert_eq!(snap.counter("monitor.rpcs_ingested"), Some(0));
        assert_eq!(snap.counter("monitor.samples_ingested"), Some(0));
        assert_eq!(snap.counter("monitor.windows_emitted"), Some(5));
        assert_eq!(snap.counter("monitor.windows_dropped"), Some(4));
        assert_eq!(m.emitted(), 5);
        assert_eq!(m.dropped(), 4);
    }

    #[test]
    fn out_of_order_input_is_an_error() {
        let mut m = pipeline(WindowConfig::seconds(1), 4);
        m.push_op(&op(0, 0, 500)).expect("in order");
        let err = m.push_op(&op(0, 1, 400)).expect_err("behind watermark");
        assert!(err.to_string().contains("out of order"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn event_exactly_at_the_watermark_is_accepted() {
        // The watermark is the latest time seen; an event AT that time
        // is in order (ties are legal), only strictly-behind is not.
        let mut m = pipeline(WindowConfig::seconds(1), 4);
        m.push_op(&op(0, 0, 500)).expect("in order");
        m.push_op(&op(1, 0, 500))
            .expect("tie at watermark accepted");
        m.push_op(&op(0, 1, 500)).expect("repeated tie accepted");
        let rest = m.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].clients[&AppId(0)].reads, 2);
        assert_eq!(rest[0].clients[&AppId(1)].reads, 1);
    }

    #[test]
    fn out_of_order_error_carries_the_exact_times() {
        let mut m = pipeline(WindowConfig::seconds(1), 4);
        m.push_op(&op(0, 0, 750)).expect("in order");
        let err = m.push_op(&op(0, 1, 749)).expect_err("behind watermark");
        let src = std::error::Error::source(&err).expect("wraps OutOfOrder");
        let ooo = src.downcast_ref::<OutOfOrder>().expect("OutOfOrder cause");
        assert_eq!(ooo.t, SimTime::from_millis(749));
        assert_eq!(ooo.watermark, SimTime::from_millis(750));
        // The rejected event must not have been ingested.
        assert_eq!(
            m.metrics_snapshot().counter("monitor.ops_ingested"),
            Some(1)
        );
    }

    #[test]
    fn far_ahead_event_flushes_each_cell_exactly_once() {
        // Jump 10 windows ahead; every (app, window) cell must come out
        // exactly once across the whole stream, including the final
        // partial window from finish().
        let mut m = pipeline(WindowConfig::seconds(1), 4);
        m.push_op(&op(0, 0, 100)).expect("in order");
        m.push_op(&op(1, 0, 200)).expect("in order");
        let mut emitted = m.push_op(&op(0, 1, 10_500)).expect("far ahead");
        assert_eq!(emitted.len(), 10, "windows 0..=9 finalised");
        emitted.extend(m.finish());
        let mut cells = std::collections::HashSet::new();
        for ew in &emitted {
            for app in ew.clients.keys() {
                assert!(
                    cells.insert((*app, ew.window)),
                    "cell ({app:?}, {}) emitted twice",
                    ew.window
                );
            }
        }
        assert_eq!(cells.len(), 3, "(0,0), (1,0) and (0,10)");
        assert!(cells.contains(&(AppId(0), 0)));
        assert!(cells.contains(&(AppId(1), 0)));
        assert!(cells.contains(&(AppId(0), 10)));
        // Window indices themselves are each emitted exactly once too.
        let mut windows: Vec<u64> = emitted.iter().map(|e| e.window).collect();
        windows.dedup();
        assert_eq!(windows.len(), emitted.len());
    }

    #[test]
    fn feature_blocks_cover_active_apps_in_id_order() {
        let mut m = pipeline(WindowConfig::seconds(1), 2);
        m.push_op(&op(3, 0, 100)).expect("in order");
        m.push_op(&op(1, 0, 200)).expect("in order");
        let cfg = m.feature_config();
        let blocks_of = |ew: &EmittedWindow| ew.feature_blocks(cfg, 2, SimDuration::from_secs(1));
        let emitted = m.finish();
        assert_eq!(emitted.len(), 1);
        let blocks = blocks_of(&emitted[0]);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].0, AppId(1), "sorted by app id");
        assert_eq!(blocks[1].0, AppId(3));
        for (_, block) in &blocks {
            assert_eq!(block.len(), 2 * cfg.len());
            for server in block.chunks(cfg.len()) {
                let cells = &server[cfg.len() - crate::features::N_SERVER..];
                assert!(cells.iter().all(|&x| x == 0.0), "no samples pushed");
            }
        }
        // cl_reads of app 1's block is the op count.
        assert_eq!(blocks[0].1[0], 1.0);
    }

    #[test]
    fn server_samples_stream_into_window_stats() {
        use qi_pfs::queue::DeviceCounters;
        let mk = |sec: u64, reads: u64| ServerSample {
            time: SimTime::from_secs(sec),
            dev: DeviceId(0),
            counters: DeviceCounters {
                reads_completed: reads,
                ..DeviceCounters::default()
            },
            dirty_bytes: 0,
            throttled_now: 0,
        };
        let mut m = pipeline(WindowConfig::seconds(2), 1);
        let mut emitted = Vec::new();
        emitted.extend(m.push_sample(&mk(1, 10)).expect("in order"));
        emitted.extend(m.push_sample(&mk(2, 30)).expect("in order"));
        emitted.extend(m.push_sample(&mk(3, 60)).expect("in order")); // finalises window 0
        emitted.extend(m.push_sample(&mk(5, 100)).expect("in order")); // finalises window 1
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].window, 0);
        let w0 = &emitted[0].servers[&DeviceId(0)];
        assert_eq!(w0.series[0].sum, 20.0); // delta 10→30
        assert_eq!(emitted[1].window, 1);
        let w1 = &emitted[1].servers[&DeviceId(0)];
        assert_eq!(w1.series[0].sum, 30.0); // delta 30→60
    }

    #[test]
    fn boundary_tie_puts_sample_delta_in_the_earlier_window() {
        // A sample at exactly t = 1s describes the interval (0s, 1s],
        // which belongs to window 0; an op completing at the same 1s
        // instant belongs to window 1. The canonical merge must
        // accumulate the sample's delta before the op rolls the window,
        // matching the batch semantics exactly.
        use qi_pfs::queue::DeviceCounters;
        let mk = |sec: u64, reads: u64| ServerSample {
            time: SimTime::from_secs(sec),
            dev: DeviceId(0),
            counters: DeviceCounters {
                reads_completed: reads,
                ..DeviceCounters::default()
            },
            dirty_bytes: 0,
            throttled_now: 0,
        };
        let mut trace = RunTrace::default();
        trace.samples.push(mk(0, 0));
        trace.samples.push(mk(1, 40));
        trace.ops.push(op(0, 0, 1_000)); // completes exactly at the boundary
        let emitted = pipeline(WindowConfig::seconds(1), 1).run_windows(&trace);
        let w0 = emitted.iter().find(|e| e.window == 0).expect("window 0");
        assert_eq!(
            w0.servers[&DeviceId(0)].series[0].sum,
            40.0,
            "boundary sample's delta lands in window 0"
        );
        assert!(w0.clients.is_empty(), "the op belongs to window 1");
        let w1 = emitted.iter().find(|e| e.window == 1).expect("window 1");
        assert_eq!(w1.clients[&AppId(0)].reads, 1);
        // And the batch adapter sees the identical split.
        let batch = crate::server::server_windows(&trace.samples, WindowConfig::seconds(1));
        assert_eq!(batch[&(DeviceId(0), 0)].series[0].sum, 40.0);
        assert!(!batch.contains_key(&(DeviceId(0), 1)));
    }

    #[test]
    fn schema_reflects_pipeline_configuration() {
        let p = pipeline(WindowConfig::seconds(1), 4);
        let s = p.schema();
        assert_eq!(s.window_config(), Some(WindowConfig::seconds(1)));
        assert_eq!(s.feature_config(), FeatureConfig::default());
        assert_eq!(s.imputation(), Imputation::Zero);
        assert_eq!(s.vector_len(), crate::features::N_FEATURES);
    }

    #[test]
    fn a_failed_ingest_leaves_the_cursor_on_the_failing_event() {
        // Ops at 100, 900, 400 ms: the third is behind the watermark.
        // The bounded ingest takes the first two and stops ON the third
        // — not past the whole delta — so every later call reports the
        // same event instead of silently skipping it.
        let mut trace = RunTrace::default();
        for (seq, ms) in [100, 900, 400, 1_500].into_iter().enumerate() {
            trace.ops.push(op(0, seq as u64, ms));
        }
        let mut m = pipeline(WindowConfig::seconds(1), 1);
        let stuck = TraceCursor {
            op: 2,
            ..TraceCursor::default()
        };
        for _ in 0..2 {
            let err = m
                .ingest_until(&trace, SimTime::from_secs(1))
                .expect_err("the 400 ms op is behind the 900 ms watermark");
            assert!(err.to_string().contains("out of order"), "{err}");
            assert_eq!(m.cursor, stuck);
        }
        assert_eq!(
            m.metrics_snapshot().counter("monitor.ops_ingested"),
            Some(2)
        );
        assert!(m.ingest_trace(&trace).is_err(), "the whole-trace form too");
        assert_eq!(m.cursor, stuck);
    }

    #[test]
    fn run_windows_accepts_an_unsorted_trace() {
        // Batch adapters sort; hand-built traces need not be ordered.
        let mut trace = RunTrace::default();
        trace.ops.push(op(0, 0, 2_500));
        trace.ops.push(op(0, 1, 300));
        let emitted = pipeline(WindowConfig::seconds(1), 1).run_windows(&trace);
        let w0 = emitted.iter().find(|e| e.window == 0).expect("window 0");
        assert_eq!(w0.clients[&AppId(0)].reads, 1);
        let w2 = emitted.iter().find(|e| e.window == 2).expect("window 2");
        assert_eq!(w2.clients[&AppId(0)].reads, 1);
    }
}
