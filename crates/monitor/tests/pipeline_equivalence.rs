//! Property: the batch adapters (`client_windows`, `server_windows`)
//! are **byte-identical** to driving the streaming [`FeaturePipeline`]
//! one event at a time, for arbitrary interleaved op/RPC/sample
//! streams. This is the train/serve-skew guarantee the whole refactor
//! exists for: there is one aggregation definition, and whichever way
//! events reach it, the numbers that come out are the same bits.
//!
//! The hand-written event-at-a-time loop below (`stream_trace`) is the
//! reference the pipeline's own merge is held to. Two more properties
//! cover the ways that merge is entered: the control tick's pattern
//! (the same trace ingested in bounded steps) against one whole-trace
//! ingest, and `run_streams` over a shuffled copy against the sorted
//! one. A last one holds the dataset harvest's target-only read
//! (`run_vectors`) to the all-apps path the serving tier uses.

use std::collections::HashMap;

use proptest::prelude::*;
use qi_monitor::client::{client_windows, ClientWindow};
use qi_monitor::features::{server_vector, FeatureConfig};
use qi_monitor::pipeline::{EmittedWindow, FeaturePipeline};
use qi_monitor::server::{server_windows, ServerWindow};
use qi_monitor::window::WindowConfig;
use qi_pfs::ids::{AppId, DeviceId, OpToken};
use qi_pfs::ops::{OpKind, OpRecord, RpcRecord, RunTrace, ServerSample};
use qi_pfs::queue::DeviceCounters;
use qi_simkit::time::SimTime;

const KINDS: [OpKind; 6] = [
    OpKind::Read,
    OpKind::Write,
    OpKind::Open,
    OpKind::Create,
    OpKind::Stat,
    OpKind::Close,
];

/// (app, kind index, bytes, completed_ms, duration_ms)
fn arb_ops() -> impl Strategy<Value = Vec<(u32, usize, u64, u64, u64)>> {
    prop::collection::vec(
        (
            0u32..3,
            0usize..KINDS.len(),
            0u64..1_000_000,
            0u64..8_000,
            0u64..500,
        ),
        0..60,
    )
}

/// (app, device, kind index, bytes, issued_ms)
fn arb_rpcs(n_devices: u32) -> impl Strategy<Value = Vec<(u32, u32, usize, u64, u64)>> {
    prop::collection::vec(
        (
            0u32..3,
            0..n_devices,
            0usize..KINDS.len(),
            0u64..1_000_000,
            0u64..8_000,
        ),
        0..60,
    )
}

/// Per-sample: (device, gap_ms ≥ 1, two groups of counter deltas,
/// dirty_bytes). Gaps accumulate per device, deltas accumulate into
/// cumulative counters — so every device's sample times are strictly
/// increasing and its counters non-decreasing, as a real server
/// monitor produces.
type SampleSeed = (u32, u64, (u64, u64, u64, u64), (u64, u64, u64, u64), u64);

fn arb_samples(n_devices: u32) -> impl Strategy<Value = Vec<SampleSeed>> {
    prop::collection::vec(
        (
            0..n_devices,
            1u64..1_500,
            (0u64..50, 0u64..5_000, 0u64..5_000, 0u64..60),
            (0u64..20, 0u64..2_000_000, 0u64..2_000_000, 0u64..1_000_000),
            0u64..10_000_000,
        ),
        0..40,
    )
}

/// Materialise a trace from the seeds. Sample streams are built
/// per-device (cumulative time + counters) and merged by time, stably,
/// so the trace looks like what the simulator records.
fn build_trace(
    ops: &[(u32, usize, u64, u64, u64)],
    rpcs: &[(u32, u32, usize, u64, u64)],
    samples: &[SampleSeed],
) -> RunTrace {
    let mut trace = RunTrace::default();
    for (i, &(app, kind, bytes, completed_ms, dur_ms)) in ops.iter().enumerate() {
        let completed = SimTime::from_millis(completed_ms + dur_ms);
        trace.ops.push(OpRecord {
            token: OpToken {
                app: AppId(app),
                rank: 0,
                seq: i as u64,
            },
            kind: KINDS[kind],
            bytes,
            issued: SimTime::from_millis(completed_ms),
            completed,
        });
    }
    trace.ops.sort_by_key(|o| o.completed);
    for &(app, dev, kind, bytes, issued_ms) in rpcs {
        trace.rpcs.push(RpcRecord {
            app: AppId(app),
            dev: DeviceId(dev),
            kind: KINDS[kind],
            bytes,
            issued: SimTime::from_millis(issued_ms),
        });
    }
    trace.rpcs.sort_by_key(|r| r.issued);
    let mut clocks: HashMap<u32, u64> = HashMap::new();
    let mut counters: HashMap<u32, DeviceCounters> = HashMap::new();
    for &(
        dev,
        gap_ms,
        (d_reads, d_sread, d_swritten, d_enq),
        (d_merge, d_wait, d_depth, d_busy),
        dirty,
    ) in samples
    {
        let t = clocks.entry(dev).or_insert(0);
        *t += gap_ms;
        let c = counters.entry(dev).or_default();
        c.reads_completed += d_reads;
        c.sectors_read += d_sread;
        c.sectors_written += d_swritten;
        c.enqueued += d_enq;
        c.read_merges += d_merge;
        c.wait_ns += d_wait;
        c.weighted_depth_ns += d_depth;
        c.busy_ns += d_busy;
        trace.samples.push(ServerSample {
            time: SimTime::from_millis(*t),
            dev: DeviceId(dev),
            counters: *c,
            dirty_bytes: dirty,
            throttled_now: 0,
        });
    }
    trace.samples.sort_by_key(|s| s.time);
    trace
}

/// Drive the pipeline one event at a time in canonical merged order
/// (at equal timestamps: samples, then RPCs, then ops — the order
/// `FeaturePipeline` documents and its batch entry points use).
fn stream_trace(trace: &RunTrace, cfg: WindowConfig, n_devices: u32) -> Vec<EmittedWindow> {
    let mut p = FeaturePipeline::new(cfg, FeatureConfig::default(), n_devices);
    let mut emitted = Vec::new();
    let samples = &trace.samples;
    let (mut oi, mut ri, mut si) = (0, 0, 0);
    loop {
        let t_op = trace.ops.get(oi).map(|o| o.completed);
        let t_rpc = trace.rpcs.get(ri).map(|r| r.issued);
        let t_smp = samples.get(si).map(|s| s.time);
        let Some(next) = [t_smp, t_rpc, t_op].into_iter().flatten().min() else {
            break;
        };
        let step = if t_smp == Some(next) {
            si += 1;
            p.push_sample(&samples[si - 1])
        } else if t_rpc == Some(next) {
            ri += 1;
            p.push_rpc(&trace.rpcs[ri - 1])
        } else {
            oi += 1;
            p.push_op(&trace.ops[oi - 1])
        };
        emitted.extend(step.expect("merged stream is in order"));
    }
    emitted.extend(p.finish());
    emitted
}

fn assert_client_eq(a: &ClientWindow, b: &ClientWindow) {
    assert_eq!(a.reads, b.reads);
    assert_eq!(a.writes, b.writes);
    assert_eq!(a.metas, b.metas);
    assert_eq!(a.bytes_read, b.bytes_read);
    assert_eq!(a.bytes_written, b.bytes_written);
    assert_eq!(a.io_time, b.io_time);
    assert_eq!(a.per_dev.len(), b.per_dev.len());
    for (x, y) in a.per_dev.iter().zip(&b.per_dev) {
        assert_eq!(
            (
                x.read_reqs,
                x.write_reqs,
                x.meta_reqs,
                x.bytes_read,
                x.bytes_written
            ),
            (
                y.read_reqs,
                y.write_reqs,
                y.meta_reqs,
                y.bytes_read,
                y.bytes_written
            )
        );
    }
}

/// Bit-level equality for the windowed server statistics: sum, mean,
/// and std must be the *same floats*, not merely close.
fn assert_server_eq(a: &ServerWindow, b: &ServerWindow) {
    assert_eq!(a.samples, b.samples);
    for (x, y) in a.series.iter().zip(&b.series) {
        assert_eq!(x.sum.to_bits(), y.sum.to_bits());
        assert_eq!(x.mean.to_bits(), y.mean.to_bits());
        assert_eq!(x.std.to_bits(), y.std.to_bits());
    }
}

/// Two runs of the pipeline emitted the same thing: the same window
/// indices in the same order, the same client cells and server
/// statistics, the same feature-block bits. Windows with no content are
/// left out — a bounded ingest closes quiet windows at its bound that a
/// whole-trace ingest never sees end.
fn assert_emitted_eq(a: &[EmittedWindow], b: &[EmittedWindow], cfg: WindowConfig, n_devices: u32) {
    let fcfg = FeatureConfig::default();
    let content = |ws: &[EmittedWindow]| -> Vec<usize> {
        (0..ws.len())
            .filter(|&i| !ws[i].clients.is_empty() || !ws[i].servers.is_empty())
            .collect()
    };
    let (ia, ib) = (content(a), content(b));
    assert_eq!(ia.len(), ib.len(), "non-empty window counts differ");
    for (&i, &j) in ia.iter().zip(&ib) {
        let (x, y) = (&a[i], &b[j]);
        assert_eq!(x.window, y.window);
        assert_eq!(x.clients.len(), y.clients.len());
        for (app, cw) in &x.clients {
            assert_client_eq(cw, &y.clients[app]);
        }
        assert_eq!(x.servers.len(), y.servers.len());
        for (dev, sw) in &x.servers {
            assert_server_eq(sw, &y.servers[dev]);
        }
        let bits = |w: &EmittedWindow| -> Vec<(u32, Vec<u32>)> {
            w.feature_blocks(fcfg, n_devices, cfg.window)
                .into_iter()
                .map(|(app, block)| (app.0, block.iter().map(|f| f.to_bits()).collect()))
                .collect()
        };
        assert_eq!(
            bits(x),
            bits(y),
            "feature block bits diverged in window {}",
            x.window
        );
    }
}

/// Put a sample, an RPC and an op on the same instant `t` — the tie
/// the canonical merge order exists for. The sample repeats device 0's
/// latest counters, so its delta is zero wherever it lands in the
/// device's series.
fn tie_at(trace: &mut RunTrace, t: SimTime) {
    let at = trace.samples.partition_point(|s| s.time <= t);
    let latest = trace.samples[..at]
        .iter()
        .rev()
        .find(|s| s.dev == DeviceId(0));
    let tied = ServerSample {
        time: t,
        dev: DeviceId(0),
        counters: latest.map(|s| s.counters).unwrap_or_default(),
        dirty_bytes: latest.map_or(0, |s| s.dirty_bytes),
        throttled_now: 0,
    };
    trace.samples.insert(at, tied);
    let at = trace.rpcs.partition_point(|r| r.issued <= t);
    trace.rpcs.insert(
        at,
        RpcRecord {
            app: AppId(1),
            dev: DeviceId(0),
            kind: OpKind::Write,
            bytes: 4096,
            issued: t,
        },
    );
    let at = trace.ops.partition_point(|o| o.completed <= t);
    trace.ops.insert(
        at,
        OpRecord {
            token: OpToken {
                app: AppId(1),
                rank: 1,
                seq: 0,
            },
            kind: OpKind::Write,
            bytes: 4096,
            issued: SimTime(t.as_nanos().saturating_sub(1_000_000)),
            completed: t,
        },
    );
}

/// A deterministic Fisher–Yates shuffle (the vendored proptest has no
/// shuffle strategy).
fn shuffle<T>(xs: &mut [T], mut seed: u64) {
    for i in (1..xs.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        xs.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn streaming_matches_batch_aggregation(
        ops in arb_ops(),
        cluster in (1u32..4).prop_flat_map(|n| (Just(n), arb_rpcs(n), arb_samples(n))),
    ) {
        let (n_devices, rpcs, samples) = cluster;
        let trace = build_trace(&ops, &rpcs, &samples);
        let cfg = WindowConfig::seconds(1);
        let fcfg = FeatureConfig::default();

        let batch_clients = client_windows(&trace, cfg, n_devices);
        let batch_servers = server_windows(&trace.samples, cfg);
        let emitted = stream_trace(&trace, cfg, n_devices);

        // Every streamed cell equals its batch counterpart, field for
        // field and bit for bit — and nothing exists on one side only.
        let mut client_cells = 0usize;
        let mut server_cells = 0usize;
        for ew in &emitted {
            for (app, cw) in &ew.clients {
                let b = &batch_clients[&(*app, ew.window)];
                assert_client_eq(cw, b);
                client_cells += 1;
            }
            for (dev, sw) in &ew.servers {
                let b = &batch_servers[&(*dev, ew.window)];
                assert_server_eq(sw, b);
                server_cells += 1;
            }
        }
        prop_assert_eq!(client_cells, batch_clients.len());
        prop_assert_eq!(server_cells, batch_servers.len());

        // Assembled feature vectors are byte-identical too: the block
        // the serving layer would feed the model equals the block the
        // training set was built from.
        for ew in &emitted {
            for (app, block) in ew.feature_blocks(fcfg, n_devices, cfg.window) {
                let client = batch_clients.get(&(app, ew.window));
                let mut batch_block = Vec::with_capacity(block.len());
                for d in 0..n_devices {
                    let dev = DeviceId(d);
                    server_vector(
                        fcfg,
                        client,
                        batch_servers.get(&(dev, ew.window)),
                        dev,
                        cfg.window,
                        &mut batch_block,
                    );
                }
                let streamed: Vec<u32> = block.iter().map(|f| f.to_bits()).collect();
                let batched: Vec<u32> = batch_block.iter().map(|f| f.to_bits()).collect();
                prop_assert_eq!(&streamed, &batched, "feature block bits diverged in window {}", ew.window);
            }
        }
    }

    /// The control tick's pattern: the trace ingested in bounded steps
    /// at arbitrary bounds — one of them exactly on a window boundary
    /// where a sample, an RPC and an op tie — then drained, emits what
    /// one whole-trace ingest emits, which is what the reference loop
    /// emits.
    #[test]
    fn bounded_steps_match_one_whole_trace_ingest(
        ops in arb_ops(),
        cluster in (1u32..4).prop_flat_map(|n| (Just(n), arb_rpcs(n), arb_samples(n))),
        tie_window in 1u64..8,
        bounds_ms in prop::collection::vec(0u64..9_000, 0..12),
    ) {
        let (n_devices, rpcs, samples) = cluster;
        let cfg = WindowConfig::seconds(1);
        let mut trace = build_trace(&ops, &rpcs, &samples);
        let boundary = cfg.start_of(tie_window);
        tie_at(&mut trace, boundary);
        let mut bounds: Vec<SimTime> = bounds_ms.iter().map(|&ms| SimTime::from_millis(ms)).collect();
        bounds.push(boundary);
        bounds.sort();

        let fresh = || FeaturePipeline::new(cfg, FeatureConfig::default(), n_devices);
        let mut whole = fresh();
        let mut at_once = whole.ingest_trace(&trace).expect("sorted trace");
        at_once.extend(whole.finish());

        let mut stepped = fresh();
        let mut in_steps = Vec::new();
        for &bound in &bounds {
            let closed = stepped.ingest_until(&trace, bound).expect("sorted trace");
            for w in &closed {
                prop_assert!(cfg.start_of(w.window + 1) <= bound, "window {} closed early", w.window);
            }
            in_steps.extend(closed);
        }
        in_steps.extend(stepped.ingest_trace(&trace).expect("sorted trace"));
        in_steps.extend(stepped.finish());

        assert_emitted_eq(&in_steps, &at_once, cfg, n_devices);
        assert_emitted_eq(&at_once, &stream_trace(&trace, cfg, n_devices), cfg, n_devices);
    }

    /// `run_streams` accepts its streams in any order: a shuffled copy
    /// emits what the sorted one does (and the sorted one is not copied
    /// to find that out — see `run_windows_accepts_an_unsorted_trace`).
    #[test]
    fn run_streams_over_a_shuffled_copy_equals_the_sorted_one(
        ops in arb_ops(),
        cluster in (1u32..4).prop_flat_map(|n| (Just(n), arb_rpcs(n), arb_samples(n))),
        seed in 0u64..u64::MAX,
    ) {
        let (n_devices, rpcs, samples) = cluster;
        let cfg = WindowConfig::seconds(1);
        let trace = build_trace(&ops, &rpcs, &samples);
        let (mut s_ops, mut s_rpcs, mut s_samples) =
            (trace.ops.clone(), trace.rpcs.clone(), trace.samples.clone());
        shuffle(&mut s_ops, seed);
        shuffle(&mut s_rpcs, seed ^ 0x9e37_79b9);
        shuffle(&mut s_samples, seed.rotate_left(17));

        let fresh = || FeaturePipeline::new(cfg, FeatureConfig::default(), n_devices);
        let sorted = fresh().run_streams(&trace.ops, &trace.rpcs, &trace.samples);
        let shuffled = fresh().run_streams(&s_ops, &s_rpcs, &s_samples);
        assert_emitted_eq(&shuffled, &sorted, cfg, n_devices);
    }

    /// `run_vectors` reads only the target's ops and RPCs (plus every
    /// sample), yet returns, f32 bit for bit, the target's block from
    /// every window the all-apps `run_windows` + `feature_blocks` emit —
    /// with a sample, an RPC and an op tied on window boundaries.
    #[test]
    fn target_only_vectors_equal_the_all_apps_blocks(
        ops in arb_ops(),
        cluster in (1u32..4).prop_flat_map(|n| (Just(n), arb_rpcs(n), arb_samples(n))),
        tie_windows in prop::collection::vec(1u64..8, 1..4),
        target in 0u32..3,
    ) {
        let (n_devices, rpcs, samples) = cluster;
        let cfg = WindowConfig::seconds(1);
        let fcfg = FeatureConfig::default();
        let mut trace = build_trace(&ops, &rpcs, &samples);
        for &w in &tie_windows {
            tie_at(&mut trace, cfg.start_of(w));
        }
        let fresh = || FeaturePipeline::new(cfg, fcfg, n_devices);
        let bits = |block: &[f32]| -> Vec<u32> { block.iter().map(|f| f.to_bits()).collect() };

        let mut oracle: Vec<(u64, Vec<u32>)> = fresh()
            .run_windows(&trace)
            .iter()
            .flat_map(|ew| {
                ew.feature_blocks(fcfg, n_devices, cfg.window)
                    .into_iter()
                    .filter(|(app, _)| *app == AppId(target))
                    .map(|(_, block)| (ew.window, bits(&block)))
            })
            .collect();
        oracle.sort_unstable();
        let mut got: Vec<(u64, Vec<u32>)> = fresh()
            .run_vectors(&trace, AppId(target))
            .into_iter()
            .map(|(w, block)| (w, bits(&block)))
            .collect();
        got.sort_unstable();
        prop_assert_eq!(got, oracle);
    }
}
