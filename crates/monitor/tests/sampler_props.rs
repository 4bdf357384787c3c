//! Property-based tests for the budget-bounded adaptive sampler.
//!
//! Four contracts, over arbitrary per-device cumulative counter
//! series, and one fixed quiet cluster:
//!
//! - **Budget bound** — no `(device, window)` group ever keeps more
//!   than `budget` samples.
//! - **Budget monotonicity** — a larger budget keeps a superset: the
//!   smaller budget's output is an exact subsequence of the larger
//!   one's, so tightening the budget only ever *removes* samples.
//! - **Replay determinism** — the same config over the same stream is
//!   byte-identical, run after run.
//! - **Boundary survival** — the newest sample of every
//!   `(device, window)` group, whose cumulative counters the window
//!   features are computed from, survives bit for bit: sampling cannot
//!   move a feature.
//! - **It pays** — devices active one window in five shed at least 30 %
//!   of ingest.

use proptest::prelude::*;
use qi_monitor::sampler::{thin, SamplerConfig};
use qi_monitor::window::WindowConfig;
use qi_pfs::ids::DeviceId;
use qi_pfs::ops::ServerSample;
use qi_pfs::queue::DeviceCounters;
use qi_simkit::time::SimTime;

/// Build a valid (time-sorted, cumulative-counter) sample stream from
/// per-tick activity deltas. `deltas[t][d] == 0` means device `d` was
/// idle over tick `t` — its cumulative counters repeat.
fn build_stream(deltas: &[Vec<u64>], tick_ms: u64) -> Vec<ServerSample> {
    let n_dev = deltas.first().map(Vec::len).unwrap_or(0);
    let mut cum = vec![DeviceCounters::default(); n_dev];
    let mut out = Vec::new();
    for (t, row) in deltas.iter().enumerate() {
        let time =
            SimTime::ZERO + qi_simkit::time::SimDuration::from_millis((t as u64 + 1) * tick_ms);
        for (d, &delta) in row.iter().enumerate() {
            cum[d].reads_completed += delta;
            cum[d].sectors_read += delta * 8;
            cum[d].busy_ns += delta * 1_000;
            out.push(ServerSample {
                time,
                dev: DeviceId(d as u32),
                counters: cum[d],
                dirty_bytes: 0,
                throttled_now: 0,
            });
        }
    }
    out
}

/// Activity grids: up to 40 ticks × up to 4 devices, sparse activity.
fn arb_deltas() -> impl Strategy<Value = Vec<Vec<u64>>> {
    (1usize..5).prop_flat_map(|n_dev| {
        prop::collection::vec(
            // 0..100 folded so that half the draws are exactly 0
            // (idle tick) — the vendored proptest has no prop_oneof.
            prop::collection::vec(
                (0u64..100).prop_map(|v| v.saturating_sub(50)),
                n_dev..=n_dev,
            ),
            1..40,
        )
    })
}

proptest! {
    /// No `(device, window)` group ever exceeds the budget, and the
    /// accounting adds up.
    #[test]
    fn budget_is_never_exceeded(
        deltas in arb_deltas(),
        tick_ms in 50u64..1_500,
        window_s in 1u64..4,
        budget in 1u32..6,
        seed in 0u64..100,
    ) {
        let stream = build_stream(&deltas, tick_ms);
        let wcfg = WindowConfig::seconds(window_s);
        let cfg = SamplerConfig { budget, quiet_keep: 1, seed };
        let (kept, stats) = thin(cfg, wcfg, &stream);
        prop_assert_eq!(stats.seen as usize, stream.len());
        prop_assert_eq!(stats.kept as usize, kept.len());
        let mut counts = std::collections::HashMap::new();
        for s in &kept {
            let k = (s.dev.0, wcfg.sample_index_of(s.time));
            *counts.entry(k).or_insert(0u32) += 1;
        }
        for ((dev, win), c) in counts {
            prop_assert!(
                c <= budget,
                "device {dev} window {win} kept {c} > budget {budget}"
            );
        }
    }

    /// A larger budget keeps a superset: the tighter run's output is an
    /// exact ordered subsequence of the looser run's.
    #[test]
    fn larger_budget_keeps_a_superset(
        deltas in arb_deltas(),
        tick_ms in 50u64..1_500,
        window_s in 1u64..4,
        small in 1u32..5,
        extra in 0u32..5,
        seed in 0u64..100,
    ) {
        let stream = build_stream(&deltas, tick_ms);
        let wcfg = WindowConfig::seconds(window_s);
        let tight = SamplerConfig { budget: small, quiet_keep: 1, seed };
        let loose = SamplerConfig { budget: small + extra, quiet_keep: 1, seed };
        let (kept_tight, _) = thin(tight, wcfg, &stream);
        let (kept_loose, _) = thin(loose, wcfg, &stream);
        // Subsequence check: every tight sample appears, in order, in
        // the loose output.
        let mut it = kept_loose.iter();
        for s in &kept_tight {
            prop_assert!(
                it.any(|l| l == s),
                "budget {} kept a sample budget {} dropped",
                small,
                small + extra
            );
        }
    }

    /// Same seed, same stream → byte-identical output and stats.
    #[test]
    fn replay_is_deterministic(
        deltas in arb_deltas(),
        tick_ms in 50u64..1_500,
        window_s in 1u64..4,
        budget in 1u32..6,
        quiet_keep in 1u32..3,
        seed in 0u64..100,
    ) {
        let stream = build_stream(&deltas, tick_ms);
        let wcfg = WindowConfig::seconds(window_s);
        let cfg = SamplerConfig { budget, quiet_keep, seed };
        let (a, sa) = thin(cfg, wcfg, &stream);
        let (b, sb) = thin(cfg, wcfg, &stream);
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa, sb);
    }

    /// The newest sample of every `(device, window)` group is in the
    /// output unchanged, whatever the budget.
    #[test]
    fn newest_sample_of_every_group_survives(
        deltas in arb_deltas(),
        tick_ms in 50u64..1_500,
        window_s in 1u64..4,
        budget in 1u32..6,
        quiet_keep in 1u32..3,
        seed in 0u64..100,
    ) {
        let stream = build_stream(&deltas, tick_ms);
        let wcfg = WindowConfig::seconds(window_s);
        let cfg = SamplerConfig { budget, quiet_keep, seed };
        let (kept, _) = thin(cfg, wcfg, &stream);
        let newest = |samples: &[ServerSample]| {
            let mut m = std::collections::HashMap::new();
            for s in samples {
                m.insert((s.dev.0, wcfg.sample_index_of(s.time)), *s);
            }
            m
        };
        let got = newest(&kept);
        for (group, want) in newest(&stream) {
            prop_assert_eq!(
                got.get(&group),
                Some(&want),
                "device {} window {} lost its boundary sample",
                group.0,
                group.1
            );
        }
    }

    /// The unbounded budget is a strict pass-through regardless of how
    /// quiet the stream is.
    #[test]
    fn unbounded_budget_passes_everything_through(
        deltas in arb_deltas(),
        tick_ms in 50u64..1_500,
        window_s in 1u64..4,
        seed in 0u64..100,
    ) {
        let stream = build_stream(&deltas, tick_ms);
        let wcfg = WindowConfig::seconds(window_s);
        let cfg = SamplerConfig { budget: u32::MAX, quiet_keep: 1, seed };
        let (kept, stats) = thin(cfg, wcfg, &stream);
        prop_assert_eq!(kept, stream);
        prop_assert_eq!(stats.dropped(), 0);
    }
}

/// Eight devices sampled every 100 ms over 240 one-second windows, each
/// active in one window out of five: the quiet four shrink to one
/// sample, so the sampler must shed well over the 30 % that justifies it.
#[test]
fn mostly_quiet_devices_save_at_least_thirty_percent_of_ingest() {
    let deltas: Vec<Vec<u64>> = (0..2_400)
        .map(|tick| {
            (0..8)
                .map(|dev| u64::from((tick / 10) % 5 == dev % 5) * 3)
                .collect()
        })
        .collect();
    let cfg = SamplerConfig {
        budget: 8,
        quiet_keep: 1,
        seed: 9,
    };
    let (_, stats) = thin(cfg, WindowConfig::seconds(1), &build_stream(&deltas, 100));
    assert_eq!(stats.seen, 19_200);
    assert!(
        stats.savings() >= 0.30,
        "saved only {:.1}% of ingest",
        stats.savings() * 100.0
    );
}
