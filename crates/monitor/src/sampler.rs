//! Budget-bounded adaptive downsampling of the server-sample stream.
//!
//! Uniform full-rate sampling of every device is mostly waste on real
//! clusters: I/O is bursty, and a quiet device's samples repeat the
//! previous ones (cumulative counters frozen). [`thin`] sits between
//! the raw per-device series and the ingest path, keeping every sample
//! of a device-window that showed *activity* (any counter delta, cache
//! dirt, or throttling) and only `quiet_keep` samples otherwise.
//!
//! Determinism and budget discipline, as pinned by the property suite:
//!
//! - **Replayable** — decisions depend only on the configuration and
//!   the sample stream; same seed, same stream → byte-identical output.
//! - **Budget-bounded** — at most `budget` samples survive per
//!   `(device, window)`.
//! - **Monotone in budget** — selection within a window is "always
//!   keep the newest and oldest, then lowest deterministic priority
//!   first", so the kept set under a smaller budget is a subset of the
//!   kept set under a larger one, and `budget == u32::MAX` keeps
//!   everything (which makes sampler-off ≡ unbounded-budget exact).
//! - **Activity is judged on every *seen* sample, never on the kept
//!   subset** — so raising the budget never changes quiet/active
//!   classification, only how much of a window survives.
//!
//! Because a quiet window's deltas are all zero, dropping its samples
//! (keeping at least one so the server block still exists) leaves every
//! windowed sum/mean/std feature bit-unchanged: ingest shrinks at zero
//! feature drift, which `tests/sampler_props.rs` holds as a property.

use qi_pfs::ops::ServerSample;
use qi_pfs::queue::DeviceCounters;
use qi_telemetry::{MetricValue, MetricsSnapshot};

use crate::window::WindowConfig;

/// Adaptive-sampler policy knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Maximum samples kept per `(device, window)`; `u32::MAX` keeps
    /// every sample (the sampler becomes a no-op pass-through).
    pub budget: u32,
    /// Samples kept per quiet `(device, window)` (clamped to `budget`).
    /// Keep this ≥ 1 so downstream feature extraction still sees the
    /// device's server block in every window.
    pub quiet_keep: u32,
    /// Seed of the deterministic keep-priority hash.
    pub seed: u64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            budget: u32::MAX,
            quiet_keep: 1,
            seed: 0,
        }
    }
}

/// Cumulative ingest accounting (also exported as telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Samples offered to the sampler.
    pub seen: u64,
    /// Samples kept (released downstream).
    pub kept: u64,
    /// Device-windows classified active (full rate).
    pub active_windows: u64,
    /// Device-windows classified quiet (downsampled).
    pub quiet_windows: u64,
}

impl SamplerStats {
    /// Samples dropped.
    pub fn dropped(&self) -> u64 {
        self.seen - self.kept
    }

    /// Fraction of ingest saved, in `[0, 1]`.
    pub fn savings(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.seen as f64
        }
    }

    /// Telemetry rendering of the counters (`monitor.sampler.*`
    /// namespace), so callers of [`thin`] can fold sampler accounting
    /// into their own artefacts.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.put("monitor.sampler.seen", MetricValue::Counter(self.seen));
        snap.put("monitor.sampler.kept", MetricValue::Counter(self.kept));
        snap.put(
            "monitor.sampler.dropped",
            MetricValue::Counter(self.dropped()),
        );
        snap.put(
            "monitor.sampler.active_windows",
            MetricValue::Counter(self.active_windows),
        );
        snap.put(
            "monitor.sampler.quiet_windows",
            MetricValue::Counter(self.quiet_windows),
        );
        snap
    }
}

/// SplitMix64-style avalanche for the keep-priority hash.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic keep priority of one sample: lower survives longer.
fn priority(seed: u64, s: &ServerSample) -> u64 {
    mix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((s.dev.0 as u64) << 1) ^ 0x5851_F42D_4C95_7F2D)
            .wrapping_add(s.time.as_nanos().rotate_left(17)),
    )
}

/// Run the policy over a finished sample series, window by window.
///
/// A sample joins the open window unless its
/// [`WindowConfig::sample_index_of`] is later, so a late sample lands
/// in the window open when it arrives. Per device and window, an
/// active device-window keeps up to `budget` samples and a quiet one
/// up to `quiet_keep`; the kept samples come back in input order.
pub fn thin(
    cfg: SamplerConfig,
    wcfg: WindowConfig,
    samples: &[ServerSample],
) -> (Vec<ServerSample>, SamplerStats) {
    let mut stats = SamplerStats {
        seen: samples.len() as u64,
        ..SamplerStats::default()
    };
    // Counters of the last sample seen per device index, across
    // windows. A device not yet seen reads all-zero, so a first
    // sighting with nonzero counters counts as activity.
    let mut last_seen: Vec<DeviceCounters> = Vec::new();
    let mut out = Vec::new();
    let mut order: Vec<usize> = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    let mut current = 0;
    let mut start = 0;
    while start < samples.len() {
        // Grouped by the window its delta lands in downstream.
        current = current.max(wcfg.sample_index_of(samples[start].time));
        let len = samples[start..]
            .iter()
            .take_while(|s| wcfg.sample_index_of(s.time) <= current)
            .count();
        order.clear();
        order.extend(start..start + len);
        // Stable, so each device's group stays in input order.
        order.sort_by_key(|&i| samples[i].dev);
        kept.clear();
        for group in order.chunk_by(|&a, &b| samples[a].dev == samples[b].dev) {
            let di = samples[group[0]].dev.index();
            if di >= last_seen.len() {
                last_seen.resize(di + 1, DeviceCounters::default());
            }
            // Activity: any counter motion against the previous *seen*
            // sample of this device, or visible cache pressure. Judged
            // on the full series so classification is budget-independent.
            let mut active = false;
            for &i in group {
                let s = &samples[i];
                active |= s.counters != last_seen[di] || s.dirty_bytes > 0 || s.throttled_now > 0;
                last_seen[di] = s.counters;
            }
            if active {
                stats.active_windows += 1;
            } else {
                stats.quiet_windows += 1;
            }
            // An unbounded budget disables the policy outright — the
            // documented sampler-off equivalence.
            let target = if cfg.budget == u32::MAX || active {
                cfg.budget
            } else {
                cfg.quiet_keep.min(cfg.budget)
            } as usize;
            if group.len() <= target {
                kept.extend_from_slice(group);
            } else if let [oldest, middle @ .., newest] = group {
                // Nested-in-budget selection: the newest sample first,
                // then the oldest, then lowest priority hash — each
                // prefix of this fixed ranking is the kept set of a
                // smaller budget.
                let mut middle = middle.to_vec();
                middle.sort_unstable_by_key(|&i| (priority(cfg.seed, &samples[i]), i));
                kept.extend([*newest, *oldest].into_iter().chain(middle).take(target));
            }
            // Otherwise a lone sample over its target: the target is 0.
        }
        kept.sort_unstable();
        out.extend(kept.iter().map(|&i| samples[i]));
        start += len;
    }
    stats.kept = out.len() as u64;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_pfs::ids::DeviceId;
    use qi_simkit::time::SimTime;

    fn sample(ms: u64, dev: u32, reads: u64) -> ServerSample {
        ServerSample {
            time: SimTime::from_millis(ms),
            dev: DeviceId(dev),
            counters: DeviceCounters {
                reads_completed: reads,
                ..DeviceCounters::default()
            },
            dirty_bytes: 0,
            throttled_now: 0,
        }
    }

    /// 10 samples per 1 s window per device; device 0 quiet, device 1
    /// counting up.
    fn stream(windows: u64) -> Vec<ServerSample> {
        let mut out = Vec::new();
        for t in 1..=windows * 10 {
            out.push(sample(t * 100, 0, 0));
            out.push(sample(t * 100, 1, t));
        }
        out
    }

    #[test]
    fn unbounded_budget_is_a_pass_through() {
        let input = stream(3);
        let (out, stats) = thin(SamplerConfig::default(), WindowConfig::seconds(1), &input);
        assert_eq!(out, input);
        assert_eq!(stats.kept, stats.seen);
        assert_eq!(stats.savings(), 0.0);
    }

    #[test]
    fn quiet_devices_downsample_active_keep_full_rate() {
        let cfg = SamplerConfig {
            budget: 64,
            quiet_keep: 1,
            seed: 7,
        };
        let input = stream(4);
        let (out, stats) = thin(cfg, WindowConfig::seconds(1), &input);
        let quiet: Vec<_> = out.iter().filter(|s| s.dev == DeviceId(0)).collect();
        let active: Vec<_> = out.iter().filter(|s| s.dev == DeviceId(1)).collect();
        assert_eq!(quiet.len(), 4, "one survivor per quiet window");
        assert_eq!(active.len(), 40, "active device untouched");
        assert_eq!(stats.quiet_windows, 4);
        assert_eq!(stats.active_windows, 4);
        assert!(stats.savings() > 0.4, "{}", stats.savings());
    }

    #[test]
    fn budget_caps_even_active_windows() {
        let cfg = SamplerConfig {
            budget: 3,
            quiet_keep: 1,
            seed: 1,
        };
        let wcfg = WindowConfig::seconds(1);
        let (out, _) = thin(cfg, wcfg, &stream(2));
        for w in 0..2u64 {
            for d in 0..2u32 {
                let n = out
                    .iter()
                    .filter(|s| s.dev == DeviceId(d) && wcfg.sample_index_of(s.time) == w)
                    .count();
                assert!(n <= 3, "window {w} dev {d}: {n} kept");
            }
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        let cfg = SamplerConfig {
            budget: 4,
            quiet_keep: 2,
            seed: 99,
        };
        let a = thin(cfg, WindowConfig::seconds(1), &stream(5));
        let b = thin(cfg, WindowConfig::seconds(1), &stream(5));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    /// Five 200 ms ticks per 1 s window over three windows. Device 0 is
    /// quiet but for one late sample, device 1 counts up in windows 0
    /// and 2, and device 2 is first seen with nonzero counters and
    /// later shows only cache dirt.
    fn mixed_stream() -> Vec<ServerSample> {
        let mut out = Vec::new();
        for t in 1..=15u64 {
            let ms = t * 200;
            let w = (ms - 1) / 1000;
            out.push(sample(ms, 0, u64::from(t > 6)));
            out.push(sample(ms, 1, if w == 1 { 5 } else { t }));
            if t >= 3 {
                let mut s = sample(ms, 2, 7);
                s.dirty_bytes = u64::from(t == 12) * 4096;
                out.push(s);
            }
            if t == 6 {
                // Late: stamped in window 0, arriving once window 1 is
                // open, with the counter motion that makes device 0
                // active there.
                out.push(sample(900, 0, 1));
            }
        }
        out
    }

    #[test]
    fn pinned_selection_of_a_mixed_stream() {
        let run = |budget, quiet_keep| {
            let cfg = SamplerConfig {
                budget,
                quiet_keep,
                seed: 7,
            };
            let (out, stats) = thin(cfg, WindowConfig::seconds(1), &mixed_stream());
            let kept: Vec<(u64, u32)> = out
                .iter()
                .map(|s| (s.time.as_nanos() / 1_000_000, s.dev.0))
                .collect();
            (kept, stats)
        };
        let stats = |kept| SamplerStats {
            seen: 44,
            kept,
            active_windows: 5,
            quiet_windows: 4,
        };
        // Window 1 keeps device 0's late sample after the one it
        // arrived behind: output is input order, not time order.
        assert_eq!(
            run(3, 1),
            (
                vec![
                    (200, 1),
                    (600, 2),
                    (800, 1),
                    (800, 2),
                    (1000, 0),
                    (1000, 1),
                    (1000, 2),
                    (1200, 0),
                    (900, 0),
                    (2000, 0),
                    (2000, 1),
                    (2000, 2),
                    (2200, 1),
                    (2200, 2),
                    (2400, 2),
                    (2800, 1),
                    (3000, 0),
                    (3000, 1),
                    (3000, 2),
                ],
                stats(19)
            )
        );
        assert_eq!(
            run(3, 0),
            (
                vec![
                    (200, 1),
                    (600, 2),
                    (800, 1),
                    (800, 2),
                    (1000, 1),
                    (1000, 2),
                    (1200, 0),
                    (900, 0),
                    (2000, 0),
                    (2200, 1),
                    (2200, 2),
                    (2400, 2),
                    (2800, 1),
                    (3000, 1),
                    (3000, 2),
                ],
                stats(15)
            )
        );
        assert_eq!(run(0, 1), (vec![], stats(0)));
    }

    #[test]
    fn telemetry_namespace_is_sampler_scoped() {
        let (_, stats) = thin(
            SamplerConfig::default(),
            WindowConfig::seconds(1),
            &stream(1),
        );
        let snap = stats.metrics_snapshot();
        assert_eq!(snap.counter("monitor.sampler.seen"), Some(20));
        for key in ["kept", "dropped", "active_windows", "quiet_windows"] {
            assert!(snap.counter(&format!("monitor.sampler.{key}")).is_some());
        }
        assert_eq!(snap.len(), 5);
    }
}
