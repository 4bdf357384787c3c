//! Budget-bounded adaptive downsampling of the server-sample stream.
//!
//! Uniform full-rate sampling of every device is mostly waste on real
//! clusters: I/O is bursty, and a quiet device's samples repeat the
//! previous ones (cumulative counters frozen). [`AdaptiveSampler`] sits
//! between the raw per-device series and the ingest path, keeping every
//! sample of a device-window that showed *activity* (any counter delta,
//! cache dirt, or throttling) — or while an external alert, e.g. a high
//! anomaly score, is raised — and only `quiet_keep` samples otherwise.
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
    /// Device-windows kept at full rate because an alert was raised.
    pub alert_windows: u64,
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
    /// namespace) — the same snapshot a live [`AdaptiveSampler`]
    /// exports, so batch callers of [`AdaptiveSampler::run`] can fold
    /// sampler accounting into their own artefacts.
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
        snap.put(
            "monitor.sampler.alert_windows",
            MetricValue::Counter(self.alert_windows),
        );
        snap
    }
}

/// One buffered sample awaiting its window's close.
#[derive(Clone, Copy, Debug)]
struct Pending {
    sample: ServerSample,
    /// Arrival order within the run (keeps emission stable).
    arrival: u64,
}

/// SplitMix64-style avalanche for the keep-priority hash.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The streaming downsampler. Push samples in nondecreasing time order;
/// each push (and the final [`AdaptiveSampler::finish`]) returns the
/// samples released by any windows that closed, in arrival order.
#[derive(Clone, Debug)]
pub struct AdaptiveSampler {
    cfg: SamplerConfig,
    wcfg: WindowConfig,
    /// Window currently buffering.
    current: u64,
    /// Buffered samples of the current window, in arrival order.
    pending: Vec<Pending>,
    /// Devices (by index) that showed activity in the current window.
    active_now: Vec<bool>,
    /// Last sample ever seen per device index (across windows), for
    /// delta-based activity detection on the full seen stream.
    last_seen: Vec<Option<ServerSample>>,
    /// External alert (e.g. anomaly score above threshold): keep every
    /// device at full rate while raised.
    alert: bool,
    arrivals: u64,
    stats: SamplerStats,
}

impl AdaptiveSampler {
    /// New sampler aggregating on `wcfg` windows.
    pub fn new(cfg: SamplerConfig, wcfg: WindowConfig) -> Self {
        AdaptiveSampler {
            cfg,
            wcfg,
            current: 0,
            pending: Vec::new(),
            active_now: Vec::new(),
            last_seen: Vec::new(),
            alert: false,
            arrivals: 0,
            stats: SamplerStats::default(),
        }
    }

    /// Raise or clear the external alert. While raised, every
    /// device-window closing is kept at full rate (budget), restoring
    /// full observability the moment the anomaly score crosses its
    /// threshold.
    pub fn set_alert(&mut self, on: bool) {
        self.alert = on;
    }

    /// Whether the external alert is currently raised.
    pub fn alert(&self) -> bool {
        self.alert
    }

    /// Cumulative accounting.
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }

    /// Telemetry snapshot of the sampler counters
    /// (`monitor.sampler.*` namespace).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.stats.metrics_snapshot()
    }

    /// Offer one sample (nondecreasing time order). Returns the samples
    /// released by windows that closed before it.
    pub fn push(&mut self, s: ServerSample) -> Vec<ServerSample> {
        // Grouped by the window its delta lands in downstream.
        let w = self.wcfg.sample_index_of(s.time);
        let mut out = Vec::new();
        if w > self.current {
            self.flush_into(&mut out);
            self.current = w;
        }
        self.stats.seen += 1;
        let di = s.dev.index();
        if di >= self.last_seen.len() {
            self.last_seen.resize(di + 1, None);
            self.active_now.resize(di + 1, false);
        }
        // Activity: any counter motion against the previous *seen*
        // sample of this device, or visible cache pressure. Judged on
        // the full stream so classification is budget-independent.
        let moved = match &self.last_seen[di] {
            Some(prev) => prev.counters != s.counters,
            // First sighting: nonzero cumulative counters mean the
            // device was already active.
            None => s.counters != Default::default(),
        };
        if moved || s.dirty_bytes > 0 || s.throttled_now > 0 {
            self.active_now[di] = true;
        }
        self.last_seen[di] = Some(s);
        self.pending.push(Pending {
            sample: s,
            arrival: self.arrivals,
        });
        self.arrivals += 1;
        out
    }

    /// Close the stream, releasing the final window.
    pub fn finish(mut self) -> (Vec<ServerSample>, SamplerStats) {
        let mut out = Vec::new();
        self.flush_into(&mut out);
        (out, self.stats)
    }

    /// Run the whole policy over a finished stream.
    pub fn run(
        cfg: SamplerConfig,
        wcfg: WindowConfig,
        samples: impl IntoIterator<Item = ServerSample>,
    ) -> (Vec<ServerSample>, SamplerStats) {
        let mut sampler = AdaptiveSampler::new(cfg, wcfg);
        let mut out = Vec::new();
        for s in samples {
            out.extend(sampler.push(s));
        }
        let (tail, stats) = sampler.finish();
        out.extend(tail);
        (out, stats)
    }

    /// Deterministic keep priority of one sample: lower survives longer.
    fn priority(&self, s: &ServerSample) -> u64 {
        mix64(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(((s.dev.0 as u64) << 1) ^ 0x5851_F42D_4C95_7F2D)
                .wrapping_add(s.time.as_nanos().rotate_left(17)),
        )
    }

    /// Seal the current window: per device, decide its rate and keep
    /// the surviving samples, released in arrival order.
    fn flush_into(&mut self, out: &mut Vec<ServerSample>) {
        if self.pending.is_empty() {
            for a in &mut self.active_now {
                *a = false;
            }
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        // Group by device, preserving arrival order within each group.
        let n_dev = self.active_now.len();
        let mut by_dev: Vec<Vec<Pending>> = vec![Vec::new(); n_dev];
        for p in pending {
            by_dev[p.sample.dev.index()].push(p);
        }
        let mut kept: Vec<Pending> = Vec::new();
        for (di, group) in by_dev.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let full_rate = self.alert || self.active_now[di];
            if self.alert {
                self.stats.alert_windows += 1;
            }
            if full_rate {
                self.stats.active_windows += 1;
            } else {
                self.stats.quiet_windows += 1;
            }
            // An unbounded budget disables the policy outright — the
            // documented sampler-off equivalence.
            let target = if self.cfg.budget == u32::MAX || full_rate {
                self.cfg.budget
            } else {
                self.cfg.quiet_keep.min(self.cfg.budget)
            } as usize;
            if group.len() <= target {
                kept.extend(group);
                continue;
            }
            // Nested-in-budget selection: the newest sample first, then
            // the oldest, then lowest priority hash — each prefix of
            // this fixed ranking is the kept set of a smaller budget.
            let mut ranked: Vec<usize> = Vec::with_capacity(group.len());
            ranked.push(group.len() - 1);
            if group.len() > 1 {
                ranked.push(0);
            }
            let mut middle: Vec<usize> = (1..group.len() - 1).collect();
            middle.sort_by_key(|&i| (self.priority(&group[i].sample), i));
            ranked.extend(middle);
            ranked.truncate(target);
            kept.extend(ranked.into_iter().map(|i| group[i]));
        }
        kept.sort_by_key(|p| p.arrival);
        self.stats.kept += kept.len() as u64;
        out.extend(kept.into_iter().map(|p| p.sample));
        for a in &mut self.active_now {
            *a = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_pfs::ids::DeviceId;
    use qi_pfs::queue::DeviceCounters;
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
        let (out, stats) = AdaptiveSampler::run(
            SamplerConfig::default(),
            WindowConfig::seconds(1),
            input.clone(),
        );
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
        let (out, stats) = AdaptiveSampler::run(cfg, WindowConfig::seconds(1), input);
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
        let (out, _) = AdaptiveSampler::run(cfg, wcfg, stream(2));
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
    fn alert_restores_full_rate() {
        let cfg = SamplerConfig {
            budget: 64,
            quiet_keep: 1,
            seed: 3,
        };
        let mut sampler = AdaptiveSampler::new(cfg, WindowConfig::seconds(1));
        sampler.set_alert(true);
        let mut out = Vec::new();
        for s in stream(2) {
            out.extend(sampler.push(s));
        }
        let stats_mid = sampler.stats();
        let (tail, stats) = sampler.finish();
        out.extend(tail);
        assert_eq!(out.len(), 40, "alert keeps everything");
        assert!(stats.alert_windows >= stats_mid.alert_windows);
        assert_eq!(stats.quiet_windows, 0);
    }

    #[test]
    fn replay_is_byte_identical() {
        let cfg = SamplerConfig {
            budget: 4,
            quiet_keep: 2,
            seed: 99,
        };
        let a = AdaptiveSampler::run(cfg, WindowConfig::seconds(1), stream(5));
        let b = AdaptiveSampler::run(cfg, WindowConfig::seconds(1), stream(5));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn telemetry_namespace_is_sampler_scoped() {
        let (_, _) = AdaptiveSampler::run(
            SamplerConfig::default(),
            WindowConfig::seconds(1),
            stream(1),
        );
        let mut sampler = AdaptiveSampler::new(SamplerConfig::default(), WindowConfig::seconds(1));
        for s in stream(1) {
            sampler.push(s);
        }
        let snap = sampler.metrics_snapshot();
        assert_eq!(snap.counter("monitor.sampler.seen"), Some(20));
        assert!(snap.counter("monitor.sampler.kept").is_some());
        assert!(snap.counter("monitor.sampler.dropped").is_some());
    }
}
