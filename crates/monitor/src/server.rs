//! Server-side monitor (paper §III-B, Table II).
//!
//! The simulator samples each device's cumulative counters once per
//! second (like reading `/proc/diskstats` on a Lustre server). This
//! module turns those samples into per-window metric blocks: for every
//! Table II metric, the per-second *deltas* inside a window are reduced
//! to sum / mean / standard deviation, exactly as the paper describes.

use std::collections::HashMap;

use qi_pfs::ids::DeviceId;
use qi_pfs::ops::ServerSample;

use crate::features::FeatureConfig;
use crate::pipeline::FeaturePipeline;
use crate::window::WindowConfig;

/// Names of the per-second series derived from device counters, in the
/// order they appear in [`ServerWindow::series`].
pub const SERVER_SERIES: [&str; 9] = [
    "completed_reqs", // Table II: I/O speed
    "sectors_read",   // Table II: device metrics
    "sectors_written",
    "enqueued",       // Table II: queue (1) requests queued
    "merges",         // Table II: queue (2) merged requests
    "wait_time_ms",   // Table II: queue (3) summed queue wait
    "queue_depth_ms", // Table II: queue (4) depth·time integral
    "busy_ms",        // device utilisation (time the media was busy)
    "dirty_mb",       // cache pressure (server write-back state)
];

/// Number of per-second series per server.
pub const N_SERVER_SERIES: usize = SERVER_SERIES.len();

/// sum / mean / std of one per-second series over a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct SeriesStats {
    /// Sum of per-second values.
    pub sum: f64,
    /// Mean per-second value.
    pub mean: f64,
    /// Population standard deviation of per-second values.
    pub std: f64,
}

/// Server-side metrics for one `(device, window)` cell.
#[derive(Clone, Debug, Default)]
pub struct ServerWindow {
    /// One [`SeriesStats`] per entry of [`SERVER_SERIES`].
    pub series: [SeriesStats; N_SERVER_SERIES],
    /// Seconds of data the window actually contained.
    pub samples: u32,
}

/// Per-second deltas between two consecutive samples of one device.
pub(crate) fn delta_series(prev: &ServerSample, cur: &ServerSample) -> [f64; N_SERVER_SERIES] {
    let p = &prev.counters;
    let c = &cur.counters;
    [
        ((c.reads_completed + c.writes_completed) - (p.reads_completed + p.writes_completed))
            as f64,
        (c.sectors_read - p.sectors_read) as f64,
        (c.sectors_written - p.sectors_written) as f64,
        (c.enqueued - p.enqueued) as f64,
        ((c.read_merges + c.write_merges) - (p.read_merges + p.write_merges)) as f64,
        (c.wait_ns - p.wait_ns) as f64 / 1e6,
        (c.weighted_depth_ns - p.weighted_depth_ns) as f64 / 1e6,
        (c.busy_ns - p.busy_ns) as f64 / 1e6,
        cur.dirty_bytes as f64 / 1e6, // level, not delta
    ]
}

/// Reduce a run's per-second server samples to per-(device, window)
/// metric blocks.
///
/// This is a thin batch adapter over the streaming
/// [`FeaturePipeline`]: the per-device consecutive-sample deltas and
/// the per-window sum/mean/std reduction are computed by the same
/// engine the serving layer streams through, so batch and streaming
/// results are byte-identical.
pub fn server_windows(
    samples: &[ServerSample],
    cfg: WindowConfig,
) -> HashMap<(DeviceId, u64), ServerWindow> {
    let pipeline = FeaturePipeline::new(cfg, FeatureConfig::default(), 0);
    let mut out = HashMap::new();
    for ew in pipeline.run_streams(&[], &[], samples) {
        for (dev, cell) in ew.servers {
            out.insert((dev, ew.window), cell);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qi_pfs::queue::DeviceCounters;
    use qi_simkit::time::SimTime;

    fn sample(dev: u32, sec: u64, reads: u64, sectors: u64) -> ServerSample {
        ServerSample {
            time: SimTime::from_secs(sec),
            dev: DeviceId(dev),
            counters: DeviceCounters {
                reads_completed: reads,
                sectors_read: sectors,
                ..DeviceCounters::default()
            },
            dirty_bytes: 0,
            throttled_now: 0,
        }
    }

    #[test]
    fn deltas_are_per_second_differences() {
        let samples = vec![
            sample(0, 1, 10, 100),
            sample(0, 2, 30, 400),
            sample(0, 3, 60, 1000),
        ];
        let w = server_windows(&samples, WindowConfig::seconds(10));
        let cell = &w[&(DeviceId(0), 0)];
        assert_eq!(cell.samples, 2);
        // completed: deltas 20 and 30.
        assert_eq!(cell.series[0].sum, 50.0);
        assert_eq!(cell.series[0].mean, 25.0);
        assert!((cell.series[0].std - 5.0).abs() < 1e-9);
        // sectors read: deltas 300 and 600.
        assert_eq!(cell.series[1].sum, 900.0);
    }

    #[test]
    fn windows_split_at_boundaries() {
        let samples = vec![
            sample(0, 1, 1, 0),
            sample(0, 2, 2, 0),
            sample(0, 3, 3, 0),
            sample(0, 4, 4, 0),
        ];
        let w = server_windows(&samples, WindowConfig::seconds(2));
        // Intervals ending at 2s → window 0; at 3s,4s → window 1.
        assert_eq!(w[&(DeviceId(0), 0)].samples, 1);
        assert_eq!(w[&(DeviceId(0), 1)].samples, 2);
    }

    #[test]
    fn devices_do_not_mix() {
        let samples = vec![
            sample(0, 1, 0, 0),
            sample(1, 1, 0, 0),
            sample(0, 2, 5, 0),
            sample(1, 2, 7, 0),
        ];
        let w = server_windows(&samples, WindowConfig::seconds(5));
        assert_eq!(w[&(DeviceId(0), 0)].series[0].sum, 5.0);
        assert_eq!(w[&(DeviceId(1), 0)].series[0].sum, 7.0);
    }

    #[test]
    fn series_names_match_layout() {
        assert_eq!(SERVER_SERIES.len(), N_SERVER_SERIES);
        assert_eq!(SERVER_SERIES[0], "completed_reqs");
        assert_eq!(SERVER_SERIES[7], "busy_ms");
        assert_eq!(SERVER_SERIES[8], "dirty_mb");
    }
}
