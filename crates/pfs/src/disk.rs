//! Rotational-disk service model.
//!
//! A request's service time is `command overhead + seek + transfer`, where
//! the seek cost depends on how far the head must travel from wherever the
//! previous request left it. This is what makes interleaved sequential
//! streams expensive (seek thrash) while a single sequential stream runs
//! at full media rate — the root cause behind the read-vs-read cells of
//! the paper's Table I.

use qi_simkit::stats::Histogram;
use qi_simkit::time::SimDuration;

use crate::config::{DiskConfig, SECTOR_SIZE};

/// Upper edge of the service-time histogram, in microseconds. Requests
/// slower than this land in the overflow bucket.
const SERVICE_HIST_HI_US: f64 = 100_000.0;
/// Bucket count for the service-time histogram (2 ms per bucket).
const SERVICE_HIST_BUCKETS: usize = 50;

/// Mutable head state plus the service-time model.
#[derive(Clone, Debug)]
pub struct Disk {
    cfg: DiskConfig,
    head: u64,
    /// Total busy time accumulated, for utilisation accounting.
    busy: SimDuration,
    /// Fail-slow multiplier applied to every service time (1.0 =
    /// healthy). Models the gray-failure drives of Lu et al.'s Perseus,
    /// the work the paper borrows its severity bins from.
    degrade: f64,
    /// Per-request service-time distribution, in microseconds.
    service_hist: Histogram,
}

impl Disk {
    /// New disk with the head parked at sector 0.
    pub fn new(cfg: DiskConfig) -> Self {
        Disk {
            cfg,
            head: 0,
            busy: SimDuration::ZERO,
            degrade: 1.0,
            service_hist: Histogram::new(0.0, SERVICE_HIST_HI_US, SERVICE_HIST_BUCKETS),
        }
    }

    /// Per-request service-time histogram, in microseconds.
    pub fn service_time_hist(&self) -> &Histogram {
        &self.service_hist
    }

    /// Inject (or clear) a fail-slow condition: every subsequent request
    /// takes `factor`× its healthy service time.
    pub fn set_fail_slow(&mut self, factor: f64) {
        assert!(factor >= 1.0, "fail-slow factor must be >= 1");
        self.degrade = factor;
    }

    /// The configuration this disk was built with.
    pub fn config(&self) -> &DiskConfig {
        &self.cfg
    }

    /// Current head position (sector address).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Accumulated busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Seek cost from the current head position to `sector`.
    ///
    /// Zero if the target is head-adjacent (sequential continuation);
    /// otherwise interpolates between `min_seek` and `max_seek` with a
    /// square-root profile over the travel distance, which approximates
    /// measured seek curves of rotational drives.
    pub fn seek_cost(&self, sector: u64) -> SimDuration {
        if sector == self.head {
            return SimDuration::ZERO;
        }
        let dist = sector.abs_diff(self.head) as f64;
        let frac = (dist / self.cfg.capacity_sectors as f64).min(1.0);
        let min = self.cfg.min_seek.as_secs_f64();
        let max = self.cfg.max_seek.as_secs_f64();
        SimDuration::from_secs_f64(min + (max - min) * frac.sqrt())
    }

    /// Pure media-transfer time for `sectors` sectors.
    pub fn transfer_time(&self, sectors: u64) -> SimDuration {
        let bytes = sectors * SECTOR_SIZE;
        SimDuration::from_secs_f64(bytes as f64 / self.cfg.media_rate)
    }

    /// Service a request starting at `sector` spanning `sectors` sectors:
    /// returns the total service time and advances the head past the end
    /// of the request.
    pub fn service(&mut self, sector: u64, sectors: u64) -> SimDuration {
        let healthy =
            self.cfg.command_overhead + self.seek_cost(sector) + self.transfer_time(sectors);
        let t = SimDuration::from_secs_f64(healthy.as_secs_f64() * self.degrade);
        self.head = sector + sectors;
        self.busy += t;
        self.service_hist.record(t.as_secs_f64() * 1e6);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskConfig::sata_7200_ost())
    }

    #[test]
    fn sequential_requests_have_no_seek() {
        let mut d = disk();
        let t1 = d.service(0, 2048); // 1 MiB from sector 0
        let t2 = d.service(2048, 2048); // head-adjacent continuation
        assert!(t2 < t1 || d.seek_cost(4096) == SimDuration::ZERO);
        assert_eq!(d.seek_cost(d.head()), SimDuration::ZERO);
        // 1 MiB at 150 MB/s ≈ 6.99 ms + 0.1 ms overhead.
        let expect = 1_048_576.0 / 150.0e6;
        assert!((t2.as_secs_f64() - expect - 100e-6).abs() < 1e-4);
    }

    #[test]
    fn far_seek_costs_more_than_near_seek() {
        let d = disk();
        let near = d.seek_cost(10_000);
        let far = d.seek_cost(d.config().capacity_sectors - 1);
        assert!(near > SimDuration::ZERO);
        assert!(far > near);
        assert!(far <= d.config().max_seek + SimDuration::from_micros(1));
    }

    #[test]
    fn interleaved_streams_thrash() {
        // Two interleaved sequential streams must be slower than one
        // stream of the same total volume.
        let mut alone = disk();
        let mut t_alone = SimDuration::ZERO;
        for i in 0..16 {
            t_alone += alone.service(i * 2048, 2048);
        }
        let mut mixed = disk();
        let far = 500_000_000; // second stream lives far away
        let mut t_mixed = SimDuration::ZERO;
        for i in 0..8 {
            t_mixed += mixed.service(i * 2048, 2048);
            t_mixed += mixed.service(far + i * 2048, 2048);
        }
        assert!(
            t_mixed.as_secs_f64() > 1.5 * t_alone.as_secs_f64(),
            "thrash {t_mixed} vs alone {t_alone}"
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let mut d = disk();
        let t = d.service(0, 100);
        assert_eq!(d.busy_time(), t);
        let t2 = d.service(100, 100);
        assert_eq!(d.busy_time(), t + t2);
    }
}
