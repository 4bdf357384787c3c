//! Online and batch statistics.
//!
//! The monitors summarise per-second samples as sum/mean/standard-deviation
//! over a time window (paper §III-B); [`OnlineStats`] provides that with
//! Welford's numerically stable single-pass algorithm. [`Histogram`] and
//! [`percentile`] support the experiment harnesses.

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    sum: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean (0 when empty, so windows with no samples vectorise cleanly).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Raw second central moment (`Σ(x − mean)²`), for serialisation.
    pub fn m2(&self) -> f64 {
        self.m2
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// `p`-th percentile (0..=100) of a sample, by linear interpolation.
/// Returns 0 for an empty slice. The sample is ordered by
/// [`f64::total_cmp`], so a NaN sorts last (first if its sign bit is
/// set) instead of panicking.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0) / 100.0;
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Fixed-width histogram over `[lo, hi)` with an overflow/underflow bucket
/// at each end.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// `n_buckets` equal-width buckets spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n_buckets: usize) -> Self {
        assert!(hi > lo && n_buckets > 0);
        Histogram {
            lo,
            hi,
            buckets: vec![0; n_buckets],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let i = ((x - self.lo) / w) as usize;
            let i = i.min(self.buckets.len() - 1);
            self.buckets[i] += 1;
        }
    }

    /// Counts per bucket (not including under/overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// The `[lo, hi)` bounds of bucket `i`.
    pub fn bucket_bounds(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Lower bound of the bucketed range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper (exclusive) bound of the bucketed range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// The `q`-th quantile (`0.0..=1.0`) estimated from the bucket
    /// counts by linear interpolation within the containing bucket.
    ///
    /// Out-of-range mass is pinned to the range edges: underflow counts
    /// resolve to `lo` and overflow counts to `hi`. Returns 0 for an
    /// empty histogram. This is the serving layer's latency-percentile
    /// primitive (p50/p95/p99 over queue-wait and inference-time
    /// distributions), so it must be a pure function of the counts.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 0-based, by nearest-rank with
        // interpolation: rank spans [0, total-1].
        let rank = q * (total - 1) as f64;
        let mut seen = 0u64;
        if (self.underflow as f64) > rank {
            return self.lo;
        }
        seen += self.underflow;
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (seen + c) as f64 > rank {
                // Interpolate within the bucket: the rank-th observation
                // sits `frac` of the way through this bucket's count.
                let frac = (rank - seen as f64 + 0.5) / c as f64;
                let lo_i = self.lo + w * i as f64;
                return lo_i + w * frac.clamp(0.0, 1.0);
            }
            seen += c;
        }
        self.hi
    }

    /// Merge counts from a histogram with identical bounds and bucket
    /// count (parallel reduction). Panics on shape mismatch.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.buckets.len() == other.buckets.len(),
            "histogram shape mismatch: [{}, {})x{} vs [{}, {})x{}",
            self.lo,
            self.hi,
            self.buckets.len(),
            other.lo,
            other.hi,
            other.buckets.len()
        );
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

/// Moving-average smoothing over a fixed window, as used to smooth the
/// per-operation series in the paper's Figure 1.
pub fn moving_average(series: &[f64], window: usize) -> Vec<f64> {
    if series.is_empty() || window <= 1 {
        return series.to_vec();
    }
    let mut out = Vec::with_capacity(series.len());
    let mut sum = 0.0;
    for (i, &x) in series.iter().enumerate() {
        sum += x;
        if i >= window {
            sum -= series[i - window];
        }
        let n = (i + 1).min(window);
        out.push(sum / n as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // A NaN sorts last: the lower ranks still read the finite values.
        let with_nan = [3.0, f64::NAN, 1.0];
        assert_eq!(percentile(&with_nan, 0.0), 1.0);
        assert_eq!(percentile(&with_nan, 50.0), 3.0);
        assert!(percentile(&with_nan, 100.0).is_nan());
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.buckets(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bucket_bounds(1), (2.0, 4.0));
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(i as f64);
        }
        // Uniform fill: quantiles track the value range closely.
        assert!((h.quantile(0.5) - 50.0).abs() < 10.0 + 1e-9);
        assert!(h.quantile(0.0) >= 0.0);
        assert!(h.quantile(1.0) <= 100.0);
        assert!(h.quantile(0.95) > h.quantile(0.5));
        // Monotone in q.
        let qs: Vec<f64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn quantile_handles_edges_and_overflow() {
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), 0.0);
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-5.0); // underflow pins to lo
        assert_eq!(h.quantile(0.0), 0.0);
        let mut h = Histogram::new(0.0, 10.0, 5);
        for _ in 0..10 {
            h.record(99.0); // all overflow pins to hi
        }
        assert_eq!(h.quantile(0.5), 10.0);
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(3.0);
        let q = h.quantile(0.5);
        assert!(
            (2.0..4.0).contains(&q),
            "single obs lands in its bucket, got {q}"
        );
    }

    #[test]
    fn moving_average_smooths() {
        let xs = [0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let sm = moving_average(&xs, 2);
        assert_eq!(sm.len(), xs.len());
        assert_eq!(sm[0], 0.0);
        for &v in &sm[1..] {
            assert!((v - 5.0).abs() < 1e-12);
        }
        assert_eq!(moving_average(&xs, 1), xs.to_vec());
    }
}
