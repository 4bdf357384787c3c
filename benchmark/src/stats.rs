//! Order statistics over the samples one run collects.

/// Median of `values` (mean of the two middle values for an even
/// count). Zero for an empty slice, so a metric of a layer the workload
/// never touched reads 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `values`, interpolated between the two nearest
/// ranks. Zero for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Where in the order of a run's repeats a timing is read: the first
/// decile. This host runs at one of a few speeds for ten or twenty
/// seconds at a time (a neighbour on the shared machine comes and
/// goes; the guest sees no steal time), the slow ones 1.3-1.8x the
/// fast one. A median over a run follows whichever speed held for most
/// of it and read 25-45% apart between runs of the same code; the first
/// decile reads the fast speed whenever a tenth of the run had it.
pub const QUIET: f64 = 0.1;

/// Seconds one pass takes on the quiet host: region by region, the
/// `QUIET` quantile over the passes, summed. Regions are shorter than
/// the host's speed shifts, so each is read from the passes that had it
/// at the fast speed, also when no whole pass did. Passes that timed
/// another number of regions than the first (one of them failed) fall
/// back to the quantile of whole passes.
pub fn quiet_pass_s(passes: &[Vec<f64>]) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    if passes.iter().any(|p| p.len() != first.len()) {
        let totals: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
        return quantile(&totals, QUIET);
    }
    (0..first.len())
        .map(|j| {
            let region: Vec<f64> = passes.iter().map(|p| p[j]).collect();
            quantile(&region, QUIET)
        })
        .sum()
}

/// The percentiles a tail may be reported at, ascending, in tenths of
/// a percent so the sample arithmetic stays in integers.
const TAIL_PER_MILLE: [usize; 4] = [900, 950, 990, 999];

/// A tail latency: the highest of 90/95/99/99.9 that still has at
/// least ten samples beyond it, so the value is not set by a handful
/// of outliers. `None` when even p90 has fewer (n < 100).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    // Samples strictly above the percentile's rank.
    let beyond = |per_mille: usize| n * (1000 - per_mille) / 1000;
    let per_mille = TAIL_PER_MILLE.iter().copied().rfind(|&p| beyond(p) >= 10)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: per_mille as f64 / 10.0,
        value: v[n - 1 - beyond(per_mille)],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
        assert_eq!(quantile(&[], 0.1), 0.0);
    }

    #[test]
    fn quiet_pass_reads_each_region_from_its_own_fast_passes() {
        // Eleven passes of two regions. The host is slow during region 0
        // of the odd passes and region 1 of the even ones: no pass is
        // fast throughout, yet each region is fast in half of them.
        let passes: Vec<Vec<f64>> = (0..11)
            .map(|i| {
                if i % 2 == 1 {
                    vec![1.5, 2.0]
                } else {
                    vec![1.0, 3.0]
                }
            })
            .collect();
        assert_eq!(quiet_pass_s(&passes), 1.0 + 2.0);
        // A pass that lost a region: whole passes are compared instead.
        let mut ragged = passes.clone();
        ragged[3] = vec![1.5];
        let totals: Vec<f64> = ragged.iter().map(|p| p.iter().sum()).collect();
        assert_eq!(quiet_pass_s(&ragged), quantile(&totals, QUIET));
        assert_eq!(quiet_pass_s(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(99)), None);
        // 100 samples: ten lie beyond p90, only five beyond p95.
        let t = tail(&ramp(100)).expect("p90 available");
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        assert_eq!(tail(&ramp(200)).expect("p95").percentile, 95.0);
        assert_eq!(tail(&ramp(999)).expect("p95").percentile, 95.0);
        assert_eq!(tail(&ramp(1_000)).expect("p99").percentile, 99.0);
        let t = tail(&ramp(10_000)).expect("p99.9");
        assert_eq!((t.percentile, t.value), (99.9, 9_990.0));
    }
}
