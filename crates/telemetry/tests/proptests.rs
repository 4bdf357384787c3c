//! Property tests for the statistical accumulators qi-telemetry snapshots
//! carry, and for the snapshot's JSON writer.
//!
//! The merge properties matter because accumulators may be reduced
//! across independently collected parts: merging split streams must
//! agree with a single pass, within f64 tolerance, or telemetry would
//! depend on how work was partitioned.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qi_simkit::stats::{Histogram, OnlineStats};
use qi_telemetry::{MetricValue, MetricsSnapshot};

/// Relative-plus-absolute float comparison for accumulated quantities.
fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * (1.0 + a.abs().max(b.abs()))
}

proptest! {
    #[test]
    fn online_stats_merge_of_splits_matches_single_stream(
        xs in prop::collection::vec(-1e6f64..1e6, 0..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((xs.len() as f64) * cut_frac) as usize;
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..cut] {
            a.push(x);
        }
        for &x in &xs[cut..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        // min/max are order-insensitive, so they must match exactly.
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        prop_assert!(close(a.sum(), whole.sum(), 1e-9), "sum {} vs {}", a.sum(), whole.sum());
        prop_assert!(close(a.mean(), whole.mean(), 1e-9), "mean {} vs {}", a.mean(), whole.mean());
        prop_assert!(
            close(a.variance(), whole.variance(), 1e-6),
            "variance {} vs {}", a.variance(), whole.variance()
        );
    }

    #[test]
    fn online_stats_merge_with_empty_is_identity(
        xs in prop::collection::vec(-1e3f64..1e3, 0..50),
    ) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let before = s.clone();
        s.merge(&OnlineStats::new());
        prop_assert_eq!(&s, &before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        prop_assert_eq!(&empty, &before);
    }

    #[test]
    fn histogram_total_splits_into_buckets_and_out_of_range(
        xs in prop::collection::vec(-50.0f64..150.0, 0..300),
    ) {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for &x in &xs {
            h.record(x);
        }
        let in_range: u64 = h.buckets().iter().sum();
        prop_assert_eq!(h.total(), in_range + h.underflow() + h.overflow());
        prop_assert_eq!(h.total(), xs.len() as u64);
        let under = xs.iter().filter(|&&x| x < 0.0).count() as u64;
        let over = xs.iter().filter(|&&x| x >= 100.0).count() as u64;
        prop_assert_eq!(h.underflow(), under);
        prop_assert_eq!(h.overflow(), over);
    }

    #[test]
    fn histogram_merge_of_splits_matches_single_stream(
        xs in prop::collection::vec(-10.0f64..110.0, 0..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let cut = ((xs.len() as f64) * cut_frac) as usize;
        let mut whole = Histogram::new(0.0, 100.0, 8);
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Histogram::new(0.0, 100.0, 8);
        let mut b = Histogram::new(0.0, 100.0, 8);
        for &x in &xs[..cut] {
            a.record(x);
        }
        for &x in &xs[cut..] {
            b.record(x);
        }
        a.merge(&b);
        // Bucket counting is integer arithmetic, so equality is exact.
        prop_assert_eq!(a, whole);
    }

    /// The writer's "shortest round-trip" claim: every finite gauge's
    /// rendered token parses back to the same bits. Gauges are drawn
    /// from raw bit patterns, so subnormals and extreme exponents occur.
    #[test]
    fn snapshot_json_gauge_tokens_parse_back_to_the_same_bits(
        bits in prop::collection::vec(0u64..u64::MAX, 1..8),
    ) {
        let gauges: Vec<f64> = bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .filter(|g| g.is_finite())
            .collect();
        let mut snap = MetricsSnapshot::new();
        for (i, &g) in gauges.iter().enumerate() {
            snap.put(&format!("g{i}.level"), MetricValue::Gauge(g));
        }
        let json = snap.to_json();
        for (i, &g) in gauges.iter().enumerate() {
            let key = format!("\"g{i}.level\": {{\"type\": \"gauge\", \"value\": ");
            let start = json
                .find(&key)
                .ok_or_else(|| TestCaseError::fail(format!("g{i} missing from {json}")))?
                + key.len();
            let token = &json[start..start + json[start..].find('}').unwrap_or(0)];
            let back: f64 = token
                .parse()
                .map_err(|e| TestCaseError::fail(format!("token `{token}`: {e}")))?;
            prop_assert_eq!(back.to_bits(), g.to_bits(), "token `{}`", token);
        }
    }
}
