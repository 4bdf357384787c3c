//! # qi-telemetry
//!
//! A lightweight, **deterministic** metrics layer for the simulator and
//! training pipeline: the in-simulation analogue of the always-on
//! collection that LASSi runs over Lustre and that the paper's Table 2
//! server-side statistics come from.
//!
//! Design rules, in priority order:
//!
//! 1. **Determinism.** Nothing here reads wall-clock time, thread ids,
//!    or global state. Durations are simulation time fed in by callers;
//!    identical runs produce *byte-identical* snapshots regardless of
//!    repeat count or `RAYON_NUM_THREADS` (locked in by the golden and
//!    determinism suites under `tests/`).
//! 2. **Cheap on the hot path.** Nothing is registered or looked up by
//!    name while a run is going: each component keeps plain fields
//!    (`u64` counters, an `OnlineStats`, a `Histogram`) and names them
//!    once, when it writes its own block into a snapshot through a
//!    `metrics_into(&self, &mut MetricsSnapshot)` method.
//! 3. **Stable rendering.** [`MetricsSnapshot`] orders metrics by name
//!    (a `BTreeMap`) and its renderer, [`MetricsSnapshot::to_json`], is
//!    a pure function of that map, so the order blocks are written in
//!    never shows.
//!
//! ## Metric kinds
//!
//! Every kind enters a snapshot through [`MetricsSnapshot::put`]:
//!
//! | kind | [`MetricValue`] | rendered as |
//! |------|-----------------|-------------|
//! | counter | `Counter(u64)` | monotone `u64` |
//! | gauge | `Gauge(f64)` | last-written `f64` |
//! | stats | `Stats(OnlineStats)` | Welford summary (count/sum/mean/min/max/stddev) |
//! | histogram | `Histogram(Histogram)` | fixed-width buckets + under/overflow |
//!
//! `stats` and `histogram` reuse [`qi_simkit::stats::OnlineStats`] and
//! [`qi_simkit::stats::Histogram`].
//!
//! ## Example
//!
//! ```
//! use qi_simkit::stats::OnlineStats;
//! use qi_telemetry::{MetricValue, MetricsSnapshot};
//!
//! // A component's plain fields...
//! let ops = 1u64;
//! let mut depth = OnlineStats::new();
//! depth.push(3.0);
//! // ...written into a snapshot as its block.
//! let mut snap = MetricsSnapshot::new();
//! snap.put("pfs.ost0.ops", MetricValue::Counter(ops));
//! snap.put("pfs.ost0.queue_depth", MetricValue::Stats(depth));
//!
//! assert_eq!(snap.counter("pfs.ost0.ops"), Some(1));
//! let json = snap.to_json();
//! assert!(json.contains(r#""pfs.ost0.ops": {"type": "counter", "value": 1}"#));
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use qi_simkit::stats::{Histogram, OnlineStats};

mod json;

/// One metric's current value; see the crate docs for the kind
/// semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing event count.
    Counter(u64),
    /// Last-written instantaneous value.
    Gauge(f64),
    /// Welford mean/variance/min/max summary of observations.
    Stats(OnlineStats),
    /// Fixed-width bucketed distribution of observations.
    Histogram(Histogram),
}

/// A name-sorted set of metrics at one instant, filled block by block
/// through [`MetricsSnapshot::put`].
///
/// Snapshots are plain data: they can be attached to run artefacts
/// (`RunTrace`, `EvalReport`), rendered as JSON, and absorbed into one
/// another.
/// Equality is structural, and `to_json` output is byte-stable: two
/// snapshots are equal iff their JSON renderings are identical.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Name → value, ordered by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Counter value by name, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value by name, if `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Stats summary by name, if `name` is a stats metric.
    pub fn stats(&self, name: &str) -> Option<&OnlineStats> {
        match self.metrics.get(name) {
            Some(MetricValue::Stats(s)) => Some(s),
            _ => None,
        }
    }

    /// Histogram by name, if `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True when the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Insert or replace one metric.
    pub fn put(&mut self, name: &str, value: MetricValue) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Absorb all metrics from `other` under a `prefix.` namespace.
    /// Useful for folding per-subsystem snapshots into one artefact.
    pub fn absorb(&mut self, prefix: &str, other: &MetricsSnapshot) {
        for (name, value) in &other.metrics {
            let key = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            self.metrics.insert(key, value.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_land_in_snapshot() {
        let mut s = OnlineStats::new();
        s.push(2.0);
        s.push(4.0);
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(3.0);
        h.record(100.0);
        let mut snap = MetricsSnapshot::new();
        snap.put("ops", MetricValue::Counter(41));
        snap.put("ops", MetricValue::Counter(42)); // replaces
        snap.put("util", MetricValue::Gauge(0.75));
        snap.put("depth", MetricValue::Stats(s));
        snap.put("svc", MetricValue::Histogram(h));
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.counter("ops"), Some(42));
        assert_eq!(snap.gauge("util"), Some(0.75));
        assert_eq!(snap.counter("util"), None, "kind-typed getters");
        let st = snap.stats("depth").unwrap();
        assert_eq!(st.count(), 2);
        assert_eq!(st.mean(), 3.0);
        let hist = snap.histogram("svc").unwrap();
        assert_eq!(hist.total(), 2);
        assert_eq!(hist.overflow(), 1);
    }

    #[test]
    fn absorb_prefixes_names() {
        let mut a = MetricsSnapshot::new();
        a.put("x", MetricValue::Counter(1));
        let mut out = MetricsSnapshot::new();
        out.absorb("sub", &a);
        assert_eq!(out.counter("sub.x"), Some(1));
    }
}
