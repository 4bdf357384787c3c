//! Prometheus text-exposition rendering for [`MetricsSnapshot`].
//!
//! Output follows the text format conventions: `# TYPE` comment lines,
//! one `name value` sample per line, histogram buckets as cumulative
//! `_bucket{le="…"}` series ending in `+Inf`, and stats as summary-style
//! `_count`/`_sum` plus `_min`/`_mean`/`_max`/`_stddev` gauges. Metric
//! names are sanitised to `[a-zA-Z0-9_:]`. The renderer is a pure
//! function of the snapshot, so output is byte-stable.

use std::fmt::Write as _;

use crate::{MetricValue, MetricsSnapshot};

/// Map an internal dotted metric name to a Prometheus-legal one.
fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Render a float the way Prometheus expects (`NaN`, `+Inf`, `-Inf`).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Render the snapshot in Prometheus text-exposition style.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let pname = sanitize(name);
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {pname} counter");
                    let _ = writeln!(out, "{pname} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {pname} gauge");
                    let _ = writeln!(out, "{pname} {}", fmt_value(*g));
                }
                MetricValue::Stats(s) => {
                    let _ = writeln!(out, "# TYPE {pname} summary");
                    let _ = writeln!(out, "{pname}_count {}", s.count());
                    let _ = writeln!(out, "{pname}_sum {}", fmt_value(s.sum()));
                    let _ = writeln!(out, "{pname}_min {}", fmt_value(s.min()));
                    let _ = writeln!(out, "{pname}_mean {}", fmt_value(s.mean()));
                    let _ = writeln!(out, "{pname}_max {}", fmt_value(s.max()));
                    let _ = writeln!(out, "{pname}_stddev {}", fmt_value(s.std_dev()));
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {pname} histogram");
                    // Cumulative buckets; underflow folds into the first
                    // `le` bound, overflow into `+Inf`, per convention.
                    let mut cumulative = h.underflow();
                    for (i, b) in h.buckets().iter().enumerate() {
                        cumulative += b;
                        let (_, hi) = h.bucket_bounds(i);
                        let _ = writeln!(
                            out,
                            "{pname}_bucket{{le=\"{}\"}} {cumulative}",
                            fmt_value(hi)
                        );
                    }
                    cumulative += h.overflow();
                    let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {cumulative}");
                    let _ = writeln!(out, "{pname}_count {}", h.total());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;
    use qi_simkit::stats::{Histogram, OnlineStats};

    #[test]
    fn sanitize_makes_legal_names() {
        assert_eq!(sanitize("pfs.ost-0.queue depth"), "pfs_ost_0_queue_depth");
        assert_eq!(sanitize("0leading"), "_0leading");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        for v in [-1.0, 0.5, 1.5, 1.6, 99.0] {
            h.record(v);
        }
        let mut snap = MetricsSnapshot::new();
        snap.put("svc", MetricValue::Histogram(h));
        let text = snap.to_prometheus_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# TYPE svc histogram");
        assert_eq!(lines[1], "svc_bucket{le=\"1\"} 2"); // underflow + 0.5
        assert_eq!(lines[2], "svc_bucket{le=\"2\"} 4");
        assert_eq!(lines[3], "svc_bucket{le=\"3\"} 4");
        assert_eq!(lines[4], "svc_bucket{le=\"+Inf\"} 5");
        assert_eq!(lines[5], "svc_count 5");
    }

    #[test]
    fn every_sample_line_is_name_space_value() {
        let mut s = OnlineStats::new();
        s.push(2.0);
        let mut snap = MetricsSnapshot::new();
        snap.put("a.b", MetricValue::Counter(7));
        snap.put("g", MetricValue::Gauge(1.25));
        snap.put("s", MetricValue::Stats(s));
        let text = snap.to_prometheus_text();
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            // Value parses as a float (covers ints, floats, ±Inf, NaN).
            let v = value
                .replace("+Inf", "inf")
                .replace("-Inf", "-inf")
                .parse::<f64>();
            assert!(v.is_ok(), "bad value in line `{line}`");
        }
    }
}
