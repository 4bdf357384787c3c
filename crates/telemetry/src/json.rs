//! Stable JSON rendering for [`MetricsSnapshot`].
//!
//! The writer is byte-deterministic: metrics are emitted in `BTreeMap`
//! (name) order, floats use Rust's shortest-round-trip `Display`, and
//! the layout is fixed 2-space-indented so golden files diff cleanly in
//! review. Non-finite floats are written as the strings `"NaN"`,
//! `"Inf"`, `"-Inf"`.

use std::fmt::Write as _;

use crate::{MetricValue, MetricsSnapshot};

/// Render an `f64` as a JSON value: shortest-round-trip decimal for
/// finite values, quoted sentinel strings otherwise.
fn fmt_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v == f64::INFINITY {
        out.push_str("\"Inf\"");
    } else if v == f64::NEG_INFINITY {
        out.push_str("\"-Inf\"");
    } else {
        let _ = write!(out, "{v}");
    }
}

fn fmt_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl MetricsSnapshot {
    /// Render the snapshot as stable, pretty-printed JSON. Byte-identical
    /// output for equal snapshots; suitable as a golden-file format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"qi-telemetry/v1\",\n  \"metrics\": {");
        let mut first = true;
        for (name, value) in &self.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            fmt_string(&mut out, name);
            out.push_str(": ");
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{{\"type\": \"counter\", \"value\": {c}}}");
                }
                MetricValue::Gauge(g) => {
                    out.push_str("{\"type\": \"gauge\", \"value\": ");
                    fmt_f64(&mut out, *g);
                    out.push('}');
                }
                MetricValue::Stats(s) => {
                    let _ = write!(out, "{{\"type\": \"stats\", \"count\": {}, ", s.count());
                    out.push_str("\"sum\": ");
                    fmt_f64(&mut out, s.sum());
                    out.push_str(", \"mean\": ");
                    fmt_f64(&mut out, s.mean());
                    out.push_str(", \"m2\": ");
                    fmt_f64(&mut out, s.m2());
                    out.push_str(", \"min\": ");
                    fmt_f64(&mut out, s.min());
                    out.push_str(", \"max\": ");
                    fmt_f64(&mut out, s.max());
                    out.push('}');
                }
                MetricValue::Histogram(h) => {
                    out.push_str("{\"type\": \"histogram\", \"lo\": ");
                    fmt_f64(&mut out, h.lo());
                    out.push_str(", \"hi\": ");
                    fmt_f64(&mut out, h.hi());
                    out.push_str(", \"buckets\": [");
                    for (i, b) in h.buckets().iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{b}");
                    }
                    let _ = write!(
                        out,
                        "], \"underflow\": {}, \"overflow\": {}}}",
                        h.underflow(),
                        h.overflow()
                    );
                }
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{MetricValue, MetricsSnapshot};

    #[test]
    fn escapes_names_and_writes_non_finite_sentinels() {
        let mut snap = MetricsSnapshot::new();
        for (i, name) in [
            "q\"uote",
            "back\\slash",
            "new\nline",
            "ctl\u{1}",
            "lat.µs.日本🚀",
            "tab\there",
        ]
        .into_iter()
        .enumerate()
        {
            snap.put(name, MetricValue::Counter(i as u64 + 1));
        }
        snap.put("g.nan", MetricValue::Gauge(f64::NAN));
        snap.put("g.inf", MetricValue::Gauge(f64::INFINITY));
        snap.put("g.neg_inf", MetricValue::Gauge(f64::NEG_INFINITY));
        let expected = r#"{
  "schema": "qi-telemetry/v1",
  "metrics": {
    "back\\slash": {"type": "counter", "value": 2},
    "ctl\u0001": {"type": "counter", "value": 4},
    "g.inf": {"type": "gauge", "value": "Inf"},
    "g.nan": {"type": "gauge", "value": "NaN"},
    "g.neg_inf": {"type": "gauge", "value": "-Inf"},
    "lat.µs.日本🚀": {"type": "counter", "value": 5},
    "new\nline": {"type": "counter", "value": 3},
    "q\"uote": {"type": "counter", "value": 1},
    "tab\there": {"type": "counter", "value": 6}
  }
}
"#;
        assert_eq!(snap.to_json(), expected);
    }
}
