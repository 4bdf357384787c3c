//! Stable JSON rendering and parsing for [`MetricsSnapshot`].
//!
//! The writer is byte-deterministic: metrics are emitted in `BTreeMap`
//! (name) order, floats use Rust's shortest-round-trip `Display`, and
//! the layout is fixed 2-space-indented so golden files diff cleanly in
//! review. The reader is a minimal recursive-descent JSON parser that
//! accepts exactly what the writer produces (plus whitespace freedom),
//! with non-finite floats encoded as the strings `"NaN"`, `"Inf"`,
//! `"-Inf"`.

use std::fmt::Write as _;

use qi_simkit::stats::{Histogram, OnlineStats};

use crate::{MetricValue, MetricsSnapshot};

/// Error from [`MetricsSnapshot::from_json`], with byte offset context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

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

    /// Parse a snapshot previously rendered by [`MetricsSnapshot::to_json`].
    pub fn from_json(input: &str) -> Result<MetricsSnapshot, JsonError> {
        let mut p = Parser {
            text: input,
            pos: 0,
        };
        let root = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing data after JSON document"));
        }
        let obj = root.as_object("document")?;
        let metrics_json = obj
            .iter()
            .find(|(k, _)| k == "metrics")
            .ok_or(JsonError {
                message: "missing `metrics` key".into(),
                offset: 0,
            })?
            .1
            .as_object("metrics")?;
        let mut snap = MetricsSnapshot::new();
        for (name, body) in metrics_json {
            let fields = body.as_object(name)?;
            let kind = get(fields, name, "type")?.as_str(name)?;
            let value = match kind {
                "counter" => MetricValue::Counter(get(fields, name, "value")?.as_u64(name)?),
                "gauge" => MetricValue::Gauge(get(fields, name, "value")?.as_f64(name)?),
                "stats" => MetricValue::Stats(OnlineStats::from_parts(
                    get(fields, name, "count")?.as_u64(name)?,
                    get(fields, name, "mean")?.as_f64(name)?,
                    get(fields, name, "m2")?.as_f64(name)?,
                    get(fields, name, "sum")?.as_f64(name)?,
                    get(fields, name, "min")?.as_f64(name)?,
                    get(fields, name, "max")?.as_f64(name)?,
                )),
                "histogram" => {
                    let buckets = get(fields, name, "buckets")?
                        .as_array(name)?
                        .iter()
                        .map(|v| v.as_u64(name))
                        .collect::<Result<Vec<u64>, JsonError>>()?;
                    MetricValue::Histogram(Histogram::from_parts(
                        get(fields, name, "lo")?.as_f64(name)?,
                        get(fields, name, "hi")?.as_f64(name)?,
                        buckets,
                        get(fields, name, "underflow")?.as_u64(name)?,
                        get(fields, name, "overflow")?.as_u64(name)?,
                    ))
                }
                other => {
                    return Err(JsonError {
                        message: format!("metric `{name}`: unknown type `{other}`"),
                        offset: 0,
                    })
                }
            };
            snap.metrics.insert(name.clone(), value);
        }
        Ok(snap)
    }
}

fn get<'a>(fields: &'a [(String, Json)], metric: &str, key: &str) -> Result<&'a Json, JsonError> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| JsonError {
            message: format!("metric `{metric}`: missing `{key}`"),
            offset: 0,
        })
}

/// Minimal JSON value. Numbers keep their raw text so `u64` counters
/// round-trip without a float detour.
#[derive(Clone, Debug)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(String),
}

impl Json {
    fn as_object(&self, what: &str) -> Result<&[(String, Json)], JsonError> {
        match self {
            Json::Object(o) => Ok(o),
            _ => Err(JsonError {
                message: format!("`{what}`: expected object"),
                offset: 0,
            }),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(a) => Ok(a),
            _ => Err(JsonError {
                message: format!("`{what}`: expected array"),
                offset: 0,
            }),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(JsonError {
                message: format!("`{what}`: expected string"),
                offset: 0,
            }),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Json::Num(raw) => raw.parse().map_err(|_| JsonError {
                message: format!("`{what}`: `{raw}` is not a u64"),
                offset: 0,
            }),
            _ => Err(JsonError {
                message: format!("`{what}`: expected unsigned integer"),
                offset: 0,
            }),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, JsonError> {
        match self {
            Json::Num(raw) => raw.parse().map_err(|_| JsonError {
                message: format!("`{what}`: `{raw}` is not a number"),
                offset: 0,
            }),
            Json::Str(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "Inf" => Ok(f64::INFINITY),
                "-Inf" => Ok(f64::NEG_INFINITY),
                _ => Err(JsonError {
                    message: format!("`{what}`: `{s}` is not a number sentinel"),
                    offset: 0,
                }),
            },
            _ => Err(JsonError {
                message: format!("`{what}`: expected number"),
                offset: 0,
            }),
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.text.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as
                    // one slice: both are ASCII, so the run ends on a
                    // character boundary.
                    let rest = &self.text.as_bytes()[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let chunk = self
                        .text
                        .get(self.pos..self.pos + run)
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let raw = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid UTF-8 in number"))?;
        Ok(Json::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricValue;
    use qi_simkit::stats::{Histogram, OnlineStats};

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = OnlineStats::new();
        s.push(12.5);
        s.push(20.0);
        let mut h = Histogram::new(0.0, 1000.0, 4);
        h.record(5.0);
        h.record(2000.0);
        let mut snap = MetricsSnapshot::new();
        snap.put("pfs.ost0.ops", MetricValue::Counter(123));
        snap.put("pfs.nic0.util", MetricValue::Gauge(0.375));
        snap.put("mds.lock_wait_us", MetricValue::Stats(s));
        snap.put("disk0.service_us", MetricValue::Histogram(h));
        snap
    }

    #[test]
    fn round_trip_is_exact_and_byte_stable() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parses");
        assert_eq!(snap, back);
        assert_eq!(json, back.to_json());
    }

    #[test]
    fn empty_stats_round_trip() {
        let mut snap = MetricsSnapshot::new();
        snap.put("never_observed", MetricValue::Stats(OnlineStats::new()));
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(snap, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsSnapshot::from_json("not json").is_err());
        assert!(MetricsSnapshot::from_json("{}").is_err()); // no `metrics`
        assert!(MetricsSnapshot::from_json("{\"metrics\": {}} trailing").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let mut snap = MetricsSnapshot::new();
        snap.put("weird\"name\\with\nescapes", MetricValue::Counter(1));
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(snap, back);
    }

    #[test]
    fn multi_byte_names_and_unicode_escapes_round_trip() {
        let mut snap = MetricsSnapshot::new();
        // Multi-byte runs on both sides of escapes, and a control
        // character the writer renders as a `\u` escape.
        for name in ["lat.µs", "日本\\語\"ost", "rocket.🚀\u{1}.ops", "é"] {
            snap.put(name, MetricValue::Counter(name.len() as u64));
        }
        let json = snap.to_json();
        assert!(json.contains("\\u0001"), "{json}");
        let back = MetricsSnapshot::from_json(&json).expect("parses");
        assert_eq!(snap, back);
        assert_eq!(json, back.to_json());
        // A `\u` escape the writer never emits decodes to its character.
        let hand = json.replace("\"é\"", "\"\\u00e9\"");
        assert_ne!(hand, json);
        assert_eq!(MetricsSnapshot::from_json(&hand).expect("parses"), snap);
    }
}
