//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions: one per scenario run, fit or
//! request round, never per request. They stay in memory until the
//! run ends. With tracing off `span` only calls the closure, so the
//! untraced run that gives the end-to-end metrics pays nothing.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One recorded span. `parent` is the span that was open when this one
/// started; spans of one pass share `run_id` (0 = outside any pass).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub run_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run_id: u32,
}

/// Calls and self time of every span name within a set of passes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Busy {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run_id: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to pass `run_id`.
    pub fn set_run(&mut self, run_id: u32) {
        self.run_id = run_id;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span named `name`. `name` is `layer.what`: the
    /// part before the first dot is the crate the call goes into.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run_id: self.run_id,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Per span name, over the spans of passes `run_ids` (inclusive
    /// range): calls, total time, and self time — the span's duration
    /// minus the part of it its child spans cover.
    pub fn busy(&self, run_ids: std::ops::RangeInclusive<u32>) -> BTreeMap<&'static str, Busy> {
        busy_of(&self.spans, run_ids)
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("id", Value::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                        ),
                        ("run_id", Value::Num(f64::from(s.run_id))),
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

fn busy_of(spans: &[Span], run_ids: std::ops::RangeInclusive<u32>) -> BTreeMap<&'static str, Busy> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Busy> = BTreeMap::new();
    for s in spans.iter().filter(|s| run_ids.contains(&s.run_id)) {
        let total = s.end_ns - s.start_ns;
        let b = out.entry(s.name).or_default();
        b.calls += 1;
        b.total_ns += total;
        // Children run on the recording thread inside their parent, so
        // they cannot cover more than the parent's duration.
        b.self_ns += total - child_ns[s.id as usize].min(total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run_id: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // pass [0,100] ── a [10,50] ── a.inner [20,30]
        //              └─ b [60,90]
        let spans = vec![
            span(0, None, "bench.pass", 0, 100),
            span(1, Some(0), "x.a", 10, 50),
            span(2, Some(1), "y.inner", 20, 30),
            span(3, Some(0), "x.b", 60, 90),
        ];
        let busy = busy_of(&spans, 1..=1);
        assert_eq!(busy["bench.pass"].self_ns, 100 - 40 - 30);
        assert_eq!(busy["x.a"].self_ns, 40 - 10);
        assert_eq!(busy["y.inner"].self_ns, 10);
        assert_eq!(busy["x.b"].self_ns, 30);
        let self_sum: u64 = busy.values().map(|b| b.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
        assert_eq!(busy["bench.pass"].total_ns, 100);
    }

    #[test]
    fn busy_filters_by_pass_and_counts_calls() {
        let mut spans = vec![span(0, None, "x.a", 0, 10), span(1, None, "x.a", 10, 30)];
        spans[1].run_id = 2;
        assert_eq!(
            busy_of(&spans, 1..=1)["x.a"],
            Busy {
                calls: 1,
                self_ns: 10,
                total_ns: 10
            }
        );
        assert_eq!(busy_of(&spans, 1..=2)["x.a"].calls, 2);
        assert!(busy_of(&spans, 3..=9).is_empty());
    }

    #[test]
    fn recorder_links_parents_and_is_inert_when_off() {
        let mut t = Tracer::new(true);
        t.set_run(7);
        let got = t.span("a.outer", |t| t.span("b.inner", |_| 41) + 1);
        assert_eq!(got, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].run_id, 7);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("a.outer", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
