//! `benchmark compare A.json B.json`: two sets, workload by workload
//! and metric by metric. `A` is the baseline (a parent commit, or the
//! first of two sets of one commit). A timed metric of `B` may be worse
//! than `A`'s by its bound and no more; digests, failure counts and
//! correctness must be identical.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};

/// By what share of `a` is `b` worse (negative: better)?
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// One finding that makes the comparison fail.
#[derive(Debug, PartialEq)]
pub struct Breach(pub String);

/// Everything that is wrong between two sets; empty means they agree.
/// `report` receives one line per comparison made.
pub fn compare(a: &Value, b: &Value, mut report: impl FnMut(String)) -> Vec<Breach> {
    let mut breaches = Vec::new();
    let mut breach = |text: String| breaches.push(Breach(text));
    let field = |set: &Value, key: &str| set.get(key).cloned().unwrap_or(Value::Null);

    if field(a, "scale") != field(b, "scale") {
        breach(format!(
            "scales differ ({} vs {}): a smoke set says nothing about a full one",
            field(a, "scale").render(),
            field(b, "scale").render()
        ));
        return breaches;
    }
    if field(a, "trace") != Value::Bool(false) || field(b, "trace") != Value::Bool(false) {
        breach(
            "compare takes untraced sets: end-to-end metrics are measured with tracing off".into(),
        );
        return breaches;
    }
    if field(a, "degraded") == Value::Bool(true) {
        breach(
            "the baseline set is degraded (one hardware thread, so one caller instead of two)"
                .into(),
        );
    }
    if field(b, "degraded") == Value::Bool(true) {
        report("note: the second set is degraded; it ran one caller instead of two".into());
    }
    let same_seed = field(a, "seed") == field(b, "seed");
    if !same_seed {
        report("note: seeds differ, so digests are not compared".into());
    }

    for (name, wa) in a.get("workloads").map(Value::entries).unwrap_or_default() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            breach(format!("{name}: missing from the second set"));
            continue;
        };
        let of = |w: &Value, outer: &str, key: &str| {
            w.get(outer)
                .and_then(|o| o.get(key))
                .cloned()
                .unwrap_or(Value::Null)
        };
        for (side, w) in [("first", wa), ("second", wb)] {
            if of(w, "result", "correct") != Value::Bool(true) {
                breach(format!("{name}: the {side} set's run failed its checks"));
            }
        }
        // Exact quantities: deterministic at one seed, so any
        // difference is a change of behaviour, not noise.
        if same_seed {
            for (outer, key) in [("stamp", "digest"), ("result", "failed")] {
                let (va, vb) = (of(wa, outer, key), of(wb, outer, key));
                report(format!(
                    "{name:<16} {key:<12} {:>18} {:>18}   exact",
                    va.render(),
                    vb.render()
                ));
                if va != vb {
                    breach(format!(
                        "{name}: {key} differs ({} vs {})",
                        va.render(),
                        vb.render()
                    ));
                }
            }
        }
        for m in &END_TO_END {
            let value = |w: &Value| {
                of(w, "result", "metrics")
                    .get(m.name)
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                breach(format!("{name}: {} missing", m.name));
                continue;
            };
            let worse = worse_by(m.better, va, vb);
            let verdict = if worse > m.bound { "BREACH" } else { "ok" };
            report(format!(
                "{name:<16} {:<12} {va:>18.4} {vb:>18.4}   {:+7.2}% worse, bound {:.0}% ({} is better)  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                m.better.name(),
            ));
            if worse > m.bound {
                breach(format!(
                    "{name}: {} worse by {:.1}% (bound {:.0}%)",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }
    breaches
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let breaches = compare(&load(a)?, &load(b)?, |line| println!("{line}"));
    for Breach(text) in &breaches {
        eprintln!("benchmark: {text}");
    }
    Ok(breaches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-workload untraced set with the given metric values.
    fn set(scale: &str, digest: &str, pass_ms: f64, work_per_s: f64) -> Value {
        let metric = |v: f64, unit: &str| {
            Value::obj(vec![("value", Value::Num(v)), ("unit", Value::str(unit))])
        };
        Value::obj(vec![
            ("scale", Value::str(scale)),
            ("seed", Value::Num(1.0)),
            ("trace", Value::Bool(false)),
            ("degraded", Value::Bool(false)),
            (
                "workloads",
                Value::obj(vec![(
                    "sim_big",
                    Value::obj(vec![
                        ("stamp", Value::obj(vec![("digest", Value::str(digest))])),
                        (
                            "result",
                            Value::obj(vec![
                                ("correct", Value::Bool(true)),
                                ("attempted", Value::Num(6.0)),
                                ("failed", Value::Num(0.0)),
                                (
                                    "metrics",
                                    Value::obj(vec![
                                        ("setup_s", metric(0.5, "s")),
                                        ("pass_ms", metric(pass_ms, "ms")),
                                        ("work_per_s", metric(work_per_s, "1/s")),
                                        ("peak_heap_mb", metric(100.0, "MiB")),
                                    ]),
                                ),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn with(mut set: Value, key: &str, value: Value) -> Value {
        if let Value::Obj(pairs) = &mut set {
            pairs.retain(|(k, _)| k != key);
            pairs.push((key.to_string(), value));
        }
        set
    }

    fn breaches(a: &Value, b: &Value) -> Vec<String> {
        compare(a, b, |_| {})
            .into_iter()
            .map(|Breach(t)| t)
            .collect()
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
    }

    #[test]
    fn within_bound_passes_and_beyond_bound_breaches() {
        let bound = crate::metrics::end_to_end("pass_ms").expect("listed").bound;
        let a = set("full", "aa", 1000.0, 2.0e6);
        assert!(breaches(&a, &a).is_empty());
        let slower = set("full", "aa", 1000.0 * (1.0 + bound * 0.9), 2.0e6);
        assert!(breaches(&a, &slower).is_empty(), "inside the bound");
        let much_slower = set("full", "aa", 1000.0 * (1.0 + bound * 1.1), 2.0e6);
        assert_eq!(breaches(&a, &much_slower).len(), 1);
        // Better never breaches, however large the move.
        assert!(breaches(&a, &set("full", "aa", 10.0, 2.0e8)).is_empty());
        // A higher-is-better metric breaches downwards.
        let lower_rate = set("full", "aa", 1000.0, 2.0e6 * (1.0 - bound * 1.1));
        assert!(breaches(&a, &lower_rate)[0].contains("work_per_s"));
    }

    #[test]
    fn exact_quantities_must_be_equal() {
        let a = set("full", "aa", 1000.0, 2.0e6);
        let got = breaches(&a, &set("full", "bb", 1000.0, 2.0e6));
        assert_eq!(got.len(), 1);
        assert!(got[0].contains("digest"), "{got:?}");
        // At another seed the inputs differ, so digests may too.
        let other_seed = with(set("full", "bb", 1000.0, 2.0e6), "seed", Value::Num(2.0));
        assert!(breaches(&a, &other_seed).is_empty());
    }

    #[test]
    fn refuses_sets_that_cannot_be_compared() {
        let full = set("full", "aa", 1000.0, 2.0e6);
        let smoke = set("smoke", "aa", 1000.0, 2.0e6);
        assert!(breaches(&full, &smoke)[0].contains("smoke"));
        assert!(breaches(&smoke, &full)[0].contains("smoke"));
        let degraded = with(full.clone(), "degraded", Value::Bool(true));
        assert!(
            breaches(&degraded, &full)[0].contains("degraded"),
            "not accepted as a baseline"
        );
        assert!(
            breaches(&full, &degraded).is_empty(),
            "reported, not refused, as the change"
        );
        let traced = with(full.clone(), "trace", Value::Bool(true));
        assert!(!breaches(&full, &traced).is_empty());
    }
}
