//! The registry's trust boundary, under forged input.
//!
//! `ModelRegistry::load_text` promises a typed error — never a panic —
//! for any `QIMODEL` text, and that whatever it accepts can serve. A
//! bit flip is caught by the checksum (the `qi-ml` proptests cover
//! that), so these tests forge files the way an attacker or a buggy
//! exporter would: change the body, then *recompute* the checksum, so
//! the structural checks behind it are the only defence.

use proptest::prelude::*;
use qi_ml::data::Dataset;
use qi_ml::serialize::{model_from_text, model_to_text};
use qi_ml::train::{train, TrainConfig, TrainedModel};
use qi_pfs::ids::AppId;
use qi_serve::{ModelRegistry, PredictRequest, ServeConfig, ShardedServeEngine};
use qi_simkit::hash::fnv1a;
use qi_simkit::time::SimTime;
use qi_telemetry::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SERVERS: usize = 3;
const FEATS: usize = 4;

fn trained() -> TrainedModel {
    let mut rng = StdRng::seed_from_u64(5);
    let mut samples = Vec::new();
    let mut y = Vec::new();
    for i in 0..40 {
        let pos = i % 2 == 0;
        let band = if pos { 1.0..2.0 } else { -2.0..-1.0 };
        samples.push(
            (0..SERVERS * FEATS)
                .map(|_| rng.gen_range(band.clone()))
                .collect(),
        );
        y.push(usize::from(pos));
    }
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    train(&Dataset::from_samples(samples, y, SERVERS), &cfg)
}

/// Body lines of `text`, without the trailing `check` line.
fn body_lines(text: &str) -> Vec<String> {
    let (body, _) = text.trim_end().rsplit_once('\n').expect("check line");
    body.lines().map(str::to_string).collect()
}

/// Reassemble body lines under a freshly computed checksum.
fn sealed(lines: &[String]) -> String {
    let body = lines.join("\n");
    format!("{body}\ncheck {:016x}\n", fnv1a(body.as_bytes()))
}

/// Rewrite the line starting with `key ` through `f` (tokens after the
/// key in, tokens out).
fn edit_line(lines: &mut [String], key: &str, f: impl Fn(Vec<&str>) -> Vec<String>) {
    let line = lines
        .iter_mut()
        .find(|l| l.starts_with(&format!("{key} ")))
        .unwrap_or_else(|| panic!("no `{key}` line"));
    let tokens = line[key.len()..].split_whitespace().collect();
    *line = format!("{key} {}", f(tokens).join(" "));
}

/// Load `text` into a fresh registry; when it is accepted, activate it
/// and push one request through a one-shard engine. Returns whether the
/// load succeeded. Any panic on the way fails the calling test.
fn load_and_serve(model: &TrainedModel, text: &str) -> bool {
    let mut reg = ModelRegistry::new(model.shape(), model.schema().clone());
    let loaded = reg.load_text(1, text);
    let mut snap = MetricsSnapshot::new();
    reg.metrics_into(&mut snap);
    let rejected = snap.counter("serve.registry.loads_rejected");
    if loaded.is_err() {
        assert_eq!(rejected, Some(1), "a refused load is counted");
        return false;
    }
    assert_eq!(rejected, Some(0));
    reg.activate(1).expect("an accepted model activates");
    let cfg = ServeConfig {
        max_batch: 1,
        tenants: vec![AppId(0)],
        ..ServeConfig::default()
    };
    let mut eng = ShardedServeEngine::new(cfg, reg, 1).expect("engine builds");
    let req = PredictRequest {
        tenant: AppId(0),
        window: 0,
        block: vec![1.5; SERVERS * FEATS],
    };
    let (_, done) = eng
        .submit(SimTime(0), req)
        .expect("an accepted model serves");
    assert_eq!(done.len(), 1);
    true
}

/// Both loaders must refuse `text` with a typed error.
fn assert_refused(model: &TrainedModel, text: &str) {
    assert!(
        model_from_text(text).is_err(),
        "model_from_text accepted it"
    );
    assert!(!load_and_serve(model, text), "load_text accepted it");
}

#[test]
fn unforged_text_loads_and_serves() {
    let model = trained();
    assert!(load_and_serve(
        &model,
        &sealed(&body_lines(&model_to_text(&model)))
    ));
}

/// A standardizer one float short on both lines used to parse, activate
/// and then panic inside the first flush ("input shape mismatch").
#[test]
fn short_standardizer_is_refused() {
    let model = trained();
    let mut lines = body_lines(&model_to_text(&model));
    for key in ["std.mean", "std.std"] {
        edit_line(&mut lines, key, |mut t| {
            t.pop();
            t.into_iter().map(str::to_string).collect()
        });
    }
    assert_refused(&model, &sealed(&lines));
}

/// A head whose first width is 2^63 with an empty weight row: the
/// `inputs * outputs` product overflows (a debug-build panic, a wrap to
/// the matching zero length in release).
#[test]
fn overflowing_width_pair_is_refused() {
    let model = trained();
    let mut lines = body_lines(&model_to_text(&model));
    let kernel_layers = lines
        .iter()
        .find_map(|l| l.strip_prefix("kernel "))
        .expect("kernel line")
        .split_whitespace()
        .count()
        - 1;
    const HUGE: &str = "9223372036854775808";
    edit_line(&mut lines, "servers", |_| vec![HUGE.into()]);
    edit_line(&mut lines, "head", |_| vec![HUGE.into(), "2".into()]);
    // Keep the kernel's layers, replace the head's with one forged layer.
    lines.retain(|l| {
        let mut t = l.split_whitespace();
        !matches!(t.next(), Some("net.w" | "net.b"))
            || t.next().and_then(|i| i.parse::<usize>().ok()) < Some(kernel_layers)
    });
    lines.push(format!("net.w {kernel_layers} "));
    lines.push(format!("net.b {kernel_layers} 00000000 00000000"));
    assert_refused(&model, &sealed(&lines));
}

/// A kernel that ends in two scores, with parameter counts to match,
/// used to reach `KernelNet::from_parts`' assertion.
#[test]
fn kernel_with_two_outputs_is_refused() {
    let model = trained();
    let mut lines = body_lines(&model_to_text(&model));
    let kernel_layers = lines
        .iter()
        .find_map(|l| l.strip_prefix("kernel "))
        .expect("kernel line")
        .split_whitespace()
        .count()
        - 1;
    edit_line(&mut lines, "kernel", |mut t| {
        t.pop();
        t.push("2");
        t.into_iter().map(str::to_string).collect()
    });
    // Twice the outputs: twice the weights and biases of the last layer.
    for key in ["net.w", "net.b"] {
        edit_line(&mut lines, &format!("{key} {}", kernel_layers - 1), |t| {
            t.iter().chain(&t).map(|s| s.to_string()).collect()
        });
    }
    assert_refused(&model, &sealed(&lines));
}

proptest! {
    /// One structural mutation of one line — drop, duplicate or append
    /// a token, rewrite a layer width, truncate the line — under a
    /// recomputed checksum: `load_text` answers `Ok` or a typed `Err`,
    /// and whatever it accepts serves a request.
    #[test]
    fn mutated_model_text_never_panics(
        kind in 0u32..5,
        line_sel in 0usize..10_000,
        tok_sel in 0usize..10_000,
        raw in 0u64..u64::MAX,
    ) {
        let model = trained();
        let mut lines = body_lines(&model_to_text(&model));
        let width_lines: Vec<usize> = (0..lines.len())
            .filter(|&i| ["kernel ", "head ", "servers "].iter().any(|k| lines[i].starts_with(k)))
            .collect();
        let at = match kind {
            3 => width_lines[line_sel % width_lines.len()],
            _ => line_sel % lines.len(),
        };
        let mut tokens: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
        let t = tok_sel % tokens.len();
        match kind {
            0 => {
                tokens.remove(t);
            }
            1 => tokens.insert(t, tokens[t].clone()),
            2 => tokens.push(tokens[t].clone()),
            3 => {
                // Never the key; small values, off-by-ones and the
                // extremes that overflow a product.
                let t = 1 + tok_sel % (tokens.len() - 1);
                tokens[t] = match raw % 6 {
                    0 => "0".into(),
                    1 => "1".into(),
                    2 => (raw % 64).to_string(),
                    3 => "9223372036854775808".into(),
                    4 => u64::MAX.to_string(),
                    _ => raw.to_string(),
                };
            }
            _ => {
                let keep = raw as usize % (lines[at].len() + 1);
                tokens = vec![lines[at][..keep].to_string()];
            }
        }
        lines[at] = tokens.join(" ");
        let text = sealed(&lines);
        // The parser alone first, then the registry and the serve path.
        let parsed = model_from_text(&text).is_ok();
        let served = load_and_serve(&model, &text);
        prop_assert!(parsed || !served, "load_text accepted what the parser refused");
    }
}
