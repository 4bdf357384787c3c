//! Text serialization for trained models.
//!
//! The deployed framework trains offline and predicts at runtime
//! (paper Fig. 2); persisting the trained model is what separates the
//! two phases in practice. The format is a line-oriented text file with
//! every `f32` encoded as its exact bit pattern in hex, so a round trip
//! is bit-identical and the files diff cleanly.
//!
//! ```text
//! QIMODEL v2
//! schema.version 1
//! schema.window_ns 1000000000
//! schema.client 1
//! schema.server 1
//! schema.client_len 15
//! schema.series completed_reqs sectors_read ...   (or "-" when empty)
//! schema.imputation zero
//! schema.digest 0123456789abcdef   (FNV-1a 64 of the canonical schema)
//! servers 7
//! kernel 39 32 16 1
//! head 7 16 2
//! std.mean 3f800000 ...
//! std.std  3f800000 ...
//! net.w 0 <hex...>      (layer index over kernel layers then head layers)
//! net.b 0 <hex...>
//! check 0123456789abcdef  (FNV-1a 64 over everything above)
//! ```
//!
//! The `schema.*` section (new in v2) embeds the [`FeatureSchema`] the
//! model was trained under, so the serving registry can refuse a model
//! whose feature layout does not match the pipeline it would serve —
//! legacy checksum-only `QIMODEL v1` files are rejected with a clean
//! parse error asking for a re-export. The trailing `check` line makes
//! the file self-verifying: *any* truncation or bit flip in a stored
//! model surfaces as a [`ModelParseError`] instead of silently
//! deserializing different weights — this is the trust boundary the
//! serving registry loads models across.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use qi_monitor::features::{FeatureConfig, Imputation};
use qi_monitor::schema::FeatureSchema;
use qi_simkit::hash::fnv1a;

use crate::data::Standardizer;
use crate::layers::{Dense, Mlp};
use crate::model::KernelNet;
use crate::train::TrainedModel;

/// A failure while parsing a serialized model.
#[derive(Debug, PartialEq, Eq)]
pub struct ModelParseError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model parse error: {}", self.message)
    }
}

impl std::error::Error for ModelParseError {}

fn err(message: impl Into<String>) -> ModelParseError {
    ModelParseError {
        message: message.into(),
    }
}

fn floats_to_hex(v: &[f32]) -> String {
    let mut out = String::with_capacity(v.len() * 9);
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:08x}", x.to_bits());
    }
    out
}

fn hex_to_floats(s: &str) -> Result<Vec<f32>, ModelParseError> {
    s.split_whitespace()
        .map(|tok| {
            u32::from_str_radix(tok, 16)
                .map(f32::from_bits)
                .map_err(|_| err(format!("bad f32 hex token {tok:?}")))
        })
        .collect()
}

/// Serialize a trained model to its text form.
pub fn model_to_text(model: &TrainedModel) -> String {
    let net = model.net();
    let st = model.standardizer();
    let mut out = String::new();
    let _ = writeln!(out, "QIMODEL v2");
    let schema = model.schema();
    let _ = writeln!(out, "schema.version {}", schema.version());
    let _ = writeln!(out, "schema.window_ns {}", schema.window_nanos());
    let _ = writeln!(
        out,
        "schema.client {}",
        u8::from(schema.feature_config().client)
    );
    let _ = writeln!(
        out,
        "schema.server {}",
        u8::from(schema.feature_config().server)
    );
    let _ = writeln!(out, "schema.client_len {}", schema.client_len());
    let series = if schema.series().is_empty() {
        "-".to_string()
    } else {
        schema.series().join(" ")
    };
    let _ = writeln!(out, "schema.series {series}");
    let _ = writeln!(out, "schema.imputation {}", schema.imputation().token());
    let _ = writeln!(out, "schema.digest {:016x}", schema.digest());
    let _ = writeln!(out, "servers {}", net.n_servers());
    let widths = |m: &Mlp| {
        m.widths()
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out, "kernel {}", widths(net.kernel()));
    let _ = writeln!(out, "head {}", widths(net.head()));
    let _ = writeln!(out, "std.mean {}", floats_to_hex(st.mean()));
    let _ = writeln!(out, "std.std {}", floats_to_hex(st.std()));
    let mut idx = 0;
    for mlp in [net.kernel(), net.head()] {
        for layer in mlp.layers() {
            let _ = writeln!(
                out,
                "net.w {} {}",
                idx,
                floats_to_hex(layer.weights().data())
            );
            let _ = writeln!(out, "net.b {} {}", idx, floats_to_hex(layer.bias()));
            idx += 1;
        }
    }
    let sum = fnv1a(out.trim_end().as_bytes());
    let _ = writeln!(out, "check {sum:016x}");
    out
}

/// Parse a model back from its text form.
pub fn model_from_text(text: &str) -> Result<TrainedModel, ModelParseError> {
    // Integrity first: the last line must be a checksum over everything
    // above it, so truncations and bit flips fail here instead of
    // deserializing different weights.
    let (body, check_line) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| err("missing checksum line"))?;
    let stored_str = check_line
        .trim()
        .strip_prefix("check ")
        .ok_or_else(|| err("missing checksum line"))?
        .trim();
    // Strict form — exactly 16 lowercase hex digits — so a corrupted
    // checksum line can never alias the value it was written as.
    if stored_str.len() != 16
        || !stored_str
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err(err(format!("bad checksum {:?}", check_line.trim())));
    }
    let stored = u64::from_str_radix(stored_str, 16)
        .map_err(|_| err(format!("bad checksum {:?}", check_line.trim())))?;
    let computed = fnv1a(body.as_bytes());
    if stored != computed {
        return Err(err(format!(
            "checksum mismatch: file says {stored:016x}, content hashes to {computed:016x}"
        )));
    }
    let mut lines = body.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or_else(|| err("empty input"))?;
    if header.trim() == "QIMODEL v1" {
        return Err(err(
            "legacy QIMODEL v1 file carries no feature schema; re-export the model \
             with this version (train_with_schema + save_model) to serve it",
        ));
    }
    if header.trim() != "QIMODEL v2" {
        return Err(err(format!("unknown header {header:?}")));
    }
    let mut schema_version: Option<u32> = None;
    let mut schema_window_ns: Option<u64> = None;
    let mut schema_client: Option<bool> = None;
    let mut schema_server: Option<bool> = None;
    let mut schema_client_len: Option<usize> = None;
    let mut schema_series: Option<Vec<String>> = None;
    let mut schema_imputation: Option<Imputation> = None;
    let mut schema_digest: Option<u64> = None;
    let mut servers: Option<usize> = None;
    let mut kernel_widths: Option<Vec<usize>> = None;
    let mut head_widths: Option<Vec<usize>> = None;
    let mut mean: Option<Vec<f32>> = None;
    let mut std: Option<Vec<f32>> = None;
    let mut weights: Vec<(usize, Vec<f32>)> = Vec::new();
    let mut biases: Vec<(usize, Vec<f32>)> = Vec::new();
    for line in lines {
        let (key, rest) = line
            .split_once(' ')
            .ok_or_else(|| err(format!("malformed line {line:?}")))?;
        let parse_bool = |what: &str, s: &str| match s.trim() {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(err(format!("bad {what} flag {other:?}"))),
        };
        match key {
            "schema.version" => {
                schema_version = Some(rest.trim().parse().map_err(|_| err("bad schema version"))?)
            }
            "schema.window_ns" => {
                schema_window_ns = Some(
                    rest.trim()
                        .parse()
                        .map_err(|_| err("bad schema window_ns"))?,
                )
            }
            "schema.client" => schema_client = Some(parse_bool("schema.client", rest)?),
            "schema.server" => schema_server = Some(parse_bool("schema.server", rest)?),
            "schema.client_len" => {
                schema_client_len = Some(
                    rest.trim()
                        .parse()
                        .map_err(|_| err("bad schema client_len"))?,
                )
            }
            "schema.series" => {
                schema_series = Some(if rest.trim() == "-" {
                    Vec::new()
                } else {
                    rest.split_whitespace().map(str::to_string).collect()
                })
            }
            "schema.imputation" => {
                schema_imputation =
                    Some(Imputation::from_token(rest.trim()).ok_or_else(|| {
                        err(format!("unknown schema imputation {:?}", rest.trim()))
                    })?)
            }
            "schema.digest" => {
                schema_digest = Some(
                    u64::from_str_radix(rest.trim(), 16).map_err(|_| err("bad schema digest"))?,
                )
            }
            "servers" => servers = Some(rest.trim().parse().map_err(|_| err("bad server count"))?),
            "kernel" | "head" => {
                let w: Result<Vec<usize>, _> = rest.split_whitespace().map(|t| t.parse()).collect();
                let w = w.map_err(|_| err(format!("bad widths in {key}")))?;
                if w.len() < 2 {
                    return Err(err(format!("{key} needs at least two widths")));
                }
                if key == "kernel" {
                    kernel_widths = Some(w)
                } else {
                    head_widths = Some(w)
                }
            }
            "std.mean" => mean = Some(hex_to_floats(rest)?),
            "std.std" => std = Some(hex_to_floats(rest)?),
            "net.w" | "net.b" => {
                let (idx, payload) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(format!("malformed {key} line")))?;
                let idx: usize = idx.parse().map_err(|_| err("bad layer index"))?;
                let v = hex_to_floats(payload)?;
                if key == "net.w" {
                    weights.push((idx, v))
                } else {
                    biases.push((idx, v))
                }
            }
            other => return Err(err(format!("unknown key {other:?}"))),
        }
    }
    let schema = FeatureSchema::from_parts(
        schema_version.ok_or_else(|| err("missing schema.version"))?,
        schema_window_ns.ok_or_else(|| err("missing schema.window_ns"))?,
        FeatureConfig {
            client: schema_client.ok_or_else(|| err("missing schema.client"))?,
            server: schema_server.ok_or_else(|| err("missing schema.server"))?,
        },
        schema_client_len.ok_or_else(|| err("missing schema.client_len"))?,
        schema_series.ok_or_else(|| err("missing schema.series"))?,
        schema_imputation.ok_or_else(|| err("missing schema.imputation"))?,
    );
    let stored_digest = schema_digest.ok_or_else(|| err("missing schema.digest"))?;
    if stored_digest != schema.digest() {
        return Err(err(format!(
            "schema digest mismatch: file says {stored_digest:016x}, \
             schema hashes to {:016x}",
            schema.digest()
        )));
    }
    let servers = servers.ok_or_else(|| err("missing servers"))?;
    let kernel_widths = kernel_widths.ok_or_else(|| err("missing kernel widths"))?;
    let head_widths = head_widths.ok_or_else(|| err("missing head widths"))?;
    let mean = mean.ok_or_else(|| err("missing std.mean"))?;
    let std = std.ok_or_else(|| err("missing std.std"))?;
    if mean.len() != std.len() {
        return Err(err("standardizer length mismatch"));
    }
    if mean.len() != kernel_widths[0] {
        return Err(err(format!(
            "standardizer covers {} features, network takes {}",
            mean.len(),
            kernel_widths[0]
        )));
    }
    if std.iter().any(|&s| s <= 0.0 || s.is_nan()) {
        return Err(err("non-positive standardizer std"));
    }
    weights.sort_by_key(|(i, _)| *i);
    biases.sort_by_key(|(i, _)| *i);
    let n_layers = kernel_widths.len() - 1 + head_widths.len() - 1;
    if weights.len() != n_layers || biases.len() != n_layers {
        return Err(err(format!(
            "expected {n_layers} layers, got {} weights / {} biases",
            weights.len(),
            biases.len()
        )));
    }
    let build = |widths: &[usize], base: usize| -> Result<Mlp, ModelParseError> {
        let mut layers = Vec::new();
        for (k, pair) in widths.windows(2).enumerate() {
            let (wi, w) = &weights[base + k];
            let (bi, b) = &biases[base + k];
            if *wi != base + k || *bi != base + k {
                return Err(err("layer indices not dense"));
            }
            if pair[0].checked_mul(pair[1]) != Some(w.len()) || b.len() != pair[1] {
                return Err(err(format!("layer {k} parameter shape mismatch")));
            }
            layers.push(Dense::from_params(pair[0], pair[1], w.clone(), b.clone()));
        }
        Ok(Mlp::from_layers(layers))
    };
    let kernel = build(&kernel_widths, 0)?;
    let head = build(&head_widths, kernel_widths.len() - 1)?;
    if kernel.outputs() != 1 {
        return Err(err("kernel must end in a single score"));
    }
    if head.inputs() != servers {
        return Err(err("head width does not match server count"));
    }
    if schema.vector_len() != kernel_widths[0] {
        return Err(err(format!(
            "schema describes {} features per server vector, network takes {}",
            schema.vector_len(),
            kernel_widths[0]
        )));
    }
    let net = KernelNet::from_parts(kernel, head, servers);
    Ok(TrainedModel::from_parts(
        net,
        Standardizer::from_parts(mean, std),
        schema,
    ))
}

/// Write a model to `path`.
pub fn save_model<P: AsRef<Path>>(model: &TrainedModel, path: P) -> io::Result<()> {
    if let Some(parent) = path.as_ref().parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, model_to_text(model))
}

/// Read a model back from `path`.
pub fn load_model<P: AsRef<Path>>(path: P) -> io::Result<TrainedModel> {
    let text = fs::read_to_string(path)?;
    model_from_text(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::train::{train, TrainConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained() -> (TrainedModel, Dataset) {
        let mut rng = StdRng::seed_from_u64(4);
        let servers = 3;
        let mut samples = Vec::new();
        let mut y = Vec::new();
        for i in 0..120 {
            let pos = i % 2 == 0;
            let block: Vec<f32> = (0..servers * 5)
                .map(|_| {
                    if pos {
                        rng.gen_range(1.0..2.0)
                    } else {
                        rng.gen_range(-2.0..-1.0)
                    }
                })
                .collect();
            samples.push(block);
            y.push(usize::from(pos));
        }
        let data = Dataset::from_samples(samples, y, servers);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        (train(&data, &cfg), data)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (mut model, data) = trained();
        let text = model_to_text(&model);
        let mut back = model_from_text(&text).expect("parse");
        assert_eq!(model.predict(&data), back.predict(&data));
        // Serialising again yields the same text.
        assert_eq!(model_to_text(&back), text);
    }

    #[test]
    fn save_load_files() {
        let (mut model, data) = trained();
        let path = std::env::temp_dir().join("qi_model_test/model.qim");
        save_model(&model, &path).expect("save");
        let mut back = load_model(&path).expect("load");
        assert_eq!(model.predict(&data), back.predict(&data));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// Rewrite `text`'s trailing checksum so only the *inner* change
    /// under test (not the outer integrity check) trips the parser.
    fn with_valid_checksum(text: &str) -> String {
        let (body, _) = text.trim_end().rsplit_once('\n').expect("check line");
        format!("{body}\ncheck {:016x}\n", fnv1a(body.as_bytes()))
    }

    #[test]
    fn rejects_corrupt_inputs() {
        let (model, _) = trained();
        let text = model_to_text(&model);
        assert!(model_from_text("garbage").is_err());
        assert!(model_from_text("QIMODEL v2\nservers 3\n").is_err());
        // Flip the header version.
        let bad = with_valid_checksum(&text.replace("QIMODEL v2", "QIMODEL v9"));
        assert!(model_from_text(&bad).is_err());
        // Truncate a layer.
        let truncated: String = text
            .lines()
            .filter(|l| !l.starts_with("net.b 0"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(model_from_text(&truncated).is_err());
        // Corrupt a float token.
        let corrupt = text.replacen("std.mean ", "std.mean zzzzzzzz ", 1);
        assert!(model_from_text(&corrupt).is_err());
    }

    #[test]
    fn round_trip_preserves_the_schema() {
        let (model, _) = trained();
        let back = model_from_text(&model_to_text(&model)).expect("parse");
        assert_eq!(back.schema(), model.schema());
    }

    #[test]
    fn legacy_v1_file_is_rejected_cleanly() {
        // Reconstruct what a pre-schema export looked like: no schema
        // section, v1 header, valid checksum. Parsing must fail with a
        // clean ModelParseError pointing at the missing schema — never
        // a panic, never a silently schema-less model.
        let (model, _) = trained();
        let v1_body: String = model_to_text(&model)
            .lines()
            .filter(|l| !l.starts_with("schema.") && !l.starts_with("check "))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("QIMODEL v2", "QIMODEL v1");
        let v1_text = format!("{v1_body}\ncheck {:016x}\n", fnv1a(v1_body.as_bytes()));
        let e = model_from_text(&v1_text)
            .err()
            .expect("legacy file rejected");
        assert!(e.message.contains("no feature schema"), "{e}");
    }

    #[test]
    fn device_mean_imputation_is_refused_by_name() {
        // A file that asks for the per-device-mean fill no pipeline
        // implements must not load as if it had asked for zeros.
        let (model, _) = trained();
        let text = model_to_text(&model);
        assert!(text.contains("schema.imputation zero\n"));
        let asked = with_valid_checksum(
            &text.replace("schema.imputation zero", "schema.imputation device_mean"),
        );
        let e = model_from_text(&asked).err().expect("device_mean rejected");
        assert!(e.message.contains("unknown schema imputation"), "{e}");
        assert!(e.message.contains("device_mean"), "{e}");
    }

    #[test]
    fn tampered_schema_digest_is_rejected() {
        let (model, _) = trained();
        let text = model_to_text(&model);
        let digest_line = text
            .lines()
            .find(|l| l.starts_with("schema.digest "))
            .expect("digest line");
        let tampered =
            with_valid_checksum(&text.replace(digest_line, "schema.digest 0000000000000000"));
        let e = model_from_text(&tampered)
            .err()
            .expect("digest mismatch rejected");
        assert!(e.message.contains("schema digest mismatch"), "{e}");
    }

    #[test]
    fn schema_network_width_disagreement_is_rejected() {
        // A schema describing a different vector length than the
        // network's input layer must not parse, even with valid
        // checksums and digests.
        let (model, _) = trained();
        let text = model_to_text(&model);
        let other = FeatureSchema::custom(model.n_features() + 1);
        let swapped = text
            .lines()
            .map(|l| {
                if l.starts_with("schema.client_len ") {
                    format!("schema.client_len {}", other.client_len())
                } else if l.starts_with("schema.digest ") {
                    format!("schema.digest {:016x}", other.digest())
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let e = model_from_text(&with_valid_checksum(&swapped))
            .err()
            .expect("width mismatch");
        assert!(e.message.contains("features per server vector"), "{e}");
    }

    #[test]
    fn hex_floats_round_trip_exactly() {
        let xs = vec![0.0f32, -0.0, 1.5, f32::MIN_POSITIVE, 3.4e38, -7.25e-12];
        let hex = floats_to_hex(&xs);
        let back = hex_to_floats(&hex).expect("parse");
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
