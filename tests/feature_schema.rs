//! End-to-end schema threading: the `FeatureSchema` a model is trained
//! under travels inside its `QIMODEL` file and is validated everywhere
//! the model could be bound to a pipeline — `ModelRegistry` load and
//! activate, and `Predictor::new` — **before** any inference runs. A
//! model trained under a different window length, an ablated feature
//! block, or no schema at all (legacy v1 files) is refused with a typed
//! error, never served with silently misaligned vectors.

use quanterference_repro::framework::prelude::*;
use quanterference_repro::ml::data::Dataset;
use quanterference_repro::ml::serialize::{model_from_text, model_to_text};
use quanterference_repro::ml::train::{train_with_schema, TrainConfig, TrainedModel};
use quanterference_repro::monitor::{FeatureConfig, FeatureSchema, Imputation, WindowConfig};
use quanterference_repro::serve::ModelRegistry;

const SERVERS: usize = 5;

/// A quick synthetic model stamped with the schema of the full
/// 1-second-window pipeline (42 features per server vector).
fn trained_under(schema: FeatureSchema) -> TrainedModel {
    let feats = schema.vector_len();
    let mut samples = Vec::new();
    let mut y = Vec::new();
    for i in 0..40 {
        let pos = i % 2 == 0;
        let v = if pos { 1.0f32 } else { -1.0 };
        samples.push(vec![v; SERVERS * feats]);
        y.push(usize::from(pos));
    }
    let data = Dataset::from_samples(samples, y, SERVERS);
    let cfg = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    train_with_schema(&data, &cfg, schema).expect("schema matches the data")
}

fn schema_1s() -> FeatureSchema {
    FeatureSchema::current(
        WindowConfig::seconds(1),
        FeatureConfig::default(),
        Imputation::Zero,
    )
}

#[test]
fn qimodel_files_carry_their_schema_through_save_and_load() {
    let model = trained_under(schema_1s());
    let text = model_to_text(&model);
    assert!(
        text.lines().any(|l| l.starts_with("schema.window_ns ")),
        "schema section missing from the QIMODEL text"
    );
    let back = model_from_text(&text).expect("round trip");
    assert_eq!(back.schema(), &schema_1s());
}

#[test]
fn window_length_mismatch_is_rejected_before_any_inference() {
    // The serving side monitors with 2-second windows; the model was
    // trained on 1-second vectors. Same shape, same vector length —
    // only the schema knows they mean different things.
    let model = trained_under(schema_1s());
    let expected = FeatureSchema::current(
        WindowConfig::seconds(2),
        FeatureConfig::default(),
        Imputation::Zero,
    );
    let mut reg = ModelRegistry::new(model.shape(), expected);
    let text = model_to_text(&model);
    let err = reg.load_text(1, &text).expect_err("rejected at load");
    assert!(matches!(err, QiError::SchemaMismatch { .. }), "{err}");
    assert!(err.to_string().contains("window=2000ms"), "{err}");
    assert!(err.to_string().contains("window=1000ms"), "{err}");
    // Nothing was registered: there is no model an engine could run.
    assert!(reg.versions().is_empty());
    assert!(reg.active_model().is_none());
}

#[test]
fn ablated_feature_block_mismatch_is_rejected() {
    // Model trained with the client block ablated; registry expects the
    // full feature set. Vector lengths differ AND the schema digests
    // differ — either way it must bounce with the typed error.
    let ablated = FeatureSchema::current(
        WindowConfig::seconds(1),
        FeatureConfig {
            client: false,
            server: true,
        },
        Imputation::Zero,
    );
    let model = trained_under(ablated);
    let mut reg = ModelRegistry::new(model.shape(), schema_1s());
    let err = reg.insert(1, model).expect_err("ablated schema rejected");
    // The shape gate fires first here (27 != 42 features); what matters
    // is that the model can never serve.
    assert!(err.to_string().contains("shape") || matches!(err, QiError::SchemaMismatch { .. }));
    assert!(reg.versions().is_empty());
}

#[test]
fn matching_schema_loads_activates_and_serves() {
    let model = trained_under(schema_1s());
    let mut reg = ModelRegistry::new(model.shape(), schema_1s());
    reg.load_text(1, &model_to_text(&model)).expect("loads");
    reg.activate(1).expect("activates");
    assert_eq!(reg.active_version(), Some(1));
    assert_eq!(reg.expected_schema(), &schema_1s());
}

#[test]
fn legacy_v1_text_is_a_clean_parse_error() {
    // A checksum-only v1 file (no schema section) must fail with a
    // descriptive ModelParseError — wrapped by the registry into a
    // Serve error — and never panic or load schema-less.
    let model = trained_under(schema_1s());
    let v1_body: String = model_to_text(&model)
        .lines()
        .filter(|l| !l.starts_with("schema.") && !l.starts_with("check "))
        .collect::<Vec<_>>()
        .join("\n")
        .replace("QIMODEL v2", "QIMODEL v1");
    // Recompute the trailing checksum so only the missing schema — not
    // file corruption — is what the parser trips on.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in v1_body.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let v1_text = format!("{v1_body}\ncheck {hash:016x}\n");
    assert!(model_from_text(&v1_text).is_err());
    let mut reg = ModelRegistry::new(model.shape(), schema_1s());
    let err = reg.load_text(3, &v1_text).expect_err("legacy rejected");
    assert!(err.to_string().contains("no feature schema"), "{err}");
    assert!(reg.versions().is_empty());
}
