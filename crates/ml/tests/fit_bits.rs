//! Bit pins for the fit. The benchmark's `train_fit` digest folds
//! predicted classes only, so a reordered sum inside a training kernel
//! that leaves the classes alone would pass everything else in the
//! repository. These cases fit a fixed synthetic set and compare the
//! serialized weights' checksum and every epoch's loss, as bits,
//! against constants captured before the training kernels were touched
//! (x86-64 Linux; `exp` and `ln` in the loss come from the platform's
//! libm, so a failure on another platform at an untouched commit means
//! "recapture there", not "a kernel moved").

use qi_ml::serialize::model_to_text;
use qi_ml::train::{train, EarlyStop, TrainConfig, TrainedModel};
use qi_ml::Dataset;

const SERVERS: usize = 4;
const FEATS: usize = 10;

/// A fixed imbalanced two-class set from a multiplicative hash (no RNG
/// crate in the way): positives carry one "hot" server whose first
/// three features are shifted.
fn synth(n: usize) -> Dataset {
    let mut state = 0x5EED_0F17u64;
    let mut unit = move || {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let mut samples = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let positive = i % 3 != 0;
        let hot = i % SERVERS;
        let mut block = Vec::with_capacity(SERVERS * FEATS);
        for s in 0..SERVERS {
            for f in 0..FEATS {
                let shift = if positive && s == hot && f < 3 {
                    2.5
                } else {
                    0.0
                };
                block.push(unit() * 2.0 - 1.0 + shift);
            }
        }
        samples.push(block);
        y.push(usize::from(positive));
    }
    Dataset::from_samples(samples, y, SERVERS)
}

fn check_line(model: &TrainedModel) -> String {
    let text = model_to_text(model);
    text.lines().last().expect("check line").to_string()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Default widths (kernel `[32, 16]`, head `[16]`, batch 64): every
/// layer width has a specialised fused kernel, the kernel MLP's
/// products sit above `BLOCK_MIN_WORK` and the head's below it, and
/// the last batch of an epoch is a short one.
#[test]
fn default_widths_fit_is_pinned() {
    let cfg = TrainConfig {
        epochs: 6,
        seed: 5,
        ..TrainConfig::default()
    };
    let model = train(&synth(300), &cfg);
    assert_eq!(check_line(&model), DEFAULT_CHECK);
    assert_eq!(bits(&model.loss_curve), DEFAULT_LOSS);
}

/// Widths with no specialised kernel (40, 20 take `dense_rows_any`; 24
/// has one), a batch whose products cross `BLOCK_MIN_WORK` in both
/// directions, and a validation forward over one large matrix.
#[test]
fn fallback_widths_fit_is_pinned() {
    let cfg = TrainConfig {
        epochs: 6,
        batch: 96,
        kernel_hidden: vec![40, 20],
        head_hidden: vec![24],
        seed: 9,
        early_stop: Some(EarlyStop {
            patience: 6,
            val_fraction: 0.2,
        }),
        ..TrainConfig::default()
    };
    let model = train(&synth(420), &cfg);
    assert_eq!(check_line(&model), FALLBACK_CHECK);
    assert_eq!(bits(&model.loss_curve), FALLBACK_LOSS);
    assert_eq!(bits(&model.val_curve), FALLBACK_VAL);
}

// Captured at the commit before the training kernels changed (the
// parent of the change that added this file), at one and two threads.
const DEFAULT_CHECK: &str = "check ff52440b741e720f";
const DEFAULT_LOSS: [u32; 6] = [
    0x3f747633, 0x3f5772c8, 0x3f48de16, 0x3f41ee34, 0x3f389cde, 0x3f3587d2,
];
const FALLBACK_CHECK: &str = "check 500704377415cea9";
const FALLBACK_LOSS: [u32; 6] = [
    0x3fe14f7e, 0x3fa8f32f, 0x3f833c6e, 0x3f5ed7c2, 0x3f434934, 0x3f3ab90f,
];
const FALLBACK_VAL: [u32; 6] = [
    0x3fb37ec2, 0x3f8a270c, 0x3f5f7494, 0x3f4310d1, 0x3f33206b, 0x3f283f08,
];
