//! `train_fit`: the from-scratch ML stack alone. The grid is built in
//! set-up; a pass is two fits and an evaluation.

use qi_ml::train::train_with_schema;
use qi_ml::Dataset;
use quanterference::prelude::*;

use super::grid;
use super::{Env, Pass, Scale, Workload};
use crate::digest;
use crate::recorder::{timed, Recorder};
use crate::trace::Tracer;

/// One fit. The default widths keep every matmul under the pool's
/// work threshold (`PAR_MIN_WORK`); the wide ones cross it, so the two
/// take different `Matrix::matmul` dispatch paths.
struct Leg {
    rate_metric: &'static str,
    cfg: TrainConfig,
}

pub struct TrainFit {
    gen: GeneratedDataset,
    train: Dataset,
    test: Dataset,
    legs: [Leg; 2],
    /// Predicted classes of both fits on the held-out 20%, from the
    /// checked pass.
    seen: u64,
}

pub fn setup(env: &Env) -> Result<Box<dyn Workload + Send>, QiError> {
    let spec = grid::setup_spec(env.seed, env.scale);
    let gen = generate_on(&env.pool, &spec)?;
    let (train, test) = gen.data.split(0.2, env.seed);
    let (default_epochs, wide_epochs) = match env.scale {
        Scale::Full => (60, 12),
        Scale::Smoke => (4, 1),
    };
    let base = grid::train_config(&spec, env.seed, default_epochs);
    let legs = [
        Leg {
            rate_metric: "ml.train.sample_epochs_per_s.default",
            cfg: base.clone(),
        },
        Leg {
            rate_metric: "ml.train.sample_epochs_per_s.wide",
            cfg: TrainConfig {
                epochs: wide_epochs,
                batch: 256,
                kernel_hidden: vec![128, 64],
                head_hidden: vec![64],
                ..base
            },
        },
    ];
    Ok(Box::new(TrainFit {
        gen,
        train,
        test,
        legs,
        seen: 0,
    }))
}

impl TrainFit {
    /// Both fits and their evaluation. Returns the pass, the digest of
    /// the predicted classes, and the default fit's headline F1 on the
    /// held-out 20%.
    fn fit_all(&self, tracer: &mut Tracer, rec: &mut Recorder) -> (Pass, u64, f64) {
        let mut out = Pass::default();
        let mut classes = Vec::new();
        let mut f1 = Vec::new();
        for leg in &self.legs {
            let sample_epochs = (self.train.len() * leg.cfg.epochs) as f64;
            let (fit, dt) = timed(tracer, "ml.train", &mut out.segments, || {
                train_with_schema(&self.train, &leg.cfg, self.gen.schema.clone())
            });
            let Ok(mut model) = fit else {
                rec.ops(1, 1);
                continue;
            };
            rec.ops(1, 0);
            out.work += sample_epochs;
            let (predicted, _) = timed(tracer, "ml.eval", &mut out.segments, || {
                model.predict(&self.test)
            });
            if tracer.enabled() {
                rec.sample(leg.rate_metric, sample_epochs / dt);
                rec.add("ml.train.sample_epochs_per_pass", sample_epochs);
                rec.add("ml.eval.samples", self.test.len() as f64);
            }
            f1.push(grid::f1(leg.cfg.n_classes, &self.test.y, &predicted));
            classes.extend(predicted.into_iter().map(|c| c as u64));
        }
        (
            out,
            digest::fold(classes),
            f1.first().copied().unwrap_or(0.0),
        )
    }
}

impl Workload for TrainFit {
    fn check(&mut self, env: &Env, _tracer: &mut Tracer, rec: &mut Recorder) -> u64 {
        let (_, classes, f1) = self.fit_all(&mut Tracer::new(false), rec);
        self.seen = classes;
        // The default fit is the paper's model: its F1 on the held-out
        // windows guards against a fast fit that learns nothing.
        rec.set("ml.f1_binary", f1);
        let floor = grid::f1_floor(env.scale);
        rec.check(f1 >= floor, || format!("held-out F1 {f1:.3} below {floor}"));
        digest::fold([digest::dataset(&self.gen.data), classes])
    }

    fn pass(&mut self, _env: &Env, tracer: &mut Tracer, rec: &mut Recorder) -> Pass {
        let (pass, classes, _) = self.fit_all(tracer, rec);
        rec.check(classes == self.seen, || {
            "a fit predicted other classes than the checked pass".to_string()
        });
        pass
    }
}
