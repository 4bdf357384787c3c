//! Drive the *streaming* feature pipeline the way the deployed
//! framework would: the trace is read a window boundary at a time,
//! windows are emitted the moment they can no longer change, and each
//! emitted window is classified by the trained predictor — the online
//! loop of the paper's Figure 2. The pipeline here is the very same
//! code batch dataset generation runs, so what the model sees online is
//! what it was trained on.
//!
//! ```sh
//! cargo run --release --example streaming_windows
//! ```

use quanterference_repro::framework::prelude::*;
use quanterference_repro::monitor::{EmittedWindow, FeaturePipeline};

fn main() -> Result<(), QiError> {
    // 1. Train a model offline.
    let mut spec = DatasetSpec::smoke();
    spec.seeds = (1..=4).collect();
    spec.intensities = vec![1, 2, 3];
    println!("training offline on {} runs...", spec.n_runs());
    let tcfg = TrainConfig {
        epochs: 25,
        ..TrainConfig::default()
    };
    let (_, mut predictor, report) = train_and_evaluate(&spec, &tcfg, 5)?;
    println!("offline F1 = {:.3}\n", report.headline_f1());

    // 2. A fresh run whose events we replay through the streaming path.
    let scenario = Scenario {
        cluster: ClusterConfig::small(),
        small: true,
        target_ranks: 2,
        ..Scenario::baseline(WorkloadKind::IorEasyRead, 77)
    }
    .with_interference(InterferenceSpec {
        kind: WorkloadKind::IorEasyWrite,
        instances: 2,
        ranks: 2,
    });
    let (app, trace) = scenario.run()?;
    let n_devices = scenario.cluster.n_devices();

    // 3. Follow the trace the way the control loop's tick does: at each
    //    window boundary, ingest what happened up to it. The pipeline
    //    merges ops (by completion), RPCs (by issue) and server samples
    //    (by sample time) itself and hands back every window that
    //    closed; the last call drains what the last boundary left.
    let mut pipeline = FeaturePipeline::new(spec.window, spec.features, n_devices);
    println!("pipeline schema: {}", pipeline.schema());
    let last = trace
        .ops
        .last()
        .map_or(0, |o| spec.window.index_of(o.completed));
    let mut emitted: Vec<EmittedWindow> = Vec::new();
    for w in 1..=last {
        emitted.extend(pipeline.ingest_until(&trace, spec.window.start_of(w))?);
    }
    emitted.extend(pipeline.ingest_trace(&trace)?);
    emitted.extend(pipeline.finish());
    println!(
        "streamed {} ops, {} rpcs, {} samples -> {} finalized windows",
        trace.ops.len(),
        trace.rpcs.len(),
        trace.samples.len(),
        emitted.len()
    );

    // 4. Classify each window the instant it is emitted. The per-app
    //    feature blocks come from the pipeline too — the same assembly
    //    the training vectors went through.
    println!("\nlive predictions for the target app:");
    for w in &emitted {
        let Some(client) = w.clients.get(&app) else {
            continue;
        };
        for (block_app, block) in w.feature_blocks(spec.features, n_devices, spec.window.window) {
            if block_app != app {
                continue;
            }
            let bin = predictor.predict_block(&block)?;
            println!(
                "  window {:>2}: {:>4} ops, {:>8} bytes -> predicted {}",
                w.window,
                client.total_ops(),
                client.total_bytes(),
                predictor.bin_labels()[bin]
            );
        }
    }
    Ok(())
}
