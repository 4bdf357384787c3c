//! Event-time replay driver: trace → feature pipeline → serve engine.
//!
//! The deterministic stand-in for a live metric feed. A finished
//! [`RunTrace`] is pushed through the canonical
//! [`FeaturePipeline`] — the same windowing/accumulation/assembly code
//! training data was built with — and the instant a window is emitted,
//! one [`PredictRequest`] per active
//! application is submitted to the engine at that window's close time.
//! Because every timestamp comes from the trace, replaying the same
//! trace yields the same requests at the same simulated instants — and
//! therefore byte-identical serving telemetry.
//!
//! The monitoring configuration is **not** a parameter: [`WindowFeed`]
//! derives it from the engine registry's expected schema and shape, for
//! this replay and for the online control loop alike, so vectors can
//! never be assembled under a layout different from the one the active
//! model was validated against.

use qi_monitor::features::FeatureConfig;
use qi_monitor::pipeline::{EmittedWindow, FeaturePipeline};
use qi_monitor::window::WindowConfig;
use qi_pfs::ops::RunTrace;
use qi_simkit::error::QiError;
use qi_simkit::time::SimTime;

use crate::engine::{Admission, PredictRequest, Prediction};
use crate::sharded::ShardedServeEngine;

/// What a replay produced, in emission order.
#[derive(Debug, Default)]
pub struct ReplaySummary {
    /// Windows the monitor emitted.
    pub windows: u64,
    /// Requests submitted to the engine (one per active app per window).
    pub submitted: u64,
    /// Requests answered with a fresh (possibly batched) prediction.
    pub predictions: Vec<Prediction>,
    /// Requests answered from a stale class (DegradeToStale).
    pub stale: u64,
    /// Requests shed (never answered).
    pub shed: u64,
}

/// What an engine's registry fixes about the monitor that feeds it —
/// window length, feature blocks, device count — and the tally of what
/// that monitor's windows became.
pub struct WindowFeed {
    wcfg: WindowConfig,
    fcfg: FeatureConfig,
    n_devices: u32,
    /// The tally so far; an online caller drains `predictions` each tick.
    pub summary: ReplaySummary,
}

impl WindowFeed {
    /// The pipeline that may feed `engine` and the feed for its windows:
    /// window and feature blocks from the registry's expected schema
    /// (an unbound, `custom` one has no window), `n_devices` checked
    /// against its expected shape. The message goes into the caller's
    /// own error variant.
    pub fn bind(
        engine: &ShardedServeEngine,
        n_devices: u32,
    ) -> Result<(FeaturePipeline, WindowFeed), String> {
        let registry = engine.registry();
        let schema = registry.expected_schema();
        let wcfg = schema
            .window_config()
            .ok_or_else(|| format!("registry schema [{schema}] has no window length"))?;
        let n_servers = registry.expected_shape().n_servers;
        if n_devices as usize != n_servers {
            return Err(format!(
                "n_devices is {n_devices} but the registry's models take {n_servers} servers"
            ));
        }
        let fcfg = schema.feature_config();
        let feed = WindowFeed {
            wcfg,
            fcfg,
            n_devices,
            summary: ReplaySummary::default(),
        };
        Ok((FeaturePipeline::new(wcfg, fcfg, n_devices), feed))
    }

    /// Submit one emitted window at `now`: one request per active
    /// application, in ascending app id, each admission tallied.
    pub fn submit(
        &mut self,
        engine: &mut ShardedServeEngine,
        now: SimTime,
        w: &EmittedWindow,
    ) -> Result<(), QiError> {
        self.summary.windows += 1;
        for (app, block) in w.feature_blocks(self.fcfg, self.n_devices, self.wcfg.window) {
            self.summary.submitted += 1;
            let req = PredictRequest {
                tenant: app,
                window: w.window,
                block,
            };
            let (admission, done) = engine.submit(now, req)?;
            self.summary.predictions.extend(done);
            match admission {
                Admission::Enqueued => {}
                Admission::Stale(_) => self.summary.stale += 1,
                Admission::Shed => self.summary.shed += 1,
            }
        }
        Ok(())
    }
}

/// Replay `trace` through the pipeline [`WindowFeed::bind`] derives from
/// `engine`'s registry (its refusals are a [`QiError::Serve`] up front).
/// Each emitted window is submitted at its close instant,
/// `wcfg.start_of(window + 1)`; after the stream drains, the pipeline's
/// trailing window is flushed and the engine finished, so every
/// admitted request is answered.
pub fn replay_trace(
    engine: &mut ShardedServeEngine,
    trace: &RunTrace,
    n_devices: u32,
) -> Result<ReplaySummary, QiError> {
    let (mut pipeline, mut feed) = WindowFeed::bind(engine, n_devices).map_err(QiError::Serve)?;
    let mut windows = pipeline.ingest_trace(trace)?;
    windows.extend(pipeline.finish());
    let mut now = SimTime(0);
    for w in &windows {
        now = now.max(feed.wcfg.start_of(w.window + 1));
        feed.submit(engine, now, w)?;
    }
    feed.summary.predictions.extend(engine.finish(now)?);
    Ok(feed.summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{OverloadPolicy, ServeConfig};
    use crate::registry::ModelRegistry;
    use qi_ml::train::ModelShape;
    use qi_monitor::features::Imputation;
    use qi_monitor::schema::FeatureSchema;
    use qi_pfs::ids::AppId;
    use qi_simkit::time::SimDuration;

    /// An engine whose (empty) registry expects the full one-second
    /// pipeline over five servers, or a custom schema of that width.
    fn engine(windowed: bool) -> ShardedServeEngine {
        let fcfg = FeatureConfig::default();
        let schema = if windowed {
            FeatureSchema::current(WindowConfig::seconds(1), fcfg, Imputation::Zero)
        } else {
            FeatureSchema::custom(fcfg.len())
        };
        let shape = ModelShape {
            n_servers: 5,
            n_features: fcfg.len(),
            n_classes: 2,
        };
        let cfg = ServeConfig {
            max_batch: 4,
            max_delay: SimDuration::from_millis(10),
            queue_cap: 16,
            admission: None,
            overload: OverloadPolicy::Shed,
            tenants: vec![AppId(0)],
            threads: None,
        };
        ShardedServeEngine::new(cfg, ModelRegistry::new(shape, schema), 1).expect("engine builds")
    }

    #[test]
    fn replay_refuses_a_mis_sized_or_unwindowed_feed_up_front() {
        let trace = RunTrace::default();
        let err = replay_trace(&mut engine(true), &trace, 4).expect_err("4 devices, 5 servers");
        assert!(matches!(err, QiError::Serve(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains('4') && msg.contains('5'), "{msg}");

        let err = replay_trace(&mut engine(false), &trace, 5).expect_err("custom schema");
        assert!(matches!(err, QiError::Serve(_)), "{err}");
        assert!(err.to_string().contains("no window length"), "{err}");

        let summary = replay_trace(&mut engine(true), &trace, 5).expect("sized as the registry");
        assert_eq!((summary.windows, summary.submitted), (0, 0));
    }
}
