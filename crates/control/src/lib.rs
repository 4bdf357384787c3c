//! # qi-control
//!
//! The closed loop the paper's framework exists for: *predict
//! cross-application interference online, then act on the prediction
//! while the applications are still running* (§V). Everything upstream
//! of this crate — the deterministic cluster simulator (`qi-pfs`), the
//! one-path feature pipeline (`qi-monitor`), the trained interference
//! classifiers (`qi-ml`), and the micro-batching serve engine
//! (`qi-serve`) — feeds a single in-simulation controller that turns
//! window-boundary predictions into typed mitigation directives.
//!
//! The pieces, in dataflow order:
//!
//! - [`policy`] — [`MitigationPolicy`]: per-window decision functions
//!   from predictions to *desired* posture. [`GuidedThrottle`] throttles
//!   the noise applications only while the target's predicted severity
//!   is hot (optionally also capping their per-OST admitted RPCs and
//!   steering new file layouts away from predicted-hot OSTs);
//!   [`UniformThrottle`] is the always-on baseline the guided policy
//!   must beat on background-throughput cost.
//! - [`gate`] — [`HysteresisGate`]: debounces posture flips
//!   ([`Hysteresis`] streak lengths), swallows post-flip flip attempts
//!   (cooldown), deduplicates already-applied directives, and resolves
//!   engage/release conflicts (engage wins). Its output never contains
//!   conflicting directives for one subject in one window — a property
//!   the determinism suite tests exhaustively.
//! - [`controller`] — [`ControlLoop`]: the
//!   [`ClusterController`](qi_pfs::control::ClusterController) the
//!   cluster ticks once per closed window. It ingests trace deltas into
//!   the *same* [`FeaturePipeline`](qi_monitor::FeaturePipeline) that
//!   built the training data, submits one request per active app to a
//!   [`ShardedServeEngine`](qi_serve::ShardedServeEngine), and pushes
//!   the gated directives back to the cluster,
//!   which applies them through
//!   [`Cluster::apply_directive`](qi_pfs::cluster::Cluster::apply_directive).
//!
//! Determinism argument: ticks fire at window close + 1 ns in simulated
//! time; ingest order is the canonical samples → RPCs → ops merge; the
//! pipeline watermark never passes the tick's window boundary;
//! predictions are flushed within the tick and sorted by (window,
//! tenant); policies and the gate are pure state machines over those
//! inputs. The directive sequence — recorded verbatim in
//! [`RunTrace::directives`](qi_pfs::ops::RunTrace) — is therefore a
//! pure function of the run and byte-identical across reruns and rayon
//! thread counts.

#![forbid(unsafe_code)]

pub mod controller;
pub mod gate;
pub mod policy;

pub use controller::{ControlLoop, ControlLoopBuilder};
pub use gate::{GateStats, Hysteresis, HysteresisGate};
pub use policy::{GuidedThrottle, MitigationPolicy, UniformThrottle, WindowObservation};
