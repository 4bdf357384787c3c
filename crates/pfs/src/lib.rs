//! # qi-pfs
//!
//! A deterministic discrete-event simulator of a Lustre-like parallel
//! file system, standing in for the 11-node Lustre 2.12 cluster the paper
//! evaluates on (see `DESIGN.md` for the substitution argument).
//!
//! The pieces, bottom-up:
//!
//! - [`arena`] — generation-versioned slab keying in-flight ops/RPCs.
//! - [`disk`] — rotational-disk service model (seek curve, media rate).
//! - [`queue`] — block request queue with merging, read-priority deadline
//!   dispatch, and `/proc/diskstats`-like counters (paper Table II).
//! - [`cache`] — OSS write-back cache with dirty throttling.
//! - [`net`] — per-node NIC serialization (fan-in contention).
//! - [`layout`] — Lustre-style striping and per-OST extent allocation.
//! - [`cluster`] — the event loop wiring clients, the OSS/OSTs and the
//!   MDS/MDT (namespace, directory locks, journal) together, each layer
//!   the one owner of its state.
//! - [`ops`] — workload-facing operations, rank programs, trace records.
//! - [`control`] — the typed mitigation control plane: directives,
//!   actuators, and the per-window controller hook.
//!
//! ```
//! use qi_pfs::prelude::*;
//!
//! let mut cl = Cluster::builder()
//!     .config(ClusterConfig::small())
//!     .seed(42)
//!     .build()
//!     .expect("valid configuration");
//! let f = FileKey { app: AppId(0), num: 1 };
//! cl.precreate_file(f, 8 * 1024 * 1024, None);
//! let mut left = 8u64;
//! let prog = move |_now: qi_simkit::SimTime| {
//!     if left == 0 { return ProgramStep::Finished; }
//!     left -= 1;
//!     ProgramStep::Op(IoOp::Read { file: f, offset: (8 - left - 1) * 1024 * 1024, len: 1024 * 1024 })
//! };
//! let app = cl.add_app("reader", vec![Box::new(prog)], &[NodeId(0)]);
//! let trace = cl.run_until_app(app, qi_simkit::SimTime::from_secs(30));
//! assert_eq!(trace.ops.len(), 8);
//! ```

pub mod arena;
pub mod cache;
pub mod cluster;
pub mod config;
pub mod control;
pub mod disk;
pub mod ids;
pub mod layout;
mod mds;
pub mod net;
pub mod ops;
pub mod queue;
mod servers;

/// Convenient glob-import surface for building and running clusters.
pub mod prelude {
    pub use crate::arena::{Slab, SlabKey};
    pub use crate::cluster::{Cluster, ClusterBuilder};
    pub use crate::config::{ClusterConfig, StripeConfig, SECTOR_SIZE};
    pub use crate::control::{ClusterController, ControlDirective, DirectiveRecord};
    pub use crate::ids::{AppId, DeviceId, DirKey, FileKey, NodeId, OpToken};
    pub use crate::ops::{
        IoOp, OpKind, OpRecord, ProgramStep, RankProgram, RpcRecord, RunTrace, ServerSample,
    };
    pub use qi_faults::{FaultEvent, FaultPlan, RetryPolicy};
    pub use qi_simkit::{QiError, QueueBackend};
}

pub use prelude::*;
