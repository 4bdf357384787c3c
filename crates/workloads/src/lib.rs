//! # qi-workloads
//!
//! Workload generators for the PFS simulator, standing in for the
//! binaries the paper runs: the IO500 suite (IOR + MDTest tasks), the
//! DLIO deep-learning I/O benchmark, and proxies for three real HPC
//! applications (AMReX, Enzo, OpenPMD).
//!
//! Each workload pre-generates a deterministic per-rank script of I/O
//! operations and compute gaps; see [`common::Workload`]. Scripts depend
//! only on `(namespace, rank, seed)` so the same operation sequence is
//! replayed whether or not interference is present — the property the
//! paper's degradation labelling requires.

pub mod apps;
pub mod common;
pub mod dlio;
pub mod io500;
pub mod registry;

pub use common::{
    deploy, LoopingProgram, Placement, PrecreateFile, ScriptProgram, ScriptStep, Workload,
};
pub use registry::WorkloadKind;
