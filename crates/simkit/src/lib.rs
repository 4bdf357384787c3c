//! # qi-simkit
//!
//! Foundation crate for the Quanterference reproduction: a deterministic
//! discrete-event simulation core plus the numeric utilities shared by the
//! PFS simulator, the monitors, and the experiment harnesses.
//!
//! - [`error`] — the workspace-wide [`QiError`] type.
//! - [`time`] — integer-nanosecond [`SimTime`]/[`SimDuration`].
//! - [`event`] — the deterministic [`EventQueue`] on sorted packed keys
//!   ([`QueueBackend`] selects the reference double for tests).
//! - [`reference`](mod@reference) — the naive sorted-`Vec` queue double backing the
//!   differential tests.
//! - [`rng`] — seeded [`SimRng`] with substream derivation.
//! - [`stats`] — Welford accumulators, percentiles, histograms, smoothing.
//! - [`table`] — ASCII/CSV table output for experiment results.
//! - [`ratelimit`] — a token bucket over simulated time.
//! - [`hash`] — the seedless [`hash::IdMap`] hasher for simulator-internal
//!   ids, and the stable [`hash::fnv1a`] byte hash.
//!
//! Determinism contract: given the same seed and configuration, every
//! simulation built on this crate produces bit-identical traces, because
//! (a) time is integral, (b) event ties break by insertion order, and
//! (c) all randomness flows from [`SimRng`] substreams.

pub mod error;
pub mod event;
pub mod hash;
pub mod ratelimit;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use error::QiError;
pub use event::{EventQueue, QueueBackend};
pub use ratelimit::TokenBucket;
pub use rng::SimRng;
pub use stats::{moving_average, percentile, Histogram, OnlineStats};
pub use table::{fmt_f64, AsciiTable};
pub use time::{SimDuration, SimTime};
