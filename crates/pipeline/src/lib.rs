//! Sharded streaming aggregation for web-scale telemetry.
//!
//! The paper's data plane is big: "our analysis of client performance
//! … is based on more than 420 million queries" and a month of beacon
//! measurements (§3.2). The rest of this workspace analyzes such data by
//! materializing every per-group latency vector and sorting it — fine for
//! simulation scales, not for production ones. This crate is the
//! production-shaped ingestion path:
//!
//! * [`sketch`] — the mergeable bounded-memory summary: a Greenwald–Khanna
//!   quantile sketch with a configurable rank-error bound (the §6
//!   25th-percentile prediction metric reads it);
//! * `bank` (private) — all of a worker's sketches in one slab: a sketch
//!   under its flush threshold is a chain of 8-value chunks on fixed
//!   pages, not a heap buffer of its own, and equals the real sketch bit
//!   for bit;
//! * [`shard`] — key-ownership sharding without a producer: every worker
//!   replays the record source itself and keeps the keys a hash of the
//!   group gives it; a dead worker reaches the caller as a typed
//!   [`ShardError`]. Its [`run_workers`] — worker 0 on the calling thread,
//!   the rest on scoped threads, outputs in worker order — is also how
//!   the campaign engine runs a day's contiguous event ranges;
//! * [`window`] — a training window's per-`(group, front-end)` sketches
//!   as the workers leave them ([`DaySketches`]: disjoint per-worker
//!   shares), read share by share, each on its own thread (the §6
//!   one-day prediction interval);
//! * [`source`] — adapters from `anycast_beacon` joined measurements into
//!   pipeline records, and [`sketch_day`], the one sharded entry point: it
//!   sketches one record stream, a day's or a whole window's in order.
//!
//! **Determinism under sharding.** Records are routed by the client-group
//! key, so a group's records are wholly owned by one worker and arrive in
//! stream order; workers' key sets are disjoint and what is read from
//! them is a function of each key's own records. The same seed therefore
//! produces bit-identical aggregates for *any* worker count —
//! reproducibility never depends on how the work was parallelized.
//!
//! `anycast_core`'s predictor trains from either path — the exact one over
//! sample vectors, or [`sketch_day`] then [`DaySketches::read`] — and the
//! `ablation-sketch-accuracy` sweep quantifies the gap.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bank;
pub mod shard;
pub mod sketch;
pub mod source;
pub mod window;

pub use shard::{run_workers, ShardConfig, ShardError};
pub use sketch::{mix64, FastHasher, FastMap, QuantileSketch};
pub use source::{
    ecs_record_with_failures, ldns_record_with_failures, route_ldns, route_subnet, sketch_day,
};
pub use window::{DayScores, DaySketches};
