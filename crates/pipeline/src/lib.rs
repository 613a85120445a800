//! Sharded ingestion of beacon records into per-pair sample columns.
//!
//! The paper's data plane is big: "our analysis of client performance
//! … is based on more than 420 million queries" and a month of beacon
//! measurements (§3.2). This crate holds what the rest of the workspace
//! shares for reading such a stream in parallel:
//!
//! * [`shard`] — key-ownership sharding without a producer: every worker
//!   replays the record source itself and keeps the keys a hash of the
//!   group gives it; a dead worker reaches the caller as a typed
//!   [`ShardError`]. Its [`run_workers`] — worker 0 on the calling thread,
//!   the rest on scoped threads, outputs in worker order — is how the
//!   campaign engine runs a day's contiguous event ranges and the exact
//!   trainers their row ranges;
//! * [`sketch`] — [`QuantileSketch`], one pair's exact sample column, and
//!   the deterministic hashes ([`mix64`], [`FastHasher`]) routing and the
//!   hot maps run on;
//! * [`source`] — adapters from `anycast_beacon` joined measurements into
//!   `(group, target, latency)` training records, and [`sketch_day`],
//!   which gathers one record stream into per-pair columns
//!   ([`DaySketches`], in [`window`]).
//!
//! **Determinism under sharding.** Records are routed by the client-group
//! key, so a group's records are wholly owned by one worker and arrive in
//! stream order; workers' key sets are disjoint and each column is a
//! function of its key's own records. The same seed therefore produces
//! bit-identical columns for *any* worker count.
//!
//! `anycast_core`'s predictor trains through its own grouping kernel over
//! these records; [`sketch_day`] and [`QuantileSketch`] are the names the
//! benchmark's ingest probes time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod shard;
pub mod sketch;
pub mod source;
pub mod window;

pub use shard::{run_workers, ShardConfig, ShardError};
pub use sketch::{mix64, FastHasher, FastMap, QuantileSketch};
pub use source::{ecs_record_with_failures, ldns_record_with_failures, route_subnet, sketch_day};
pub use window::DaySketches;
