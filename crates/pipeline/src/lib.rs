//! Sharded ingestion of beacon records into exact per-pair sample columns:
//! the names the benchmark's ingest probes time.
//!
//! [`sketch_day`] gathers one stream of `(group, target, latency)` records
//! into per-pair [`QuantileSketch`] columns ([`DaySketches`]), sharded by
//! key ownership: every worker replays the stream itself and keeps the
//! records whose group a hash ([`route_subnet`] for prefix keys) gives it.
//! A group's records are wholly owned by one worker and arrive in stream
//! order, workers' key sets are disjoint, and each column is a function of
//! its key's own records, so the same seed gives bit-identical columns for
//! *any* worker count. The workers run on
//! [`anycast_netsim::stream::run_workers`].
//!
//! `anycast_core`'s predictor trains through its own grouping kernel; no
//! library crate depends on this one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod shard;
mod sketch;
mod source;
mod window;

pub use anycast_core::prediction::ShardConfig;
pub use sketch::QuantileSketch;
pub use source::{route_subnet, sketch_day};
pub use window::DaySketches;
