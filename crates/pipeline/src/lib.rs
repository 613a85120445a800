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
//! * [`shard`] — hash-partitioned ingestion across N worker threads over
//!   bounded channels with blocking backpressure, merged deterministically
//!   at day close;
//! * [`ordered`] — ordered fan-out over a finite indexed work list,
//!   outputs merged back in input order over bounded channels: the shape
//!   the campaign engine uses to shard a day of beacon events;
//! * [`window`] — day-partitioned incremental per-`(group, front-end)`
//!   sketches, pooled over training windows and retired once the window
//!   passes (the §6 one-day prediction interval lifecycle);
//! * [`source`] — adapters from `anycast_beacon` joined measurements and
//!   request outcomes into pipeline streams.
//!
//! **Determinism under sharding.** Every pipeline here routes records by
//! the client-group key, so a group's records are wholly owned by one
//! worker and arrive in stream order; merged outputs are canonical-order
//! unions of disjoint-key maps. The same seed therefore produces
//! bit-identical aggregates for *any* worker count — reproducibility
//! never depends on how the work was parallelized.
//!
//! The sketch path plugs into the exact path through
//! `anycast_analysis::quantile::QuantileBackend`, which
//! [`QuantileSketch`] implements; `anycast_core`'s predictor can train
//! from either and the `ablation-sketch-accuracy` sweep quantifies the
//! gap.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ordered;
pub mod shard;
pub mod sketch;
pub mod source;
pub mod window;

pub use ordered::map_ordered;
pub use shard::{merge_keyed, Aggregate, ShardConfig, ShardError, ShardedIngest};
pub use sketch::{mix64, FastHasher, FastMap, QuantileSketch};
pub use source::{
    ecs_record_with_failures, ldns_record_with_failures, route_ldns, route_prefix, route_subnet,
    sketch_day, tally_outcomes, OutcomeCounts, OutcomeTally,
};
pub use window::{DaySketches, DayWindow, GroupAggregator};

use anycast_analysis::quantile::QuantileBackend;

impl QuantileBackend for QuantileSketch {
    fn count(&self) -> u64 {
        QuantileSketch::count(self)
    }

    fn percentile(&self, p: f64) -> Option<f64> {
        self.quantile(p)
    }
}
