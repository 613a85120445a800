//! Statistics for the measurement study.
//!
//! Every figure in the paper is one of a handful of statistical shapes, and
//! each has a module here:
//!
//! * CDFs/CCDFs, optionally query-volume weighted ([`cdf`]) — Figures 1–4, 8, 9;
//! * percentiles, the §6 prediction metrics among them ([`quantile`]);
//! * daily poor-path prevalence at latency-improvement thresholds
//!   ([`poor_paths`]) — Figure 5;
//! * poor-path persistence: days-bad and max-consecutive-days
//!   ([`persistence`]) — Figure 6;
//! * front-end affinity: cumulative switch curves and switch-distance
//!   deltas ([`affinity`]) — Figures 7–8;
//! * plain-text/CSV rendering of series ([`report`]) — the figure binaries.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod affinity;
pub mod cdf;
pub mod persistence;
pub mod poor_paths;
pub mod quantile;
pub mod report;

pub use cdf::Ecdf;
pub use quantile::{
    from_order_key, median, order_key, percentile, percentile_mut, percentile_of_keys,
};
pub use report::Series;
