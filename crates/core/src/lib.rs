//! The paper's primary contribution, as a library.
//!
//! *Analyzing the Performance of an Anycast CDN* (IMC 2015) contributes
//! three things on top of its substrates, and each is a module here:
//!
//! * a characterization of the **CDN deployment** itself — front-end sites
//!   and their geography, and the §4 comparison against 21 public CDN
//!   footprints ([`deployment`], [`catalog`]);
//! * the **history-based prediction scheme** of §6: group clients by /24
//!   (ECS) or by resolver (LDNS), score each candidate front-end by a
//!   robust low percentile of yesterday's latency distribution, and serve
//!   each group the argmin of {anycast, unicast front-ends}
//!   ([`prediction`]), evaluated against the next day's measurements at the
//!   50th and 75th percentiles ([`evaluation`]). The table itself decides
//!   which group a query matches ([`PredictionTable::match_query`]), so the
//!   evaluation, the control plane's demand model and the served table
//!   share one rule; [`PredictionTable::hybrid_filter`] is the hybrid the
//!   conclusion advocates;
//! * the §2 **availability argument** made executable: anycast's
//!   one-routing-step failover against DNS redirection's TTL-long
//!   staleness when a front-end dies ([`failure`]);
//! * [`study`] orchestrates the full §3 measurement campaign over a
//!   simulated world: beacon sampling from the query stream, DNS/HTTP log
//!   collection, the join, and the per-day aggregates every figure
//!   consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod deployment;
pub mod evaluation;
pub mod failure;
pub mod flows;
pub mod prediction;
pub mod study;

pub use deployment::Deployment;
pub use evaluation::{evaluate_prediction, EvalRow, PrefixMap};
pub use failure::{
    anycast_request, request_times, DnsRedirectionSim, FailureReason, RequestOutcome,
};
pub use flows::{disruption_rate, DisruptionStats, FlowModel};
pub use prediction::{
    AggregationConfig, Choice, GroupKey, Grouping, Metric, PredictionTable, Predictor,
    PredictorConfig, TrainSpec,
};
pub use study::{Study, StudyConfig};
