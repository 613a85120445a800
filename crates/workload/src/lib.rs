//! Client population and query workload generation.
//!
//! The paper's data sets are "many millions of queries" from real Bing
//! clients (§3.2). This crate synthesizes the population those analyses
//! need, with the properties the paper states explicitly:
//!
//! * clients aggregate into **/24 prefixes** that "tend to be localized"
//!   ([`population`]);
//! * per-/24 query volume "is heavily skewed across prefixes" — Zipf
//!   ([`volume`]);
//! * most clients use an **ISP-local LDNS** near them, a minority are far
//!   from their resolver, and a small share of demand flows through
//!   **public resolvers** with ECS ([`ldns_assign`]);
//! * query arrivals follow a diurnal, timezone-aware curve
//!   ([`temporal`]);
//! * [`scenario`] ties it all together: one call builds the world,
//!   population, resolvers and per-day passive logs that every figure
//!   harness starts from;
//! * the passive logs are the production request log of §3.2.1 — "the
//!   client IP address, location, and what front-end was used during a
//!   particular request": one [`record::PassiveRecord`] per sampled query,
//!   naming its client by index into [`Scenario::clients`], with the
//!   per-client group-bys the distance (Figure 4) and affinity (Figures
//!   7–8) analyses read over a run of them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ldns_assign;
pub mod population;
pub mod record;
pub mod scenario;
pub mod temporal;
pub mod volume;

pub use ldns_assign::{LdnsAssignment, LdnsConfig};
pub use population::{Client, PopulationConfig};
pub use record::PassiveRecord;
pub use scenario::{Scenario, ScenarioConfig};
