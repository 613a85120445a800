//! # anycast-cdn
//!
//! A full reproduction of *Analyzing the Performance of an Anycast CDN*
//! (Calder, Flavel, Katz-Bassett, Mahajan, Padhye — IMC 2015) as a Rust
//! workspace: an Internet/BGP simulator substrate, the paper's JavaScript-
//! beacon measurement methodology, its passive-log analyses, and its
//! history-based DNS-redirection prediction scheme.
//!
//! This crate is a facade: it re-exports every workspace crate under one
//! name so examples and downstream users can depend on a single package.
//!
//! ```
//! use anycast_cdn::geo::GeoPoint;
//!
//! let seattle = GeoPoint::new(47.61, -122.33);
//! let london = GeoPoint::new(51.51, -0.13);
//! assert!(seattle.haversine_km(&london) > 7000.0);
//! ```
//!
//! See the workspace `README.md` for the architecture overview and
//! `DESIGN.md` for the per-experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use anycast_analysis as analysis;
pub use anycast_beacon as beacon;
pub use anycast_control as control;
pub use anycast_core as core;
pub use anycast_dns as dns;
pub use anycast_geo as geo;
pub use anycast_netsim as netsim;
pub use anycast_serve as serve;
pub use anycast_workload as workload;
