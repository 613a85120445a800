//! Passive measurement substrate.
//!
//! "Bing server logs provide detailed information about client requests for
//! each search query. For our analysis we use the client IP address,
//! location, and what front-end was used during a particular request"
//! (§3.2.1). This crate is that logging pipeline: a per-query record type
//! and a day-partitioned in-memory store with the group-bys the analyses
//! need.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod record;
pub mod store;

pub use record::PassiveRecord;
pub use store::TelemetryStore;
