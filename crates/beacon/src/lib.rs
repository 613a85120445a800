//! The JavaScript-beacon measurement apparatus (§3 of the paper).
//!
//! "We inject a JavaScript beacon into a small fraction of Bing Search
//! results. After the results page has completely loaded, the beacon
//! instructs the client to fetch four test URLs" — one resolved to the
//! anycast VIP, one to the front-end geographically closest to the client's
//! LDNS, and two to distance-weighted random picks from the remaining nine
//! nearest candidates (§3.3).
//!
//! Module map, following the paper's pipeline:
//!
//! * [`slots`] — the four measurement slots and unique measurement ids;
//! * [`policy`] — the authoritative DNS policy that implements the
//!   candidate-selection rules server-side;
//! * [`timing`] — the browser timing accuracy model (W3C Resource Timing
//!   vs. primitive JavaScript timings);
//! * [`runner`] — one beacon execution: a warm-up query per test URL,
//!   four timed downloads from the answered addresses, client-side report;
//! * [`mod@join`] — joining client-side HTTP results with server-side DNS logs
//!   on the globally unique hostname id;
//! * [`collect`] — the joined dataset, grouped into per-execution and
//!   per-prefix views that the analyses consume.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collect;
pub mod join;
pub mod policy;
pub mod runner;
pub mod slots;
pub mod timing;

pub use collect::{BeaconDataset, BeaconExecution};
pub use join::{join, BeaconMeasurement, Target};
pub use policy::MeasurementPolicy;
pub use runner::{run_beacon, BeaconClient, BeaconTally, HttpResult, FETCH_TIMEOUT_MS};
pub use slots::Slot;
