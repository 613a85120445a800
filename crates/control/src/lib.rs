//! Closed-loop load management between serving load and DNS steering.
//!
//! §2 of the paper names the gap this crate closes: "anycast is unaware
//! of server load. If a particular front-end becomes overloaded, it is
//! difficult to gradually direct traffic away from that front-end,
//! although there has been recent progress in this area \[FastRoute\].
//! Simply withdrawing the route … can lead to cascading overloading of
//! nearby front-ends." `anycast_serve` hot-swaps tables; this crate
//! holds the one site-load model and wires the two into a loop:
//!
//! * [`capacity`] — per-site budgets (queries per control epoch), with
//!   the netsim outage model foldable in as zero-capacity sites, and the
//!   site-load model read against them: overload, the gradual spill and
//!   the route withdrawal;
//! * [`demand`] — deterministic attribution of a day's query plan to
//!   steerable groups and pinned anycast catchments, per control epoch;
//! * [`controller`] — the water-filling controller: per epoch, demote
//!   the cheapest groups along their candidate rankings until each
//!   saturated site's quota is met, restore them when headroom returns,
//!   with cooldown hysteresis so assignments do not flap;
//! * [`closedloop`] — the harnesses: [`closedloop::simulate`] runs the
//!   loop purely against the model (including the §2 withdraw cascade
//!   for contrast), [`closedloop::replay_wire`] runs it against a live
//!   DNS server, reading measured per-front-end load and hot-swapping
//!   rewritten tables mid-replay.
//!
//! Everything defaults off: with no configured capacities (or
//! [`ControlMode::Off`]) the loop never rewrites an assignment and every
//! served byte is identical to the uncontrolled serving plane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod closedloop;
pub mod controller;
pub mod demand;

pub use capacity::CapacityPlan;
pub use closedloop::{replay_wire, simulate, EpochReport, LoopConfig, RunReport, WireRunReport};
pub use controller::{ControlConfig, ControlMode, Controller, StepReport};
pub use demand::{epoch_bounds, DemandModel, EpochDemand, GroupEpoch};
