//! Geography substrate for the anycast-CDN reproduction.
//!
//! The measurement study in *Analyzing the Performance of an Anycast CDN*
//! (IMC 2015) reasons almost entirely in geographic terms: distances from
//! clients to front-ends (Figures 2 and 4), geolocation of LDNS resolvers for
//! candidate selection (§3.3), and the caveat that geolocation databases are
//! imperfect (footnote 1). This crate provides those primitives:
//!
//! * [`GeoPoint`] and great-circle math ([`coords`]),
//! * a region/scope taxonomy used for the Europe/World/United-States split of
//!   Figure 3 ([`regions`]),
//! * an embedded catalog of world metropolitan areas with populations, used to
//!   place front-ends, clients, and resolvers ([`cities`]),
//! * a geolocation database model with a stable, configurable error process
//!   ([`geodb`]),
//! * nearest-neighbour queries over located objects ([`nearest`]).
//!
//! Everything is deterministic: stochastic components (the geolocation error
//! model) derive their randomness from explicit seeds, never from global
//! state, so a fixed seed reproduces every downstream figure bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cities;
pub mod coords;
pub mod geodb;
pub mod nearest;
pub mod regions;

pub use cities::{Metro, MetroId, WorldAtlas};
pub use coords::GeoPoint;
pub use geodb::{GeoDb, LogNormal};
pub use nearest::NearestIndex;
pub use regions::{Region, Scope};
