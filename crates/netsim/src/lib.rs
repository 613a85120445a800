//! Internet substrate for the anycast-CDN reproduction.
//!
//! The paper measures a production CDN over the real Internet; this crate is
//! the synthetic stand-in. It models exactly the routing mechanisms the paper
//! identifies as the root causes of poor anycast performance (§5):
//!
//! 1. **BGP is latency-blind.** Route selection uses local preference
//!    (direct peer over transit), AS-path length, and an arbitrary
//!    deterministic tie-break — never latency ([`bgp`]).
//! 2. **Hot-potato intradomain routing.** An ISP hands traffic to the CDN at
//!    the egress its *own* policy prefers; some ISPs only peer at a remote
//!    location, reproducing the paper's Denver→Phoenix and Moscow→Stockholm
//!    case studies ([`bgp::EgressPolicy`]).
//! 3. **The CDN cannot signal its internal topology.** Once traffic ingresses
//!    at a border router, the CDN's IGP sends it to the front-end with the
//!    lowest *internal* cost from that ingress, which is not necessarily the
//!    front-end closest to the client ([`igp`]).
//! 4. **Routes churn.** Egresses and internal weights flip day to day, with
//!    reduced operator activity on weekends (Figure 7), by one law for
//!    every routing engine ([`worldgen::dynamics`]).
//! 5. **Front-ends fail.** Sites crash or are drained for maintenance; the
//!    anycast announcement is withdrawn and BGP re-resolves the catchment,
//!    while unicast routes to the dead site simply fail ([`outage`]).
//!
//! The crate is fully deterministic: topology generation, routing, churn and
//! latency noise all derive from explicit seeds. The same seed reproduces the
//! same Internet.
//!
//! # Layering
//!
//! ```text
//! anycast-core (CDN service: addressing, redirection, prediction)
//!        │ uses
//! anycast-netsim (this crate: who routes where, at what latency)
//!        │ uses
//! anycast-geo (where everything is)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addressing;
pub mod bgp;
pub mod config;
pub mod ids;
pub mod igp;
pub mod internet;
pub mod latency;
pub mod outage;
pub mod path;
pub mod prefix;
pub mod sim;
pub mod snapshot;
pub mod stream;
pub mod topology;
pub mod worldgen;

pub use addressing::CdnAddressing;
pub use bgp::EgressPolicy;
pub use config::NetConfig;
pub use ids::{AsId, BorderId, SiteId};
pub use internet::{AnycastDay, ClientAttachment, Internet, RouteDecision};
pub use latency::AccessTech;
pub use outage::{OutageKind, OutageModel, OutageWindow};
pub use path::{Hop, HopKind, RoutePath};
pub use prefix::{Prefix, Prefix24, PrefixAllocator};
pub use sim::Day;
pub use snapshot::{ClientRoutes, RouteSnapshot, RouteTally};
pub use stream::stream_rng;
pub use topology::{CdnNetwork, EyeballAs, Topology, TransitAs};
pub use worldgen::{AsClass, CatchmentTable, PolicyGraph, PolicyWorld, WorldGenConfig};
