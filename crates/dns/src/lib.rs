//! DNS substrate for the anycast-CDN reproduction.
//!
//! The paper's alternative to anycast is DNS-based redirection (§2): the
//! client's **LDNS** forwards queries to the CDN's **authoritative**
//! nameserver, which makes a performance-based decision per LDNS — or per
//! client /24 when the **EDNS client-subnet (ECS)** extension is in play.
//! The beacon methodology also leans on DNS mechanics: a warm-up query per
//! test URL, whose answer the timed fetch then uses without a lookup, and
//! per-measurement unique hostnames that let server-side DNS logs be joined
//! with client-side HTTP timings (§3.2.2). A unique hostname is queried
//! exactly once, so no resolver here keeps an answer cache; the TTL-bound
//! client caches of §2's staleness argument are modelled where they are
//! measured, in `anycast-core`'s failover simulation.
//!
//! This crate models exactly those mechanics:
//!
//! * [`name::DnsName`] — hostnames, including the unique measurement ids;
//! * [`record::DnsAnswer`] — minimal A answers: address, TTL, ECS scope;
//! * [`ecs::EcsOption`] — the client-subnet option at /24 granularity;
//! * [`ldns::Ldns`] — recursive resolvers (ISP-local and public), with
//!   optional ECS support, forwarding each query to the authoritative
//!   server;
//! * [`authoritative::AuthoritativeServer`] — the CDN's nameserver with a
//!   pluggable [`authoritative::RedirectionPolicy`] (the campaign's is
//!   `anycast-beacon`'s measurement policy) and a query log
//!   ([`log::DnsQueryLog`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod authoritative;
pub mod ecs;
pub mod ldns;
pub mod log;
pub mod name;
pub mod record;

pub use authoritative::{AuthoritativeServer, QueryContext, RedirectionPolicy};
pub use ecs::EcsOption;
pub use ldns::{Ldns, LdnsId, ResolverKind};
pub use log::DnsQueryLog;
pub use name::DnsName;
pub use record::DnsAnswer;
