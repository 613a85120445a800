//! Local DNS resolvers (LDNS).
//!
//! "The client's local DNS resolver (LDNS), typically configured by the
//! client's ISP, will receive the DNS request … and forward it to the CDN's
//! authoritative nameserver" (§2). Two resolver populations matter to the
//! paper:
//!
//! * **ISP-local resolvers**, near their clients — the reason LDNS
//!   geolocation is a usable proxy for client location (§3.3 cites that only
//!   11–12% of demand is >500 km from its LDNS);
//! * **public resolvers** (Google Public DNS, OpenDNS), which serve "large,
//!   geographically disparate sets of clients" and are the motivating case
//!   for ECS.
//!
//! [`Ldns`] models both: a location and an ECS capability flag (public
//! resolvers pioneered ECS). LDNS-granularity imprecision comes from the
//! grouping — every client of a resolver looks alike to an authoritative
//! server that sees no ECS — and from where the CDN *believes* the resolver
//! is, which is what a query hands the policy. A resolver keeps no answer
//! cache: each beacon name is unique and queried once (§3.2.2).

use std::net::Ipv4Addr;

use anycast_geo::GeoPoint;
use anycast_netsim::{Day, Prefix, Prefix24};

use crate::authoritative::{AuthoritativeServer, RedirectionPolicy};
use crate::ecs::EcsOption;
use crate::name::DnsName;

/// Identifier of an LDNS resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LdnsId(pub u32);

impl std::fmt::Display for LdnsId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ldns{}", self.0)
    }
}

/// The resolver population a resolver belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolverKind {
    /// Operated by the client's ISP, located near its clients.
    IspLocal,
    /// A public anycast resolver serving clients worldwide.
    Public,
}

/// A recursive resolver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ldns {
    /// This resolver's id.
    pub id: LdnsId,
    /// Population it belongs to.
    pub kind: ResolverKind,
    /// True location of the resolver.
    pub location: GeoPoint,
    /// Whether it attaches ECS to upstream queries (public resolvers do;
    /// most ISP resolvers in the study's era did not).
    pub supports_ecs: bool,
    /// SOURCE PREFIX-LENGTH this resolver forwards when it attaches ECS.
    /// 24 is the paper's granularity; real resolvers may truncate further
    /// for privacy (RFC 7871 §11.1), which is what the serving plane's
    /// longest-prefix-match tables exist to answer correctly.
    pub ecs_prefix_len: u8,
}

impl Ldns {
    /// Creates a resolver forwarding full /24 ECS (when it forwards ECS at
    /// all).
    pub fn new(id: LdnsId, kind: ResolverKind, location: GeoPoint, supports_ecs: bool) -> Ldns {
        Ldns {
            id,
            kind,
            location,
            supports_ecs,
            ecs_prefix_len: 24,
        }
    }

    /// Resolves `qname` on behalf of a client in `client_prefix`: forwards
    /// the query to the authoritative server — with the client's subnet,
    /// truncated to `ecs_prefix_len`, when this resolver sends ECS (a
    /// server with ECS off strips it) — and returns the answered address.
    ///
    /// `believed_location` is where the *CDN's geolocation database* places
    /// this LDNS (which may differ from `self.location`); it is what gets
    /// passed to the redirection policy, faithfully reproducing the
    /// geolocation-error exposure of real LDNS-based redirection.
    pub fn resolve<P: RedirectionPolicy>(
        &self,
        qname: &DnsName,
        client_prefix: Prefix24,
        believed_location: GeoPoint,
        auth: &mut AuthoritativeServer<P>,
        day: Day,
        time_s: f64,
    ) -> Ipv4Addr {
        let ecs = self.supports_ecs.then(|| {
            EcsOption::for_subnet(Prefix::from(client_prefix).truncate(self.ecs_prefix_len))
        });
        auth.resolve(qname, self.id, believed_location, ecs, day, time_s)
            .addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::QueryContext;
    use crate::record::DnsAnswer;

    /// Answers an ECS query with an address naming its subnet's third
    /// octet, and any other query with one shared address.
    fn by_subnet(q: &QueryContext<'_>) -> DnsAnswer {
        match q.ecs {
            Some(e) => {
                let last = (e.prefix.raw() >> 8) as u8;
                DnsAnswer::subnet_scoped(Ipv4Addr::new(10, 0, 0, last), 300)
            }
            None => DnsAnswer::global(Ipv4Addr::new(10, 0, 0, 0), 300),
        }
    }

    fn prefix(n: u8) -> Prefix24 {
        Prefix24::containing(Ipv4Addr::new(100, 0, n, 1))
    }

    fn qname() -> DnsName {
        DnsName::new("www.cdn.example").unwrap()
    }

    fn resolver(id: u32, kind: ResolverKind, supports_ecs: bool) -> Ldns {
        Ldns::new(LdnsId(id), kind, GeoPoint::new(0.0, 0.0), supports_ecs)
    }

    #[test]
    fn ecs_is_forwarded_per_subnet_and_logged() {
        let mut auth = AuthoritativeServer::new(by_subnet, true);
        let ldns = resolver(1, ResolverKind::Public, true);
        let q = qname();
        let a1 = ldns.resolve(&q, prefix(1), ldns.location, &mut auth, Day(0), 0.0);
        let a2 = ldns.resolve(&q, prefix(2), ldns.location, &mut auth, Day(0), 1.0);
        assert_ne!(a1, a2, "answers are subnet-specific");
        // Each resolution is one authoritative query, logged with the /24
        // it forwarded and the address it answered.
        let logged: Vec<_> = auth.log().iter().map(|r| (r.ecs, r.answer)).collect();
        let sent = |n| Some(Prefix::from(prefix(n)));
        assert_eq!(logged, vec![(sent(1), a1), (sent(2), a2)]);
    }

    #[test]
    fn ecs_is_stripped_when_the_server_has_it_off() {
        let policy = |q: &QueryContext<'_>| {
            assert!(q.ecs.is_none(), "a server with ECS off never sees it");
            by_subnet(q)
        };
        let mut auth = AuthoritativeServer::new(policy, false);
        let ldns = resolver(1, ResolverKind::Public, true);
        let addr = ldns.resolve(&qname(), prefix(1), ldns.location, &mut auth, Day(0), 0.0);
        assert_eq!(addr, Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(auth.log()[0].ecs, None);
    }

    #[test]
    fn non_ecs_resolver_never_sends_ecs() {
        let policy = |q: &QueryContext<'_>| {
            assert!(q.ecs.is_none());
            DnsAnswer::global(Ipv4Addr::new(1, 1, 1, 1), 60)
        };
        let mut auth = AuthoritativeServer::new(policy, true);
        let ldns = resolver(2, ResolverKind::IspLocal, false);
        ldns.resolve(&qname(), prefix(3), ldns.location, &mut auth, Day(0), 0.0);
        assert_eq!(auth.log()[0].ecs, None);
    }

    #[test]
    fn truncating_resolver_sends_coarse_ecs() {
        // A privacy-truncating resolver must forward its configured source
        // prefix length, with host bits masked, not a fabricated /24.
        let policy = |q: &QueryContext<'_>| {
            let e = q.ecs.expect("ECS forwarded");
            assert_eq!(e.source_prefix_len(), 16);
            assert_eq!(u32::from(e.prefix.network()) & 0xFFFF, 0);
            DnsAnswer::global(Ipv4Addr::new(1, 1, 1, 1), 60)
        };
        let mut auth = AuthoritativeServer::new(policy, true);
        let ldns = Ldns {
            ecs_prefix_len: 16,
            ..resolver(3, ResolverKind::Public, true)
        };
        ldns.resolve(&qname(), prefix(1), ldns.location, &mut auth, Day(0), 0.0);
        let logged = auth.log()[0].ecs.expect("logged ECS");
        assert_eq!(logged.len(), 16);
    }
}
