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
//! [`Ldns`] models both: a location, an ECS capability flag (public
//! resolvers pioneered ECS), and a TTL cache shared by all clients of the
//! resolver — the root of the LDNS-granularity imprecision.

use std::net::Ipv4Addr;

use anycast_geo::GeoPoint;
use anycast_netsim::{Day, Prefix, Prefix24};

use crate::authoritative::{AuthoritativeServer, RedirectionPolicy};
use crate::cache::DnsCache;
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

/// The outcome of one resolution through an LDNS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Address handed to the client.
    pub addr: Ipv4Addr,
    /// Whether the answer came from the resolver cache (no authoritative
    /// query was made — and hence no authoritative log row exists).
    pub cache_hit: bool,
}

/// A recursive resolver.
#[derive(Debug)]
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
    cache: DnsCache,
}

impl Ldns {
    /// Cache bound per resolver. The beacon's unique hostnames would grow
    /// an unbounded cache linearly over a month-long campaign; real
    /// resolvers cap theirs.
    const CACHE_CAPACITY: usize = 100_000;

    /// Creates a resolver forwarding full /24 ECS (when it forwards ECS at
    /// all).
    pub fn new(id: LdnsId, kind: ResolverKind, location: GeoPoint, supports_ecs: bool) -> Ldns {
        Ldns {
            id,
            kind,
            location,
            supports_ecs,
            ecs_prefix_len: 24,
            cache: DnsCache::with_capacity(Self::CACHE_CAPACITY),
        }
    }

    /// Sets the SOURCE PREFIX-LENGTH this resolver truncates ECS to
    /// (clamped to 1–24; a resolver that wants no ECS at all clears
    /// `supports_ecs` instead).
    pub fn with_ecs_prefix_len(mut self, len: u8) -> Ldns {
        self.ecs_prefix_len = len.clamp(1, 24);
        self
    }

    /// Resolves `qname` on behalf of a client in `client_prefix`,
    /// consulting the cache first and the authoritative server on a miss.
    ///
    /// `believed_location` is where the *CDN's geolocation database* places
    /// this LDNS (which may differ from `self.location`); it is what gets
    /// passed to the redirection policy, faithfully reproducing the
    /// geolocation-error exposure of real LDNS-based redirection.
    #[allow(clippy::too_many_arguments)]
    pub fn resolve<P: RedirectionPolicy>(
        &mut self,
        qname: &DnsName,
        client_prefix: Prefix24,
        believed_location: GeoPoint,
        auth: &mut AuthoritativeServer<P>,
        day: Day,
        time_s: f64,
    ) -> Resolution {
        let now_s = f64::from(day.0) * 86_400.0 + time_s;
        let ecs_active = self.supports_ecs && auth.ecs_enabled();
        let cache_scope = if ecs_active {
            Some(client_prefix)
        } else {
            None
        };
        if let Some(addr) = self.cache.get(qname, cache_scope, now_s) {
            return Resolution {
                addr,
                cache_hit: true,
            };
        }
        let ecs = ecs_active.then(|| {
            EcsOption::for_subnet(Prefix::from(client_prefix).truncate(self.ecs_prefix_len))
        });
        let answer = auth.resolve(qname, self.id, believed_location, ecs, day, time_s);
        // Per RFC 7871 the cache scope follows the *answer's* scope: a
        // global answer (scope 0) is shared across subnets even if we sent
        // ECS.
        let store_scope = (ecs_active && answer.ecs_scope > 0).then_some(client_prefix);
        self.cache
            .put(qname.clone(), store_scope, answer.addr, answer.ttl_s, now_s);
        Resolution {
            addr: answer.addr,
            cache_hit: false,
        }
    }

    /// Forgets every cached answer (the statistics stay).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authoritative::QueryContext;
    use crate::record::DnsAnswer;

    fn counting_policy(counter: std::rc::Rc<std::cell::Cell<u32>>) -> impl RedirectionPolicy {
        move |q: &QueryContext<'_>| {
            counter.set(counter.get() + 1);
            match q.ecs {
                Some(e) => {
                    // Vary the answer by subnet so scope separation is
                    // observable.
                    let last = (e.prefix.raw() >> 8) as u8;
                    DnsAnswer::subnet_scoped(Ipv4Addr::new(10, 0, 0, last), 300)
                }
                None => DnsAnswer::global(Ipv4Addr::new(10, 0, 0, 0), 300),
            }
        }
    }

    fn prefix(n: u8) -> Prefix24 {
        Prefix24::containing(Ipv4Addr::new(100, 0, n, 1))
    }

    #[test]
    fn cache_hit_skips_authoritative() {
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut auth = AuthoritativeServer::new(counting_policy(hits.clone()), false);
        let mut ldns = Ldns::new(
            LdnsId(0),
            ResolverKind::IspLocal,
            GeoPoint::new(0.0, 0.0),
            false,
        );
        let qname = DnsName::new("www.cdn.example").unwrap();
        let r1 = ldns.resolve(&qname, prefix(1), ldns.location, &mut auth, Day(0), 0.0);
        assert!(!r1.cache_hit);
        let r2 = ldns.resolve(&qname, prefix(2), ldns.location, &mut auth, Day(0), 10.0);
        assert!(r2.cache_hit);
        assert_eq!(r1.addr, r2.addr);
        assert_eq!(hits.get(), 1, "authoritative must be hit exactly once");
        assert_eq!(auth.log().len(), 1);
    }

    #[test]
    fn ttl_expiry_forces_refetch() {
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut auth = AuthoritativeServer::new(counting_policy(hits.clone()), false);
        let mut ldns = Ldns::new(
            LdnsId(0),
            ResolverKind::IspLocal,
            GeoPoint::new(0.0, 0.0),
            false,
        );
        let qname = DnsName::new("www.cdn.example").unwrap();
        ldns.resolve(&qname, prefix(1), ldns.location, &mut auth, Day(0), 0.0);
        // 300s TTL: a query 400s later misses.
        let r = ldns.resolve(&qname, prefix(1), ldns.location, &mut auth, Day(0), 400.0);
        assert!(!r.cache_hit);
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn ecs_separates_subnets_in_cache() {
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut auth = AuthoritativeServer::new(counting_policy(hits.clone()), true);
        let mut ldns = Ldns::new(
            LdnsId(1),
            ResolverKind::Public,
            GeoPoint::new(0.0, 0.0),
            true,
        );
        let qname = DnsName::new("www.cdn.example").unwrap();
        let r1 = ldns.resolve(&qname, prefix(1), ldns.location, &mut auth, Day(0), 0.0);
        let r2 = ldns.resolve(&qname, prefix(2), ldns.location, &mut auth, Day(0), 1.0);
        assert!(
            !r1.cache_hit && !r2.cache_hit,
            "different subnets both miss"
        );
        assert_ne!(r1.addr, r2.addr, "answers are subnet-specific");
        // Same subnet again: cached.
        let r3 = ldns.resolve(&qname, prefix(1), ldns.location, &mut auth, Day(0), 2.0);
        assert!(r3.cache_hit);
        assert_eq!(r3.addr, r1.addr);
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn non_ecs_resolver_never_sends_ecs() {
        let policy = |q: &QueryContext<'_>| {
            assert!(q.ecs.is_none());
            DnsAnswer::global(Ipv4Addr::new(1, 1, 1, 1), 60)
        };
        let mut auth = AuthoritativeServer::new(policy, true);
        let mut ldns = Ldns::new(
            LdnsId(2),
            ResolverKind::IspLocal,
            GeoPoint::new(0.0, 0.0),
            false,
        );
        let qname = DnsName::new("www.cdn.example").unwrap();
        ldns.resolve(&qname, prefix(3), ldns.location, &mut auth, Day(0), 0.0);
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
        let mut ldns = Ldns::new(
            LdnsId(3),
            ResolverKind::Public,
            GeoPoint::new(0.0, 0.0),
            true,
        )
        .with_ecs_prefix_len(16);
        let qname = DnsName::new("www.cdn.example").unwrap();
        ldns.resolve(&qname, prefix(1), ldns.location, &mut auth, Day(0), 0.0);
        let logged = auth.log()[0].ecs.expect("logged ECS");
        assert_eq!(logged.len(), 16);
    }

    #[test]
    fn cross_day_time_is_absolute() {
        let hits = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut auth = AuthoritativeServer::new(counting_policy(hits.clone()), false);
        let mut ldns = Ldns::new(
            LdnsId(0),
            ResolverKind::IspLocal,
            GeoPoint::new(0.0, 0.0),
            false,
        );
        let qname = DnsName::new("www.cdn.example").unwrap();
        // Cached at the very end of day 0 ...
        ldns.resolve(
            &qname,
            prefix(1),
            ldns.location,
            &mut auth,
            Day(0),
            86_399.0,
        );
        // ... still valid 100 s into day 1 (TTL 300).
        let r = ldns.resolve(&qname, prefix(1), ldns.location, &mut auth, Day(1), 100.0);
        assert!(r.cache_hit);
    }
}
