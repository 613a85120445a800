//! The CDN's authoritative nameserver.
//!
//! "The CDN makes a performance-based decision about what IP address to
//! return based on which LDNS forwarded the request" (§2). The decision
//! logic itself is a [`RedirectionPolicy`] the caller supplies (the beacon
//! campaign's measurement policy); this module provides the mechanism:
//! receive a query with its LDNS identity and optional ECS, ask the
//! policy, log the query, return the answer.

use anycast_geo::GeoPoint;
use anycast_netsim::Day;

use crate::ecs::EcsOption;
use crate::ldns::LdnsId;
use crate::log::DnsQueryLog;
use crate::name::DnsName;
use crate::record::DnsAnswer;

/// Everything a redirection policy may condition on. Note what is *not*
/// here: the client's own address (unless ECS carried its prefix) — the
/// fundamental information gap of LDNS-granularity redirection.
#[derive(Debug, Clone, Copy)]
pub struct QueryContext<'a> {
    /// The queried name.
    pub qname: &'a DnsName,
    /// The forwarding LDNS.
    pub ldns: LdnsId,
    /// Where the CDN believes that LDNS is (from its geolocation database).
    pub ldns_location: GeoPoint,
    /// Client subnet, if the LDNS supports ECS and the server accepts it.
    pub ecs: Option<EcsOption>,
    /// Simulation day.
    pub day: Day,
    /// Seconds within the day.
    pub time_s: f64,
}

/// A pluggable answer policy.
pub trait RedirectionPolicy {
    /// Decides the answer for one query.
    fn answer(&self, query: &QueryContext<'_>) -> DnsAnswer;
}

impl<F> RedirectionPolicy for F
where
    F: Fn(&QueryContext<'_>) -> DnsAnswer,
{
    fn answer(&self, query: &QueryContext<'_>) -> DnsAnswer {
        self(query)
    }
}

/// The authoritative server: policy + ECS switch + query log.
#[derive(Debug)]
pub struct AuthoritativeServer<P> {
    policy: P,
    ecs_enabled: bool,
    log: Vec<DnsQueryLog>,
}

impl<P: RedirectionPolicy> AuthoritativeServer<P> {
    /// Creates a server. `ecs_enabled` controls whether incoming ECS
    /// options are honored (passed through to the policy) or stripped —
    /// real CDNs must opt in to ECS (§7).
    pub fn new(policy: P, ecs_enabled: bool) -> Self {
        AuthoritativeServer {
            policy,
            ecs_enabled,
            log: Vec::new(),
        }
    }

    /// Resolves one query: consults the policy, appends to the query log,
    /// returns the answer.
    pub fn resolve(
        &mut self,
        qname: &DnsName,
        ldns: LdnsId,
        ldns_location: GeoPoint,
        ecs: Option<EcsOption>,
        day: Day,
        time_s: f64,
    ) -> DnsAnswer {
        let effective_ecs = if self.ecs_enabled { ecs } else { None };
        let ctx = QueryContext {
            qname,
            ldns,
            ldns_location,
            ecs: effective_ecs,
            day,
            time_s,
        };
        let answer = self.policy.answer(&ctx);
        self.log.push(DnsQueryLog {
            qname: qname.clone(),
            ldns,
            ecs: effective_ecs.map(|e| e.prefix),
            answer: answer.addr,
            day,
            time_s,
        });
        answer
    }

    /// The accumulated query log.
    pub fn log(&self) -> &[DnsQueryLog] {
        &self.log
    }

    /// Empties the query log once the backend has joined it, keeping its
    /// allocation for the queries to come.
    pub fn clear_log(&mut self) {
        self.log.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_netsim::Prefix24;
    use std::net::Ipv4Addr;

    fn fixed_policy(addr: Ipv4Addr) -> impl RedirectionPolicy {
        move |_q: &QueryContext<'_>| DnsAnswer::global(addr, 300)
    }

    #[test]
    fn resolve_returns_policy_answer_and_logs() {
        let ip = Ipv4Addr::new(203, 0, 113, 5);
        let mut server = AuthoritativeServer::new(fixed_policy(ip), false);
        let qname = DnsName::new("www.cdn.example").unwrap();
        let ans = server.resolve(
            &qname,
            LdnsId(9),
            GeoPoint::new(0.0, 0.0),
            None,
            Day(1),
            42.0,
        );
        assert_eq!(ans.addr, ip);
        assert_eq!(ans.ttl_s, 300);
        assert_eq!(server.log().len(), 1);
        assert_eq!(server.log()[0].ldns, LdnsId(9));
        assert_eq!(server.log()[0].day, Day(1));
    }

    #[test]
    fn ecs_stripped_when_disabled() {
        let seen = std::cell::RefCell::new(None);
        let policy = |q: &QueryContext<'_>| {
            *seen.borrow_mut() = Some(q.ecs.is_some());
            DnsAnswer::global(Ipv4Addr::new(1, 1, 1, 1), 60)
        };
        let mut server = AuthoritativeServer::new(policy, false);
        let qname = DnsName::new("www.cdn.example").unwrap();
        let ecs = EcsOption::for_prefix(Prefix24::containing(Ipv4Addr::new(9, 9, 9, 9)));
        assert_eq!(ecs.source_prefix_len(), 24);
        server.resolve(
            &qname,
            LdnsId(0),
            GeoPoint::new(0.0, 0.0),
            Some(ecs),
            Day(0),
            0.0,
        );
        assert_eq!(*seen.borrow(), Some(false));
        assert_eq!(server.log()[0].ecs, None);
    }

    #[test]
    fn ecs_passed_when_enabled() {
        let policy = |q: &QueryContext<'_>| {
            assert!(q.ecs.is_some());
            DnsAnswer::subnet_scoped(Ipv4Addr::new(1, 1, 1, 1), 60)
        };
        let mut server = AuthoritativeServer::new(policy, true);
        let qname = DnsName::new("www.cdn.example").unwrap();
        let p = Prefix24::containing(Ipv4Addr::new(9, 9, 9, 9));
        server.resolve(
            &qname,
            LdnsId(0),
            GeoPoint::new(0.0, 0.0),
            Some(EcsOption::for_prefix(p)),
            Day(0),
            0.0,
        );
        assert_eq!(server.log()[0].ecs, Some(p.into()));
    }

    #[test]
    fn clear_log_empties() {
        let mut server = AuthoritativeServer::new(fixed_policy(Ipv4Addr::new(1, 1, 1, 1)), false);
        let qname = DnsName::new("a.cdn.example").unwrap();
        for i in 0..5 {
            server.resolve(
                &qname,
                LdnsId(i),
                GeoPoint::new(0.0, 0.0),
                None,
                Day(0),
                f64::from(i),
            );
        }
        assert_eq!(server.log().len(), 5);
        server.clear_log();
        assert!(server.log().is_empty());
    }
}
