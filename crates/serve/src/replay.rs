//! Deterministic day-of-queries generation for the wire path.
//!
//! The loopback tests need a realistic query stream: which resolver
//! asks, how often, and whether it attaches ECS. Everything here is
//! derived arithmetically from the [`Scenario`] — no RNG — so the same
//! scenario always produces the same query list, and the
//! wire-equivalence test can compare byte-for-byte against the
//! in-process path.

use std::net::Ipv4Addr;

use anycast_dns::ecs::EcsOption;
use anycast_dns::{DnsName, LdnsId};
use anycast_netsim::Day;
use anycast_workload::ldns_assign::believed_ldns_location;
use anycast_workload::temporal::day_volume_factor;
use anycast_workload::Scenario;

use crate::server::LdnsDirectory;

/// Queries per /24 per day that actually reach the authoritative server.
/// LDNS caches answer the rest (§2: the authoritative sees one query per
/// TTL per resolver, not one per client request).
const AUTH_QUERY_DIVISOR: f64 = 64.0;

/// One query to put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// Name to ask for.
    pub qname: DnsName,
    /// Resolver forwarding the query (decides the source address).
    pub ldns: LdnsId,
    /// Client subnet, when the resolver supports ECS.
    pub ecs: Option<EcsOption>,
}

/// The zone's service name, shared by all generated queries.
pub fn service_qname() -> DnsName {
    DnsName::new("www.cdn.example").expect("static name is valid")
}

/// Deterministic loopback source address for a resolver: `127.x.y.z`
/// carved from the id, never colliding with `127.0.0.1`.
///
/// # Panics
/// Panics if the id does not fit the `127.1.0.0`–`127.255.255.255` space
/// (16.7M resolvers — far beyond any scenario).
pub fn ldns_source_addr(ldns: LdnsId) -> Ipv4Addr {
    let id = ldns.0;
    let second = 1 + (id >> 16);
    assert!(second <= 255, "LDNS id {id} exceeds the loopback space");
    Ipv4Addr::new(127, second as u8, (id >> 8) as u8, id as u8)
}

/// Builds the server's source-address directory for a scenario: every
/// resolver keyed by its [`ldns_source_addr`], located where the CDN's
/// geolocation database *believes* it is — the same location the
/// in-process path hands to policies.
pub fn ldns_directory(scenario: &Scenario) -> LdnsDirectory {
    let mut dir = LdnsDirectory::new();
    for r in &scenario.ldns.resolvers {
        dir.insert(
            ldns_source_addr(r.id),
            r.id,
            believed_ldns_location(r, &scenario.geodb),
        );
    }
    dir
}

/// Generates up to `cap` authoritative queries for one simulated day.
///
/// Per-client demand is `volume × day factor ÷ AUTH_QUERY_DIVISOR`,
/// at least 1. Queries are emitted in round-robin passes over the client
/// population (pass `p` includes every client with demand `> p`), so load
/// interleaves across resolvers the way arrivals do, instead of draining
/// one client at a time. ECS rides along exactly when the client's
/// resolver supports it.
pub fn day_queries(scenario: &Scenario, day: Day, cap: usize) -> Vec<QuerySpec> {
    day_query_plan(scenario, day, cap)
        .into_iter()
        .map(|(_, q)| q)
        .collect()
}

/// Like [`day_queries`], but each query carries the index into
/// `scenario.clients` of the client whose demand produced it. The control
/// plane uses the indices to attribute each query's load to a client
/// group (and to the client's anycast catchment) without re-deriving the
/// round-robin schedule.
pub fn day_query_plan(scenario: &Scenario, day: Day, cap: usize) -> Vec<(usize, QuerySpec)> {
    let qname = service_qname();
    let factor = day_volume_factor(day);
    let demand: Vec<u64> = scenario
        .clients
        .iter()
        .map(|c| ((c.volume as f64 * factor / AUTH_QUERY_DIVISOR).round() as u64).max(1))
        .collect();
    let max_demand = demand.iter().copied().max().unwrap_or(0);
    let mut out = Vec::with_capacity(cap.min(demand.iter().sum::<u64>() as usize));
    'passes: for pass in 0..max_demand {
        for (ci, (client, &n)) in scenario.clients.iter().zip(&demand).enumerate() {
            if pass >= n {
                continue;
            }
            if out.len() >= cap {
                break 'passes;
            }
            let ldns = scenario.ldns.resolver_of(ci);
            let resolver = scenario.ldns.resolver(ldns);
            // ECS rides along at the resolver's own disclosure length — a
            // privacy-truncating resolver sends a coarser subnet than /24.
            let ecs = resolver.supports_ecs.then(|| {
                EcsOption::for_subnet(
                    anycast_netsim::Prefix::from(client.prefix).truncate(resolver.ecs_prefix_len),
                )
            });
            out.push((
                ci,
                QuerySpec {
                    qname: qname.clone(),
                    ldns,
                    ecs,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_workload::Scenario;

    fn small_scenario() -> Scenario {
        Scenario::small(11)
    }

    #[test]
    fn source_addresses_are_unique_and_safe() {
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..5000u32 {
            let a = ldns_source_addr(LdnsId(id));
            assert!(a.octets()[0] == 127 && a.octets()[1] >= 1);
            assert_ne!(a, Ipv4Addr::new(127, 0, 0, 1));
            assert!(seen.insert(a), "collision at id {id}");
        }
    }

    #[test]
    fn day_queries_are_deterministic_and_capped() {
        let s = small_scenario();
        let a = day_queries(&s, Day(0), 500);
        let b = day_queries(&s, Day(0), 500);
        assert_eq!(a, b, "same scenario + day must replay identically");
        assert_eq!(a.len(), 500);
        // ECS flags agree with the resolver capability.
        for q in &a {
            assert_eq!(q.ecs.is_some(), s.ldns.resolver(q.ldns).supports_ecs);
        }
    }

    #[test]
    fn weekend_days_generate_less_demand() {
        let s = small_scenario();
        // Uncapped totals: find a weekday/weekend pair.
        let weekday: usize = day_queries(&s, Day(0), usize::MAX).len();
        let weekend = (0..7)
            .map(Day)
            .find(|d| d.weekday().is_weekend())
            .expect("a week has a weekend");
        let weekend_n = day_queries(&s, weekend, usize::MAX).len();
        assert!(weekend_n <= weekday, "{weekend_n} > {weekday}");
    }

    #[test]
    fn directory_covers_every_resolver() {
        let s = small_scenario();
        let dir = ldns_directory(&s);
        assert_eq!(dir.len(), s.ldns.resolvers.len());
        for r in &s.ldns.resolvers {
            let (id, _) = dir.lookup(ldns_source_addr(r.id)).expect("registered");
            assert_eq!(id, r.id);
        }
    }
}
