//! Joining client-side HTTP results with server-side DNS logs.
//!
//! "Each test URL has a globally unique identifier, allowing us to join
//! HTTP results from the client side with DNS results from the server side"
//! (§3.2.2). The join attaches the resolver identity (which only the DNS
//! side knows) to the latency observation (which only the client side
//! knows) — the LDNS-based prediction scheme of §6 is impossible without
//! it.

use anycast_netsim::stream::FastMap;
use anycast_netsim::{CdnAddressing, Day, Prefix, Prefix24, SiteId};

use anycast_dns::{DnsQueryLog, LdnsId};

use crate::runner::HttpResult;
use crate::slots::Slot;

/// What a measurement targeted. The `Ord` is the deterministic target
/// order downstream aggregation keys on: anycast first, then unicast by
/// site id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Target {
    /// The anycast VIP; routing picked the site.
    Anycast,
    /// A specific unicast front-end.
    Unicast(SiteId),
}

/// One joined measurement: the unit record of the §5–§6 analyses.
///
/// A day holds millions of these, so the row is packed to four-byte
/// alignment: 52 bytes, not the 56 its eight-byte fields would round it
/// to. Fields of alignment ≤ 4 borrow as usual; the `u64` and `f64`
/// fields are read by value (`{ m.rtt_ms }`), never borrowed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(Rust, packed(4))]
pub struct BeaconMeasurement {
    /// Unique measurement id.
    pub measurement_id: u64,
    /// The slot this measurement filled.
    pub slot: Slot,
    /// Client /24 (client-side).
    pub prefix: Prefix24,
    /// Resolver that forwarded the DNS query (server-side).
    pub ldns: LdnsId,
    /// Client subnet the resolver forwarded via ECS, if any (server-side).
    /// Variable-length: a privacy-truncating resolver may disclose a
    /// coarser prefix than the client's /24.
    pub ecs: Option<Prefix>,
    /// What was targeted.
    pub target: Target,
    /// The site that served the fetch (equals the target site for unicast).
    pub served_site: SiteId,
    /// Reported latency, ms (total timeout time for failed fetches).
    pub rtt_ms: f64,
    /// Whether the fetch failed (every attempt timed out). Failed rows
    /// carry no usable latency and are excluded from latency aggregation,
    /// but they are what the availability analyses count.
    pub failed: bool,
    /// Day of the measurement.
    pub day: Day,
    /// Seconds within the day.
    pub time_s: f64,
}

const _: () = assert!(size_of::<BeaconMeasurement>() == 52);

/// Joins HTTP results with DNS logs on the measurement id. Rows without a
/// matching DNS log entry (possible in real systems when logs are lossy;
/// impossible in this simulator unless logs were truncated) are dropped,
/// mirroring the paper's join semantics.
pub fn join(
    http: &[HttpResult],
    dns: &[DnsQueryLog],
    addressing: &CdnAddressing,
) -> Vec<BeaconMeasurement> {
    // Sized once: a filtered iterator promises no length, so collecting
    // it would grow the map through a rehash at every doubling.
    let mut dns_by_id: FastMap<u64, &DnsQueryLog> =
        FastMap::with_capacity_and_hasher(dns.len(), Default::default());
    dns_by_id.extend(
        dns.iter()
            .filter_map(|row| row.measurement_id().map(|id| (id, row))),
    );
    http.iter()
        .filter_map(|h| {
            let d = dns_by_id.get(&h.measurement_id)?;
            let target = if addressing.is_anycast(h.fetched_ip) {
                Target::Anycast
            } else {
                Target::Unicast(addressing.site_for_ip(h.fetched_ip)?)
            };
            Some(BeaconMeasurement {
                measurement_id: h.measurement_id,
                slot: Slot::from_id(h.measurement_id),
                prefix: h.prefix,
                ldns: d.ldns,
                ecs: d.ecs,
                target,
                served_site: h.served_site,
                rtt_ms: h.reported_ms,
                failed: h.failed,
                day: h.day,
                time_s: h.time_s,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_dns::DnsName;
    use std::net::Ipv4Addr;

    fn http_row(id: u64, ip: Ipv4Addr, site: u16) -> HttpResult {
        HttpResult {
            measurement_id: id,
            prefix: Prefix24::containing(Ipv4Addr::new(11, 0, 0, 1)),
            fetched_ip: ip,
            served_site: SiteId(site),
            reported_ms: 42.0,
            failed: false,
            attempts: 1,
            day: Day(0),
            time_s: 1.0,
        }
    }

    fn dns_row(id: u64, answer: Ipv4Addr) -> DnsQueryLog {
        let zone = DnsName::new("cdn.example").unwrap();
        DnsQueryLog {
            qname: DnsName::measurement(id, &zone),
            ldns: LdnsId(7),
            ecs: None,
            answer,
            day: Day(0),
            time_s: 1.0,
        }
    }

    #[test]
    fn join_matches_on_id_and_classifies_targets() {
        let plan = CdnAddressing::standard(8);
        let any_id = Slot::Anycast.id_for(0);
        let uni_id = Slot::GeoClosest.id_for(0);
        let http = vec![
            http_row(any_id, plan.anycast_ip(), 3),
            http_row(uni_id, plan.site_ip(SiteId(5)), 5),
        ];
        let dns = vec![
            dns_row(any_id, plan.anycast_ip()),
            dns_row(uni_id, plan.site_ip(SiteId(5))),
        ];
        let joined = join(&http, &dns, &plan);
        assert_eq!(joined.len(), 2);
        assert_eq!(joined[0].target, Target::Anycast);
        assert_eq!(joined[0].slot, Slot::Anycast);
        assert_eq!(joined[0].served_site, SiteId(3));
        assert_eq!(joined[1].target, Target::Unicast(SiteId(5)));
        assert_eq!(joined[1].ldns, LdnsId(7));
    }

    #[test]
    fn unmatched_http_rows_are_dropped() {
        let plan = CdnAddressing::standard(8);
        let http = vec![http_row(99, plan.anycast_ip(), 0)];
        let joined = join(&http, &[], &plan);
        assert!(joined.is_empty());
    }

    #[test]
    fn foreign_ips_are_dropped() {
        let plan = CdnAddressing::standard(8);
        let id = Slot::Random1.id_for(1);
        let http = vec![http_row(id, Ipv4Addr::new(8, 8, 8, 8), 0)];
        let dns = vec![dns_row(id, Ipv4Addr::new(8, 8, 8, 8))];
        assert!(join(&http, &dns, &plan).is_empty());
    }

    #[test]
    fn failure_flag_propagates_through_join() {
        let plan = CdnAddressing::standard(8);
        let id = Slot::Anycast.id_for(3);
        let mut h = http_row(id, plan.anycast_ip(), 3);
        h.failed = true;
        h.reported_ms = 6000.0;
        let dns = vec![dns_row(id, plan.anycast_ip())];
        let joined = join(&[h], &dns, &plan);
        assert!(joined[0].failed);
        assert_eq!({ joined[0].rtt_ms }, 6000.0);
    }

    #[test]
    fn ecs_propagates_through_join() {
        let plan = CdnAddressing::standard(8);
        let id = Slot::GeoClosest.id_for(2);
        let subnet = Prefix24::containing(Ipv4Addr::new(11, 0, 5, 0));
        let mut d = dns_row(id, plan.site_ip(SiteId(1)));
        d.ecs = Some(subnet.into());
        let http = vec![http_row(id, plan.site_ip(SiteId(1)), 1)];
        let joined = join(&http, &[d], &plan);
        assert_eq!(joined[0].ecs, Some(subnet.into()));
    }
}
