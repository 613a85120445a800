//! Authoritative-side query logs.
//!
//! "Our authoritative DNS servers also push their query logs to the backend
//! storage. Each test URL has a globally unique identifier, allowing us to
//! join HTTP results from the client side with DNS results from the server
//! side" (§3.2.2). [`DnsQueryLog`] is one row of that log; the beacon
//! crate's `join` module performs the join.

use std::net::Ipv4Addr;

use anycast_netsim::{Day, Prefix};

use crate::ldns::LdnsId;
use crate::name::DnsName;

/// One authoritative query-log row.
#[derive(Debug, Clone, PartialEq)]
pub struct DnsQueryLog {
    /// Queried name (unique per beacon measurement).
    pub qname: DnsName,
    /// The LDNS that forwarded the query — the *only* client identity a
    /// non-ECS authoritative server ever sees.
    pub ldns: LdnsId,
    /// Client subnet, when the LDNS attached ECS (any prefix length the
    /// resolver chose to forward).
    pub ecs: Option<Prefix>,
    /// Address returned.
    pub answer: Ipv4Addr,
    /// Day of the query.
    pub day: Day,
    /// Seconds within the day.
    pub time_s: f64,
}

const _: () = assert!(std::mem::size_of::<DnsQueryLog>() == 80);

impl DnsQueryLog {
    /// The measurement id embedded in the qname, if this row belongs to a
    /// beacon measurement.
    pub fn measurement_id(&self) -> Option<u64> {
        self.qname.measurement_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_id_passthrough() {
        let zone = DnsName::new("cdn.example").unwrap();
        let row = DnsQueryLog {
            qname: DnsName::measurement(42, &zone),
            ldns: LdnsId(3),
            ecs: None,
            answer: Ipv4Addr::new(203, 0, 113, 9),
            day: Day(0),
            time_s: 10.0,
        };
        assert_eq!(row.measurement_id(), Some(42));
    }
}
