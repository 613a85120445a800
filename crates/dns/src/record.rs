//! Minimal A answers.
//!
//! The study only needs A answers (the beacon fetches test URLs whose
//! hostnames resolve to front-end IPs), so that is all we model. TTLs are
//! kept because the paper's methodology depends on them twice: DNS-based
//! redirection uses *small* TTLs to retain control (§2), while the beacon
//! sets TTLs *longer than the beacon duration* so the warm-up query removes
//! lookup latency from the timed fetch (§3.2.2).

use std::net::Ipv4Addr;

/// What a redirection policy returns: an address and the TTL to serve it
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsAnswer {
    /// The address to return.
    pub addr: Ipv4Addr,
    /// Time-to-live in seconds.
    pub ttl_s: u32,
    /// ECS scope prefix length to advertise. Per RFC 7871 this must be
    /// derived from the granularity of the key the answer was computed
    /// from, **not** from the query: an answer looked up per client /24
    /// advertises the table's prefix length (24 here), while an answer
    /// keyed by the LDNS alone advertises 0 — cacheable for every client
    /// of that resolver — even when the query carried an ECS option
    /// (§6's LDNS/ECS distinction).
    pub ecs_scope: u8,
}

impl DnsAnswer {
    /// An answer that does not vary by client subnet.
    pub fn global(addr: Ipv4Addr, ttl_s: u32) -> DnsAnswer {
        DnsAnswer::scoped(addr, ttl_s, 0)
    }

    /// An answer tailored to a /24 client subnet.
    pub fn subnet_scoped(addr: Ipv4Addr, ttl_s: u32) -> DnsAnswer {
        DnsAnswer::scoped(addr, ttl_s, 24)
    }

    /// An answer advertising an explicit ECS scope — the scope of the
    /// table key the answer was derived from (0 for LDNS-keyed answers,
    /// the table's prefix length for subnet-keyed ones).
    pub fn scoped(addr: Ipv4Addr, ttl_s: u32, ecs_scope: u8) -> DnsAnswer {
        DnsAnswer {
            addr,
            ttl_s,
            ecs_scope,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_carry_scope() {
        let a = DnsAnswer::global(Ipv4Addr::new(1, 2, 3, 4), 300);
        assert_eq!(a.ecs_scope, 0);
        let b = DnsAnswer::subnet_scoped(Ipv4Addr::new(1, 2, 3, 4), 60);
        assert_eq!(b.ecs_scope, 24);
        let c = DnsAnswer::scoped(Ipv4Addr::new(1, 2, 3, 4), 60, 16);
        assert_eq!(c.ecs_scope, 16);
        assert_eq!(
            DnsAnswer::scoped(c.addr, 60, 0),
            DnsAnswer::global(c.addr, 60)
        );
    }
}
