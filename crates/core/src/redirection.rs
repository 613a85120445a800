//! Redirection policies: the §2/§6 design space as pluggable DNS policies.
//!
//! Each policy implements [`anycast_dns::RedirectionPolicy`] and can be
//! installed on an [`anycast_dns::AuthoritativeServer`]:
//!
//! * [`AnycastPolicy`] — always answer the anycast VIP (the studied CDN's
//!   production behaviour);
//! * [`GeoClosestDnsPolicy`] — answer the unicast address of the front-end
//!   nearest to the requesting LDNS's believed location (classic geo-DNS,
//!   §2's "performance-based decision … based on which LDNS forwarded the
//!   request" in its simplest form);
//! * [`PredictionPolicy`] — answer from a trained
//!   [`crate::prediction::PredictionTable`], at ECS or LDNS granularity,
//!   falling back to anycast for unknown groups. Over
//!   [`PredictionTable::hybrid_filter`] it is the paper's conclusion:
//!   anycast for everyone except the groups the table says gain at least a
//!   threshold from DNS redirection.

use anycast_geo::GeoPoint;
use anycast_netsim::CdnAddressing;

use anycast_dns::{DnsAnswer, QueryContext, RedirectionPolicy};

use crate::deployment::Deployment;
use crate::prediction::{GroupKey, Grouping, PredictionTable};
use anycast_beacon::Target;

/// Always answer the anycast VIP.
#[derive(Debug, Clone, Copy)]
pub struct AnycastPolicy {
    addressing: CdnAddressing,
    ttl_s: u32,
}

impl AnycastPolicy {
    /// Creates the policy.
    pub fn new(addressing: CdnAddressing, ttl_s: u32) -> AnycastPolicy {
        AnycastPolicy { addressing, ttl_s }
    }
}

impl RedirectionPolicy for AnycastPolicy {
    fn answer(&self, _query: &QueryContext<'_>) -> DnsAnswer {
        DnsAnswer::global(self.addressing.anycast_ip(), self.ttl_s)
    }
}

/// Geo-DNS: the front-end nearest the LDNS's believed location.
#[derive(Debug, Clone)]
pub struct GeoClosestDnsPolicy {
    deployment: Deployment,
    ttl_s: u32,
}

impl GeoClosestDnsPolicy {
    /// Creates the policy over a deployment.
    pub fn new(deployment: Deployment, ttl_s: u32) -> GeoClosestDnsPolicy {
        GeoClosestDnsPolicy { deployment, ttl_s }
    }

    /// The site this policy selects for an LDNS at `loc`.
    pub fn select(&self, loc: &GeoPoint) -> Option<anycast_netsim::SiteId> {
        self.deployment.nearest(loc, 1).first().map(|&(s, _)| s)
    }
}

impl RedirectionPolicy for GeoClosestDnsPolicy {
    fn answer(&self, query: &QueryContext<'_>) -> DnsAnswer {
        match self.select(&query.ldns_location) {
            Some(site) => DnsAnswer::global(self.deployment.addressing().site_ip(site), self.ttl_s),
            None => DnsAnswer::global(self.deployment.addressing().anycast_ip(), self.ttl_s),
        }
    }
}

/// Prediction-driven DNS redirection.
#[derive(Debug, Clone)]
pub struct PredictionPolicy {
    table: PredictionTable,
    grouping: Grouping,
    addressing: CdnAddressing,
    ttl_s: u32,
}

impl PredictionPolicy {
    /// Creates the policy from a trained table.
    pub fn new(
        table: PredictionTable,
        grouping: Grouping,
        addressing: CdnAddressing,
        ttl_s: u32,
    ) -> PredictionPolicy {
        PredictionPolicy {
            table,
            grouping,
            addressing,
            ttl_s,
        }
    }

    /// The currently installed table.
    pub fn table(&self) -> &PredictionTable {
        &self.table
    }
}

impl RedirectionPolicy for PredictionPolicy {
    fn answer(&self, query: &QueryContext<'_>) -> DnsAnswer {
        // ECS tables are longest-prefix-match: the matched aggregate's
        // length is the answer's scope (RFC 7871 §7.2.1). A miss — the
        // anycast fallback — was derived from no subnet, so it is scope 0;
        // advertising the query's own length there was the classic
        // over-scoping bug that shattered resolver caches.
        let (choice, matched_len) = match self.grouping {
            Grouping::Ecs => match query.ecs.and_then(|e| self.table.lookup_lpm(e.prefix)) {
                Some((matched, c)) => (c.target, Some(matched.len())),
                None => (Target::Anycast, None),
            },
            Grouping::Ldns => (
                self.table
                    .predict(GroupKey::Ldns(query.ldns))
                    .unwrap_or(Target::Anycast),
                None,
            ),
        };
        let addr = match choice {
            Target::Anycast => self.addressing.anycast_ip(),
            Target::Unicast(site) => self.addressing.site_ip(site),
        };
        DnsAnswer::scoped(addr, self.ttl_s, self.grouping.answer_scope(matched_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot};
    use anycast_dns::{DnsName, EcsOption, LdnsId};
    use anycast_netsim::{Day, Internet, NetConfig, Prefix24, SiteId};
    use std::net::Ipv4Addr;

    fn ctx<'a>(
        qname: &'a DnsName,
        ldns: u32,
        loc: GeoPoint,
        ecs: Option<EcsOption>,
    ) -> QueryContext<'a> {
        QueryContext {
            qname,
            ldns: LdnsId(ldns),
            ldns_location: loc,
            ecs,
            day: Day(0),
            time_s: 0.0,
        }
    }

    fn prefix(n: u8) -> Prefix24 {
        Prefix24::containing(Ipv4Addr::new(11, 0, n, 1))
    }

    fn trained_table(site: u16, gain: f64) -> PredictionTable {
        // Train a one-group table through the real Predictor so internals
        // stay consistent.
        use crate::prediction::{Predictor, PredictorConfig};
        let mut ds = BeaconDataset::new();
        let mk = |exec: u64, t: Target, rtt: f64, i: usize| BeaconMeasurement {
            measurement_id: match t {
                Target::Anycast => Slot::Anycast.id_for(exec + i as u64),
                Target::Unicast(_) => Slot::GeoClosest.id_for(exec + i as u64),
            },
            slot: Slot::Anycast,
            prefix: prefix(1),
            ldns: LdnsId(0),
            ecs: None,
            target: t,
            served_site: SiteId(0),
            rtt_ms: rtt,
            failed: false,
            day: Day(0),
            time_s: 0.0,
        };
        ds.extend((0..25).map(|i| mk(0, Target::Anycast, 50.0 + gain, i)));
        ds.extend((0..25).map(|i| mk(100, Target::Unicast(SiteId(site)), 50.0, i)));
        Predictor::new(PredictorConfig::default()).train(&ds, Day(0))
    }

    #[test]
    fn anycast_policy_always_answers_vip() {
        let plan = CdnAddressing::standard(8);
        let p = AnycastPolicy::new(plan, 60);
        let qname = DnsName::new("www.cdn.example").unwrap();
        let a = p.answer(&ctx(&qname, 0, GeoPoint::new(0.0, 0.0), None));
        assert!(plan.is_anycast(a.addr));
        assert_eq!(a.ecs_scope, 0);
    }

    #[test]
    fn geo_policy_selects_nearest_site() {
        let net = Internet::new(NetConfig::small(), 3).unwrap();
        let deployment = Deployment::of(&net);
        let plan = *deployment.addressing();
        // Query from exactly a front-end's location: that site must win.
        let fe = deployment.front_ends()[2].clone();
        let p = GeoClosestDnsPolicy::new(deployment, 60);
        let qname = DnsName::new("www.cdn.example").unwrap();
        let a = p.answer(&ctx(&qname, 0, fe.location, None));
        assert_eq!(plan.site_for_ip(a.addr), Some(fe.site));
    }

    #[test]
    fn prediction_policy_ecs_uses_subnet() {
        let plan = CdnAddressing::standard(8);
        let table = trained_table(3, 30.0);
        let p = PredictionPolicy::new(table, Grouping::Ecs, plan, 60);
        let qname = DnsName::new("www.cdn.example").unwrap();
        // Known subnet: redirected, subnet-scoped.
        let a = p.answer(&ctx(
            &qname,
            0,
            GeoPoint::new(0.0, 0.0),
            Some(EcsOption::for_prefix(prefix(1))),
        ));
        assert_eq!(plan.site_for_ip(a.addr), Some(SiteId(3)));
        assert_eq!(a.ecs_scope, 24);
        // Unknown subnet: anycast fallback — derived from no subnet, so it
        // must advertise scope 0, not echo the query's /24.
        let b = p.answer(&ctx(
            &qname,
            0,
            GeoPoint::new(0.0, 0.0),
            Some(EcsOption::for_prefix(prefix(9))),
        ));
        assert!(plan.is_anycast(b.addr));
        assert_eq!(b.ecs_scope, 0, "table miss must be scope 0");
        // No ECS at all: anycast fallback, global scope.
        let c = p.answer(&ctx(&qname, 0, GeoPoint::new(0.0, 0.0), None));
        assert!(plan.is_anycast(c.addr));
        assert_eq!(c.ecs_scope, 0);
    }

    #[test]
    fn prediction_policy_ldns_grouping_ignores_ecs() {
        let plan = CdnAddressing::standard(8);
        // Build an LDNS-keyed table via the predictor.
        use crate::prediction::{Predictor, PredictorConfig};
        let mut ds = BeaconDataset::new();
        let mk = |exec: u64, t: Target, rtt: f64| BeaconMeasurement {
            measurement_id: match t {
                Target::Anycast => Slot::Anycast.id_for(exec),
                Target::Unicast(_) => Slot::GeoClosest.id_for(exec),
            },
            slot: Slot::Anycast,
            prefix: prefix(1),
            ldns: LdnsId(4),
            ecs: None,
            target: t,
            served_site: SiteId(0),
            rtt_ms: rtt,
            failed: false,
            day: Day(0),
            time_s: 0.0,
        };
        ds.extend((0..25).map(|i| mk(i, Target::Anycast, 90.0)));
        ds.extend((100..125).map(|i| mk(i, Target::Unicast(SiteId(2)), 40.0)));
        let cfg = PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        };
        let table = Predictor::new(cfg).train(&ds, Day(0));
        let p = PredictionPolicy::new(table, Grouping::Ldns, plan, 60);
        let qname = DnsName::new("www.cdn.example").unwrap();
        let a = p.answer(&ctx(&qname, 4, GeoPoint::new(0.0, 0.0), None));
        assert_eq!(plan.site_for_ip(a.addr), Some(SiteId(2)));
        // A different LDNS gets anycast.
        let b = p.answer(&ctx(&qname, 5, GeoPoint::new(0.0, 0.0), None));
        assert!(plan.is_anycast(b.addr));
    }

    #[test]
    fn ldns_keyed_answers_to_ecs_queries_advertise_scope_zero() {
        // The §6 LDNS/ECS distinction on the wire: an answer computed per
        // resolver does not depend on the client subnet, so even when the
        // query carries ECS the response must advertise scope 0 — one
        // cache entry serves every client of the LDNS.
        let plan = CdnAddressing::standard(8);
        use crate::prediction::{Predictor, PredictorConfig};
        let mut ds = BeaconDataset::new();
        let mk = |exec: u64, t: Target, rtt: f64| BeaconMeasurement {
            measurement_id: match t {
                Target::Anycast => Slot::Anycast.id_for(exec),
                Target::Unicast(_) => Slot::GeoClosest.id_for(exec),
            },
            slot: Slot::Anycast,
            prefix: prefix(1),
            ldns: LdnsId(4),
            ecs: None,
            target: t,
            served_site: SiteId(0),
            rtt_ms: rtt,
            failed: false,
            day: Day(0),
            time_s: 0.0,
        };
        ds.extend((0..25).map(|i| mk(i, Target::Anycast, 90.0)));
        ds.extend((100..125).map(|i| mk(i, Target::Unicast(SiteId(2)), 40.0)));
        let cfg = PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        };
        let table = Predictor::new(cfg).train(&ds, Day(0));
        let p = PredictionPolicy::new(table, Grouping::Ldns, plan, 60);
        let qname = DnsName::new("www.cdn.example").unwrap();
        let a = p.answer(&ctx(
            &qname,
            4,
            GeoPoint::new(0.0, 0.0),
            Some(EcsOption::for_prefix(prefix(1))),
        ));
        assert_eq!(
            plan.site_for_ip(a.addr),
            Some(SiteId(2)),
            "still redirected"
        );
        assert_eq!(a.ecs_scope, 0, "LDNS-keyed answer must be scope 0");
        // ECS-keyed answers advertise the matched aggregate's length; a
        // miss is scope 0; LDNS-keyed answers are always scope 0.
        assert_eq!(Grouping::Ecs.answer_scope(Some(24)), 24);
        assert_eq!(Grouping::Ecs.answer_scope(Some(8)), 8);
        assert_eq!(Grouping::Ecs.answer_scope(None), 0);
        assert_eq!(Grouping::Ldns.answer_scope(Some(24)), 0);
    }

    #[test]
    fn hybrid_threshold_gates_redirection() {
        let plan = CdnAddressing::standard(8);
        let table = trained_table(3, 12.0); // expected gain 12 ms
        let qname = DnsName::new("www.cdn.example").unwrap();
        let ecs = Some(EcsOption::for_prefix(prefix(1)));

        let hybrid = |min_gain_ms: f64| {
            PredictionPolicy::new(table.hybrid_filter(min_gain_ms), Grouping::Ecs, plan, 60)
        };

        let permissive = hybrid(5.0);
        assert_eq!(permissive.table().len(), 1);
        let a = permissive.answer(&ctx(&qname, 0, GeoPoint::new(0.0, 0.0), ecs));
        assert_eq!(plan.site_for_ip(a.addr), Some(SiteId(3)));

        let strict = hybrid(25.0);
        assert_eq!(strict.table().len(), 0);
        let b = strict.answer(&ctx(&qname, 0, GeoPoint::new(0.0, 0.0), ecs));
        assert!(plan.is_anycast(b.addr));
    }
}
