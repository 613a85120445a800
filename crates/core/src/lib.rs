//! The paper's primary contribution, as a library.
//!
//! *Analyzing the Performance of an Anycast CDN* (IMC 2015) contributes
//! three things on top of its substrates, and each is a module here:
//!
//! * a characterization of the **CDN deployment** itself — front-end sites
//!   and their geography, and the §4 comparison against 21 public CDN
//!   footprints ([`deployment`], [`catalog`]);
//! * the **history-based prediction scheme** of §6: group clients by /24
//!   (ECS) or by resolver (LDNS), score each candidate front-end by a
//!   robust low percentile of yesterday's latency distribution, and serve
//!   each group the argmin of {anycast, unicast front-ends}
//!   ([`prediction`]), evaluated against the next day's measurements at the
//!   50th and 75th percentiles ([`evaluation`]). The table itself decides
//!   which group a query matches ([`PredictionTable::match_query`]), so the
//!   evaluation, the control plane's demand model and the served table
//!   share one rule; [`PredictionTable::hybrid_filter`] is the hybrid the
//!   conclusion advocates;
//! * the §2 **availability argument** made executable: anycast's
//!   one-routing-step failover against DNS redirection's TTL-long
//!   staleness when a front-end dies ([`failure`]);
//! * [`study`] orchestrates the full §3 measurement campaign over a
//!   simulated world: beacon sampling from the query stream, DNS/HTTP log
//!   collection, the join, and the per-day aggregates every figure
//!   consumes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod deployment;
pub mod evaluation;
pub mod failure;
pub mod flows;
pub mod loadaware;
pub mod prediction;
pub mod study;

pub use deployment::Deployment;
pub use evaluation::{evaluate_prediction, weighted_availability, EvalRow};
pub use failure::{
    anycast_request, request_times, DnsRedirectionSim, FailureReason, RequestOutcome,
};
pub use flows::{disruption_rate, DisruptionStats, FlowModel};
pub use loadaware::{plan_shedding, withdraw, SiteLoad};
pub use prediction::{
    AggregationConfig, Choice, GroupKey, Grouping, Metric, PredictionTable, Predictor,
    PredictorConfig,
};
pub use study::{Study, StudyConfig};

/// A trained table as a redirection policy: what a query is served — its
/// group's choice or anycast, with the RFC 7871 scope the matched key
/// implies — read through [`PredictionTable::match_query`], the one rule
/// the served compiled table answers by.
#[cfg(test)]
mod redirection {
    #[cfg(test)]
    mod tests {
        use crate::prediction::tests::{prefix, separated_dataset};
        use crate::PredictorConfig;
        use crate::{AggregationConfig, GroupKey, Grouping, PredictionTable, Predictor};
        use anycast_beacon::Target;
        use anycast_dns::LdnsId;
        use anycast_netsim::{Day, Prefix, Prefix24, SiteId};

        /// What `table` serves a query from `ldns` carrying `ecs`: the
        /// matched group's target (`None`: anycast) and the RFC 7871 scope
        /// its key implies.
        fn served(
            table: &PredictionTable,
            grouping: Grouping,
            ldns: u32,
            ecs: Option<Prefix>,
        ) -> (Option<Target>, u8) {
            let matched = table.match_query(grouping, LdnsId(ldns), ecs);
            let len = match matched {
                Some((GroupKey::Ecs(p), _)) => Some(p.len()),
                _ => None,
            };
            (matched.map(|(_, c)| c.target), grouping.answer_scope(len))
        }

        /// separated_dataset() grouped by resolver: resolver g, like /24 g,
        /// goes to site 3.
        fn ldns_table() -> PredictionTable {
            let cfg = PredictorConfig {
                grouping: Grouping::Ldns,
                ..Default::default()
            };
            Predictor::new(cfg).train(&separated_dataset(), Day(0))
        }

        #[test]
        fn prediction_policy_ecs_uses_subnet() {
            // separated_dataset() sends /24 g, behind resolver g, to site 3.
            let table =
                Predictor::new(PredictorConfig::default()).train(&separated_dataset(), Day(0));
            let ecs = |p: Option<Prefix24>| served(&table, Grouping::Ecs, 1, p.map(Prefix::from));
            assert_eq!(ecs(Some(prefix(1))), (Some(Target::Unicast(SiteId(3))), 24));
            // An unknown subnet gets anycast, derived from no subnet: scope
            // 0, not the query's /24.
            assert_eq!(ecs(Some(prefix(99))), (None, 0));
            // An ECS table cannot place a query without ECS, even from the
            // resolver the group was measured behind.
            assert_eq!(ecs(None), (None, 0));
        }

        #[test]
        fn prediction_policy_ldns_grouping_ignores_ecs() {
            let table = ldns_table();
            let site3 = (GroupKey::Ldns(LdnsId(1)), Target::Unicast(SiteId(3)));
            // The resolver's own entry whatever subnet the query discloses;
            // a resolver the table never saw gets anycast.
            for ecs in [None, Some(prefix(1).into()), Some(prefix(99).into())] {
                let matched = table.match_query(Grouping::Ldns, LdnsId(1), ecs);
                assert_eq!(matched.map(|(k, c)| (k, c.target)), Some(site3));
                assert!(table.match_query(Grouping::Ldns, LdnsId(99), ecs).is_none());
            }
        }

        #[test]
        fn ldns_keyed_answers_to_ecs_queries_advertise_scope_zero() {
            // An answer computed per resolver does not depend on the client
            // subnet: scope 0 even when the query carries ECS, so one cache
            // entry serves every client of the resolver.
            let table = ldns_table();
            let site3 = Some(Target::Unicast(SiteId(3)));
            for ecs in [None, Some(prefix(1).into()), Some(prefix(99).into())] {
                assert_eq!(served(&table, Grouping::Ldns, 1, ecs), (site3, 0));
                assert_eq!(served(&table, Grouping::Ldns, 99, ecs), (None, 0));
            }
        }

        #[test]
        fn the_matched_aggregate_length_is_the_scope() {
            // separated_dataset() aggregates to one /8 default entry. A /24
            // under it advertises the /8, and so does every coarser query
            // it still covers; a query coarser than the aggregate cannot
            // see it.
            let agg = Predictor::new(PredictorConfig::default()).train_aggregated(
                &separated_dataset(),
                Day(0),
                &AggregationConfig::default(),
            );
            let at = |len| {
                let query = Prefix::from(prefix(3)).truncate(len);
                served(&agg, Grouping::Ecs, 0, Some(query))
            };
            let site3 = Some(Target::Unicast(SiteId(3)));
            let scoped = [(site3, 8), (site3, 8), (site3, 8), (None, 0)];
            assert_eq!([24, 16, 8, 4].map(at), scoped);
        }

        #[test]
        fn hybrid_threshold_gates_redirection() {
            // Site 3 beats anycast by about 30 − g ms in group g: every
            // group gains, a strict subset gains 25 ms, nobody a second.
            let table =
                Predictor::new(PredictorConfig::default()).train(&separated_dataset(), Day(0));
            let at =
                |t: &PredictionTable, g: u8| served(t, Grouping::Ecs, 0, Some(prefix(g).into()));
            for (min_gain_ms, redirects) in [(0.0, 12..=12), (25.0, 1..=11), (1_000.0, 0..=0)] {
                let hybrid = table.hybrid_filter(min_gain_ms);
                // A surviving group keeps its target; a dropped one gets
                // anycast.
                let survivors = (0..12u8).filter(|&g| at(&hybrid, g).0.is_some());
                assert!(survivors.clone().all(|g| at(&hybrid, g) == at(&table, g)));
                assert_eq!(survivors.clone().count(), hybrid.len());
                assert!(redirects.contains(&hybrid.len()), "{min_gain_ms} ms");
            }
        }
    }
}
