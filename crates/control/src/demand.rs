//! Offered-load attribution: which client group sends how many queries in
//! each control epoch, and where that load lands.
//!
//! The controller can only move load it can *name*: a query steers through
//! DNS exactly when it resolves to a trained group (an ECS /24 or an LDNS
//! resolver with candidate rankings). Everything else — untrained groups,
//! non-ECS queries under ECS grouping — is answered with the anycast VIP
//! and lands wherever BGP already sends that client. The model splits a
//! day's deterministic query plan (`anycast_serve::day_query_plan`) into
//! control epochs and tallies both halves per epoch:
//!
//! * steerable load, per group, with the group's *catchment distribution*
//!   (which sites take it if the answer is the VIP);
//! * pinned load, per site, that no DNS rewrite can move.
//!
//! Where a VIP answer lands is `vip_landing`'s rule, which the wire
//! replay reads too.
//!
//! Two load rules live here and nowhere else:
//! [`EpochDemand::contribution`] (how much load a group parks on a site
//! under a target) and [`DemandModel::peak_loads`] (each site's peak
//! rank-0 load across the day).
//!
//! Everything is keyed through `BTreeMap`s so iteration order — and hence
//! every controller decision — is deterministic.

use std::collections::BTreeMap;

use anycast_core::prediction::{GroupKey, Grouping, PredictionTable};
use anycast_netsim::{Day, SiteId};
use anycast_serve::day_query_plan;
use anycast_workload::Scenario;

use anycast_beacon::Target;

/// One steerable group's demand within one control epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupEpoch {
    /// Queries the group contributes this epoch.
    pub queries: u64,
    /// Where those queries land when answered with the anycast VIP:
    /// site → query count (sums to `queries`, less any `vip_landing`
    /// loses).
    pub vip_by_site: BTreeMap<SiteId, u64>,
}

/// Offered load for one control epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochDemand {
    /// Steerable groups: trained groups the epoch's queries resolve to.
    pub groups: BTreeMap<GroupKey, GroupEpoch>,
    /// Load DNS cannot move (VIP answers with no trained group), per
    /// anycast catchment site.
    pub pinned: BTreeMap<SiteId, f64>,
}

impl EpochDemand {
    /// Total queries this epoch, steerable and pinned.
    pub fn total_queries(&self) -> f64 {
        let steer: u64 = self.groups.values().map(|g| g.queries).sum();
        let pinned: f64 = self.pinned.values().sum();
        steer as f64 + pinned
    }

    /// How much load `key` parks on `site` when answered with `target`:
    /// all its queries on a unicast hit, its catchment share of `site`
    /// under the VIP, nothing otherwise (or when the group sends nothing
    /// this epoch).
    pub fn contribution(&self, key: GroupKey, target: Target, site: SiteId) -> f64 {
        let Some(g) = self.groups.get(&key) else {
            return 0.0;
        };
        match target {
            Target::Unicast(s) if s == site => g.queries as f64,
            Target::Unicast(_) => 0.0,
            Target::Anycast => g.vip_by_site.get(&site).copied().unwrap_or(0) as f64,
        }
    }

    /// Projects per-site offered load under a group→target assignment.
    /// Groups absent from `assignment` serve their rank-0 (table) choice.
    pub fn project(
        &self,
        table: &PredictionTable,
        assignment: &BTreeMap<GroupKey, Target>,
    ) -> BTreeMap<SiteId, f64> {
        let mut loads = self.pinned.clone();
        for (&key, g) in &self.groups {
            let target = assignment.get(&key).copied().or_else(|| table.predict(key));
            match target {
                Some(Target::Unicast(site)) => {
                    *loads.entry(site).or_insert(0.0) += g.queries as f64;
                }
                // The VIP (or, defensively, a group the table no longer
                // knows): load falls to the anycast catchments.
                Some(Target::Anycast) | None => {
                    for (&site, &q) in &g.vip_by_site {
                        *loads.entry(site).or_insert(0.0) += q as f64;
                    }
                }
            }
        }
        loads
    }
}

/// A full day's offered load, split into control epochs.
#[derive(Debug, Clone)]
pub struct DemandModel {
    /// Per-epoch demand, in replay order.
    pub epochs: Vec<EpochDemand>,
}

/// Where a planned query answered with the anycast VIP lands: the site BGP
/// delivers its client to at the query's time of day, failure schedule
/// applied. The plan is a round-robin sweep of the population, so the
/// query's position `pos` among `len` stands in for its time of day; in a
/// world without failure injection this is exactly the steady
/// `anycast_route`. `None` is a query lost to a steady route into a
/// just-crashed site before BGP reconverges: the answer goes out, the
/// packets die.
pub(crate) fn vip_landing(
    scenario: &Scenario,
    client: usize,
    day: Day,
    pos: usize,
    len: usize,
) -> Option<SiteId> {
    let time_s = 86_400.0 * pos as f64 / len.max(1) as f64;
    scenario
        .internet
        .anycast_route_at(&scenario.clients[client].attachment, day, time_s)
        .map(|route| route.site)
}

/// Chunk boundaries for splitting `n` queries into `epochs` contiguous
/// control epochs: epoch `e` covers `[e·n/E, (e+1)·n/E)`. The wire replay
/// uses the same boundaries, so model epochs and replay epochs line up
/// query-for-query.
pub fn epoch_bounds(n: usize, epochs: usize) -> Vec<(usize, usize)> {
    let e = epochs.max(1);
    (0..e).map(|i| (i * n / e, (i + 1) * n / e)).collect()
}

impl DemandModel {
    /// Builds the model from a scenario's deterministic day of queries.
    ///
    /// `table` decides which groups are steerable: a query steers through
    /// the group [`PredictionTable::match_query`] matches it to, and one
    /// that matches none is pinned; `cap` bounds the day's query
    /// count the way the replay's cap does.
    pub fn build(
        scenario: &Scenario,
        table: &PredictionTable,
        grouping: Grouping,
        day: Day,
        epochs: usize,
        cap: usize,
    ) -> DemandModel {
        let plan = day_query_plan(scenario, day, cap);
        let bounds = epoch_bounds(plan.len(), epochs);
        let mut out = Vec::with_capacity(bounds.len());
        for &(lo, hi) in &bounds {
            let mut epoch = EpochDemand::default();
            for (j, (ci, spec)) in plan[lo..hi].iter().enumerate() {
                let landing = vip_landing(scenario, *ci, day, lo + j, plan.len());
                // An ECS query matches the *aggregate* entry covering its
                // subnet, so steering groups are keyed (and overridden)
                // per aggregate — rewriting one short default entry moves
                // every /24 it covers at once.
                match table.match_query(grouping, spec.ldns, spec.ecs.map(|e| e.prefix)) {
                    Some((k, _)) => {
                        let g = epoch.groups.entry(k).or_default();
                        g.queries += 1;
                        if let Some(site) = landing {
                            *g.vip_by_site.entry(site).or_insert(0) += 1;
                        }
                    }
                    None => {
                        if let Some(site) = landing {
                            *epoch.pinned.entry(site).or_insert(0.0) += 1.0;
                        }
                    }
                }
            }
            out.push(epoch);
        }
        DemandModel { epochs: out }
    }

    /// Each site's peak offered load across the day's epochs with every
    /// group on its rank-0 choice — the yardstick capacity plans scale.
    pub fn peak_loads(&self, table: &PredictionTable) -> BTreeMap<SiteId, f64> {
        let mut peak: BTreeMap<SiteId, f64> = BTreeMap::new();
        for epoch in &self.epochs {
            for (site, load) in epoch.project(table, &BTreeMap::new()) {
                let p = peak.entry(site).or_insert(0.0);
                *p = p.max(load);
            }
        }
        peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_core::prediction::{Predictor, PredictorConfig};
    use anycast_core::{Study, StudyConfig};

    fn trained(grouping: Grouping) -> (Study, PredictionTable) {
        let mut study = Study::new(Scenario::small(21), StudyConfig::default());
        study.run_day(Day(0));
        let cfg = PredictorConfig {
            grouping,
            ..PredictorConfig::default()
        };
        let table = Predictor::new(cfg).train(study.dataset(), Day(0));
        (study, table)
    }

    #[test]
    fn epoch_bounds_partition_the_plan() {
        let b = epoch_bounds(10, 3);
        assert_eq!(b, vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(epoch_bounds(5, 1), vec![(0, 5)]);
        assert_eq!(
            epoch_bounds(0, 4)
                .iter()
                .map(|&(l, h)| h - l)
                .sum::<usize>(),
            0
        );
    }

    #[test]
    fn model_accounts_for_every_query() {
        let (study, table) = trained(Grouping::Ecs);
        let scenario = study.scenario();
        let n = day_query_plan(scenario, Day(1), 600).len();
        assert!(n > 100, "a simulated day must produce a real workload");
        let model = DemandModel::build(scenario, &table, Grouping::Ecs, Day(1), 4, 600);
        assert_eq!(model.epochs.len(), 4);
        let total: f64 = model.epochs.iter().map(EpochDemand::total_queries).sum();
        assert_eq!(total, n as f64, "every query is steerable or pinned");
        // Group catchment distributions are internally consistent.
        for e in &model.epochs {
            for g in e.groups.values() {
                assert_eq!(g.vip_by_site.values().sum::<u64>(), g.queries);
            }
        }
    }

    #[test]
    fn projection_matches_pinned_plus_steered() {
        let (study, table) = trained(Grouping::Ldns);
        let scenario = study.scenario();
        let model = DemandModel::build(scenario, &table, Grouping::Ldns, Day(1), 2, 400);
        for e in &model.epochs {
            let loads = e.project(&table, &BTreeMap::new());
            let total: f64 = loads.values().sum();
            assert!(
                (total - e.total_queries()).abs() < 1e-9,
                "projection conserves load"
            );
        }
    }

    #[test]
    fn build_is_deterministic() {
        let (study, table) = trained(Grouping::Ecs);
        let scenario = study.scenario();
        let a = DemandModel::build(scenario, &table, Grouping::Ecs, Day(1), 3, 500);
        let b = DemandModel::build(scenario, &table, Grouping::Ecs, Day(1), 3, 500);
        assert_eq!(a.epochs, b.epochs);
    }
}
