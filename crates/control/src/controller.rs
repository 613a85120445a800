//! The water-filling controller: move just enough load, to the
//! next-cheapest place, and keep it there long enough to matter.
//!
//! Each control epoch the controller looks at per-site offered load
//! (projected from the [`crate::demand::DemandModel`], or measured live
//! from the serving plane's answer tallies) against the
//! [`crate::capacity::CapacityPlan`], and rewrites group→front-end
//! assignments along each group's candidate ranking:
//!
//! * **Shed** — for every saturated site, the gradual spill
//!   [`CapacityPlan::spill`] computes how much load must leave (the
//!   water level); the controller then picks the cheapest
//!   movable groups — smallest predicted latency penalty between their
//!   current candidate and the next ranked candidate with headroom — and
//!   demotes them until the quota is met. This is FastRoute's insight
//!   made concrete: the DNS layer can move load in group-sized quanta
//!   without touching BGP.
//! * **Restore** — when a site has headroom again (with a safety margin,
//!   so assignments do not flap), demoted groups climb back toward their
//!   rank-0 choice, cheapest first.
//! * **Hysteresis** — a group that just moved is frozen for
//!   `COOLDOWN_EPOCHS`; restores only fire when the destination stays
//!   below `(1 − RESTORE_MARGIN) × capacity`.
//!
//! Every data structure iterated is a `BTreeMap` and every sort carries a
//! total tie-break, so a step is a pure deterministic function of
//! `(table, demand, loads, controller state)`.

use std::collections::BTreeMap;

use anycast_beacon::Target;
use anycast_core::prediction::{GroupKey, PredictionTable};
use anycast_geo::GeoPoint;
use anycast_netsim::SiteId;
use anycast_obs::counter;

use crate::capacity::CapacityPlan;
use crate::demand::EpochDemand;

/// What the control loop is allowed to do about overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlMode {
    /// Observe only: no rewrites, no withdrawals — today's behaviour and
    /// the valve-only baseline. The default, so the control plane is
    /// byte-for-byte inert unless explicitly enabled.
    #[default]
    Off,
    /// Gradual DNS-driven shedding along candidate rankings.
    Shed,
    /// The blunt instrument: withdraw overloaded sites outright and let
    /// the load cascade (simulated at site-load granularity — BGP is not
    /// a DNS-plane action).
    Withdraw,
}

/// Controller tuning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ControlConfig {
    /// What to do about overload.
    pub mode: ControlMode,
}

/// Restores only fire while the destination stays below
/// `(1 − RESTORE_MARGIN) × capacity`, so assignments do not flap.
const RESTORE_MARGIN: f64 = 0.1;
/// Epochs a just-moved group is frozen (shed and restore alike).
const COOLDOWN_EPOCHS: u32 = 2;

/// One epoch's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Projected per-site load after this epoch's rewrites.
    pub loads: BTreeMap<SiteId, f64>,
    /// Total load above capacity after rewrites.
    pub overload: f64,
    /// Groups demoted to a deeper candidate this epoch.
    pub moves: usize,
    /// Groups restored toward rank 0 this epoch.
    pub restored: usize,
    /// Sum over steered queries of (assigned score − rank-0 score), ms·q.
    pub inflation_ms_sum: f64,
    /// The non-rank-0 assignments in force after this epoch — feed these
    /// to `CompiledTable::compile_with_overrides`. Empty means the plain
    /// table is already correct (no swap needed).
    pub overrides: BTreeMap<GroupKey, Target>,
    /// Whether the overrides changed relative to the previous epoch.
    pub changed: bool,
}

/// The closed-loop controller state across epochs.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: ControlConfig,
    plan: CapacityPlan,
    locations: BTreeMap<SiteId, GeoPoint>,
    /// Current non-zero rank per demoted group.
    rank: BTreeMap<GroupKey, usize>,
    /// Epochs each group stays frozen.
    cooldown: BTreeMap<GroupKey, u32>,
}

impl Controller {
    /// Builds a controller over the fleet's sites.
    pub fn new(cfg: ControlConfig, plan: CapacityPlan, sites: &[(SiteId, GeoPoint)]) -> Controller {
        Controller {
            cfg,
            plan,
            locations: sites.iter().copied().collect(),
            rank: BTreeMap::new(),
            cooldown: BTreeMap::new(),
        }
    }

    /// The capacity plan in force.
    pub fn plan(&self) -> &CapacityPlan {
        &self.plan
    }

    /// Current non-rank-0 assignments as compile overrides.
    pub fn overrides(&self, table: &PredictionTable) -> BTreeMap<GroupKey, Target> {
        self.rank
            .iter()
            .filter_map(|(&key, &r)| table.ranked(key).get(r).map(|c| (key, c.target)))
            .collect()
    }

    /// Runs one control epoch: restore pass, then shed pass.
    ///
    /// `measured` supplies per-site offered load observed by the serving
    /// plane (the live feed); when `None` the step plans against the
    /// demand model's projection under the current assignment. Either
    /// way the step never *reads* observability state — measurements
    /// arrive as plain data, keeping the obs-neutrality contract.
    pub fn step(
        &mut self,
        table: &PredictionTable,
        demand: &EpochDemand,
        measured: Option<&BTreeMap<SiteId, f64>>,
    ) -> StepReport {
        counter!("control_steps_total").inc();
        // Cooldowns tick at epoch start; a group moved this epoch gets the
        // full window before it may move again.
        self.cooldown.retain(|_, left| {
            *left = left.saturating_sub(1);
            *left > 0
        });
        // Drop stale state: a retrained table may have shallower rankings.
        self.rank.retain(|&key, &mut r| table.ranked(key).len() > r);

        let before = self.overrides(table);
        let mut loads = match measured {
            Some(m) => m.clone(),
            None => demand.project(table, &before),
        };
        // Every site the fleet knows participates, even at zero load.
        for &site in self.locations.keys() {
            loads.entry(site).or_insert(0.0);
        }

        let mut restored = 0usize;
        let mut moves = 0usize;

        if self.cfg.mode == ControlMode::Shed {
            restored = self.restore_pass(table, demand, &mut loads);
            moves = self.shed_pass(table, demand, &mut loads);
        }

        let overrides = self.overrides(table);
        let changed = overrides != before;
        // Post-rewrite projection: measured loads describe the epoch that
        // just ran, so after rewrites the model is the only forecast.
        if changed {
            loads = demand.project(table, &overrides);
            for &site in self.locations.keys() {
                loads.entry(site).or_insert(0.0);
            }
        }
        let overload = self.plan.overload(&loads);
        let inflation_ms_sum = self.inflation_ms_sum(table, demand);
        counter!("control_moves_total").add(moves as u64);
        counter!("control_restores_total").add(restored as u64);
        StepReport {
            loads,
            overload,
            moves,
            restored,
            inflation_ms_sum,
            overrides,
            changed,
        }
    }

    /// Latency cost of the current assignment: Σ queries × score delta.
    fn inflation_ms_sum(&self, table: &PredictionTable, demand: &EpochDemand) -> f64 {
        self.rank
            .iter()
            .filter_map(|(&key, &r)| {
                let g = demand.groups.get(&key)?;
                let ranked = table.ranked(key);
                let delta = ranked.get(r)?.score_ms - ranked.first()?.score_ms;
                Some(g.queries as f64 * delta)
            })
            .sum()
    }

    /// Applies a reassignment to the running load projection.
    fn apply(
        demand: &EpochDemand,
        loads: &mut BTreeMap<SiteId, f64>,
        key: GroupKey,
        from: Target,
        to: Target,
    ) {
        let Some(g) = demand.groups.get(&key) else {
            return;
        };
        let mut shift = |target: Target, sign: f64| match target {
            Target::Unicast(s) => {
                *loads.entry(s).or_insert(0.0) += sign * g.queries as f64;
            }
            Target::Anycast => {
                for (&s, &q) in &g.vip_by_site {
                    *loads.entry(s).or_insert(0.0) += sign * q as f64;
                }
            }
        };
        shift(from, -1.0);
        shift(to, 1.0);
    }

    /// Whether assigning the group to `target` keeps every destination at
    /// or below `limit_fraction × capacity`.
    fn fits(
        &self,
        demand: &EpochDemand,
        loads: &BTreeMap<SiteId, f64>,
        key: GroupKey,
        current: Target,
        target: Target,
        limit_fraction: f64,
    ) -> bool {
        let Some(g) = demand.groups.get(&key) else {
            // No demand this epoch: moving the label is free.
            return true;
        };
        let fits_site = |site: SiteId, add: f64| {
            // Load the group already parks on the site under the current
            // assignment stays; only the net increase must fit.
            let present = demand.contribution(key, current, site);
            let now = loads.get(&site).copied().unwrap_or(0.0);
            now - present + add <= limit_fraction * self.plan.get(site)
        };
        match target {
            Target::Unicast(s) => fits_site(s, g.queries as f64),
            Target::Anycast => g.vip_by_site.iter().all(|(&s, &q)| fits_site(s, q as f64)),
        }
    }

    /// Promotes demoted groups back toward rank 0 where headroom allows.
    fn restore_pass(
        &mut self,
        table: &PredictionTable,
        demand: &EpochDemand,
        loads: &mut BTreeMap<SiteId, f64>,
    ) -> usize {
        let mut restored = 0usize;
        let margin = 1.0 - RESTORE_MARGIN;
        let demoted: Vec<(GroupKey, usize)> = self.rank.iter().map(|(&k, &r)| (k, r)).collect();
        for (key, r) in demoted {
            if self.cooldown.contains_key(&key) {
                continue;
            }
            let ranked = table.ranked(key);
            let (Some(best), Some(cur)) = (ranked.first(), ranked.get(r)) else {
                continue;
            };
            let (best, cur) = (best.target, cur.target);
            if !self.fits(demand, loads, key, cur, best, margin) {
                continue;
            }
            Self::apply(demand, loads, key, cur, best);
            self.rank.remove(&key);
            self.cooldown.insert(key, COOLDOWN_EPOCHS);
            restored += 1;
        }
        restored
    }

    /// Demotes the cheapest movable groups off each saturated site until
    /// the water-filling quota is met.
    fn shed_pass(
        &mut self,
        table: &PredictionTable,
        demand: &EpochDemand,
        loads: &mut BTreeMap<SiteId, f64>,
    ) -> usize {
        // The spill computes how much must leave each site — respecting
        // global headroom and preferring nearby destinations — and the
        // controller translates those quotas into group moves.
        let quota = self.plan.spill(&mut loads.clone(), &self.locations);

        let mut moves = 0usize;
        for (&from, &q) in &quota {
            let mut remaining = q;
            // Movable groups on this site, cheapest demotion first.
            let mut movable: Vec<(f64, GroupKey, usize, Target, Target, f64)> = Vec::new();
            for &key in demand.groups.keys() {
                if self.cooldown.contains_key(&key) {
                    continue;
                }
                let ranked = table.ranked(key);
                let r_cur = self.rank.get(&key).copied().unwrap_or(0);
                let Some(cur) = ranked.get(r_cur) else {
                    continue;
                };
                let here = demand.contribution(key, cur.target, from);
                if here <= 0.0 {
                    continue;
                }
                // First deeper candidate that fits and actually reduces
                // load on the saturated site.
                for (r_next, cand) in ranked.iter().enumerate().skip(r_cur + 1) {
                    let reduction = here - demand.contribution(key, cand.target, from);
                    if reduction <= 0.0 {
                        continue;
                    }
                    if !self.fits(demand, loads, key, cur.target, cand.target, 1.0) {
                        continue;
                    }
                    let penalty = cand.score_ms - cur.score_ms;
                    movable.push((penalty, key, r_next, cur.target, cand.target, reduction));
                    break;
                }
            }
            movable.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            for (_, key, r_next, cur, cand, reduction) in movable {
                if remaining <= 0.0 {
                    break;
                }
                // Loads moved since the candidate was scored: re-check.
                if !self.fits(demand, loads, key, cur, cand, 1.0) {
                    continue;
                }
                Self::apply(demand, loads, key, cur, cand);
                self.rank.insert(key, r_next);
                self.cooldown.insert(key, COOLDOWN_EPOCHS);
                remaining -= reduction;
                moves += 1;
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::GroupEpoch;
    use anycast_dns::LdnsId;
    use anycast_netsim::{Day, Prefix24};
    use std::net::Ipv4Addr;

    /// Trains a table whose LDNS groups 0 and 1 each rank
    /// `[Unicast(site 0) @40ms, Anycast @90ms]`.
    fn table() -> PredictionTable {
        use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot};
        use anycast_core::prediction::{Grouping, Predictor, PredictorConfig};
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        for ldns in [LdnsId(0), LdnsId(1)] {
            for (target, rtt) in [(Target::Anycast, 90.0), (Target::Unicast(SiteId(0)), 40.0)] {
                for _ in 0..25 {
                    ds.extend([BeaconMeasurement {
                        measurement_id: match target {
                            Target::Anycast => Slot::Anycast.id_for(exec),
                            Target::Unicast(_) => Slot::GeoClosest.id_for(exec),
                        },
                        slot: Slot::Anycast,
                        prefix: Prefix24::containing(Ipv4Addr::new(10, 0, ldns.0 as u8, 1)),
                        ldns,
                        ecs: None,
                        target,
                        served_site: SiteId(0),
                        rtt_ms: rtt,
                        failed: false,
                        day: Day(0),
                        time_s: 0.0,
                    }]);
                    exec += 1;
                }
            }
        }
        let cfg = PredictorConfig {
            grouping: Grouping::Ldns,
            ..PredictorConfig::default()
        };
        Predictor::new(cfg).train(&ds, Day(0))
    }

    fn sites() -> Vec<(SiteId, GeoPoint)> {
        vec![
            (SiteId(0), GeoPoint::new(0.0, 0.0)),
            (SiteId(1), GeoPoint::new(0.0, 10.0)),
            (SiteId(2), GeoPoint::new(0.0, 20.0)),
        ]
    }

    /// Both groups send 100 queries; their anycast catchment is site 2.
    fn demand() -> EpochDemand {
        let mut d = EpochDemand::default();
        for id in [0u32, 1] {
            let g = GroupEpoch {
                queries: 100,
                vip_by_site: [(SiteId(2), 100)].into(),
            };
            d.groups.insert(GroupKey::Ldns(LdnsId(id)), g);
        }
        d.pinned.insert(SiteId(1), 30.0);
        d
    }

    fn shed_cfg() -> ControlConfig {
        ControlConfig {
            mode: ControlMode::Shed,
        }
    }

    #[test]
    fn off_mode_never_rewrites() {
        let t = table();
        let mut plan = CapacityPlan::new();
        plan.set(SiteId(0), 10.0); // hopelessly undersized
        let mut c = Controller::new(ControlConfig::default(), plan, &sites());
        let rep = c.step(&t, &demand(), None);
        assert!(rep.overrides.is_empty());
        assert_eq!(rep.moves, 0);
        assert!(rep.overload > 0.0, "overload observed but untouched");
    }

    #[test]
    fn shed_moves_the_cheapest_group_to_its_next_candidate() {
        let t = table();
        let mut plan = CapacityPlan::new();
        // Site 0 holds one group comfortably, not two.
        plan.set(SiteId(0), 120.0);
        let mut c = Controller::new(shed_cfg(), plan, &sites());
        let rep = c.step(&t, &demand(), None);
        assert_eq!(
            rep.moves, 1,
            "80 excess < one group's 100 — one move suffices"
        );
        assert_eq!(rep.overload, 0.0, "water level reached");
        // Ties broken by key: group 0 moves first.
        assert_eq!(
            rep.overrides.get(&GroupKey::Ldns(LdnsId(0))),
            Some(&Target::Anycast)
        );
        // The moved load landed on the catchment.
        assert_eq!(rep.loads[&SiteId(2)], 100.0);
        assert_eq!(rep.loads[&SiteId(0)], 100.0);
        // Inflation is the score delta times the moved queries.
        assert!((rep.inflation_ms_sum - 100.0 * 50.0).abs() < 1e-9);
    }

    #[test]
    fn cooldown_holds_groups_before_restore() {
        let t = table();
        let mut plan = CapacityPlan::new();
        plan.set(SiteId(0), 120.0);
        let mut c = Controller::new(shed_cfg(), plan, &sites());
        let d = demand();
        let rep = c.step(&t, &d, None);
        assert_eq!(rep.moves, 1);

        // Overload gone: nothing moves, but the demoted group must wait
        // out its cooldown before climbing back.
        let rep2 = c.step(&t, &d, None);
        assert_eq!((rep2.moves, rep2.restored), (0, 0), "frozen by cooldown");
        assert_eq!(rep2.overrides.len(), 1);

        // Cooldown (2 epochs) expired — but restoring would re-saturate
        // site 0 (200 > 120×0.9), so the group stays demoted: no flap.
        let rep3 = c.step(&t, &d, None);
        assert_eq!(rep3.restored, 0, "restore must not recreate the overload");
        assert_eq!(rep3.overrides.len(), 1);
    }

    #[test]
    fn restore_fires_once_headroom_returns() {
        let t = table();
        let mut plan = CapacityPlan::new();
        plan.set(SiteId(0), 120.0);
        let mut c = Controller::new(shed_cfg(), plan, &sites());
        let busy = demand();
        c.step(&t, &busy, None);

        // Demand collapses: group 1 leaves, group 0 shrinks to 40.
        let mut quiet = EpochDemand::default();
        let g = GroupEpoch {
            queries: 40,
            vip_by_site: [(SiteId(2), 40)].into(),
        };
        quiet.groups.insert(GroupKey::Ldns(LdnsId(0)), g);

        let r1 = c.step(&t, &quiet, None); // cooldown 2 → 1
        assert_eq!(r1.restored, 0);
        let r2 = c.step(&t, &quiet, None); // cooldown expired
        assert_eq!(r2.restored, 1, "40 ≤ 0.9 × 120: back to rank 0");
        assert!(r2.overrides.is_empty());
        assert_eq!(r2.loads[&SiteId(0)], 40.0);
        assert_eq!(r2.inflation_ms_sum, 0.0);
    }

    #[test]
    fn measured_loads_drive_detection() {
        let t = table();
        let mut plan = CapacityPlan::new();
        plan.set(SiteId(0), 120.0);
        let mut c = Controller::new(shed_cfg(), plan, &sites());
        // The live feed says site 0 carries 200 — same decision as the
        // projection would make.
        let mut measured = BTreeMap::new();
        measured.insert(SiteId(0), 200.0);
        measured.insert(SiteId(1), 30.0);
        let rep = c.step(&t, &demand(), Some(&measured));
        assert_eq!(rep.moves, 1);
        assert!(rep.changed);
    }

    #[test]
    fn steps_are_deterministic() {
        let t = table();
        let run = || {
            let mut plan = CapacityPlan::new();
            plan.set(SiteId(0), 120.0);
            let mut c = Controller::new(shed_cfg(), plan, &sites());
            (0..5)
                .map(|_| c.step(&t, &demand(), None))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
