//! Property tests for the site-load model: the spill and the withdrawal
//! must hold their invariants under arbitrary fleets.

use std::collections::BTreeMap;

use anycast_control::capacity::withdraw;
use anycast_control::CapacityPlan;
use anycast_geo::GeoPoint;
use anycast_netsim::SiteId;
use proptest::prelude::*;

type Loads = BTreeMap<SiteId, f64>;

/// A fleet strung along the equator from `(load, capacity)` pairs.
fn fleet(sites: &[(f64, f64)]) -> (Loads, BTreeMap<SiteId, GeoPoint>, CapacityPlan) {
    let mut plan = CapacityPlan::new();
    let mut loads = Loads::new();
    let mut locations = BTreeMap::new();
    for (i, &(load, capacity)) in sites.iter().enumerate() {
        let site = SiteId(i as u16);
        plan.set(site, capacity);
        loads.insert(site, load);
        locations.insert(site, GeoPoint::new(0.0, (i as f64 * 17.0) % 360.0 - 180.0));
    }
    (loads, locations, plan)
}

proptest! {
    #[test]
    fn shedding_never_overloads_a_destination(
        sites in prop::collection::vec((0.0..500.0f64, 1.0..300.0f64), 1..20)
    ) {
        let (before, locations, plan) = fleet(&sites);
        let mut after = before.clone();
        let shed = plan.spill(&mut after, &locations);
        // Load is conserved.
        let before_total: f64 = before.values().sum();
        let after_total: f64 = after.values().sum();
        prop_assert!((before_total - after_total).abs() < 1e-6);
        // No healthy site was pushed over capacity.
        for (s, &l) in &after {
            if plan.excess(*s, before[s]) == 0.0 {
                prop_assert!(l <= plan.get(*s) + 1e-6, "{s:?} overloaded by shedding");
            }
        }
        // Shedding never increases total overload.
        prop_assert!(plan.overload(&after) <= plan.overload(&before) + 1e-6);
        // Sheds are positive and come off existing sites.
        for (s, &amount) in &shed {
            prop_assert!(amount > 0.0);
            prop_assert!(before.contains_key(s));
        }
    }

    #[test]
    fn spill_never_sheds_more_than_the_overload(
        sites in prop::collection::vec((0.0..500.0f64, 1.0..300.0f64), 1..20)
    ) {
        // The controller turns each shed amount into a quota of group
        // moves off that site: a quota above the overload would push
        // healthy load away.
        let (before, locations, plan) = fleet(&sites);
        let mut after = before.clone();
        let shed = plan.spill(&mut after, &locations);
        for (s, &amount) in &shed {
            let overload = plan.excess(*s, before[s]);
            prop_assert!(amount <= overload + 1e-9 * overload.max(1.0), "{s:?} shed {amount} > {overload}");
            prop_assert!((before[s] - after[s] - amount).abs() < 1e-6);
        }
    }

    #[test]
    fn withdrawal_conserves_load(
        sites in prop::collection::vec((0.0..500.0f64, 1.0..300.0f64), 2..20),
        victim in 0usize..20,
    ) {
        let (before, locations, _) = fleet(&sites);
        let victim = SiteId((victim % sites.len()) as u16);
        let mut after = before.clone();
        withdraw(&mut after, &locations, victim);
        let before_total: f64 = before.values().sum();
        let after_total: f64 = after.values().sum();
        prop_assert!((before_total - after_total).abs() < 1e-6);
        prop_assert!(!after.contains_key(&victim));
        // Exactly one surviving site took the whole load.
        let grown = after.iter().filter(|&(s, &l)| l != before[s]).count();
        prop_assert!(grown <= 1);
    }
}
