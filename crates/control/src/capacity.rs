//! Per-site capacity models, and the one site-load model the workspace
//! plans against.
//!
//! §2 of the paper: "anycast is unaware of server load". The control
//! plane's first ingredient is making load *visible*: every front-end
//! site gets a capacity budget in queries per control epoch. Sites with
//! no configured budget are uncapacitated (`+inf`) — the plan stays
//! byte-for-byte inert until an operator actually sets a number, which
//! is what keeps the control plane's knobs-off default exactly today's
//! behaviour.
//!
//! Load is a `BTreeMap<SiteId, f64>` read against a [`CapacityPlan`].
//! Two answers to an overloaded site act on it, so §2's claim can be
//! tested: [`CapacityPlan::spill`], gradual DNS-driven shedding that
//! moves just the excess to the nearest sites with headroom, and
//! [`withdraw`], the route withdrawal that dumps a site's whole load on
//! its nearest neighbour and lets the cascade happen.

use std::collections::BTreeMap;

use anycast_geo::GeoPoint;
use anycast_netsim::SiteId;

/// Capacity budgets for the front-end fleet, in answered queries per
/// control epoch.
///
/// [`CapacityPlan::set`] sanitizes degenerate budgets on entry: `NaN` and
/// negative values become `0.0` (a site that can hold nothing, so all of
/// its load is overload and it never accepts spill), and `+inf` means
/// uncapacitated. Unlisted sites are uncapacitated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityPlan {
    caps: BTreeMap<SiteId, f64>,
}

impl CapacityPlan {
    /// An empty plan: every site uncapacitated, the control plane inert.
    pub fn new() -> CapacityPlan {
        CapacityPlan::default()
    }

    /// Sets one site's budget, sanitizing degenerate values to zero.
    pub fn set(&mut self, site: SiteId, queries_per_epoch: f64) -> &mut Self {
        let cap = if queries_per_epoch.is_nan() || queries_per_epoch < 0.0 {
            0.0
        } else {
            queries_per_epoch
        };
        self.caps.insert(site, cap);
        self
    }

    /// The budget planned against for `site` (`+inf` when unlisted).
    pub fn get(&self, site: SiteId) -> f64 {
        self.caps.get(&site).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether no site has a budget — the inert, knobs-off state.
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Configured budgets, ascending by site id.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, f64)> + '_ {
        self.caps.iter().map(|(&s, &c)| (s, c))
    }

    /// Load above `site`'s budget (zero when healthy).
    pub fn excess(&self, site: SiteId, load: f64) -> f64 {
        (load - self.get(site)).max(0.0)
    }

    /// Σ load above budget over every site — the health metric the
    /// experiments report.
    pub fn overload(&self, loads: &BTreeMap<SiteId, f64>) -> f64 {
        loads.iter().map(|(&s, &l)| self.excess(s, l)).sum()
    }

    /// Gradual shedding: moves each overloaded site's excess to the
    /// nearest sites with headroom, closest first, and returns how much
    /// each source shed. Sources go in ascending id order; equidistant
    /// destinations fill lowest id first.
    ///
    /// A destination is never pushed over its budget, so when the fleet
    /// as a whole is saturated the residual overload stays where it was.
    /// A source never sheds more than its overload, nor more than it
    /// carries.
    pub fn spill(
        &self,
        loads: &mut BTreeMap<SiteId, f64>,
        locations: &BTreeMap<SiteId, GeoPoint>,
    ) -> BTreeMap<SiteId, f64> {
        let sites: Vec<SiteId> = loads.keys().copied().collect();
        let overloaded: Vec<SiteId> = sites
            .iter()
            .copied()
            .filter(|&s| self.excess(s, loads[&s]) > 0.0)
            .collect();
        let mut shed = BTreeMap::new();
        for from in overloaded {
            // A sanitized zero budget makes overload equal load; the
            // clamp keeps a negative load from shedding at all.
            let load = loads[&from];
            let mut left = self.excess(from, load).min(load.max(0.0));
            if left <= 0.0 {
                continue;
            }
            let origin = location(locations, from);
            let mut order: Vec<(f64, SiteId)> = sites
                .iter()
                .filter(|&&s| s != from)
                .map(|&s| (location(locations, s).haversine_km(&origin), s))
                .collect();
            order.sort_by(|a, b| a.0.total_cmp(&b.0));
            for (_, to) in order {
                if left <= 0.0 {
                    break;
                }
                let headroom = (self.get(to) - loads[&to]).max(0.0);
                let take = headroom.min(left);
                if take <= 0.0 {
                    continue;
                }
                *loads.entry(to).or_insert(0.0) += take;
                *loads.entry(from).or_insert(0.0) -= take;
                left -= take;
                *shed.entry(from).or_insert(0.0) += take;
            }
        }
        shed
    }
}

/// Withdraws `site`'s route: the site leaves `loads` and its whole load
/// falls on the nearest remaining site (ties to the lowest id) — BGP
/// moves the traffic wholesale, with no regard for capacity. A site not
/// in `loads` is a no-op.
pub fn withdraw(
    loads: &mut BTreeMap<SiteId, f64>,
    locations: &BTreeMap<SiteId, GeoPoint>,
    site: SiteId,
) {
    let Some(moved) = loads.remove(&site) else {
        return;
    };
    let origin = location(locations, site);
    let nearest = loads
        .keys()
        .map(|&s| (location(locations, s).haversine_km(&origin), s))
        .min_by(|a, b| a.0.total_cmp(&b.0));
    if let Some((_, nearest)) = nearest {
        *loads.entry(nearest).or_insert(0.0) += moved;
    }
}

/// Where `site` is; a site missing from `locations` sits at (0°, 0°).
fn location(locations: &BTreeMap<SiteId, GeoPoint>, site: SiteId) -> GeoPoint {
    locations
        .get(&site)
        .copied()
        .unwrap_or_else(|| GeoPoint::new(0.0, 0.0))
}

/// The site with the largest value, ties to the lowest id (`None` when
/// there are no sites).
pub fn busiest(values: impl IntoIterator<Item = (SiteId, f64)>) -> Option<SiteId> {
    values
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .map(|(s, _)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_budgets_are_sanitized() {
        let mut plan = CapacityPlan::new();
        plan.set(SiteId(0), f64::NAN)
            .set(SiteId(1), -50.0)
            .set(SiteId(2), 100.0);
        assert_eq!(plan.get(SiteId(0)), 0.0);
        assert_eq!(plan.get(SiteId(1)), 0.0);
        assert_eq!(plan.get(SiteId(2)), 100.0);
        assert_eq!(
            plan.get(SiteId(9)),
            f64::INFINITY,
            "unlisted = uncapacitated"
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = CapacityPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.get(SiteId(0)), f64::INFINITY);
        assert_eq!(plan.iter().count(), 0);
    }

    type Loads = BTreeMap<SiteId, f64>;

    /// A fleet on the equator from `(id, longitude, load, capacity)`.
    fn fleet(sites: &[(u16, f64, f64, f64)]) -> (Loads, BTreeMap<SiteId, GeoPoint>, CapacityPlan) {
        let mut plan = CapacityPlan::new();
        for &(id, _, _, capacity) in sites {
            plan.set(SiteId(id), capacity);
        }
        let loads = sites.iter().map(|&(id, _, load, _)| (SiteId(id), load));
        let locations = sites
            .iter()
            .map(|&(id, lon, _, _)| (SiteId(id), GeoPoint::new(0.0, lon)));
        (loads.collect(), locations.collect(), plan)
    }

    #[test]
    fn shedding_clears_overload_when_capacity_exists() {
        let (mut loads, locations, plan) = fleet(&[
            (0, 0.0, 150.0, 100.0), // overloaded by 50
            (1, 5.0, 40.0, 100.0),  // 60 headroom, nearest
            (2, 50.0, 90.0, 100.0), // 10 headroom, far
        ]);
        let shed = plan.spill(&mut loads, &locations);
        assert_eq!(plan.overload(&loads), 0.0);
        assert_eq!(shed, BTreeMap::from([(SiteId(0), 50.0)]));
        // The nearest destination takes all of it.
        assert_eq!(loads[&SiteId(1)], 90.0);
        assert_eq!(loads[&SiteId(2)], 90.0);
    }

    #[test]
    fn shedding_spills_to_second_nearest_when_first_fills() {
        let (mut loads, locations, plan) = fleet(&[
            (0, 0.0, 200.0, 100.0), // overloaded by 100
            (1, 5.0, 70.0, 100.0),  // 30 headroom
            (2, 10.0, 20.0, 100.0), // 80 headroom
        ]);
        let shed = plan.spill(&mut loads, &locations);
        assert_eq!(plan.overload(&loads), 0.0);
        assert_eq!(shed, BTreeMap::from([(SiteId(0), 100.0)]));
        assert_eq!(loads[&SiteId(1)], 100.0, "the nearest fills first");
        assert_eq!(loads[&SiteId(2)], 90.0, "the rest goes one further");
    }

    #[test]
    fn residual_overload_stays_when_system_is_saturated() {
        let (mut loads, locations, plan) = fleet(&[(0, 0.0, 250.0, 100.0), (1, 5.0, 100.0, 100.0)]);
        let shed = plan.spill(&mut loads, &locations);
        assert_eq!(plan.overload(&loads), 150.0);
        assert!(shed.is_empty());
        // The healthy site was not pushed over.
        assert_eq!(loads[&SiteId(1)], 100.0);
    }

    #[test]
    fn withdrawal_cascades_where_shedding_does_not() {
        // The §2 scenario: an overloaded site next to a near-capacity
        // neighbour. Shedding moves only the excess (fits); withdrawal
        // dumps everything (cascades).
        let (loads, locations, plan) = fleet(&[
            (0, 0.0, 120.0, 100.0), // overloaded by 20
            (1, 5.0, 80.0, 100.0),  // 20 headroom — exactly enough
            (2, 90.0, 50.0, 100.0),
        ]);
        let mut shed = loads.clone();
        plan.spill(&mut shed, &locations);
        assert_eq!(plan.overload(&shed), 0.0, "gradual shedding fits");

        let mut withdrawn = loads;
        withdraw(&mut withdrawn, &locations, SiteId(0));
        assert!(!withdrawn.contains_key(&SiteId(0)));
        // The cascade landed on the nearest site.
        assert_eq!(withdrawn[&SiteId(1)], 200.0);
        assert_eq!(plan.overload(&withdrawn), 100.0);
    }

    #[test]
    fn withdraw_unknown_site_is_a_no_op() {
        let (mut loads, locations, _) = fleet(&[(0, 0.0, 10.0, 100.0)]);
        let before = loads.clone();
        withdraw(&mut loads, &locations, SiteId(9));
        assert_eq!(loads, before);
    }

    #[test]
    fn degenerate_capacities_are_guarded() {
        let mut plan = CapacityPlan::new();
        plan.set(SiteId(0), f64::NAN)
            .set(SiteId(1), -100.0)
            .set(SiteId(2), 0.0)
            .set(SiteId(3), f64::INFINITY);
        // NaN and negative budgets hold nothing, like a dead (zero) site.
        for nothing in [0, 1, 2] {
            assert_eq!(plan.excess(SiteId(nothing), 50.0), 50.0);
        }
        // Infinite capacity is legitimately uncapacitated.
        assert_eq!(plan.excess(SiteId(3), 50.0), 0.0);
        // Without sanitizing, a NaN budget would hide all overload.
        let loads = BTreeMap::from([(SiteId(0), 50.0), (SiteId(3), 50.0)]);
        assert_eq!(plan.overload(&loads), 50.0);
    }

    #[test]
    fn spill_survives_degenerate_sites() {
        let (mut loads, locations, plan) = fleet(&[
            (0, 0.0, 150.0, f64::NAN),      // everything must leave
            (1, 5.0, 40.0, -10.0),          // negative: sheds all, takes none
            (2, 10.0, 20.0, 400.0),         // the only real destination
            (3, 15.0, 30.0, f64::INFINITY), // uncapacitated destination
        ]);
        let shed = plan.spill(&mut loads, &locations);
        for (&s, &l) in &loads {
            assert!(l.is_finite(), "no NaN/inf loads: {s:?} {l}");
            assert!(l >= -1e-9, "no negative loads: {s:?} {l}");
            let cap = plan.get(s);
            assert!(
                l <= cap + 1e-9 || cap == 0.0,
                "destination overloaded: {s:?} {l}"
            );
        }
        assert_eq!(plan.overload(&loads), 0.0);
        assert_eq!(
            shed,
            BTreeMap::from([(SiteId(0), 150.0), (SiteId(1), 40.0)])
        );
        // Degenerate-capacity sites shed everything and receive nothing.
        assert_eq!(loads[&SiteId(0)], 0.0);
        assert_eq!(loads[&SiteId(1)], 0.0);
    }

    #[test]
    fn negative_capacity_never_drives_load_negative() {
        let (mut loads, locations, plan) = fleet(&[(0, 0.0, 50.0, -1000.0), (1, 5.0, 0.0, 1000.0)]);
        let shed = plan.spill(&mut loads, &locations);
        // Overload reads 50 (not 1050): exactly the carried load moves.
        assert_eq!(shed, BTreeMap::from([(SiteId(0), 50.0)]));
        assert_eq!(loads[&SiteId(0)], 0.0);
        assert_eq!(loads[&SiteId(1)], 50.0);
    }

    #[test]
    fn busiest_breaks_ties_to_the_lowest_id() {
        // Two sites carry the same traffic: the lower id is the busiest,
        // whatever order the values arrive in.
        let tied = [(SiteId(7), 300.0), (SiteId(2), 300.0), (SiteId(4), 100.0)];
        assert_eq!(busiest(tied), Some(SiteId(2)));
        assert_eq!(busiest(tied.into_iter().rev()), Some(SiteId(2)));
        assert_eq!(busiest([]), None);
    }
}
