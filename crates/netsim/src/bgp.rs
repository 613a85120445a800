//! BGP-style route selection on the client side.
//!
//! The defining property of anycast (§2) is that the client→front-end
//! mapping is "at the mercy of Internet routing protocols". This module
//! implements that mercy: given a client's AS and attachment metro, it
//! decides where the client's traffic *enters the CDN* — without ever
//! consulting latency, exactly like real BGP.
//!
//! Selection order mirrors the standard decision process, reduced to the
//! mechanisms the paper implicates:
//!
//! 1. **Local preference**: a route learned over direct peering beats a
//!    route via transit (shorter AS path too, so both classic criteria
//!    agree).
//! 2. **Intradomain (hot-potato) tie-break**: among equally-preferred
//!    egresses, the ISP picks the one cheapest *for itself* — nearest to the
//!    client attachment — unless its [`EgressPolicy`] pins a fixed egress.
//! 3. **Churn**: the day's rank under the churn law
//!    ([`selection_rank`](crate::worldgen::dynamics::selection_rank)) can
//!    demote the best candidate to the runner-up, modelling tie-break flips
//!    from config pushes.

use anycast_geo::MetroId;

use crate::ids::{AsId, BorderId};
use crate::topology::Topology;

/// How an eyeball AS chooses among multiple egress points towards the CDN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EgressPolicy {
    /// Hand traffic off at the egress nearest to the client attachment —
    /// the ISP-cost-minimizing default.
    HotPotato,
    /// All CDN traffic leaves at one fixed border regardless of where the
    /// client is — the paper's "ISP carrying traffic from a client in
    /// Denver to Phoenix" pathology.
    FixedEgress(BorderId),
}

/// Where the client's traffic enters the CDN, and how it got there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgressDecision {
    /// CDN border router where traffic ingresses.
    pub ingress: BorderId,
    /// Transit provider carrying the traffic, if the route is not direct
    /// peering.
    pub via_transit: Option<AsId>,
    /// Metro where the client's ISP hands traffic to the transit provider
    /// (`None` for direct peering).
    pub handoff_metro: Option<MetroId>,
}

/// Selects the CDN ingress for the **anycast** prefix, which every border
/// router announces except the ones in `withdrawn` (their colocated
/// front-ends are down, see [`crate::outage::OutageModel`]). `rank` is the
/// churn-model selection rank in force (0 = the ISP's preferred candidate,
/// 1 = the runner-up after a tie-break flip); callers obtain it from
/// [`crate::worldgen::dynamics::selection_rank`].
///
/// Every route learned through a withdrawn border is gone from the
/// candidate set, so selection runs over what remains — the BGP
/// re-resolution that gives anycast its automatic failover (§2). Corner
/// cases follow BGP semantics: a [`EgressPolicy::FixedEgress`] AS whose
/// pinned border is withdrawn has no route over that session and falls back
/// to hot-potato over its remaining peerings (or transit); a transit
/// provider whose peerings are all withdrawn delivers at the nearest
/// still-announcing border.
pub fn select_anycast_ingress(
    topo: &Topology,
    rank: usize,
    as_id: AsId,
    client_metro: MetroId,
    withdrawn: &[BorderId],
) -> EgressDecision {
    let live = |b: &BorderId| !withdrawn.contains(b);
    let eyeball = topo.eyeball(as_id);
    if eyeball.peering_borders.iter().any(live) {
        // Direct peering wins on local-pref and AS-path length.
        let ingress = match eyeball.egress_policy {
            EgressPolicy::FixedEgress(b) if live(&b) => b,
            // Hot potato, or a pinned egress that lost its route: the
            // nearest surviving direct peering.
            _ => rank_by_distance(topo, eyeball.peering_borders, live, client_metro, rank),
        };
        return EgressDecision {
            ingress,
            via_transit: None,
            handoff_metro: None,
        };
    }
    // Transit only, or no surviving direct peering: churn may flip the
    // provider choice.
    let provider_idx = rank % eyeball.transit.len();
    let provider = topo.transit(eyeball.transit[provider_idx]);
    let handoff = nearest_metro(topo, &provider.pops, client_metro);
    // The transit provider is itself hot-potato: it exits at its peering
    // point nearest the handoff.
    let ingress = if provider.peering_borders.iter().any(live) {
        rank_by_distance(topo, &provider.peering_borders, live, handoff, 0)
    } else {
        // The provider hears the announcement from other ASes even where it
        // does not peer directly; deliver at the nearest live border of the
        // CDN overall. (Reachable only in worlds where almost every border
        // is withdrawn.)
        let borders: Vec<BorderId> = topo.cdn.border_ids().collect();
        rank_by_distance(topo, &borders, live, handoff, 0)
    };
    EgressDecision {
        ingress,
        via_transit: Some(provider.id),
        handoff_metro: Some(handoff),
    }
}

/// Selects the CDN ingress for a **unicast** per-site prefix, which only the
/// border router colocated with the site announces (§3.1). The client's ISP
/// hears it over direct peering only if it peers at exactly that border;
/// otherwise the route arrives via transit. Either way traffic ingresses
/// near the front-end, which is the property the paper's measurement design
/// relies on.
pub fn select_unicast_ingress(
    topo: &Topology,
    rank: usize,
    as_id: AsId,
    client_metro: MetroId,
    announcement: BorderId,
) -> EgressDecision {
    let eyeball = topo.eyeball(as_id);
    if eyeball.peering_borders.contains(&announcement) {
        return EgressDecision {
            ingress: announcement,
            via_transit: None,
            handoff_metro: None,
        };
    }
    // Via transit. Provider choice matches the anycast rank so a churn flip
    // moves both routes coherently.
    let provider_idx = rank % eyeball.transit.len();
    let provider = topo.transit(eyeball.transit[provider_idx]);
    let handoff = nearest_metro(topo, &provider.pops, client_metro);
    // The transit provider delivers to the announcement border if it peers
    // there, else to its own peering point nearest the announcement.
    let ingress = if provider.peering_borders.contains(&announcement) {
        announcement
    } else {
        let target = topo.cdn.border_metro(announcement);
        rank_by_distance(topo, &provider.peering_borders, |_| true, target, 0)
    };
    EgressDecision {
        ingress,
        via_transit: Some(provider.id),
        handoff_metro: Some(handoff),
    }
}

/// The candidate at `rank` when the `live` borders among `candidates` are
/// sorted by distance from `from_metro` (rank clamped to the live count).
/// Deterministic tie-break on border id.
fn rank_by_distance(
    topo: &Topology,
    candidates: &[BorderId],
    live: impl Fn(&BorderId) -> bool,
    from_metro: MetroId,
    rank: usize,
) -> BorderId {
    let mut ranked: Vec<(BorderId, f64)> = Vec::with_capacity(candidates.len());
    ranked.extend(candidates.iter().filter(|b| live(b)).map(|&b| {
        let km = topo.atlas.metro_km(topo.cdn.border_metro(b), from_metro);
        (b, km)
    }));
    debug_assert!(!ranked.is_empty(), "all anycast announcements withdrawn");
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    ranked[rank.min(ranked.len() - 1)].0
}

/// The metro in `metros` nearest to `from_metro`.
fn nearest_metro(topo: &Topology, metros: &[MetroId], from_metro: MetroId) -> MetroId {
    debug_assert!(!metros.is_empty());
    let km = |m: MetroId| topo.atlas.metro_km(m, from_metro);
    *metros
        .iter()
        .min_by(|a, b| km(**a).total_cmp(&km(**b)).then(a.cmp(b)))
        .expect("non-empty metro list")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;

    fn world() -> Topology {
        Topology::generate(&NetConfig::small(), 42)
    }

    fn some_peered_as(topo: &Topology) -> AsId {
        topo.eyeballs()
            .find(|e| {
                e.peering_borders.len() > 1 && matches!(e.egress_policy, EgressPolicy::HotPotato)
            })
            .expect("a multi-homed hot-potato AS exists")
            .id
    }

    fn some_transit_only_as(topo: &Topology) -> AsId {
        topo.eyeballs()
            .find(|e| e.is_transit_only())
            .expect("a transit-only AS exists")
            .id
    }

    #[test]
    fn direct_peering_avoids_transit() {
        let topo = world();
        let as_id = some_peered_as(&topo);
        let metro = topo.eyeball(as_id).home_metro;
        let d = select_anycast_ingress(&topo, 0, as_id, metro, &[]);
        assert!(d.via_transit.is_none());
        assert!(d.handoff_metro.is_none());
        assert!(topo.eyeball(as_id).peering_borders.contains(&d.ingress));
    }

    #[test]
    fn hot_potato_rank0_picks_nearest_egress() {
        let topo = world();
        let as_id = some_peered_as(&topo);
        let e = topo.eyeball(as_id);
        let metro = e.home_metro;
        let d = select_anycast_ingress(&topo, 0, as_id, metro, &[]);
        let from = topo.atlas.metro(metro).location();
        let chosen_d = topo
            .atlas
            .metro(topo.cdn.border_metro(d.ingress))
            .location()
            .haversine_km(&from);
        for &b in e.peering_borders {
            let alt = topo
                .atlas
                .metro(topo.cdn.border_metro(b))
                .location()
                .haversine_km(&from);
            assert!(chosen_d <= alt + 1e-9);
        }
    }

    #[test]
    fn rank1_selects_runner_up() {
        let topo = world();
        let as_id = some_peered_as(&topo);
        let metro = topo.eyeball(as_id).home_metro;
        let best = select_anycast_ingress(&topo, 0, as_id, metro, &[]);
        let second = select_anycast_ingress(&topo, 1, as_id, metro, &[]);
        assert_ne!(best.ingress, second.ingress);
        // The runner-up is farther (or equal) by construction.
        let from = topo.atlas.metro(metro).location();
        let d0 = topo
            .atlas
            .metro(topo.cdn.border_metro(best.ingress))
            .location()
            .haversine_km(&from);
        let d1 = topo
            .atlas
            .metro(topo.cdn.border_metro(second.ingress))
            .location()
            .haversine_km(&from);
        assert!(d1 >= d0);
    }

    #[test]
    fn huge_rank_clamps_to_worst_candidate() {
        let topo = world();
        let as_id = some_peered_as(&topo);
        let metro = topo.eyeball(as_id).home_metro;
        let n = topo.eyeball(as_id).peering_borders.len();
        let clamped = select_anycast_ingress(&topo, 999, as_id, metro, &[]);
        let last = select_anycast_ingress(&topo, n - 1, as_id, metro, &[]);
        assert_eq!(clamped.ingress, last.ingress);
    }

    #[test]
    fn fixed_egress_ignores_client_location_and_rank() {
        let topo = world();
        let Some(e) = topo
            .eyeballs()
            .find(|e| matches!(e.egress_policy, EgressPolicy::FixedEgress(_)))
        else {
            // Small worlds may not roll a fixed-egress AS; the default world
            // test in topology.rs guarantees they exist at scale.
            return;
        };
        let EgressPolicy::FixedEgress(pinned) = e.egress_policy else {
            unreachable!()
        };
        for &m in e.pops {
            for rank in 0..2 {
                let d = select_anycast_ingress(&topo, rank, e.id, m, &[]);
                assert_eq!(d.ingress, pinned);
            }
        }
    }

    #[test]
    fn transit_only_goes_via_provider() {
        let topo = world();
        let as_id = some_transit_only_as(&topo);
        let metro = topo.eyeball(as_id).home_metro;
        let d = select_anycast_ingress(&topo, 0, as_id, metro, &[]);
        let provider = d.via_transit.expect("must use transit");
        assert!(topo.eyeball(as_id).transit.contains(&provider));
        let handoff = d.handoff_metro.expect("handoff recorded");
        assert!(topo.transit(provider).pops.contains(&handoff));
        assert!(topo.transit(provider).peering_borders.contains(&d.ingress));
    }

    #[test]
    fn unicast_ingresses_at_announcement_when_peered_there() {
        let topo = world();
        // Find an AS that peers at some site-colocated border.
        for e in topo.eyeballs() {
            for &b in e.peering_borders {
                if let Some(site) = topo.cdn.borders[b.0 as usize].colocated_site {
                    let ann = topo.cdn.unicast_announcement_border(site);
                    assert_eq!(ann, b);
                    let d = select_unicast_ingress(&topo, 0, e.id, e.home_metro, ann);
                    assert_eq!(d.ingress, ann);
                    assert!(d.via_transit.is_none());
                    return;
                }
            }
        }
        panic!("no AS peers at any site border in this world");
    }

    #[test]
    fn unicast_via_transit_targets_announcement() {
        let topo = world();
        let as_id = some_transit_only_as(&topo);
        let metro = topo.eyeball(as_id).home_metro;
        let site = topo.cdn.site_ids().next().unwrap();
        let ann = topo.cdn.unicast_announcement_border(site);
        let d = select_unicast_ingress(&topo, 0, as_id, metro, ann);
        let provider = d.via_transit.expect("transit-only must use transit");
        if topo.transit(provider).peering_borders.contains(&ann) {
            assert_eq!(d.ingress, ann);
        } else {
            assert!(topo.transit(provider).peering_borders.contains(&d.ingress));
        }
    }

    /// Withdrawing a border the rank-0 selection does not use changes
    /// nothing: the selection is the best of what remains.
    #[test]
    fn avoiding_nothing_matches_plain_selection() {
        let topo = world();
        for e in topo.eyeballs() {
            let plain = select_anycast_ingress(&topo, 0, e.id, e.home_metro, &[]);
            for b in topo.cdn.border_ids().filter(|&b| b != plain.ingress) {
                let avoid = select_anycast_ingress(&topo, 0, e.id, e.home_metro, &[b]);
                assert_eq!(plain, avoid, "AS {:?} withdrawing {b:?}", e.id);
            }
        }
    }

    #[test]
    fn withdrawn_border_is_never_selected() {
        let topo = world();
        for e in topo.eyeballs() {
            let plain = select_anycast_ingress(&topo, 0, e.id, e.home_metro, &[]);
            let withdrawn = [plain.ingress];
            let moved = select_anycast_ingress(&topo, 0, e.id, e.home_metro, &withdrawn);
            assert_ne!(moved.ingress, plain.ingress, "AS {:?}", e.id);
        }
    }

    #[test]
    fn fixed_egress_falls_back_when_pinned_border_withdrawn() {
        let topo = world();
        let Some(e) = topo
            .eyeballs()
            .find(|e| matches!(e.egress_policy, EgressPolicy::FixedEgress(_)))
        else {
            return;
        };
        let EgressPolicy::FixedEgress(pinned) = e.egress_policy else {
            unreachable!()
        };
        let d = select_anycast_ingress(&topo, 0, e.id, e.home_metro, &[pinned]);
        assert_ne!(d.ingress, pinned);
    }

    /// `rank_by_distance` as it stood before the metro distance table:
    /// great-circle trigonometry per candidate. Kept verbatim as the
    /// reference the tabulated ranker is checked against.
    fn parent_rank_by_distance(
        topo: &Topology,
        candidates: &[BorderId],
        from_metro: MetroId,
        rank: usize,
    ) -> BorderId {
        let from = topo.atlas.metro(from_metro).location();
        let mut ranked: Vec<(BorderId, f64)> = candidates
            .iter()
            .map(|&b| {
                let loc = topo.atlas.metro(topo.cdn.border_metro(b)).location();
                (b, loc.haversine_km(&from))
            })
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        ranked[rank.min(ranked.len() - 1)].0
    }

    /// `nearest_metro` as it stood before the metro distance table.
    fn parent_nearest_metro(topo: &Topology, metros: &[MetroId], from_metro: MetroId) -> MetroId {
        let from = topo.atlas.metro(from_metro).location();
        *metros
            .iter()
            .min_by(|a, b| {
                topo.atlas
                    .metro(**a)
                    .location()
                    .haversine_km(&from)
                    .total_cmp(&topo.atlas.metro(**b).location().haversine_km(&from))
                    .then(a.cmp(b))
            })
            .expect("non-empty metro list")
    }

    #[test]
    fn ranker_agrees_with_the_parent_bodies_over_every_list_metro_and_rank() {
        let policy = NetConfig {
            worldgen: Some(crate::worldgen::WorldGenConfig::with_ases(1_000)),
            ..NetConfig::small()
        };
        for topo in [world(), crate::worldgen::build(&policy, 42).0] {
            // Every distinct list the selection functions can be handed.
            let mut border_lists: Vec<Vec<BorderId>> = topo
                .eyeballs()
                .map(|e| e.peering_borders.to_vec())
                .chain(topo.transits.iter().map(|t| t.peering_borders.clone()))
                .chain([topo.cdn.border_ids().collect()])
                .filter(|l| !l.is_empty())
                .collect();
            border_lists.sort();
            border_lists.dedup();
            let mut metro_lists: Vec<Vec<MetroId>> = topo
                .eyeballs()
                .map(|e| e.pops.to_vec())
                .chain(topo.transits.iter().map(|t| t.pops.clone()))
                .filter(|l| !l.is_empty())
                .collect();
            metro_lists.sort();
            metro_lists.dedup();
            assert!(border_lists.len() > 10 && metro_lists.len() > 10);
            for (from, _) in topo.atlas.iter() {
                for list in &border_lists {
                    // One past the end exercises the clamp.
                    for rank in 0..=list.len() {
                        assert_eq!(
                            rank_by_distance(&topo, list, |_| true, from, rank),
                            parent_rank_by_distance(&topo, list, from, rank),
                            "{list:?} from {from} at rank {rank}"
                        );
                    }
                }
                for list in &metro_lists {
                    assert_eq!(
                        nearest_metro(&topo, list, from),
                        parent_nearest_metro(&topo, list, from),
                        "{list:?} from {from}"
                    );
                }
            }
        }
    }

    #[test]
    fn selection_is_pure() {
        let topo = world();
        let as_id = some_peered_as(&topo);
        let metro = topo.eyeball(as_id).home_metro;
        let first = topo.eyeball(as_id).peering_borders[0];
        for withdrawn in [&[][..], &[first]] {
            for rank in 0..3 {
                let a = select_anycast_ingress(&topo, rank, as_id, metro, withdrawn);
                let b = select_anycast_ingress(&topo, rank, as_id, metro, withdrawn);
                assert_eq!(a, b);
            }
        }
    }
}
