//! The CDN's intradomain routing: ingress border → front-end selection.
//!
//! Once anycast traffic enters the CDN at a border router, "intradomain
//! policy then directs the client's request to the front-end nearest to the
//! peering point, not to the client" (§5). *Nearest* is in IGP cost, not
//! geography: the paper's first case study is a border router whose internal
//! route to the geographically nearest front-end is long, so a different
//! front-end wins.
//!
//! IGP cost here is geographic distance times a per-`(border, site)`
//! multiplier from the topology (1.0 normally; inflated for a
//! [`P_IGP_INFLATED`](crate::topology::P_IGP_INFLATED) share of
//! peering-only borders).

use crate::ids::{BorderId, SiteId};
use crate::topology::Topology;

/// IGP cost from a border router to a front-end site.
pub fn igp_cost(topo: &Topology, border: BorderId, site: SiteId) -> f64 {
    let km = topo
        .atlas
        .metro_km(topo.cdn.border_metro(border), topo.cdn.site_metro(site));
    km * topo.cdn.igp_multiplier[border.0 as usize][site.0 as usize]
}

/// The `rank`-th best live front-end by IGP cost from `border`, ties
/// broken by site id (deterministic). Rank 0 is normal selection; rank 1 is
/// the runner-up a maintenance episode diverts to; ranks past the end clamp
/// to the last live site. The sites in `down` are out of service (crashed
/// or drained, see [`crate::outage::OutageModel`]): the CDN's IGP simply
/// stops advertising internal routes to a dead site, so the next-cheapest
/// live site wins. `None` only when *every* site is down.
pub fn select_site(
    topo: &Topology,
    border: BorderId,
    rank: usize,
    down: &[SiteId],
) -> Option<SiteId> {
    // A live colocated site always wins normal selection: zero distance.
    if rank == 0 {
        let colocated = topo.cdn.borders[border.0 as usize].colocated_site;
        if let Some(site) = colocated.filter(|s| !down.contains(s)) {
            return Some(site);
        }
    }
    let mut ranked: Vec<SiteId> = Vec::with_capacity(topo.cdn.sites.len());
    ranked.extend(topo.cdn.site_ids().filter(|s| !down.contains(s)));
    ranked.sort_by(|a, b| {
        igp_cost(topo, border, *a)
            .total_cmp(&igp_cost(topo, border, *b))
            .then(a.cmp(b))
    });
    let last = ranked.len().checked_sub(1)?;
    Some(ranked[rank.min(last)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;

    #[test]
    fn ranked_selection_is_ordered_and_distinct() {
        let topo = Topology::generate(&NetConfig::small(), 9);
        for b in topo.cdn.border_ids() {
            let first = select_site(&topo, b, 0, &[]);
            let second = select_site(&topo, b, 1, &[]);
            assert_ne!(first, second, "runner-up must differ");
            // Huge ranks clamp instead of panicking.
            let last = select_site(&topo, b, 10_000, &[]).unwrap();
            assert!(topo.cdn.site_ids().any(|s| s == last));
        }
    }

    #[test]
    fn avoiding_skips_down_sites() {
        let topo = Topology::generate(&NetConfig::small(), 9);
        let all: Vec<SiteId> = topo.cdn.site_ids().collect();
        for b in topo.cdn.border_ids() {
            for rank in 0..2 {
                // The selected site goes down: another site wins.
                let normal = select_site(&topo, b, rank, &[]).unwrap();
                assert_ne!(select_site(&topo, b, rank, &[normal]), Some(normal));
                // Everything down: nothing to serve from.
                assert_eq!(select_site(&topo, b, rank, &all), None);
            }
        }
    }

    /// `igp_cost` and the ranked and down-avoiding site selections as they
    /// stood before the metro distance table: great-circle trigonometry
    /// inside the sort comparator. Kept verbatim as the reference the
    /// tabulated selection is checked against.
    fn parent_igp_cost(topo: &Topology, border: BorderId, site: SiteId) -> f64 {
        let b = topo.atlas.metro(topo.cdn.border_metro(border)).location();
        let s = topo.atlas.metro(topo.cdn.site_metro(site)).location();
        let mult = topo.cdn.igp_multiplier[border.0 as usize][site.0 as usize];
        b.haversine_km(&s) * mult
    }

    fn parent_select_site_ranked(topo: &Topology, border: BorderId, rank: usize) -> SiteId {
        if rank == 0 {
            if let Some(site) = topo.cdn.borders[border.0 as usize].colocated_site {
                return site;
            }
        }
        let mut ranked: Vec<SiteId> = topo.cdn.site_ids().collect();
        ranked.sort_by(|a, b| {
            parent_igp_cost(topo, border, *a)
                .total_cmp(&parent_igp_cost(topo, border, *b))
                .then(a.cmp(b))
        });
        ranked[rank.min(ranked.len() - 1)]
    }

    fn parent_select_site_avoiding(
        topo: &Topology,
        border: BorderId,
        rank: usize,
        down: &[SiteId],
    ) -> Option<SiteId> {
        if down.is_empty() {
            return Some(parent_select_site_ranked(topo, border, rank));
        }
        if rank == 0 {
            if let Some(site) = topo.cdn.borders[border.0 as usize].colocated_site {
                if !down.contains(&site) {
                    return Some(site);
                }
            }
        }
        let mut ranked: Vec<SiteId> = topo.cdn.site_ids().filter(|s| !down.contains(s)).collect();
        if ranked.is_empty() {
            return None;
        }
        ranked.sort_by(|a, b| {
            parent_igp_cost(topo, border, *a)
                .total_cmp(&parent_igp_cost(topo, border, *b))
                .then(a.cmp(b))
        });
        Some(ranked[rank.min(ranked.len() - 1)])
    }

    fn is_inflated(topo: &Topology, b: BorderId) -> bool {
        topo.cdn.igp_multiplier[b.0 as usize]
            .iter()
            .any(|&m| m != 1.0)
    }

    /// The first default-sized world, by seed, with an inflated border.
    fn inflated_world() -> Topology {
        (0..)
            .map(|seed| Topology::generate(&NetConfig::default(), seed))
            .find(|t| t.cdn.border_ids().any(|b| is_inflated(t, b)))
            .expect("some seed inflates a border")
    }

    fn geo_nearest(topo: &Topology, b: BorderId) -> SiteId {
        let bloc = topo.atlas.metro(topo.cdn.border_metro(b)).location();
        let km = |s: SiteId| {
            topo.atlas
                .metro(topo.cdn.site_metro(s))
                .location()
                .haversine_km(&bloc)
        };
        topo.cdn
            .site_ids()
            .min_by(|x, y| km(*x).total_cmp(&km(*y)).then(x.cmp(y)))
            .unwrap()
    }

    #[test]
    fn site_selection_agrees_with_the_parent_bodies_over_every_border_rank_and_down_site() {
        let policy = NetConfig {
            worldgen: Some(crate::worldgen::WorldGenConfig::with_ases(1_000)),
            ..NetConfig::small()
        };
        for topo in [
            Topology::generate(&NetConfig::small(), 9),
            inflated_world(),
            crate::worldgen::build(&policy, 9).0,
        ] {
            let n_sites = topo.cdn.sites.len();
            for b in topo.cdn.border_ids() {
                for s in topo.cdn.site_ids() {
                    assert_eq!(
                        igp_cost(&topo, b, s).to_bits(),
                        parent_igp_cost(&topo, b, s).to_bits()
                    );
                }
                // One past the end exercises the clamp.
                for rank in 0..=n_sites {
                    assert_eq!(
                        select_site(&topo, b, rank, &[]),
                        Some(parent_select_site_ranked(&topo, b, rank)),
                        "border {b:?} rank {rank}"
                    );
                    for down in topo.cdn.site_ids() {
                        assert_eq!(
                            select_site(&topo, b, rank, &[down]),
                            parent_select_site_avoiding(&topo, b, rank, &[down]),
                            "border {b:?} rank {rank} down {down:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn colocated_border_selects_its_site() {
        let topo = Topology::generate(&NetConfig::small(), 1);
        for (b_idx, border) in topo.cdn.borders.iter().enumerate() {
            if let Some(site) = border.colocated_site {
                assert_eq!(
                    select_site(&topo, BorderId(b_idx as u16), 0, &[]).unwrap(),
                    site
                );
            }
        }
    }

    #[test]
    fn selection_minimizes_igp_cost() {
        let topo = Topology::generate(&NetConfig::small(), 2);
        for b in topo.cdn.border_ids() {
            let chosen = select_site(&topo, b, 0, &[]).unwrap();
            let chosen_cost = igp_cost(&topo, b, chosen);
            for s in topo.cdn.site_ids() {
                assert!(chosen_cost <= igp_cost(&topo, b, s) + 1e-9);
            }
        }
    }

    #[test]
    fn inflation_can_divert_from_geo_nearest() {
        // At least one inflated peering-only border is diverted from its
        // geographically nearest site — the §5 case-study mechanism.
        let topo = inflated_world();
        let diverted = topo
            .cdn
            .border_ids()
            .filter(|&b| {
                is_inflated(&topo, b)
                    && select_site(&topo, b, 0, &[]) != Some(geo_nearest(&topo, b))
            })
            .count();
        assert!(diverted > 0, "inflation never diverted any border");
    }

    #[test]
    fn no_inflation_means_geo_nearest() {
        let topo = inflated_world();
        for b in topo.cdn.border_ids().filter(|&b| !is_inflated(&topo, b)) {
            assert_eq!(
                select_site(&topo, b, 0, &[]),
                Some(geo_nearest(&topo, b)),
                "border {b:?}"
            );
        }
    }
}
