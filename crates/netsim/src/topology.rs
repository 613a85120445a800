//! Topology generation: the CDN network, transit providers, and eyeball ASes.
//!
//! The generated world mirrors the deployment the paper studies:
//!
//! * a single **CDN AS** ("all within the same Microsoft-operated autonomous
//!   system", §3) with a few dozen front-end sites placed in major metros,
//!   plus peering-only border routers — locations where traffic can ingress
//!   even though no front-end is present;
//! * a handful of **transit providers** with global backbones, peering with
//!   the CDN at most of its border routers;
//! * a population of **eyeball ASes** (access ISPs) with regional footprints.
//!   Most peer directly with the CDN at several locations; a configurable
//!   minority peer only at one — possibly distant — location, or pin their
//!   egress by policy, reproducing the paper's §5 pathologies.
//!
//! Generation is a pure function of `(NetConfig, seed)`.

use anycast_geo::{Metro, MetroId, Region, WorldAtlas};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bgp::EgressPolicy;
use crate::config::NetConfig;
use crate::ids::{AsId, BorderId, SiteId};

/// A CDN front-end site: terminates client TCP connections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndSite {
    /// Metro hosting the site.
    pub metro: MetroId,
    /// The border router colocated with this site (every site metro hosts a
    /// border router; the reverse is not true).
    pub colocated_border: BorderId,
}

/// A CDN border router: a peering location where the anycast prefix is
/// announced and traffic ingresses the CDN's backbone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BorderRouter {
    /// Metro hosting the border router.
    pub metro: MetroId,
    /// The front-end site colocated at this metro, if any.
    pub colocated_site: Option<SiteId>,
}

/// The CDN's network: sites, border routers, and internal (IGP) costs.
#[derive(Debug, Clone)]
pub struct CdnNetwork {
    /// Front-end sites, indexed by [`SiteId`].
    pub sites: Vec<FrontEndSite>,
    /// Border routers, indexed by [`BorderId`].
    pub borders: Vec<BorderRouter>,
    /// IGP cost multiplier per `(border, site)` pair, ≥ 1. A multiplier
    /// above 1 models internal links that are longer or more expensive than
    /// geography suggests — the §5 case where "router A has a longer
    /// intradomain route to the nearest front-end".
    pub igp_multiplier: Vec<Vec<f64>>,
}

impl CdnNetwork {
    /// Location of a site.
    pub fn site_metro(&self, site: SiteId) -> MetroId {
        self.sites[site.0 as usize].metro
    }

    /// Location of a border router.
    pub fn border_metro(&self, border: BorderId) -> MetroId {
        self.borders[border.0 as usize].metro
    }

    /// All site ids.
    pub fn site_ids(&self) -> impl Iterator<Item = SiteId> {
        (0..self.sites.len() as u16).map(SiteId)
    }

    /// All border ids.
    pub fn border_ids(&self) -> impl Iterator<Item = BorderId> {
        (0..self.borders.len() as u16).map(BorderId)
    }

    /// The border router at which the CDN announces the *unicast* prefix of
    /// `site` — per §3.1, "only the routers at the closest peering point to
    /// that front-end announce the prefix". Sites are colocated with a
    /// border router, so this is that router.
    pub fn unicast_announcement_border(&self, site: SiteId) -> BorderId {
        self.sites[site.0 as usize].colocated_border
    }
}

/// A transit (tier-1-like) provider: global backbone, peers with the CDN at
/// most border routers.
#[derive(Debug, Clone)]
pub struct TransitAs {
    /// This AS's id.
    pub id: AsId,
    /// Backbone PoP metros.
    pub pops: Vec<MetroId>,
    /// CDN border routers this transit peers at.
    pub peering_borders: Vec<BorderId>,
}

/// An eyeball (access) AS: hosts clients, reaches the CDN via direct peering
/// and/or transit.
#[derive(Debug, Clone)]
pub struct EyeballAs {
    /// This AS's id.
    pub id: AsId,
    /// The metro where the ISP is headquartered; its footprint grows
    /// outwards from here.
    pub home_metro: MetroId,
    /// Country of the home metro (footprints are national).
    pub country: &'static str,
    /// Metros where this AS has client attachment points.
    pub pops: Vec<MetroId>,
    /// CDN border routers this AS peers with directly. Empty means
    /// transit-only.
    pub peering_borders: Vec<BorderId>,
    /// Transit providers (always at least one, even for peered ASes, as
    /// backup and for prefixes not learned over peering).
    pub transit: Vec<AsId>,
    /// How the AS picks among multiple egress options.
    pub egress_policy: EgressPolicy,
}

impl EyeballAs {
    /// Whether this AS reaches the CDN only through transit.
    pub fn is_transit_only(&self) -> bool {
        self.peering_borders.is_empty()
    }
}

/// The generated world: atlas, CDN, transits, eyeballs.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The world atlas all locations refer to.
    pub atlas: WorldAtlas,
    /// The CDN network.
    pub cdn: CdnNetwork,
    /// Transit providers (ids `0..n_transit`).
    pub transits: Vec<TransitAs>,
    /// Eyeball ASes (ids `n_transit..n_transit + n_eyeball`).
    pub eyeballs: Vec<EyeballAs>,
    /// By [`MetroId`]: the eyeball ASes with a PoP there, in eyeball order.
    eyeballs_by_metro: Vec<Vec<AsId>>,
}

impl Topology {
    /// Generates a world from configuration and seed. The same inputs always
    /// produce the same world.
    pub fn generate(cfg: &NetConfig, seed: u64) -> Topology {
        if cfg.worldgen.is_some() {
            // Policy-routed worlds come from the AS-graph generator; the
            // bridged topology is identical to the one Internet::new uses.
            return crate::worldgen::build(cfg, seed).0;
        }
        let atlas = WorldAtlas::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x7069_6e67_746f_706f);

        let cdn = generate_cdn(&atlas, cfg, &mut rng);
        let transits = generate_transits(&atlas, &cdn, cfg, &mut rng);
        let mut eyeballs = generate_eyeballs(&atlas, &cdn, &transits, cfg, &mut rng);
        ensure_metro_coverage(&atlas, &mut eyeballs);
        Topology::from_parts(atlas, cdn, transits, eyeballs)
    }

    /// Assembles a topology from generated parts (either generator),
    /// building the metro index.
    pub(crate) fn from_parts(
        atlas: WorldAtlas,
        cdn: CdnNetwork,
        transits: Vec<TransitAs>,
        eyeballs: Vec<EyeballAs>,
    ) -> Topology {
        let mut eyeballs_by_metro: Vec<Vec<AsId>> = vec![Vec::new(); atlas.len()];
        for e in &eyeballs {
            for &m in &e.pops {
                eyeballs_by_metro[m.0 as usize].push(e.id);
            }
        }
        Topology {
            atlas,
            cdn,
            transits,
            eyeballs,
            eyeballs_by_metro,
        }
    }

    /// The eyeball AS with the given id. Panics on a transit or unknown id
    /// (a programming error).
    pub fn eyeball(&self, id: AsId) -> &EyeballAs {
        let idx = (id.0 as usize)
            .checked_sub(self.transits.len())
            .expect("AsId is a transit, not an eyeball");
        &self.eyeballs[idx]
    }

    /// The transit AS with the given id. Panics on an eyeball or unknown id.
    pub fn transit(&self, id: AsId) -> &TransitAs {
        &self.transits[id.0 as usize]
    }

    /// Eyeball ASes with an attachment point at `metro` (possibly empty for
    /// metros only covered via the coverage pass of a different metro).
    pub fn eyeballs_at_metro(&self, metro: MetroId) -> &[AsId] {
        &self.eyeballs_by_metro[metro.0 as usize]
    }

    /// The metro of a front-end site (convenience).
    pub fn site_metro(&self, site: SiteId) -> &'static Metro {
        self.atlas.metro(self.cdn.site_metro(site))
    }
}

/// Regional allocation weights for front-end sites, mirroring the paper's
/// deployment: dense in North America and Europe (§5: "the CDN front-end
/// density in North America and Europe"), present but sparser elsewhere.
const SITE_REGION_WEIGHTS: [(Region, f64); 6] = [
    (Region::NorthAmerica, 0.34),
    (Region::Europe, 0.30),
    (Region::Asia, 0.20),
    (Region::SouthAmerica, 0.06),
    (Region::Oceania, 0.05),
    (Region::Africa, 0.05),
];

/// Multiplier applied to the IGP cost of an inflated (border, site) pair.
const IGP_INFLATION_FACTOR: f64 = 3.0;
/// Fraction of CDN border routers whose IGP cost towards some front-ends
/// is inflated (non-geographic internal topology, §5 case study 1).
pub const P_IGP_INFLATED: f64 = 0.08;

pub(crate) fn generate_cdn(atlas: &WorldAtlas, cfg: &NetConfig, rng: &mut impl Rng) -> CdnNetwork {
    // Allocate site counts per region by weight (largest remainder).
    let mut counts: Vec<(Region, usize)> = SITE_REGION_WEIGHTS
        .iter()
        .map(|&(r, w)| (r, (w * cfg.n_sites as f64).floor() as usize))
        .collect();
    let mut assigned: usize = counts.iter().map(|&(_, c)| c).sum();
    let n_regions = counts.len();
    let mut i = 0;
    while assigned < cfg.n_sites {
        counts[i % n_regions].1 += 1;
        assigned += 1;
        i += 1;
    }

    let mut site_metros: Vec<MetroId> = Vec::with_capacity(cfg.n_sites);
    for (region, count) in counts {
        for id in atlas.top_by_population(count, Some(region)) {
            if !site_metros.contains(&id) {
                site_metros.push(id);
            }
        }
    }
    site_metros.truncate(cfg.n_sites);

    // Peering-only borders: the next most populous metros not already used.
    let mut extra: Vec<MetroId> = Vec::new();
    for id in atlas.top_by_population(atlas.len(), None) {
        if extra.len() >= cfg.n_extra_borders {
            break;
        }
        if !site_metros.contains(&id) {
            extra.push(id);
        }
    }

    let mut sites = Vec::with_capacity(site_metros.len());
    let mut borders = Vec::with_capacity(site_metros.len() + extra.len());
    for (i, &m) in site_metros.iter().enumerate() {
        let border = BorderId(borders.len() as u16);
        borders.push(BorderRouter {
            metro: m,
            colocated_site: Some(SiteId(i as u16)),
        });
        sites.push(FrontEndSite {
            metro: m,
            colocated_border: border,
        });
    }
    for &m in &extra {
        borders.push(BorderRouter {
            metro: m,
            colocated_site: None,
        });
    }

    // IGP multipliers: mostly 1.0; for a fraction of borders, inflate the
    // cost towards their geographically nearest site so the IGP prefers the
    // second-nearest — §5 case study 1.
    let mut igp = vec![vec![1.0; sites.len()]; borders.len()];
    for (b_idx, border) in borders.iter().enumerate() {
        // Colocated site always stays cheap: traffic ingressing at a
        // front-end metro is served there.
        if border.colocated_site.is_some() {
            continue;
        }
        if rng.gen::<f64>() < P_IGP_INFLATED && sites.len() > 1 {
            let nearest = sites
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    atlas
                        .metro_km(a.metro, border.metro)
                        .total_cmp(&atlas.metro_km(b.metro, border.metro))
                })
                .map(|(i, _)| i)
                .expect("at least one site");
            igp[b_idx][nearest] = IGP_INFLATION_FACTOR;
        }
    }

    CdnNetwork {
        sites,
        borders,
        igp_multiplier: igp,
    }
}

fn generate_transits(
    atlas: &WorldAtlas,
    cdn: &CdnNetwork,
    cfg: &NetConfig,
    rng: &mut impl Rng,
) -> Vec<TransitAs> {
    let global_pops = atlas.top_by_population(cfg.transit_pops, None);
    let all_borders: Vec<BorderId> = cdn.border_ids().collect();
    (0..cfg.n_transit)
        .map(|i| {
            // Each transit drops a small random subset of PoPs and peerings
            // so providers are distinguishable.
            let mut pops = global_pops.clone();
            pops.shuffle(rng);
            let keep_pops = (pops.len() * 9) / 10;
            pops.truncate(keep_pops.max(1));
            let mut peering = all_borders.clone();
            peering.shuffle(rng);
            let keep_peer = (peering.len() * 9) / 10;
            peering.truncate(keep_peer.max(1));
            peering.sort();
            pops.sort();
            TransitAs {
                id: AsId(i as u32),
                pops,
                peering_borders: peering,
            }
        })
        .collect()
}

/// Maximum number of metros in an eyeball AS's footprint.
pub(crate) const EYEBALL_MAX_POPS: usize = 12;
/// Fraction of eyeball ASes that peer directly with the CDN somewhere; the
/// rest reach the CDN only through transit. Large eyeballs overwhelmingly
/// peer with major CDNs directly.
const P_DIRECT_PEERING: f64 = 0.80;
/// Among directly-peering ASes, the fraction whose *only* peering with the
/// CDN is at a single (possibly distant) location — the paper's "ISP's
/// internal policy chooses to hand off traffic at a distant peering point"
/// pathology (Moscow→Stockholm).
pub const P_REMOTE_PEERING_ONLY: f64 = 0.05;
/// Among directly-peering multi-egress ASes, the fraction whose egress
/// policy pins all CDN traffic to one fixed regional egress instead of
/// hot-potato (the Denver→Phoenix case).
pub const P_FIXED_REGIONAL_EGRESS: f64 = 0.045;

fn generate_eyeballs(
    atlas: &WorldAtlas,
    cdn: &CdnNetwork,
    transits: &[TransitAs],
    cfg: &NetConfig,
    rng: &mut impl Rng,
) -> Vec<EyeballAs> {
    let mut eyeballs = Vec::with_capacity(cfg.n_eyeball);
    for i in 0..cfg.n_eyeball {
        let id = AsId((transits.len() + i) as u32);
        let home = atlas.sample_by_population(rng.gen());
        let home_metro = atlas.metro(home);

        // Footprint: same-country metros by distance from home, up to a
        // random size. Small-country ISPs may have only their home metro.
        let mut candidates: Vec<(MetroId, f64)> = atlas
            .iter()
            .filter(|(_, m)| m.country == home_metro.country)
            .map(|(mid, _)| (mid, atlas.metro_km(mid, home)))
            .collect();
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        let size = rng.gen_range(1..=EYEBALL_MAX_POPS).min(candidates.len());
        let pops: Vec<MetroId> = candidates[..size].iter().map(|&(m, _)| m).collect();

        // Direct peering: borders "reachable" from the footprint.
        let peering_borders = if rng.gen::<f64>() < P_DIRECT_PEERING {
            choose_peering(atlas, cdn, &pops, rng)
        } else {
            Vec::new()
        };

        // Egress policy: pathological fixed egress for a fraction of
        // multi-homed ASes.
        let egress_policy =
            if peering_borders.len() > 1 && rng.gen::<f64>() < P_FIXED_REGIONAL_EGRESS {
                // Pin to the egress *farthest* from home: the operator optimizes
                // for its own transit costs, not for client latency.
                let far = *peering_borders
                    .iter()
                    .max_by(|a, b| {
                        atlas
                            .metro_km(cdn.border_metro(**a), home)
                            .total_cmp(&atlas.metro_km(cdn.border_metro(**b), home))
                    })
                    .expect("non-empty peering");
                EgressPolicy::FixedEgress(far)
            } else {
                EgressPolicy::HotPotato
            };

        // 1–2 transit providers.
        let mut transit_ids: Vec<AsId> = transits.iter().map(|t| t.id).collect();
        transit_ids.shuffle(rng);
        transit_ids.truncate(rng.gen_range(1..=2));

        eyeballs.push(EyeballAs {
            id,
            home_metro: home,
            country: home_metro.country,
            pops,
            peering_borders,
            transit: transit_ids,
            egress_policy,
        });
    }
    eyeballs
}

/// Picks the CDN borders an eyeball AS peers at.
fn choose_peering(
    atlas: &WorldAtlas,
    cdn: &CdnNetwork,
    pops: &[MetroId],
    rng: &mut impl Rng,
) -> Vec<BorderId> {
    // Candidate borders ranked by distance to the nearest footprint metro.
    let mut ranked: Vec<(BorderId, f64)> = cdn
        .border_ids()
        .map(|b| {
            let border_metro = cdn.border_metro(b);
            let d = pops
                .iter()
                .map(|&m| atlas.metro_km(m, border_metro))
                .fold(f64::INFINITY, f64::min);
            (b, d)
        })
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));

    if rng.gen::<f64>() < P_REMOTE_PEERING_ONLY {
        // The pathological case: a single peering session at a location in
        // the middle of the ranked list — not adjacent, not antipodal.
        // (Moscow ISPs peering in Stockholm, not in Moscow.)
        let lo = (ranked.len() / 8).max(1).min(ranked.len() - 1);
        let hi = (ranked.len() / 3).max(lo + 1).min(ranked.len());
        let pick = rng.gen_range(lo..hi);
        vec![ranked[pick].0]
    } else {
        // Normal case: the AS peers at the exchange nearest each of its
        // PoPs (big eyeballs interconnect in every major city they serve).
        // This footprint-tracking peering is what keeps hot-potato egress
        // *local* to the client, so anycast "performs well despite the lack
        // of centralized control" for most clients.
        let mut out: Vec<BorderId> = pops
            .iter()
            .map(|&pop| {
                cdn.border_ids()
                    .min_by(|a, b| {
                        atlas
                            .metro_km(cdn.border_metro(*a), pop)
                            .total_cmp(&atlas.metro_km(cdn.border_metro(*b), pop))
                            .then(a.cmp(b))
                    })
                    .expect("at least one border")
            })
            .collect();
        out.sort();
        out.dedup();
        // Plus the overall-nearest exchanges so even single-PoP ASes are
        // multi-homed towards the CDN.
        for &(b, _) in ranked.iter().take(2) {
            if !out.contains(&b) {
                out.push(b);
            }
        }
        out.sort();
        out
    }
}

/// Guarantees every metro hosts at least one eyeball AS, so the workload
/// generator can place clients anywhere people live. Uncovered metros are
/// appended to the footprint of the eyeball AS with the nearest home metro
/// in the same region (any region as fallback).
fn ensure_metro_coverage(atlas: &WorldAtlas, eyeballs: &mut [EyeballAs]) {
    if eyeballs.is_empty() {
        return;
    }
    let covered: std::collections::HashSet<MetroId> = eyeballs
        .iter()
        .flat_map(|e| e.pops.iter().copied())
        .collect();
    for (mid, metro) in atlas.iter() {
        if covered.contains(&mid) {
            continue;
        }
        let best = eyeballs
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let da =
                    region_penalty(atlas, a.home_metro, metro) + atlas.metro_km(a.home_metro, mid);
                let db =
                    region_penalty(atlas, b.home_metro, metro) + atlas.metro_km(b.home_metro, mid);
                da.total_cmp(&db)
            })
            .map(|(i, _)| i)
            .expect("non-empty eyeballs");
        eyeballs[best].pops.push(mid);
    }
}

fn region_penalty(atlas: &WorldAtlas, home: MetroId, target: &Metro) -> f64 {
    if atlas.metro(home).region == target.region {
        0.0
    } else {
        // Strongly prefer same-region ISPs when covering orphan metros.
        20_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> Topology {
        Topology::generate(&NetConfig::small(), 1)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(&NetConfig::small(), 7);
        let b = Topology::generate(&NetConfig::small(), 7);
        assert_eq!(a.cdn.sites.len(), b.cdn.sites.len());
        for (x, y) in a.cdn.sites.iter().zip(&b.cdn.sites) {
            assert_eq!(x.metro, y.metro);
        }
        for (x, y) in a.eyeballs.iter().zip(&b.eyeballs) {
            assert_eq!(x.home_metro, y.home_metro);
            assert_eq!(x.pops, y.pops);
            assert_eq!(x.peering_borders, y.peering_borders);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Topology::generate(&NetConfig::small(), 1);
        let b = Topology::generate(&NetConfig::small(), 2);
        let same = a
            .eyeballs
            .iter()
            .zip(&b.eyeballs)
            .filter(|(x, y)| x.home_metro == y.home_metro)
            .count();
        assert!(same < a.eyeballs.len());
    }

    #[test]
    fn site_count_matches_config() {
        let cfg = NetConfig::small();
        let t = Topology::generate(&cfg, 3);
        assert_eq!(t.cdn.sites.len(), cfg.n_sites);
        assert_eq!(t.cdn.borders.len(), cfg.n_sites + cfg.n_extra_borders);
    }

    #[test]
    fn sites_are_colocated_with_borders() {
        let t = world();
        for (i, site) in t.cdn.sites.iter().enumerate() {
            let b = &t.cdn.borders[site.colocated_border.0 as usize];
            assert_eq!(b.metro, site.metro);
            assert_eq!(b.colocated_site, Some(SiteId(i as u16)));
        }
    }

    #[test]
    fn extra_borders_host_no_site() {
        let t = world();
        let extra = t
            .cdn
            .borders
            .iter()
            .filter(|b| b.colocated_site.is_none())
            .count();
        assert_eq!(extra, NetConfig::small().n_extra_borders);
    }

    #[test]
    fn site_metros_are_unique() {
        let t = world();
        let mut metros: Vec<MetroId> = t.cdn.sites.iter().map(|s| s.metro).collect();
        metros.sort();
        metros.dedup();
        assert_eq!(metros.len(), t.cdn.sites.len());
    }

    #[test]
    fn sites_cover_multiple_regions() {
        let t = Topology::generate(&NetConfig::default(), 5);
        let regions: std::collections::HashSet<Region> = t
            .cdn
            .sites
            .iter()
            .map(|s| t.atlas.metro(s.metro).region)
            .collect();
        assert!(regions.len() >= 5, "only {} regions covered", regions.len());
    }

    #[test]
    fn every_metro_has_an_eyeball() {
        let t = world();
        for (mid, m) in t.atlas.iter() {
            assert!(
                !t.eyeballs_at_metro(mid).is_empty(),
                "metro {} uncovered",
                m.name
            );
        }
    }

    #[test]
    fn eyeball_footprints_stay_in_country_before_coverage_pass() {
        // The home-country rule is only violated by the coverage pass, which
        // appends orphan metros; the *home* metro is always in-country.
        let t = world();
        for e in &t.eyeballs {
            assert_eq!(t.atlas.metro(e.home_metro).country, e.country);
            assert!(e.pops.contains(&e.home_metro));
        }
    }

    #[test]
    fn every_eyeball_has_transit() {
        let t = world();
        for e in &t.eyeballs {
            assert!(!e.transit.is_empty());
            for tid in &e.transit {
                assert!(t.transits.iter().any(|tr| tr.id == *tid));
            }
        }
    }

    #[test]
    fn some_but_not_all_eyeballs_peer_directly() {
        let t = Topology::generate(&NetConfig::default(), 11);
        let peered = t.eyeballs.iter().filter(|e| !e.is_transit_only()).count();
        let frac = peered as f64 / t.eyeballs.len() as f64;
        assert!(frac > 0.6 && frac < 0.95, "peered fraction {frac}");
    }

    #[test]
    fn remote_peering_and_fixed_egress_exist() {
        let t = Topology::generate(&NetConfig::default(), 13);
        let single = t
            .eyeballs
            .iter()
            .filter(|e| e.peering_borders.len() == 1)
            .count();
        assert!(single > 0, "no remote-peering-only ASes generated");
        let fixed = t
            .eyeballs
            .iter()
            .filter(|e| matches!(e.egress_policy, EgressPolicy::FixedEgress(_)))
            .count();
        assert!(fixed > 0, "no fixed-egress ASes generated");
    }

    #[test]
    fn igp_inflation_only_on_peering_only_borders() {
        let t = Topology::generate(&NetConfig::default(), 19);
        for (b_idx, border) in t.cdn.borders.iter().enumerate() {
            if border.colocated_site.is_some() {
                assert!(
                    t.cdn.igp_multiplier[b_idx].iter().all(|&m| m == 1.0),
                    "site-colocated border {b_idx} must not be inflated"
                );
            }
        }
    }

    #[test]
    fn unicast_announcement_is_colocated() {
        let t = world();
        for s in t.cdn.site_ids() {
            let b = t.cdn.unicast_announcement_border(s);
            assert_eq!(t.cdn.border_metro(b), t.cdn.site_metro(s));
        }
    }

    #[test]
    fn transit_backbones_are_global() {
        let t = Topology::generate(&NetConfig::default(), 23);
        for tr in &t.transits {
            assert!(tr.pops.len() >= 30);
            assert!(tr.peering_borders.len() >= t.cdn.borders.len() / 2);
        }
    }

    #[test]
    fn eyeball_lookup_roundtrip() {
        let t = world();
        for e in &t.eyeballs {
            assert_eq!(t.eyeball(e.id).home_metro, e.home_metro);
        }
        for tr in &t.transits {
            assert_eq!(t.transit(tr.id).id, tr.id);
        }
    }

    #[test]
    #[should_panic(expected = "transit")]
    fn eyeball_accessor_rejects_transit_id() {
        let t = world();
        let _ = t.eyeball(AsId(0));
    }
}
