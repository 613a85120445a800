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
use crate::worldgen::Csr;

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
/// and/or transit. A `Copy` view of the topology's per-AS columns, from
/// [`Topology::eyeball`] or [`Topology::eyeballs`]; the AS's country is
/// its home metro's (`atlas.metro(home_metro).country`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeballAs<'a> {
    /// This AS's id.
    pub id: AsId,
    /// The metro where the ISP is headquartered; its footprint grows
    /// outwards from here.
    pub home_metro: MetroId,
    /// Metros where this AS has client attachment points.
    pub pops: &'a [MetroId],
    /// CDN border routers this AS peers with directly. Empty means
    /// transit-only.
    pub peering_borders: &'a [BorderId],
    /// Transit providers (always at least one in a distance world, even for
    /// peered ASes, as backup and for prefixes not learned over peering;
    /// none in a policy world, whose graph carries the providers).
    pub transit: &'a [AsId],
    /// How the AS picks among multiple egress options.
    pub egress_policy: EgressPolicy,
}

impl EyeballAs<'_> {
    /// Whether this AS reaches the CDN only through transit.
    pub fn is_transit_only(&self) -> bool {
        self.peering_borders.is_empty()
    }
}

/// The eyeball ASes as per-AS columns, by index past the transits. Either
/// generator fills it one AS at a time, in id order, then adopts the
/// metros no footprint covers ([`EyeballColumns::cover_orphan_metros`]).
#[derive(Debug, Clone)]
pub(crate) struct EyeballColumns {
    home_metro: Vec<MetroId>,
    egress_policy: Vec<EgressPolicy>,
    pops: Csr<MetroId>,
    peering_borders: Csr<BorderId>,
    transit: Csr<AsId>,
}

impl EyeballColumns {
    /// Empty columns with room for `n` ASes.
    pub(crate) fn with_capacity(n: usize) -> EyeballColumns {
        EyeballColumns {
            home_metro: Vec::with_capacity(n),
            egress_policy: Vec::with_capacity(n),
            pops: Csr::with_capacity(n, n),
            peering_borders: Csr::with_capacity(n, 0),
            transit: Csr::with_capacity(n, 0),
        }
    }

    /// Appends the next AS.
    pub(crate) fn push(
        &mut self,
        home_metro: MetroId,
        pops: &[MetroId],
        peering_borders: &[BorderId],
        transit: &[AsId],
        egress_policy: EgressPolicy,
    ) {
        self.home_metro.push(home_metro);
        self.pops.push_row(pops);
        self.peering_borders.push_row(peering_borders);
        self.transit.push_row(transit);
        self.egress_policy.push(egress_policy);
    }

    /// Guarantees every metro hosts at least one eyeball AS, so the
    /// workload generator can place clients anywhere people live. Each
    /// metro in no footprint joins, in atlas order, the footprint of the
    /// AS with the nearest home metro in the same region (any region as
    /// fallback; the first such AS on ties) among those `may_host` admits,
    /// after the AS's own metros.
    pub(crate) fn cover_orphan_metros(
        &mut self,
        atlas: &WorldAtlas,
        may_host: impl Fn(usize) -> bool,
    ) {
        let mut covered = vec![false; atlas.len()];
        for v in 0..self.home_metro.len() as u32 {
            for m in self.pops.row(v) {
                covered[m.0 as usize] = true;
            }
        }
        let mut orphans = Vec::new();
        for (mid, metro) in atlas.iter() {
            if covered[mid.0 as usize] {
                continue;
            }
            let cost = |v: usize| {
                let home = self.home_metro[v];
                region_penalty(atlas, home, metro) + atlas.metro_km(home, mid)
            };
            let best = (0..self.home_metro.len())
                .filter(|&v| may_host(v))
                .min_by(|&a, &b| cost(a).total_cmp(&cost(b)))
                .expect("some eyeball AS may host clients");
            orphans.push((best as u32, mid));
        }
        self.pops.append_to_rows(orphans);
    }
}

/// The generated world: atlas, CDN, transits, eyeballs.
///
/// The eyeball ASes are per-AS columns, not one record each: flat arrays
/// for the home metro and the egress policy, and one compressed-row table
/// ([`Csr`]) each for footprints, peerings, transits and the ASes by metro.
/// A 75k-AS policy world keeps them in ~3.5 MiB and a handful of
/// allocations.
/// [`Topology::eyeball`] reads one AS as an [`EyeballAs`] view.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The world atlas all locations refer to.
    pub atlas: WorldAtlas,
    /// The CDN network.
    pub cdn: CdnNetwork,
    /// Transit providers (ids `0..n_transit`).
    pub transits: Vec<TransitAs>,
    /// Eyeball ASes (ids `n_transit..n_transit + n_eyeball`), read through
    /// [`Topology::eyeball`] and [`Topology::eyeballs`].
    eyeballs: EyeballColumns,
    /// By [`MetroId`]: the eyeball ASes with a PoP there, in id order.
    by_metro: Csr<AsId>,
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
        eyeballs.cover_orphan_metros(&atlas, |_| true);
        Topology::from_parts(atlas, cdn, transits, eyeballs)
    }

    /// Assembles a topology from generated parts (either generator),
    /// building the metro index.
    pub(crate) fn from_parts(
        atlas: WorldAtlas,
        cdn: CdnNetwork,
        transits: Vec<TransitAs>,
        mut eyeballs: EyeballColumns,
    ) -> Topology {
        // Rows were pushed one AS at a time; keep no growth slack.
        eyeballs.pops.shrink_to_fit();
        eyeballs.peering_borders.shrink_to_fit();
        eyeballs.transit.shrink_to_fit();
        let first = transits.len() as u32;
        let pops = &eyeballs.pops;
        let by_metro = Csr::inverted(atlas.len(), || {
            (0..pops.rows() as u32)
                .flat_map(move |v| pops.row(v).iter().map(move |m| (AsId(first + v), m.0)))
        });
        Topology {
            atlas,
            cdn,
            transits,
            eyeballs,
            by_metro,
        }
    }

    /// The eyeball AS with the given id. Panics on a transit or unknown id
    /// (a programming error).
    pub fn eyeball(&self, id: AsId) -> EyeballAs<'_> {
        let idx = (id.0 as usize)
            .checked_sub(self.transits.len())
            .expect("AsId is a transit, not an eyeball");
        let e = &self.eyeballs;
        let row = idx as u32;
        EyeballAs {
            id,
            home_metro: e.home_metro[idx],
            pops: e.pops.row(row),
            peering_borders: e.peering_borders.row(row),
            transit: e.transit.row(row),
            egress_policy: e.egress_policy[idx],
        }
    }

    /// Every eyeball AS, in id order.
    pub fn eyeballs(&self) -> impl ExactSizeIterator<Item = EyeballAs<'_>> + Clone + '_ {
        let first = self.transits.len() as u32;
        (0..self.eyeballs.home_metro.len() as u32).map(move |i| self.eyeball(AsId(first + i)))
    }

    /// The transit AS with the given id. Panics on an eyeball or unknown id.
    pub fn transit(&self, id: AsId) -> &TransitAs {
        &self.transits[id.0 as usize]
    }

    /// Eyeball ASes with an attachment point at `metro`, in id order (never
    /// empty: every metro is in some footprint).
    pub fn eyeballs_at_metro(&self, metro: MetroId) -> &[AsId] {
        self.by_metro.row(metro.0)
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
) -> EyeballColumns {
    let mut eyeballs = EyeballColumns::with_capacity(cfg.n_eyeball);
    for _ in 0..cfg.n_eyeball {
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

        eyeballs.push(home, &pops, &peering_borders, &transit_ids, egress_policy);
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
        for (x, y) in a.eyeballs().zip(b.eyeballs()) {
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
            .eyeballs()
            .zip(b.eyeballs())
            .filter(|(x, y)| x.home_metro == y.home_metro)
            .count();
        assert!(same < a.eyeballs().len());
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
        // appends orphan metros — metros no other AS's footprint reaches.
        let t = world();
        for e in t.eyeballs() {
            let country = t.atlas.metro(e.home_metro).country;
            assert!(e.pops.contains(&e.home_metro));
            for &m in e.pops {
                assert!(
                    t.atlas.metro(m).country == country || t.eyeballs_at_metro(m) == [e.id],
                    "{} holds {m} abroad",
                    e.id
                );
            }
        }
    }

    #[test]
    fn every_eyeball_has_transit() {
        let t = world();
        for e in t.eyeballs() {
            assert!(!e.transit.is_empty());
            for tid in e.transit {
                assert!(t.transits.iter().any(|tr| tr.id == *tid));
            }
        }
    }

    #[test]
    fn some_but_not_all_eyeballs_peer_directly() {
        let t = Topology::generate(&NetConfig::default(), 11);
        let peered = t.eyeballs().filter(|e| !e.is_transit_only()).count();
        let frac = peered as f64 / t.eyeballs().len() as f64;
        assert!(frac > 0.6 && frac < 0.95, "peered fraction {frac}");
    }

    #[test]
    fn remote_peering_and_fixed_egress_exist() {
        let t = Topology::generate(&NetConfig::default(), 13);
        let single = t
            .eyeballs()
            .filter(|e| e.peering_borders.len() == 1)
            .count();
        assert!(single > 0, "no remote-peering-only ASes generated");
        let fixed = t
            .eyeballs()
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
        for e in t.eyeballs() {
            assert_eq!(t.eyeball(e.id).home_metro, e.home_metro);
        }
        for tr in &t.transits {
            assert_eq!(t.transit(tr.id).id, tr.id);
        }
    }

    /// The per-AS columns and the metro index against their definitions,
    /// on distance worlds and on policy worlds of 1,000 and 10,000 ASes:
    /// a metro lists exactly the ASes whose footprint holds it, in id
    /// order; `eyeball(id)` is the iterator's entry; every AS that hosts
    /// clients has a PoP at home.
    #[test]
    fn columns_and_metro_index_match_a_brute_force() {
        let policy = |n| NetConfig {
            worldgen: Some(crate::worldgen::WorldGenConfig::with_ases(n)),
            ..NetConfig::small()
        };
        let configs = [
            NetConfig::small(),
            NetConfig::default(),
            policy(1_000),
            policy(10_000),
        ];
        for cfg in &configs {
            for seed in 1..=3 {
                let t = Topology::generate(cfg, seed);
                let first = t.transits.len() as u32;
                for (i, e) in t.eyeballs().enumerate() {
                    assert_eq!(e.id, AsId(first + i as u32));
                    assert_eq!(t.eyeball(e.id), e);
                    // Transit-class nodes of a policy world host no clients.
                    let hosts = cfg.worldgen.is_none() || !e.pops.is_empty();
                    assert!(
                        !hosts || e.pops.contains(&e.home_metro),
                        "{} not at home",
                        e.id
                    );
                }
                for (mid, _) in t.atlas.iter() {
                    let hosts: Vec<AsId> = t
                        .eyeballs()
                        .filter(|e| e.pops.contains(&mid))
                        .map(|e| e.id)
                        .collect();
                    assert_eq!(t.eyeballs_at_metro(mid), hosts, "{mid}, seed {seed}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "transit")]
    fn eyeball_accessor_rejects_transit_id() {
        let t = world();
        let _ = t.eyeball(AsId(0));
    }
}
