//! Internet-scale worlds: a policy-routed AS-graph generator.
//!
//! The default topology models a few hundred eyeball ISPs with explicit
//! per-client route ranking. That is faithful at small scale but cannot say
//! anything about how catchments behave when the anycast prefix crosses a
//! *routing system* — tens of thousands of ASes choosing paths by business
//! policy, not latency. This module generates such worlds:
//!
//! * a classified AS mix — enterprise customers ([`AsClass::Ec`]), small and
//!   large transit providers ([`AsClass::Stp`]/[`AsClass::Ltp`]) and
//!   content/access hypergiants ([`AsClass::Hypergiant`]) — with
//!   customer/provider/peer edges obeying Gao-Rexford (customers buy up the
//!   hierarchy, peers connect laterally, no cycles in the provider DAG);
//! * preferential attachment when enterprises pick providers, so transit
//!   customer-degrees follow the heavy-tailed distribution measured in real
//!   AS graphs: a few regional providers carry most stub networks;
//! * the CDN attached exactly as in the paper: transit from a handful of
//!   tier-1s at every border, settlement-free peering with hypergiants and
//!   many access networks — including a fixed share of
//!   **remote-only peers** reproducing the §5 pathology;
//! * deterministic mid-day route dynamics and the churn law every engine
//!   reads ([`dynamics`]), and a catchment engine ([`policy`]) that
//!   replaces distance ranking with valley-free best-path selection.
//!
//! Generation is a pure function of `(NetConfig, seed)`: the same inputs
//! produce bit-identical graphs, catchments and (downstream) study output,
//! regardless of worker count.

pub mod dynamics;
pub mod graph;
pub mod policy;

use anycast_geo::{MetroId, Region, WorldAtlas};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bgp::EgressPolicy;
use crate::config::NetConfig;
use crate::ids::BorderId;
use crate::topology::{self, CdnNetwork, EyeballColumns, Topology};

pub use dynamics::{DynEvent, EventWindow, RouteDynamics};
pub use graph::{AsClass, CdnRelation, CdnSession, Csr, PolicyGraph, NO_SESSION};
pub use policy::{route_class, CatchmentTable, PolicyWorld, RouteEntry, RouteEnv, CDN_NEXT};

/// Knobs of the AS-graph generator. Present (`NetConfig::worldgen =
/// Some(..)`) switches the whole stack to policy routing; absent keeps the
/// default small world byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldGenConfig {
    /// Total AS count (enterprise + transit + hypergiant). The paper-scale
    /// world uses 75 000; CI smoke uses 10 000.
    pub n_ases: usize,
    /// Per-session-day probability of a BGP session flap.
    pub p_session_flap: f64,
    /// Per-border-day probability of an announcement withdrawal window.
    pub p_border_flap: f64,
}

impl Default for WorldGenConfig {
    fn default() -> Self {
        WorldGenConfig {
            n_ases: 10_000,
            p_session_flap: 0.0008,
            p_border_flap: 0.0004,
        }
    }
}

impl WorldGenConfig {
    /// The default mix at a given scale.
    pub fn with_ases(n_ases: usize) -> Self {
        WorldGenConfig {
            n_ases,
            ..Default::default()
        }
    }

    /// Paper-scale world: 75k ASes.
    pub fn paper() -> Self {
        Self::with_ases(75_000)
    }

    /// Validates the knobs; returns a description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_ases < 64 {
            return Err(format!(
                "worldgen.n_ases must be >= 64, got {}",
                self.n_ases
            ));
        }
        if self.n_ases > 2_000_000 {
            return Err(format!(
                "worldgen.n_ases must be <= 2_000_000, got {}",
                self.n_ases
            ));
        }
        for (name, p) in [
            ("p_session_flap", self.p_session_flap),
            ("p_border_flap", self.p_border_flap),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("worldgen.{name} must be in [0, 1], got {p}"));
            }
        }
        Ok(())
    }

    /// Class counts at this scale: LTPs and hypergiants grow slowly (the
    /// real Internet has ~a dozen tier-1s regardless of size), STPs are
    /// ~10% of ASes, everything else is an enterprise/access network.
    pub fn class_counts(&self) -> (usize, usize, usize, usize) {
        let n = self.n_ases;
        let n_ltp = (n / 5_000 + 6).clamp(6, 18);
        let n_hyper = (n / 15_000 + 3).clamp(3, 8);
        let n_stp = (n / 10)
            .max(2 * n_ltp)
            .min(n.saturating_sub(n_ltp + n_hyper + 1));
        let n_ec = n - n_ltp - n_hyper - n_stp;
        (n_ltp, n_hyper, n_stp, n_ec)
    }
}

/// Builds a policy-routed world: the bridged [`Topology`] (all graph nodes
/// appear as eyeball ASes so the workload/geo layers work unmodified) plus
/// the [`PolicyWorld`] routing engine.
pub fn build(cfg: &NetConfig, seed: u64) -> (Topology, PolicyWorld) {
    let wg = cfg
        .worldgen
        .as_ref()
        .expect("worldgen::build requires NetConfig.worldgen");
    let atlas = WorldAtlas::new();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x776f_726c_6467_656e);

    let cdn = topology::generate_cdn(&atlas, cfg, &mut rng);
    let graph = generate_graph(&atlas, &cdn, wg, &mut rng);
    let eyeballs = bridge_eyeballs(&atlas, &graph, &mut rng);

    let dynamics = RouteDynamics::new(seed, wg.p_session_flap, wg.p_border_flap);
    let world = PolicyWorld::new(graph, dynamics, &atlas, &cdn);
    let topo = Topology::from_parts(atlas, cdn, Vec::new(), eyeballs);
    (topo, world)
}

/// Per-metro border ranking (nearest first, ties by id) — shared by session
/// placement; one ranking per catalog metro, precomputed once.
fn border_rankings(atlas: &WorldAtlas, cdn: &CdnNetwork) -> Vec<Vec<BorderId>> {
    atlas
        .iter()
        .map(|(m, _)| {
            let mut ranked: Vec<(BorderId, f64)> = cdn
                .border_ids()
                .map(|b| (b, atlas.metro_km(m, cdn.border_metro(b))))
                .collect();
            ranked.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            ranked.into_iter().map(|(b, _)| b).collect()
        })
        .collect()
}

/// Tier-1s the CDN buys transit from (sessions at *every* border, so the
/// prefix is globally reachable). Paper §3: "a few transit providers".
const N_CDN_TRANSITS: usize = 3;
/// Probability a hypergiant peers with the CDN (they interconnect with
/// everyone).
const P_CDN_PEER_HYPERGIANT: f64 = 0.9;
/// Probability a small transit provider peers with the CDN (2–4 borders
/// near its home).
const P_CDN_PEER_STP: f64 = 0.5;
/// Probability an enterprise/access AS peers with the CDN at its 1–2
/// nearest borders.
const P_CDN_PEER_EC: f64 = 0.3;
/// Probability an enterprise/access AS instead peers at a *single distant*
/// border — the §5 remote-peering pathology.
const P_REMOTE_PEER_EC: f64 = 0.08;

fn generate_graph(
    atlas: &WorldAtlas,
    cdn: &CdnNetwork,
    wg: &WorldGenConfig,
    rng: &mut impl Rng,
) -> PolicyGraph {
    let (n_ltp, n_hyper, n_stp, n_ec) = wg.class_counts();
    let n = wg.n_ases;

    // Node layout: [LTP | hypergiant | STP | EC], ascending indexes.
    let ltp0 = 0u32;
    let hyper0 = n_ltp as u32;
    let stp0 = hyper0 + n_hyper as u32;
    let ec0 = stp0 + n_stp as u32;

    let mut class = Vec::with_capacity(n);
    let mut home_metro = Vec::with_capacity(n);
    class.extend(std::iter::repeat_n(AsClass::Ltp, n_ltp));
    class.extend(std::iter::repeat_n(AsClass::Hypergiant, n_hyper));
    class.extend(std::iter::repeat_n(AsClass::Stp, n_stp));
    class.extend(std::iter::repeat_n(AsClass::Ec, n_ec));

    // Homes: backbone networks headquarter in the largest metros; STPs and
    // ECs are sampled by population, so the AS density tracks where people
    // live.
    let top = atlas.top_by_population(n_ltp + n_hyper, None);
    for i in 0..n_ltp {
        home_metro.push(top[i % top.len()]);
    }
    for i in 0..n_hyper {
        home_metro.push(top[(n_ltp + i) % top.len()]);
    }
    for _ in 0..(n_stp + n_ec) {
        home_metro.push(atlas.sample_by_population(rng.gen()));
    }

    // provider_edges: (customer, provider). peer_edges stored once, expanded
    // symmetrically at CSR build.
    let mut provider_edges: Vec<(u32, u32)> = Vec::with_capacity(n * 2);
    let mut peer_edges: Vec<(u32, u32)> = Vec::new();

    // LTPs: provider-free full peer clique (the tier-1 default-free zone).
    for a in 0..n_ltp as u32 {
        for b in (a + 1)..n_ltp as u32 {
            peer_edges.push((ltp0 + a, ltp0 + b));
        }
    }

    // Hypergiants: peer mesh among themselves, plus 2 LTP transits (even
    // giants keep some transit for the long tail of routes).
    for a in 0..n_hyper as u32 {
        for b in (a + 1)..n_hyper as u32 {
            peer_edges.push((hyper0 + a, hyper0 + b));
        }
    }
    for h in 0..n_hyper as u32 {
        let mut ltps: Vec<u32> = (0..n_ltp as u32).collect();
        ltps.shuffle(rng);
        for &l in ltps.iter().take(2) {
            provider_edges.push((hyper0 + h, ltp0 + l));
        }
    }

    // STPs: 1–2 LTP providers; lateral peering with 1–2 earlier same-region
    // STPs (regional exchanges).
    // Per-region lists are indexed by `Region::ALL` position (the enum's
    // declaration order).
    let region_of = |v: u32| atlas.metro(home_metro[v as usize]).region as usize;
    let mut stp_by_region: [Vec<u32>; Region::ALL.len()] = Default::default();
    for s in 0..n_stp as u32 {
        let v = stp0 + s;
        let region = region_of(v);
        let mut ltps: Vec<u32> = (0..n_ltp as u32).collect();
        ltps.shuffle(rng);
        for &l in ltps.iter().take(rng.gen_range(1..=2)) {
            provider_edges.push((v, ltp0 + l));
        }
        let prior = &stp_by_region[region];
        if !prior.is_empty() {
            for _ in 0..rng.gen_range(1..=2usize) {
                if let Some(&p) = prior.choose(rng) {
                    if p != v {
                        peer_edges.push((p, v));
                    }
                }
            }
        }
        stp_by_region[region].push(v);
    }

    // ECs: 1–3 providers (60/30/10), preferential attachment within the
    // home region's STP pool — every pick re-enters the urn, so provider
    // customer-degrees follow a heavy-tailed (rich-get-richer)
    // distribution like the measured AS graph.
    // A region none of the STPs calls home has an empty urn, which falls
    // through to the global one.
    let mut urn_by_region = stp_by_region;
    let mut global_urn: Vec<u32> = (stp0..ec0).collect();
    let mut chosen: Vec<u32> = Vec::with_capacity(3);
    for e in 0..n_ec as u32 {
        let v = ec0 + e;
        let region = region_of(v);
        let r = rng.gen::<f64>();
        let n_prov = if r < 0.60 {
            1
        } else if r < 0.90 {
            2
        } else {
            3
        };
        chosen.clear();
        let mut guard = 0;
        while chosen.len() < n_prov && guard < 32 {
            guard += 1;
            let pick = rng.gen::<f64>();
            let cand = if pick < 0.85 {
                urn_by_region[region]
                    .choose(rng)
                    .copied()
                    .or_else(|| global_urn.choose(rng).copied())
            } else if pick < 0.95 {
                global_urn.choose(rng).copied()
            } else {
                Some(ltp0 + rng.gen_range(0..n_ltp as u32))
            };
            let Some(c) = cand else { break };
            if !chosen.contains(&c) {
                chosen.push(c);
            }
        }
        if chosen.is_empty() {
            // Degenerate region pools: fall back to a deterministic LTP.
            chosen.push(ltp0 + (v % n_ltp as u32));
        }
        for &c in &chosen {
            provider_edges.push((v, c));
            // Rich-get-richer: the chosen STP re-enters both urns.
            if class[c as usize] == AsClass::Stp {
                urn_by_region[region_of(c)].push(c);
                global_urn.push(c);
            }
        }
    }

    // CDN sessions. Transit: the CDN is a customer of `N_CDN_TRANSITS`
    // LTPs, with the session present at EVERY border — this is what makes
    // every announcement (incl. single-border unicast prefixes) globally
    // reachable. Peer sessions follow class-specific footprints.
    let rankings = border_rankings(atlas, cdn);
    let all_borders: Vec<BorderId> = cdn.border_ids().collect();
    let mut sessions: Vec<CdnSession> = Vec::new();
    let mut session_of = vec![NO_SESSION; n];

    let mut transit_ltps: Vec<u32> = (0..n_ltp as u32).collect();
    transit_ltps.shuffle(rng);
    transit_ltps.truncate(N_CDN_TRANSITS.min(n_ltp));
    transit_ltps.sort_unstable();
    for &l in &transit_ltps {
        session_of[l as usize] = sessions.len() as u32;
        sessions.push(CdnSession {
            node: l,
            relation: CdnRelation::Transit,
            borders: all_borders.clone(),
        });
    }

    for v in 0..n as u32 {
        if session_of[v as usize] != NO_SESSION {
            continue;
        }
        let ranked = &rankings[home_metro[v as usize].0 as usize];
        let borders: Option<Vec<BorderId>> = match class[v as usize] {
            AsClass::Ltp => None, // non-transit LTPs reach the CDN via peers
            AsClass::Hypergiant => {
                (rng.gen::<f64>() < P_CDN_PEER_HYPERGIANT).then(|| all_borders.clone())
            }
            AsClass::Stp => (rng.gen::<f64>() < P_CDN_PEER_STP).then(|| {
                let k = rng.gen_range(2..=4usize).min(ranked.len());
                let mut b = ranked[..k].to_vec();
                b.sort_unstable();
                b
            }),
            AsClass::Ec => {
                let r = rng.gen::<f64>();
                if r < P_REMOTE_PEER_EC && ranked.len() >= 3 {
                    // Remote-only peering: one session at a mid-ranked
                    // (distant but not antipodal) exchange.
                    let lo = (ranked.len() / 8).max(1);
                    let hi = (ranked.len() / 3).max(lo + 1).min(ranked.len());
                    Some(vec![ranked[rng.gen_range(lo..hi)]])
                } else if r < P_REMOTE_PEER_EC + P_CDN_PEER_EC {
                    let k = rng.gen_range(1..=2usize).min(ranked.len());
                    let mut b = ranked[..k].to_vec();
                    b.sort_unstable();
                    Some(b)
                } else {
                    None
                }
            }
        };
        if let Some(borders) = borders {
            if !borders.is_empty() {
                session_of[v as usize] = sessions.len() as u32;
                sessions.push(CdnSession {
                    node: v,
                    relation: CdnRelation::Peer,
                    borders,
                });
            }
        }
    }

    // CSR build: providers (v → its providers), customers (exact
    // transpose), peers (symmetric).
    let providers = Csr::from_pairs(n, provider_edges);
    let customers = providers.transposed();
    let mut sym = Vec::with_capacity(peer_edges.len() * 2);
    for &(a, b) in &peer_edges {
        sym.push((a, b));
        sym.push((b, a));
    }
    let peers = Csr::from_pairs(n, sym);

    PolicyGraph {
        n: n as u32,
        class,
        home_metro,
        providers,
        customers,
        peers,
        sessions,
        session_of,
    }
}

/// Bridges every graph node into an eyeball AS (AsId i = node i) so the
/// geo/workload/DNS layers run unmodified. Only enterprise/access nodes get
/// client footprints; transit-class nodes exist as ASes but never attract
/// clients. A final coverage pass guarantees every metro hosts at least one
/// *enterprise* AS (never a transit — clients must not attach to backbones).
fn bridge_eyeballs(atlas: &WorldAtlas, graph: &PolicyGraph, rng: &mut impl Rng) -> EyeballColumns {
    let mut eyeballs = EyeballColumns::with_capacity(graph.n as usize);
    // A footprint is a prefix of the home metro's same-country metros,
    // nearest first (ties in atlas order): one list per home metro, built
    // when its first enterprise AS asks.
    let mut nearest_in_country: Vec<Option<Vec<MetroId>>> = vec![None; atlas.len()];
    for v in 0..graph.n {
        let home = graph.home_metro[v as usize];
        let pops: &[MetroId] = if graph.class[v as usize] == AsClass::Ec {
            let candidates = nearest_in_country[home.0 as usize].get_or_insert_with(|| {
                let country = atlas.metro(home).country;
                let mut ranked: Vec<(MetroId, f64)> = atlas
                    .iter()
                    .filter(|(_, m)| m.country == country)
                    .map(|(mid, _)| (mid, atlas.metro_km(mid, home)))
                    .collect();
                ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
                ranked.into_iter().map(|(m, _)| m).collect()
            });
            let size = rng
                .gen_range(1..=topology::EYEBALL_MAX_POPS)
                .min(candidates.len());
            &candidates[..size]
        } else {
            &[]
        };
        let peering_borders = graph.session(v).map_or(&[][..], |s| &s.borders);
        eyeballs.push(home, pops, peering_borders, &[], EgressPolicy::HotPotato);
    }
    // EC-only metro coverage: orphan metros join the footprint of the
    // enterprise AS with the nearest home (same region strongly preferred).
    eyeballs.cover_orphan_metros(atlas, |v| graph.class[v] == AsClass::Ec);
    eyeballs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::EyeballAs;

    fn policy_cfg(n: usize) -> NetConfig {
        NetConfig {
            worldgen: Some(WorldGenConfig::with_ases(n)),
            ..NetConfig::small()
        }
    }

    #[test]
    fn class_counts_sum_to_n() {
        for n in [64, 1_000, 10_000, 75_000] {
            let wg = WorldGenConfig::with_ases(n);
            let (l, h, s, e) = wg.class_counts();
            assert_eq!(l + h + s + e, n);
            assert!(l >= 6 && h >= 3);
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(WorldGenConfig::with_ases(10).validate().is_err());
        assert!(WorldGenConfig {
            p_session_flap: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(WorldGenConfig::default().validate().is_ok());
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = policy_cfg(500);
        let (t1, w1) = build(&cfg, 42);
        let (t2, w2) = build(&cfg, 42);
        assert_eq!(w1.graph.class, w2.graph.class);
        assert_eq!(w1.graph.home_metro, w2.graph.home_metro);
        assert_eq!(w1.graph.sessions, w2.graph.sessions);
        assert_eq!(w1.graph.providers, w2.graph.providers);
        assert_eq!(w1.graph.peers, w2.graph.peers);
        assert_eq!(t1.eyeballs().len(), t2.eyeballs().len());
        for (a, b) in t1.eyeballs().zip(t2.eyeballs()) {
            assert_eq!(a.pops, b.pops);
            assert_eq!(a.home_metro, b.home_metro);
        }
    }

    /// FNV-1a over every bridged AS's id, home, country, footprint (in
    /// order) and peering borders.
    fn eyeball_digest<'a>(
        atlas: &WorldAtlas,
        eyeballs: impl Iterator<Item = EyeballAs<'a>>,
    ) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in eyeballs {
            eat(u64::from(e.id.0));
            eat(u64::from(e.home_metro.0));
            let country = atlas.metro(e.home_metro).country;
            country.bytes().for_each(|b| eat(u64::from(b)));
            eat(e.pops.len() as u64);
            e.pops.iter().for_each(|m| eat(u64::from(m.0)));
            eat(e.peering_borders.len() as u64);
            e.peering_borders.iter().for_each(|b| eat(u64::from(b.0)));
        }
        h
    }

    /// Footprints, pinned: recorded from the build that filtered, measured
    /// and sorted the atlas once per enterprise AS, before the candidate
    /// lists were shared per home metro. The RNG stream is part of what
    /// is pinned — a footprint drawn one call later moves every AS after
    /// it.
    #[test]
    fn bridged_eyeballs_match_the_recorded_digest() {
        const RECORDED: [(usize, u64, u64); 6] = [
            (1_000, 1, 0xc3fb_0346_8c9e_0060),
            (1_000, 7, 0x0df2_0adb_c6c8_47a5),
            (1_000, 42, 0x24dc_a4c9_c31c_f77e),
            (10_000, 1, 0xb346_7bca_f335_6eee),
            (10_000, 7, 0x286f_62c9_8c63_b543),
            (10_000, 42, 0xf445_1217_e28f_cf1f),
        ];
        // All six at once, so a deliberate change re-records from one run.
        let built = RECORDED.map(|(n, seed, _)| {
            let (topo, _) = build(&policy_cfg(n), seed);
            (n, seed, eyeball_digest(&topo.atlas, topo.eyeballs()))
        });
        assert_eq!(built, RECORDED, "built: {built:#x?}");
    }

    /// FNV-1a over a generated graph: every node's class and home, each
    /// relationship's rows in node order (length, then neighbors), every
    /// session (owner, relation, borders) and `session_of`.
    fn graph_digest(g: &PolicyGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(u64::from(g.n));
        for v in 0..g.n as usize {
            eat(u64::from(g.class[v].code()));
            eat(u64::from(g.home_metro[v].0));
        }
        for csr in [&g.providers, &g.customers, &g.peers] {
            for v in 0..g.n {
                let row = csr.neighbors(v);
                eat(row.len() as u64);
                row.iter().for_each(|&u| eat(u64::from(u)));
            }
        }
        for s in &g.sessions {
            eat(u64::from(s.node));
            eat(u64::from(s.relation == CdnRelation::Transit));
            eat(s.borders.len() as u64);
            s.borders.iter().for_each(|b| eat(u64::from(b.0)));
        }
        g.session_of.iter().for_each(|&s| eat(u64::from(s)));
        h
    }

    /// The whole generated graph, pinned: an edge list, a session or an
    /// RNG draw that moves moves the digest. The world is
    /// `relaxed_nodes.rs`'s: 10,000 ASes at seed 3.
    #[test]
    fn generated_graph_matches_the_recorded_digest() {
        const RECORDED: u64 = 0x23b1_092a_6d3c_7fb8;
        let cfg = NetConfig {
            worldgen: Some(WorldGenConfig::with_ases(10_000)),
            ..NetConfig::default()
        };
        let (_, w) = build(&cfg, 3);
        let built = graph_digest(&w.graph);
        assert_eq!(built, RECORDED, "built: {built:#018x}");
    }

    #[test]
    fn provider_dag_is_acyclic_by_construction() {
        // Edges only point from a later class block to an earlier one
        // (EC→STP/LTP, STP→LTP, hypergiant→LTP), so customer < provider
        // can only fail within... it cannot: verify no provider edge stays
        // within the same class except none exist.
        let (_, w) = build(&policy_cfg(800), 7);
        let g = &w.graph;
        for v in 0..g.n {
            for &p in g.providers.neighbors(v) {
                assert!(
                    g.class[p as usize] > g.class[v as usize]
                        || (g.class[v as usize] == AsClass::Hypergiant
                            && g.class[p as usize] == AsClass::Ltp),
                    "provider edge {v}→{p} does not climb the hierarchy"
                );
            }
        }
    }

    #[test]
    fn every_node_is_routed_in_steady_state() {
        let (_, w) = build(&policy_cfg(1_000), 3);
        let t = w.steady_table();
        assert_eq!(t.routed_count(), w.graph.n as usize);
    }

    #[test]
    fn transit_sessions_cover_every_border() {
        let (topo, w) = build(&policy_cfg(500), 9);
        let n_borders = topo.cdn.borders.len();
        for s in &w.graph.sessions {
            if s.relation == CdnRelation::Transit {
                assert_eq!(s.borders.len(), n_borders);
            }
        }
        assert!(
            w.graph
                .sessions
                .iter()
                .filter(|s| s.relation == CdnRelation::Transit)
                .count()
                >= 1
        );
    }

    #[test]
    fn remote_peering_pathology_exists() {
        let (_, w) = build(&policy_cfg(4_000), 11);
        let singles = w
            .graph
            .sessions
            .iter()
            .filter(|s| {
                s.relation == CdnRelation::Peer
                    && s.borders.len() == 1
                    && w.graph.class[s.node as usize] == AsClass::Ec
            })
            .count();
        assert!(singles > 0, "no remote-only peers generated");
    }

    #[test]
    fn only_enterprises_host_clients() {
        let (topo, w) = build(&policy_cfg(500), 13);
        for e in topo.eyeballs() {
            if w.graph.class[e.id.0 as usize] != AsClass::Ec {
                assert!(e.pops.is_empty(), "transit AS {} has client pops", e.id.0);
            }
        }
        for (mid, m) in topo.atlas.iter() {
            assert!(
                !topo.eyeballs_at_metro(mid).is_empty(),
                "metro {} uncovered",
                m.name
            );
        }
    }

    #[test]
    fn provider_degrees_are_heavy_tailed() {
        let (_, w) = build(&policy_cfg(8_000), 17);
        let g = &w.graph;
        let mut degrees: Vec<usize> = (0..g.n)
            .filter(|&v| g.class[v as usize] == AsClass::Stp)
            .map(|v| g.customers.neighbors(v).len())
            .collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = degrees.iter().sum();
        let top_decile: usize = degrees.iter().take(degrees.len() / 10).sum();
        assert!(
            top_decile as f64 > 0.3 * total as f64,
            "top-10% providers carry {top_decile}/{total} customers — not heavy-tailed"
        );
    }
}
