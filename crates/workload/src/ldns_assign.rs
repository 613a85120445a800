//! LDNS placement and client→resolver assignment.
//!
//! The paper's redirection analysis hinges on where resolvers are relative
//! to their clients (§2, §3.3):
//!
//! * ISP resolvers serve their own AS's clients and usually sit near them —
//!   "excluding 8% of demand from public resolvers, only 11-12% of demand
//!   comes from clients who are further than 500km from their LDNS";
//! * public resolvers serve "large, geographically disparate sets of
//!   clients" and support ECS.
//!
//! The model: each eyeball AS gets one resolver per footprint cluster
//! (placed at the AS's largest PoPs), a fixed fraction of ASes centralize
//! their resolver at the home metro even for remote PoPs (the distant-LDNS
//! tail), and three public resolvers capture a fixed share of demand.

use anycast_geo::GeoPoint;
use anycast_netsim::stream::FastMap;
use anycast_netsim::Topology;
use rand::Rng;

use anycast_dns::{Ldns, LdnsId, ResolverKind};

use crate::population::Client;

/// Fraction of client demand using a public resolver (paper: ~8%).
pub const PUBLIC_RESOLVER_SHARE: f64 = 0.08;
/// Fraction of eyeball ASes that centralize DNS at their home metro,
/// leaving remote-PoP clients far from their LDNS (paper: 11-12% of demand
/// farther than 500 km).
pub const CENTRALIZED_DNS_FRACTION: f64 = 0.12;

/// Parameters of resolver placement and assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdnsConfig {
    /// Fraction of ISP resolvers that attach ECS to upstream queries
    /// (mid-2015: essentially none; §7 discusses what ISP adoption would
    /// unlock — "clients using their ISPs' LDNS cannot benefit unless the
    /// ISPs enable ECS").
    pub isp_ecs_fraction: f64,
}

impl Default for LdnsConfig {
    fn default() -> Self {
        LdnsConfig {
            isp_ecs_fraction: 0.0,
        }
    }
}

/// The resolver fleet plus the per-client assignment.
#[derive(Debug)]
pub struct LdnsAssignment {
    /// All resolvers, indexed by `LdnsId` value.
    pub resolvers: Vec<Ldns>,
    /// Client index (position in the assigned population) → resolver.
    pub by_client: Vec<LdnsId>,
}

impl LdnsAssignment {
    /// The resolver serving the client at index `client`.
    ///
    /// # Panics
    /// Panics if the index is past the assigned population.
    pub fn resolver_of(&self, client: usize) -> LdnsId {
        self.by_client[client]
    }

    /// The resolver with the given id.
    pub fn resolver(&self, id: LdnsId) -> &Ldns {
        &self.resolvers[id.0 as usize]
    }
}

/// Number of public resolver deployments.
const N_PUBLIC: usize = 3;

/// Places resolvers and assigns every client to one.
pub fn assign(
    topo: &Topology,
    clients: &[Client],
    cfg: &LdnsConfig,
    rng: &mut impl Rng,
) -> LdnsAssignment {
    let mut resolvers: Vec<Ldns> = Vec::new();

    // Public resolvers: anycast deployments; model each as located at a
    // major metro on a distinct continent, ECS-capable.
    let public_homes = topo.atlas.top_by_population(N_PUBLIC * 3, None);
    let mut public_ids = Vec::new();
    for i in 0..N_PUBLIC {
        let id = LdnsId(resolvers.len() as u32);
        let metro = public_homes[(i * 3) % public_homes.len()];
        resolvers.push(Ldns::new(
            id,
            ResolverKind::Public,
            topo.atlas.metro(metro).location(),
            true,
        ));
        public_ids.push(id);
    }

    // ISP resolvers: per (AS, metro) for decentralized ASes, per AS (at the
    // home metro) for centralized ones.
    // By position in `topo.eyeballs()`, which is the id past the transits.
    let centralized: Vec<bool> = topo
        .eyeballs()
        .map(|_| rng.gen::<f64>() < CENTRALIZED_DNS_FRACTION)
        .collect();
    let mut isp_resolver: FastMap<(u32, u32), LdnsId> = FastMap::default();

    let mut by_client = Vec::with_capacity(clients.len());
    for c in clients {
        let use_public = !public_ids.is_empty() && rng.gen::<f64>() < PUBLIC_RESOLVER_SHARE;
        let id = if use_public {
            public_ids[rng.gen_range(0..public_ids.len())]
        } else {
            let as_raw = c.attachment.as_id.0;
            let resolver_metro = if centralized[as_raw as usize - topo.transits.len()] {
                topo.eyeball(c.attachment.as_id).home_metro
            } else {
                c.attachment.metro
            };
            *isp_resolver
                .entry((as_raw, resolver_metro.0))
                .or_insert_with(|| {
                    let id = LdnsId(resolvers.len() as u32);
                    let supports_ecs = rng.gen::<f64>() < cfg.isp_ecs_fraction;
                    resolvers.push(Ldns::new(
                        id,
                        ResolverKind::IspLocal,
                        topo.atlas.metro(resolver_metro).location(),
                        supports_ecs,
                    ));
                    id
                })
        };
        by_client.push(id);
    }

    LdnsAssignment {
        resolvers,
        by_client,
    }
}

/// Where a geolocation database believes a resolver is (stable per
/// resolver).
pub fn believed_ldns_location(ldns: &Ldns, geodb: &anycast_geo::GeoDb) -> GeoPoint {
    // Key space offset so LDNS keys never collide with client-prefix keys.
    geodb.locate(0x4C44_4E53_0000_0000 | u64::from(ldns.id.0), ldns.location)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{self, PopulationConfig};
    use anycast_netsim::NetConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup() -> (Topology, Vec<Client>, LdnsAssignment) {
        let topo = Topology::generate(&NetConfig::small(), 3);
        let mut rng = SmallRng::seed_from_u64(11);
        let clients = population::generate(&topo, &PopulationConfig::small(), &mut rng);
        let assignment = assign(&topo, &clients, &LdnsConfig::default(), &mut rng);
        (topo, clients, assignment)
    }

    #[test]
    fn every_client_has_a_resolver() {
        let (_, clients, a) = setup();
        assert_eq!(a.by_client.len(), clients.len());
        for i in 0..clients.len() {
            let id = a.resolver_of(i);
            assert!((id.0 as usize) < a.resolvers.len());
        }
    }

    #[test]
    fn public_share_is_respected() {
        let (_, clients, a) = setup();
        let public = (0..clients.len())
            .filter(|&i| a.resolver(a.resolver_of(i)).kind == ResolverKind::Public)
            .count();
        let frac = public as f64 / clients.len() as f64;
        assert!(
            (frac - PUBLIC_RESOLVER_SHARE).abs() < 0.04,
            "public fraction {frac}"
        );
    }

    #[test]
    fn public_resolvers_support_ecs_isp_do_not_by_default() {
        let (_, _, a) = setup();
        for r in &a.resolvers {
            match r.kind {
                ResolverKind::Public => assert!(r.supports_ecs),
                ResolverKind::IspLocal => assert!(!r.supports_ecs),
            }
        }
    }

    #[test]
    fn isp_ecs_adoption_fraction_is_respected() {
        let topo = Topology::generate(&NetConfig::small(), 3);
        let mut rng = SmallRng::seed_from_u64(19);
        let clients = population::generate(
            &topo,
            &PopulationConfig {
                n_prefixes: 2000,
                ..PopulationConfig::small()
            },
            &mut rng,
        );
        let cfg = LdnsConfig {
            isp_ecs_fraction: 0.5,
        };
        let a = assign(&topo, &clients, &cfg, &mut rng);
        let isp: Vec<_> = a
            .resolvers
            .iter()
            .filter(|r| r.kind == ResolverKind::IspLocal)
            .collect();
        let adopted = isp.iter().filter(|r| r.supports_ecs).count();
        let frac = adopted as f64 / isp.len() as f64;
        assert!((frac - 0.5).abs() < 0.15, "adoption {frac}");
    }

    #[test]
    fn most_isp_clients_are_near_their_ldns() {
        let (_, clients, a) = setup();
        let mut near = 0;
        let mut total = 0;
        for (i, c) in clients.iter().enumerate() {
            let r = a.resolver(a.resolver_of(i));
            if r.kind != ResolverKind::IspLocal {
                continue;
            }
            total += 1;
            if c.attachment.location.haversine_km(&r.location) <= 500.0 {
                near += 1;
            }
        }
        let frac_far = 1.0 - near as f64 / total as f64;
        // Paper: 11-12% of (non-public) demand further than 500 km. Allow a
        // generous band; the exact value depends on footprint sizes.
        assert!(frac_far < 0.30, "far-LDNS fraction {frac_far}");
        assert!(frac_far > 0.01, "no distant-LDNS tail at all");
    }

    #[test]
    fn centralized_ases_have_distant_clients() {
        // A remote-PoP client of a centralized AS is served from the AS's
        // home metro, far from where it sits.
        let topo = Topology::generate(&NetConfig::small(), 3);
        let mut rng = SmallRng::seed_from_u64(13);
        let clients = population::generate(
            &topo,
            &PopulationConfig {
                n_prefixes: 2000,
                ..PopulationConfig::small()
            },
            &mut rng,
        );
        let a = assign(&topo, &clients, &LdnsConfig::default(), &mut rng);
        let distant = clients.iter().enumerate().any(|(i, c)| {
            let ldns = a.resolver(a.resolver_of(i));
            let home = topo.eyeball(c.attachment.as_id).home_metro;
            ldns.kind == ResolverKind::IspLocal
                && c.attachment.metro != home
                && ldns.location == topo.atlas.metro(home).location()
                && c.attachment.location.haversine_km(&ldns.location) > 500.0
        });
        assert!(distant, "no distant client-LDNS pairs");
    }

    #[test]
    fn assignment_is_deterministic() {
        let topo = Topology::generate(&NetConfig::small(), 3);
        let mut rng1 = SmallRng::seed_from_u64(17);
        let clients1 = population::generate(&topo, &PopulationConfig::small(), &mut rng1);
        let a1 = assign(&topo, &clients1, &LdnsConfig::default(), &mut rng1);
        let mut rng2 = SmallRng::seed_from_u64(17);
        let clients2 = population::generate(&topo, &PopulationConfig::small(), &mut rng2);
        let a2 = assign(&topo, &clients2, &LdnsConfig::default(), &mut rng2);
        assert_eq!(a1.resolvers.len(), a2.resolvers.len());
        assert_eq!(a1.by_client, a2.by_client);
    }

    #[test]
    fn believed_location_is_stable_and_keyspace_separated() {
        let (_, _, a) = setup();
        let db = anycast_geo::GeoDb::new(5);
        for r in a.resolvers.iter().take(20) {
            assert_eq!(
                believed_ldns_location(r, &db),
                believed_ldns_location(r, &db)
            );
        }
    }
}
