//! Client /24 population generation.
//!
//! Each client is one /24 prefix: localized (all its hosts share a metro and
//! an access network, per the paper's Freedman-et-al. citation), attached to
//! an eyeball AS present at its metro, and placed at a concrete location
//! within commuting distance of the metro center. Prefixes are allocated
//! the way access networks announce them — contiguous blocks per (metro,
//! AS) — so numerically adjacent /24s share routing fate, the property the
//! routing-aware table aggregation depends on.

use anycast_geo::{LogNormal, Metro, MetroId, Region};
use anycast_netsim::{AccessTech, ClientAttachment, Prefix24, PrefixAllocator, Topology};
use rand::distributions::Distribution;
use rand::seq::SliceRandom;
use rand::Rng;

/// One client /24 and everything the experiments need to know about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Client {
    /// The /24 prefix identity.
    pub prefix: Prefix24,
    /// Network attachment (AS, metro, location, access technology).
    pub attachment: ClientAttachment,
    /// Country of the client's metro.
    pub country: &'static str,
    /// Region of the client's metro.
    pub region: Region,
    /// Daily query volume (queries per day attributed to this /24).
    pub volume: u64,
}

impl Client {
    /// The client's metro record.
    pub fn metro<'t>(&self, topo: &'t Topology) -> &'t Metro {
        topo.atlas.metro(self.attachment.metro)
    }
}

/// Parameters of population generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Number of client /24 prefixes to generate.
    pub n_prefixes: usize,
    /// Total queries per day across the population (volumes are scaled to
    /// sum approximately to this).
    pub daily_queries: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            n_prefixes: 4000,
            daily_queries: 400_000,
        }
    }
}

impl PopulationConfig {
    /// A small population for fast tests.
    pub fn small() -> Self {
        PopulationConfig {
            n_prefixes: 400,
            daily_queries: 20_000,
        }
    }
}

/// Zipf exponent of the per-/24 query-volume skew (≈1 for web traffic).
const ZIPF_EXPONENT: f64 = 1.05;
/// Median displacement of a client from its metro center, km. Clients are
/// not at the metro's city hall: metro areas plus their commuter and rural
/// hinterland spread populations over hundreds of km, which is what puts
/// the paper's median client 280 km from its nearest front-end even though
/// front-ends sit in major metros.
const SPREAD_KM_MEDIAN: f64 = 110.0;
/// Lognormal sigma of the displacement (tail heaviness).
const SPREAD_SIGMA: f64 = 1.0;
/// Per-region usage multipliers applied on top of raw metro population
/// when sampling client locations. The studied service's user base was
/// heavily North-American/European; raw world population would put nearly
/// half the clients in Asia, which no mid-2010s search engine's traffic
/// resembled.
const REGION_USAGE: [(Region, f64); 6] = [
    (Region::NorthAmerica, 3.4),
    (Region::Europe, 2.6),
    (Region::Asia, 0.45),
    (Region::SouthAmerica, 0.8),
    (Region::Oceania, 2.2),
    (Region::Africa, 0.35),
];

/// Generates the client population over a topology. Metros are drawn
/// proportionally to population; the AS is drawn uniformly from those
/// present at the metro; volumes follow [`crate::volume::zipf_volumes`].
pub fn generate(topo: &Topology, cfg: &PopulationConfig, rng: &mut impl Rng) -> Vec<Client> {
    let mut alloc = PrefixAllocator::new();
    let volumes =
        crate::volume::zipf_volumes(cfg.n_prefixes, ZIPF_EXPONENT, cfg.daily_queries, rng);
    let spread = LogNormal::new(SPREAD_KM_MEDIAN, SPREAD_SIGMA);
    // Usage-weighted metro sampler: population × region usage factor.
    let usage = |r: Region| -> f64 {
        REGION_USAGE
            .iter()
            .find(|(region, _)| *region == r)
            .map(|(_, w)| *w)
            .unwrap_or(1.0)
    };
    let mut cumulative: Vec<f64> = Vec::with_capacity(topo.atlas.len());
    let mut total = 0.0f64;
    for (_, m) in topo.atlas.iter() {
        total += f64::from(m.population_k) * usage(m.region).max(0.0);
        cumulative.push(total);
    }
    let sample_metro = |u: f64| -> MetroId {
        let target = u.clamp(0.0, 1.0 - f64::EPSILON) * total;
        let idx = cumulative.partition_point(|&c| c <= target);
        MetroId(idx.min(topo.atlas.len() - 1) as u32)
    };
    let mut clients: Vec<Client> = (0..cfg.n_prefixes)
        .map(|i| {
            let metro_id = sample_metro(rng.gen());
            let metro = topo.atlas.metro(metro_id);
            let as_id = *topo
                .eyeballs_at_metro(metro_id)
                .choose(rng)
                .expect("every metro hosts at least one eyeball AS");
            let bearing = rng.gen_range(0.0..360.0);
            let location = metro.location().destination(bearing, spread.sample(rng));
            Client {
                // Placeholder; real prefixes are assigned in routing order
                // below.
                prefix: Prefix24::from_raw(0),
                attachment: ClientAttachment {
                    as_id,
                    metro: metro_id,
                    location,
                    access: AccessTech::sample(rng.gen()),
                },
                country: metro.country,
                region: metro.region,
                volume: volumes[i],
            }
        })
        .collect();
    // Address-space realism (§3.2: /24s "tend to be localized"): an access
    // network announces contiguous blocks, so clients of the same eyeball
    // AS at the same metro get *adjacent* /24s. This is the structure the
    // routing-aware aggregation pass exploits — without it, numerically
    // adjacent prefixes would be geographically independent, which no real
    // allocation looks like.
    let mut order: Vec<usize> = (0..clients.len()).collect();
    order.sort_by_key(|&i| {
        let a = &clients[i].attachment;
        (a.metro, a.as_id, i)
    });
    for i in order {
        clients[i].prefix = alloc.alloc();
    }
    clients
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_netsim::NetConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn world_and_clients() -> (Topology, Vec<Client>) {
        let topo = Topology::generate(&NetConfig::small(), 3);
        let mut rng = SmallRng::seed_from_u64(5);
        let clients = generate(&topo, &PopulationConfig::small(), &mut rng);
        (topo, clients)
    }

    #[test]
    fn population_size_and_unique_prefixes() {
        let (_, clients) = world_and_clients();
        assert_eq!(clients.len(), 400);
        let mut prefixes: Vec<Prefix24> = clients.iter().map(|c| c.prefix).collect();
        prefixes.sort();
        prefixes.dedup();
        assert_eq!(prefixes.len(), 400);
    }

    #[test]
    fn clients_attach_to_ases_at_their_metro() {
        let (topo, clients) = world_and_clients();
        for c in &clients {
            assert!(
                topo.eyeballs_at_metro(c.attachment.metro)
                    .contains(&c.attachment.as_id),
                "client AS not present at metro"
            );
            assert_eq!(c.country, topo.atlas.metro(c.attachment.metro).country);
            assert_eq!(c.region, topo.atlas.metro(c.attachment.metro).region);
        }
    }

    #[test]
    fn clients_are_near_their_metro() {
        let (topo, clients) = world_and_clients();
        for c in &clients {
            let d = c
                .attachment
                .location
                .haversine_km(&topo.atlas.metro(c.attachment.metro).location());
            assert!(d < 5000.0, "client {} km from metro center", d);
        }
    }

    #[test]
    fn volume_is_skewed() {
        let (_, clients) = world_and_clients();
        let mut volumes: Vec<u64> = clients.iter().map(|c| c.volume).collect();
        volumes.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = volumes.iter().sum();
        let top_decile: u64 = volumes[..volumes.len() / 10].iter().sum();
        assert!(
            top_decile as f64 > 0.4 * total as f64,
            "top 10% of prefixes carry only {}% of queries",
            100 * top_decile / total
        );
        assert!(volumes.iter().all(|&v| v >= 1));
    }

    #[test]
    fn total_volume_approximates_config() {
        let (_, clients) = world_and_clients();
        let total: u64 = clients.iter().map(|c| c.volume).sum();
        let target = PopulationConfig::small().daily_queries;
        assert!(
            (total as f64 - target as f64).abs() < 0.1 * target as f64,
            "total {total} vs target {target}"
        );
    }

    #[test]
    fn populous_metros_attract_more_clients() {
        let topo = Topology::generate(&NetConfig::small(), 3);
        let mut rng = SmallRng::seed_from_u64(7);
        let cfg = PopulationConfig {
            n_prefixes: 5000,
            ..PopulationConfig::small()
        };
        let clients = generate(&topo, &cfg, &mut rng);
        let mut counts: std::collections::HashMap<MetroId, usize> = Default::default();
        for c in &clients {
            *counts.entry(c.attachment.metro).or_default() += 1;
        }
        // The most client-heavy metro must be one of the world's biggest.
        let (&busiest, _) = counts.iter().max_by_key(|&(&m, &n)| (n, m)).unwrap();
        let top_metro = topo.atlas.metro(busiest);
        assert!(
            top_metro.population_k > 10_000,
            "top metro {}",
            top_metro.name
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let topo = Topology::generate(&NetConfig::small(), 3);
        let a = generate(
            &topo,
            &PopulationConfig::small(),
            &mut SmallRng::seed_from_u64(9),
        );
        let b = generate(
            &topo,
            &PopulationConfig::small(),
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn adjacent_prefixes_share_routing_fate() {
        // Contiguous allocation per (metro, AS): sorting clients by prefix
        // must yield long same-metro runs — numerically adjacent /24s
        // belong to the same access network almost everywhere (block
        // boundaries are the only exceptions).
        let (_, clients) = world_and_clients();
        let mut by_prefix: Vec<&Client> = clients.iter().collect();
        by_prefix.sort_by_key(|c| c.prefix);
        let same_metro = by_prefix
            .windows(2)
            .filter(|w| w[0].attachment.metro == w[1].attachment.metro)
            .count();
        let share = same_metro as f64 / (by_prefix.len() - 1) as f64;
        assert!(
            share > 0.6,
            "only {share:.2} of adjacent prefix pairs share a metro"
        );
        // And within a metro, same-AS runs are contiguous too.
        let same_as = by_prefix
            .windows(2)
            .filter(|w| w[0].attachment.metro == w[1].attachment.metro)
            .filter(|w| w[0].attachment.as_id == w[1].attachment.as_id)
            .count();
        assert!(same_as > 0, "same-AS adjacency must occur");
    }
}
