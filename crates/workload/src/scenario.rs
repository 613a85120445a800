//! End-to-end scenario assembly.
//!
//! A [`Scenario`] is one complete experimental world: the simulated
//! Internet, the client population, the resolver fleet, the CDN address
//! plan, and a geolocation database. Every figure harness, example and
//! integration test starts by building one, then drives days of passive
//! logs and beacon measurements through it.

use anycast_geo::{GeoDb, GeoPoint};
use anycast_netsim::stream::splitmix64;
use anycast_netsim::{CdnAddressing, Day, Internet, NetConfig, Prefix24};
use rand::Rng;

use crate::ldns_assign::{self, LdnsAssignment, LdnsConfig};
use crate::population::{self, Client, PopulationConfig};
use crate::record::PassiveRecord;
use crate::temporal;

/// Everything needed to build a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Internet/topology parameters.
    pub net: NetConfig,
    /// Population parameters.
    pub population: PopulationConfig,
    /// Resolver parameters.
    pub ldns: LdnsConfig,
    /// Fraction of each /24's daily queries that the passive log generator
    /// actually materializes (production logs are huge; experiments sample).
    pub passive_sample_rate: f64,
    /// Master seed. The same seed reproduces the scenario and every
    /// derived measurement bit-for-bit.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            net: NetConfig::default(),
            population: PopulationConfig::default(),
            ldns: LdnsConfig::default(),
            passive_sample_rate: 0.30,
            seed: 0,
        }
    }
}

impl ScenarioConfig {
    /// A small configuration for fast tests.
    pub fn small(seed: u64) -> Self {
        ScenarioConfig {
            net: NetConfig::small(),
            population: PopulationConfig::small(),
            passive_sample_rate: 0.2,
            seed,
            ..Default::default()
        }
    }
}

/// One assembled experimental world.
///
/// ```
/// use anycast_workload::Scenario;
/// use anycast_netsim::Day;
///
/// let scenario = Scenario::small(1);
/// let mut rng = anycast_workload::scenario::seeded_rng(1, 2);
/// let logs = scenario.generate_passive_day(Day(0), &mut rng);
/// assert!(!logs.is_empty());
/// ```
#[derive(Debug)]
pub struct Scenario {
    /// The simulated Internet.
    pub internet: Internet,
    /// The client /24 population. A client's position here is its index,
    /// the one key every per-client fact downstream is read by.
    pub clients: Vec<Client>,
    /// Resolver fleet and client assignment.
    pub ldns: LdnsAssignment,
    /// The CDN's geolocation database, with the default error model.
    pub geodb: GeoDb,
    /// The CDN's address plan.
    pub addressing: CdnAddressing,
    /// Passive sampling rate in force.
    pub passive_sample_rate: f64,
    /// The master seed the scenario was built from.
    pub seed: u64,
    /// `(prefix, client index)` for every client, sorted by prefix.
    by_prefix: Vec<(Prefix24, u32)>,
}

impl Scenario {
    /// Builds a scenario from configuration.
    ///
    /// # Errors
    /// Propagates [`NetConfig`] validation failures.
    pub fn build(cfg: ScenarioConfig) -> Result<Scenario, String> {
        if !(0.0..=1.0).contains(&cfg.passive_sample_rate) {
            return Err(format!(
                "passive_sample_rate must be in [0,1], got {}",
                cfg.passive_sample_rate
            ));
        }
        let internet = Internet::new(cfg.net.clone(), cfg.seed)?;
        let mut rng = seeded_rng(cfg.seed, 0x776f726b);
        let clients = population::generate(internet.topology(), &cfg.population, &mut rng);
        let ldns = ldns_assign::assign(internet.topology(), &clients, &cfg.ldns, &mut rng);
        let geodb = GeoDb::new(cfg.seed ^ 0x67656f64);
        let n_sites = internet.topology().cdn.sites.len() as u16;
        let mut by_prefix: Vec<(Prefix24, u32)> =
            (0..).zip(&clients).map(|(i, c)| (c.prefix, i)).collect();
        by_prefix.sort_unstable();
        Ok(Scenario {
            internet,
            clients,
            ldns,
            geodb,
            addressing: CdnAddressing::standard(n_sites),
            passive_sample_rate: cfg.passive_sample_rate,
            seed: cfg.seed,
            by_prefix,
        })
    }

    /// Convenience: a small world for tests.
    pub fn small(seed: u64) -> Scenario {
        Scenario::build(ScenarioConfig::small(seed)).expect("small config is valid")
    }

    /// The index of the client whose /24 is `prefix`, if it is one of the
    /// population's: where a row names only a prefix, this turns it into
    /// the index per-client facts are read by.
    pub fn client_index(&self, prefix: Prefix24) -> Option<usize> {
        let at = self.by_prefix.binary_search_by_key(&prefix, |&(p, _)| p);
        at.ok().map(|at| self.by_prefix[at].1 as usize)
    }

    /// Where the CDN's geolocation database believes client `idx` is (a
    /// pure function of the client).
    pub fn believed_location(&self, idx: usize) -> GeoPoint {
        let c = &self.clients[idx];
        self.geodb.locate(c.prefix.key(), c.attachment.location)
    }

    /// Generates one day of passive production logs: every client's sampled
    /// queries, routed by anycast, honoring intra-day route switches
    /// (queries before a switch see the route it leaves,
    /// [`Internet::anycast_day`]).
    pub fn generate_passive_day(&self, day: Day, rng: &mut impl Rng) -> Vec<PassiveRecord> {
        let mut out = Vec::new();
        let day_factor = temporal::day_volume_factor(day);
        for (client, c) in (0..).zip(&self.clients) {
            let expected = c.volume as f64 * self.passive_sample_rate * day_factor;
            let n = sample_count(expected, rng);
            if n == 0 {
                continue;
            }
            let routes = self.internet.anycast_day(&c.attachment, day);
            for _ in 0..n {
                let t = temporal::sample_query_time(c.attachment.location.lon_deg(), rng);
                out.push(PassiveRecord {
                    client,
                    site: routes.at(t).site,
                    day,
                    time_s: t,
                });
            }
        }
        out
    }
}

/// Expected-value-preserving integer sample: `floor(x)` plus one with
/// probability `frac(x)`. Consumes at most one draw, so it is safe inside
/// per-entity derived streams (the campaign scheduler uses it that way).
pub fn sample_count(expected: f64, rng: &mut impl Rng) -> u64 {
    let base = expected.floor();
    let extra = if rng.gen::<f64>() < expected - base {
        1
    } else {
        0
    };
    base as u64 + extra
}

/// Derives an independent RNG stream from `(seed, salt)`.
pub fn seeded_rng(seed: u64, salt: u64) -> rand::rngs::SmallRng {
    use rand::SeedableRng;
    rand::rngs::SmallRng::seed_from_u64(splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::sites_seen;

    #[test]
    fn build_small_world() {
        let s = Scenario::small(1);
        assert_eq!(s.clients.len(), 400);
        assert!(!s.ldns.resolvers.is_empty());
        assert_eq!(
            s.addressing.n_sites() as usize,
            s.internet.topology().cdn.sites.len()
        );
    }

    #[test]
    fn bad_sample_rate_rejected() {
        let cfg = ScenarioConfig {
            passive_sample_rate: 1.5,
            ..ScenarioConfig::small(0)
        };
        assert!(Scenario::build(cfg).is_err());
    }

    #[test]
    fn passive_day_has_sampled_volume() {
        let s = Scenario::small(2);
        let mut rng = seeded_rng(2, 1);
        let records = s.generate_passive_day(Day(0), &mut rng);
        let total_volume: u64 = s.clients.iter().map(|c| c.volume).sum();
        let expected = total_volume as f64 * s.passive_sample_rate;
        assert!(
            (records.len() as f64 - expected).abs() < 0.15 * expected,
            "{} records vs expected {expected}",
            records.len()
        );
    }

    #[test]
    fn weekend_volume_dips() {
        let s = Scenario::small(3);
        let mut rng = seeded_rng(3, 1);
        let wed = s.generate_passive_day(Day(0), &mut rng).len() as f64;
        let sat = s.generate_passive_day(Day(3), &mut rng).len() as f64;
        assert!(sat < 0.92 * wed, "sat {sat} vs wed {wed}");
    }

    #[test]
    fn passive_records_go_into_store() {
        // Three days generated one after another: one run of records per
        // day, in day order, over a thousand records in all.
        let s = Scenario::small(4);
        let mut rng = seeded_rng(4, 1);
        let mut records = Vec::new();
        for day in Day(0).span(3) {
            records.extend(s.generate_passive_day(day, &mut rng));
        }
        let mut days: Vec<Day> = records.iter().map(|r| r.day).collect();
        days.dedup();
        assert_eq!(days, vec![Day(0), Day(1), Day(2)]);
        assert!(records.len() > 1000);
    }

    #[test]
    fn flip_days_can_show_two_sites() {
        // Over a week, at least one client must be observed on two
        // front-ends within a single day (intra-day churn).
        let s = Scenario::small(5);
        let mut rng = seeded_rng(5, 1);
        let found = Day(0).span(7).any(|day| {
            let records = s.generate_passive_day(day, &mut rng);
            sites_seen(&records, day, s.clients.len())
                .iter()
                .any(|sites| sites.len() > 1)
        });
        assert!(found, "no intra-day front-end switch observed in a week");
    }

    #[test]
    fn flip_time_is_deterministic_and_in_range() {
        let s = Scenario::small(6);
        let mut switches = 0;
        for c in s.clients.iter().take(100) {
            for day in Day(0).span(3) {
                let Some((t, _)) = s.internet.anycast_day(&c.attachment, day).switch else {
                    continue;
                };
                assert!((0.0..86_400.0).contains(&t));
                assert_eq!(
                    s.internet.anycast_day(&c.attachment, day).switch.unwrap().0,
                    t
                );
                switches += 1;
            }
        }
        assert!(switches > 0, "no client switched in three days");
    }

    #[test]
    fn scenario_is_reproducible() {
        let a = Scenario::small(7);
        let b = Scenario::small(7);
        assert_eq!(a.clients, b.clients);
        let mut ra = seeded_rng(7, 9);
        let mut rb = seeded_rng(7, 9);
        let da = a.generate_passive_day(Day(0), &mut ra);
        let db = b.generate_passive_day(Day(0), &mut rb);
        assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(&db) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.site, y.site);
        }
    }
}
