//! The authoritative measurement policy: server-side candidate selection.
//!
//! §3.3's three overhead/accuracy mechanisms, implemented where the paper
//! implements them — at the DNS server:
//!
//! 1. only the **ten closest front-ends to the LDNS** (by the CDN's
//!    geolocation of the LDNS) are candidates;
//! 2. each beacon gets four answers: the anycast VIP, the geo-closest
//!    candidate, and two random candidates **weighted towards closer ones**
//!    ("we return the 3rd closest front-end with higher probability than
//!    the 4th closest");
//! 3. answers are deterministic per measurement id, so reruns of a seed
//!    reproduce the same "random" diversity.

use std::borrow::Cow;
use std::sync::Arc;

use anycast_geo::{GeoPoint, NearestIndex};
use anycast_netsim::stream::{splitmix64, FastMap};
use anycast_netsim::{CdnAddressing, SiteId};
use rand::{Rng, SeedableRng};

use anycast_dns::{DnsAnswer, QueryContext, RedirectionPolicy};

use crate::slots::Slot;

/// The measurement redirection policy installed on the authoritative server
/// for the beacon's probe zone.
#[derive(Debug, Clone)]
pub struct MeasurementPolicy {
    sites: NearestIndex<SiteId>,
    addressing: CdnAddressing,
    /// Candidate-set size (the paper's ten).
    pub candidates: usize,
    /// TTL written into measurement answers. Nothing in the campaign reads
    /// it: a beacon resolves each test URL once and fetches from that
    /// answer, so no answer is ever reused past its query.
    pub ttl_s: u32,
    seed: u64,
    known: Arc<KnownResolvers>,
}

/// The candidate sets of the resolver locations a policy was told about
/// ([`MeasurementPolicy::with_known_resolvers`]): a candidate set is a
/// function of the resolver's location alone, and a campaign asks for the
/// same few thousand locations hundreds of thousands of times a day.
#[derive(Debug, Default)]
struct KnownResolvers {
    /// The candidate-set size the sets were computed at.
    k: usize,
    /// By the bit patterns of the location's latitude and longitude.
    sets: FastMap<(u64, u64), Vec<(SiteId, f64)>>,
}

fn location_bits(p: &GeoPoint) -> (u64, u64) {
    (p.lat_deg().to_bits(), p.lon_deg().to_bits())
}

impl MeasurementPolicy {
    /// Builds the policy over the CDN's site catalog.
    pub fn new(
        site_locations: Vec<(SiteId, GeoPoint)>,
        addressing: CdnAddressing,
        candidates: usize,
        ttl_s: u32,
        seed: u64,
    ) -> MeasurementPolicy {
        assert!(candidates >= 2, "need at least two candidates");
        MeasurementPolicy {
            sites: NearestIndex::new(site_locations),
            addressing,
            candidates,
            ttl_s,
            seed,
            known: Arc::default(),
        }
    }

    /// Computes the candidate set of each distinct location of `locations`
    /// now, once, so answers for a resolver at one of them read it instead
    /// of ranking the site catalog again; resolvers that share a location
    /// share its one ranking. Clones of the policy share the sets. Answers
    /// are unchanged: a location not listed here (or a policy whose
    /// `candidates` was changed afterwards) is ranked on the spot.
    pub fn with_known_resolvers(mut self, locations: &[GeoPoint]) -> MeasurementPolicy {
        let mut sets = FastMap::default();
        for loc in locations {
            sets.entry(location_bits(loc))
                .or_insert_with(|| self.sites.k_nearest(loc, self.candidates));
        }
        self.known = Arc::new(KnownResolvers {
            k: self.candidates,
            sets,
        });
        self
    }

    /// The candidate front-ends for an LDNS at `ldns_location`: the k
    /// nearest sites with distances, ascending.
    fn candidates_of(&self, ldns_location: &GeoPoint) -> Cow<'_, [(SiteId, f64)]> {
        match self.known.sets.get(&location_bits(ldns_location)) {
            Some(set) if self.known.k == self.candidates => Cow::Borrowed(set),
            _ => Cow::Owned(self.sites.k_nearest(ldns_location, self.candidates)),
        }
    }

    /// The site a given slot's answer selects for an LDNS location, or
    /// `None` for the anycast slot (whose answer is the VIP, not a site).
    /// Exposed for tests and for the Figure 1 candidate-rank analysis.
    pub fn select_site(&self, slot: Slot, id: u64, ldns_location: &GeoPoint) -> Option<SiteId> {
        match slot {
            Slot::Anycast => None,
            Slot::GeoClosest => self.candidates_of(ldns_location).first().map(|&(s, _)| s),
            Slot::Random1 | Slot::Random2 => {
                let candidates = self.candidates_of(ldns_location);
                let rest = &candidates[1.min(candidates.len())..];
                if rest.is_empty() {
                    return candidates.first().map(|&(s, _)| s);
                }
                // Weight ∝ 1/(rank+1): the 3rd closest beats the 4th.
                let weight = |r: usize| 1.0 / (r as f64 + 2.0);
                let total: f64 = (0..rest.len()).map(weight).sum();
                let mut rng = id_rng(self.seed, id);
                let mut draw = rng.gen::<f64>() * total;
                for (i, &(site, _)) in rest.iter().enumerate() {
                    draw -= weight(i);
                    if draw <= 0.0 {
                        return Some(site);
                    }
                }
                rest.last().map(|&(s, _)| s)
            }
        }
    }
}

impl RedirectionPolicy for MeasurementPolicy {
    fn answer(&self, query: &QueryContext<'_>) -> DnsAnswer {
        let Some(id) = query.qname.measurement_id() else {
            // Non-measurement names in the probe zone resolve to anycast —
            // the production default.
            return DnsAnswer::global(self.addressing.anycast_ip(), self.ttl_s);
        };
        let slot = Slot::from_id(id);
        match self.select_site(slot, id, &query.ldns_location) {
            None => DnsAnswer::global(self.addressing.anycast_ip(), self.ttl_s),
            Some(site) => DnsAnswer::global(self.addressing.site_ip(site), self.ttl_s),
        }
    }
}

fn id_rng(seed: u64, id: u64) -> rand::rngs::SmallRng {
    rand::rngs::SmallRng::seed_from_u64(splitmix64(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_dns::{DnsName, LdnsId};
    use anycast_netsim::Day;
    use rand::seq::SliceRandom;

    fn policy() -> MeasurementPolicy {
        // Sites along the equator at 0, 10, 20, ... 110 degrees east.
        let sites: Vec<(SiteId, GeoPoint)> = (0..12)
            .map(|i| (SiteId(i), GeoPoint::new(0.0, f64::from(i) * 10.0)))
            .collect();
        MeasurementPolicy::new(sites, CdnAddressing::standard(12), 10, 300, 7)
    }

    fn ctx<'a>(qname: &'a DnsName, loc: GeoPoint) -> QueryContext<'a> {
        QueryContext {
            qname,
            ldns: LdnsId(0),
            ldns_location: loc,
            ecs: None,
            day: Day(0),
            time_s: 0.0,
        }
    }

    #[test]
    fn anycast_slot_returns_vip() {
        let p = policy();
        let zone = DnsName::new("cdn.example").unwrap();
        let qname = DnsName::measurement(Slot::Anycast.id_for(5), &zone);
        let a = p.answer(&ctx(&qname, GeoPoint::new(0.0, 1.0)));
        assert!(p.addressing.is_anycast(a.addr));
    }

    #[test]
    fn geo_closest_slot_returns_nearest_site() {
        let p = policy();
        let zone = DnsName::new("cdn.example").unwrap();
        // LDNS at 42°E: nearest site is #4 (40°E).
        let qname = DnsName::measurement(Slot::GeoClosest.id_for(5), &zone);
        let a = p.answer(&ctx(&qname, GeoPoint::new(0.0, 42.0)));
        assert_eq!(p.addressing.site_for_ip(a.addr), Some(SiteId(4)));
    }

    #[test]
    fn random_slots_never_return_the_geo_closest() {
        let p = policy();
        let loc = GeoPoint::new(0.0, 42.0);
        for counter in 0..200 {
            for slot in [Slot::Random1, Slot::Random2] {
                let site = p.select_site(slot, slot.id_for(counter), &loc).unwrap();
                assert_ne!(site, SiteId(4), "random pick equals geo-closest");
            }
        }
    }

    #[test]
    fn random_picks_stay_within_candidates() {
        let p = policy();
        // LDNS at 0°E: the ten candidates are sites 0-9, never 10 or 11.
        let loc = GeoPoint::new(0.0, 0.0);
        let mut seen = std::collections::BTreeSet::new();
        for counter in 0..200 {
            let site = p
                .select_site(Slot::Random1, Slot::Random1.id_for(counter), &loc)
                .unwrap();
            assert!(site.0 < 10, "{site:?} is not a candidate");
            seen.insert(site);
        }
        // Every candidate but the geo-closest gets drawn.
        assert_eq!(seen.len(), 9);
    }

    #[test]
    fn random_weighting_prefers_closer_candidates() {
        let p = policy();
        let loc = GeoPoint::new(0.0, 0.0);
        // Candidate ranks: site1 is 2nd closest, site9 is 10th closest.
        let mut n_second = 0;
        let mut n_tenth = 0;
        for counter in 0..5000 {
            let site = p
                .select_site(Slot::Random1, Slot::Random1.id_for(counter), &loc)
                .unwrap();
            if site == SiteId(1) {
                n_second += 1;
            } else if site == SiteId(9) {
                n_tenth += 1;
            }
        }
        assert!(
            n_second > 2 * n_tenth,
            "2nd-closest picked {n_second}, 10th-closest {n_tenth}"
        );
    }

    #[test]
    fn selection_is_deterministic_per_id() {
        let p = policy();
        let loc = GeoPoint::new(0.0, 33.0);
        for counter in 0..50 {
            let id = Slot::Random2.id_for(counter);
            assert_eq!(
                p.select_site(Slot::Random2, id, &loc),
                p.select_site(Slot::Random2, id, &loc)
            );
        }
    }

    #[test]
    fn non_measurement_names_resolve_to_anycast() {
        let p = policy();
        let qname = DnsName::new("www.cdn.example").unwrap();
        let a = p.answer(&ctx(&qname, GeoPoint::new(0.0, 0.0)));
        assert!(p.addressing.is_anycast(a.addr));
    }

    /// The policy over `Scenario::small(7)`'s sites with the candidate set
    /// of every resolver's believed location memoised, a second policy
    /// that was told of no resolver, and the believed locations.
    fn small_scenario_policies() -> (MeasurementPolicy, MeasurementPolicy, Vec<GeoPoint>) {
        use anycast_workload::{ldns_assign, Scenario};
        let s = Scenario::small(7);
        let believed: Vec<GeoPoint> = s
            .ldns
            .resolvers
            .iter()
            .map(|r| ldns_assign::believed_ldns_location(r, &s.geodb))
            .collect();
        let plain = MeasurementPolicy::new(s.internet.site_locations(), s.addressing, 10, 300, 7);
        let memoised = plain.clone().with_known_resolvers(&believed);
        (memoised, plain, believed)
    }

    #[test]
    fn memoised_candidate_sets_are_k_nearest_for_every_resolver() {
        let (memoised, plain, believed) = small_scenario_policies();
        assert!(believed.len() > 20);
        for loc in &believed {
            let Cow::Borrowed(set) = memoised.candidates_of(loc) else {
                panic!("{loc:?} was not memoised");
            };
            assert_eq!(set, memoised.sites.k_nearest(loc, 10));
        }
        // Clones share the sets instead of copying them.
        assert!(Arc::ptr_eq(&memoised.known, &memoised.clone().known));

        // Every believed location told one to eight times, shuffled: one
        // set per distinct location, and every answer the plain policy's.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut told: Vec<GeoPoint> = Vec::new();
        for loc in &believed {
            told.extend(std::iter::repeat_n(*loc, rng.gen_range(1..=8)));
        }
        told.shuffle(&mut rng);
        assert!(told.len() > 2 * believed.len());
        let repeated = plain.clone().with_known_resolvers(&told);
        let distinct: std::collections::HashSet<(u64, u64)> =
            believed.iter().map(location_bits).collect();
        assert_eq!(repeated.known.sets.len(), distinct.len());
        for (i, loc) in told.iter().enumerate() {
            let Cow::Borrowed(set) = repeated.candidates_of(loc) else {
                panic!("{loc:?} was not memoised");
            };
            assert_eq!(set, plain.sites.k_nearest(loc, 10));
            for slot in Slot::ALL {
                let id = slot.id_for(i as u64);
                assert_eq!(
                    repeated.select_site(slot, id, loc),
                    plain.select_site(slot, id, loc)
                );
            }
        }
    }

    #[test]
    fn unknown_or_resized_candidate_lookups_fall_back_to_ranking() {
        let (memoised, _, believed) = small_scenario_policies();
        // A location no resolver is believed at.
        let nowhere = GeoPoint::new(12.345, -67.89);
        assert!(matches!(memoised.candidates_of(&nowhere), Cow::Owned(_)));
        assert_eq!(
            *memoised.candidates_of(&nowhere),
            memoised.sites.k_nearest(&nowhere, 10)
        );
        // A known location after the public size field moved: the sets were
        // computed at ten, so they no longer apply.
        let mut resized = memoised.clone();
        resized.candidates = 4;
        assert!(matches!(resized.candidates_of(&believed[0]), Cow::Owned(_)));
        assert_eq!(
            *resized.candidates_of(&believed[0]),
            resized.sites.k_nearest(&believed[0], 4)
        );
    }

    /// Every answer of the grid below, hashed. Recorded while a copy of
    /// the body that ranked the catalog on every call still agreed with
    /// `select_site` answer for answer over the same grid.
    const SELECT_SITE_DIGEST: u64 = 0x4376_52b9_99d8_b0ed;

    #[test]
    fn select_site_keeps_its_rules_and_its_recorded_answers() {
        let (memoised, plain, believed) = small_scenario_policies();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |site: Option<SiteId>| {
            h = (h ^ site.map_or(u64::MAX, |s| u64::from(s.0))).wrapping_mul(0x100_0000_01b3);
        };
        let step = believed.len() / 20;
        for loc in believed.iter().step_by(step).take(20) {
            let candidates = memoised.candidates_of(loc);
            let closest = candidates[0].0;
            for counter in 0..10_000 {
                for slot in [Slot::GeoClosest, Slot::Random1, Slot::Random2] {
                    let id = slot.id_for(counter);
                    let site = memoised.select_site(slot, id, loc);
                    if counter < 100 {
                        assert_eq!(plain.select_site(slot, id, loc), site);
                    }
                    eat(site);
                    let site = site.unwrap();
                    if slot == Slot::GeoClosest {
                        assert_eq!(site, closest);
                    } else {
                        assert_ne!(site, closest, "{slot:?} drew the closest");
                        assert!(candidates.iter().any(|&(s, _)| s == site));
                    }
                }
            }
            assert_eq!(memoised.select_site(Slot::Anycast, 0, loc), None);
        }
        // A one-site catalog leaves the random slots nothing to draw from.
        let lone = MeasurementPolicy::new(
            vec![(SiteId(3), GeoPoint::new(1.0, 2.0))],
            CdnAddressing::standard(4),
            10,
            300,
            7,
        );
        for slot in Slot::ALL {
            let site = lone.select_site(slot, slot.id_for(1), &believed[0]);
            assert_eq!(site, (slot != Slot::Anycast).then_some(SiteId(3)));
            eat(site);
        }
        assert_eq!(h, SELECT_SITE_DIGEST, "select_site digest {h:#018x}");
    }

    #[test]
    fn different_ldns_locations_get_different_candidates() {
        let p = policy();
        let closest = |lon| {
            p.select_site(
                Slot::GeoClosest,
                Slot::GeoClosest.id_for(1),
                &GeoPoint::new(0.0, lon),
            )
        };
        assert_ne!(closest(0.0), closest(110.0));
    }
}
