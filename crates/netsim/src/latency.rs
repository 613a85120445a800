//! The latency model: from a route path to a measured RTT.
//!
//! A measured latency decomposes into:
//!
//! * **propagation** — path length × fiber stretch ÷ speed of light in
//!   fiber, both directions;
//! * **per-hop processing** — a small charge per router, with router count
//!   derived from path length;
//! * **last mile** — access-technology dependent (fiber / cable / DSL /
//!   mobile);
//! * **stable peering congestion** — a per-`(AS, ingress)` penalty that a
//!   fixed fraction of adjacencies carry persistently; this is what makes
//!   some prefixes *consistently* poor (Figures 5–6) rather than just
//!   unlucky;
//! * **per-measurement noise** — lognormal jitter plus occasional transient
//!   spikes, matching the paper's observation that "higher percentiles of
//!   latency distributions are very noisy" (§6);
//! * **server time** — the HTTP fetch the beacon times includes it.
//!
//! The deterministic part ([`LatencyModel::base_rtt_ms`]) is split from the
//! stochastic part ([`LatencyModel::sample_extra_ms`]) so routing decisions
//! can be analyzed noise-free and measurements remain reproducible given an
//! explicit RNG.

use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};

use anycast_geo::LogNormal;

use crate::config::NetConfig;
use crate::ids::{AsId, BorderId};
use crate::sim::Day;
use crate::stream::mix;

/// Client access technology, setting the last-mile RTT floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessTech {
    /// FTTH: ~3 ms last-mile RTT.
    Fiber,
    /// DOCSIS cable: ~8 ms.
    Cable,
    /// DSL: ~16 ms.
    Dsl,
    /// Cellular: ~42 ms.
    Mobile,
}

impl AccessTech {
    /// All technologies with their population mix (mid-2010s broadband
    /// shares, coarse).
    pub const MIX: [(AccessTech, f64); 4] = [
        (AccessTech::Fiber, 0.22),
        (AccessTech::Cable, 0.36),
        (AccessTech::Dsl, 0.32),
        (AccessTech::Mobile, 0.10),
    ];

    /// Median last-mile RTT contribution in milliseconds.
    pub fn last_mile_ms(&self) -> f64 {
        match self {
            AccessTech::Fiber => 3.0,
            AccessTech::Cable => 8.0,
            AccessTech::Dsl => 16.0,
            AccessTech::Mobile => 42.0,
        }
    }

    /// Samples a technology from the population mix using a uniform draw
    /// `u ∈ [0,1)`.
    pub fn sample(u: f64) -> AccessTech {
        let mut acc = 0.0;
        for (tech, w) in AccessTech::MIX {
            acc += w;
            if u < acc {
                return tech;
            }
        }
        AccessTech::Mobile
    }
}

/// One-way propagation speed in fiber, km per millisecond (~2/3 c).
pub const FIBER_KM_PER_MS: f64 = 200.0;
/// Multiplier on great-circle distance to account for fiber paths not
/// following geodesics. 1.25 matches common transit-path stretch
/// estimates.
pub const FIBER_PATH_STRETCH: f64 = 1.25;
/// Per-hop processing/serialization delay, ms (RTT, both directions).
const PER_HOP_MS: f64 = 0.35;
/// Median of the lognormal stable congestion penalty (ms, RTT).
const CONGESTION_MS_MEDIAN: f64 = 26.0;
/// Sigma of the stable congestion penalty lognormal.
const CONGESTION_MS_SIGMA: f64 = 1.1;
/// Median of the per-measurement additive jitter lognormal (ms).
const JITTER_MS_MEDIAN: f64 = 2.0;
/// Sigma of the per-measurement jitter lognormal.
const JITTER_MS_SIGMA: f64 = 0.12;
/// Probability a single measurement hits a transient congestion spike.
const SPIKE_PROB: f64 = 0.12;
/// Transient spikes are uniform in `[SPIKE_MIN_MS, SPIKE_MAX_MS]`.
const SPIKE_MIN_MS: f64 = 10.0;
/// See [`SPIKE_MIN_MS`].
const SPIKE_MAX_MS: f64 = 200.0;
/// Server processing time added to every HTTP fetch (ms, median).
const SERVER_MS_MEDIAN: f64 = 4.0;
/// Sigma of the server processing lognormal.
const SERVER_MS_SIGMA: f64 = 0.05;
/// Probability that a given `(AS, ingress)` peering adjacency is
/// **chronically** congested: the penalty applies every day. This is the
/// small population of prefixes Figure 6 shows poor for five or more (often
/// consecutive) days.
pub const P_CHRONIC_CONGESTION: f64 = 0.02;
/// Per-day probability that an otherwise healthy adjacency suffers a
/// **transient** congestion episode. Episodes are drawn independently per
/// day, so most last exactly one day — Figure 6's "around 60% appear for
/// only one day over the month".
pub const P_EPISODIC_CONGESTION: f64 = 0.07;
/// Probability that a given `(AS, unicast-announcement)` pair carries a
/// stable extra path penalty. The measurement /24s are announced from a
/// single location and carry no production traffic, so ISPs neither
/// traffic-engineer nor hot-fix their routes towards them; a sizable share
/// of such single-prefix paths are measurably worse than the anycast path
/// to the very same building. This is why, in the paper, only 19% of
/// prefixes see *any* daily-median improvement even though 45% of clients
/// are not on their geographically closest front-end.
pub const P_UNICAST_PATH_PENALTY: f64 = 0.55;
/// Median of the stable unicast path penalty, ms.
const UNICAST_PENALTY_MS_MEDIAN: f64 = 4.0;
/// Lognormal sigma of the unicast path penalty.
const UNICAST_PENALTY_MS_SIGMA: f64 = 0.8;

/// The workspace latency model.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    cfg: NetConfig,
    congestion_seed: u64,
}

impl LatencyModel {
    /// Builds the model. `seed` fixes the stable-congestion assignment of
    /// `(AS, ingress)` adjacencies.
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        LatencyModel {
            cfg,
            congestion_seed: seed ^ 0x636f_6e67_6573_7400,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Deterministic RTT for a path of `path_km` great-circle kilometres
    /// ([`RoutePath::total_km`](crate::path::RoutePath::total_km)) on a
    /// given day: propagation + hops + last mile + congestion (chronic and
    /// episodic). Excludes jitter, spikes and server time.
    /// `extra_km` charges route-specific detours (the transit-leg stretch
    /// computed by the route builder) on top of the path's geodesic length.
    pub fn base_rtt_ms(
        &self,
        path_km: f64,
        access: AccessTech,
        as_id: AsId,
        ingress: BorderId,
        day: Day,
        extra_km: f64,
    ) -> f64 {
        let km = (path_km + extra_km.max(0.0)) * FIBER_PATH_STRETCH;
        let propagation = 2.0 * km / FIBER_KM_PER_MS;
        // Router count grows with distance: every ~400 km of fiber crosses
        // another IP hop, on top of a handful of fixed hops at the edges.
        let routers = 4.0 + km / 400.0;
        let processing = routers * PER_HOP_MS;
        propagation + processing + access.last_mile_ms() + self.congestion_ms(as_id, ingress, day)
    }

    /// The congestion penalty of the `(AS, ingress)` adjacency on `day`.
    ///
    /// Two deterministic components model the two persistence regimes of
    /// Figure 6:
    ///
    /// * **chronic** — a small fraction of adjacencies carry the penalty
    ///   every day (the 5+-consecutive-day tail);
    /// * **episodic** — healthy adjacencies suffer independent per-day
    ///   episodes, so most poor paths last exactly one day.
    pub fn congestion_ms(&self, as_id: AsId, ingress: BorderId, day: Day) -> f64 {
        let key = (u64::from(as_id.0) << 24) | u64::from(ingress.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mix(self.congestion_seed, key, 0xc401));
        if rng.gen::<f64>() < P_CHRONIC_CONGESTION {
            return LogNormal::new(CONGESTION_MS_MEDIAN, CONGESTION_MS_SIGMA).sample(&mut rng);
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mix(
            self.congestion_seed,
            key ^ (u64::from(day.0) << 40),
            0xe915,
        ));
        if rng.gen::<f64>() < P_EPISODIC_CONGESTION {
            return LogNormal::new(CONGESTION_MS_MEDIAN, CONGESTION_MS_SIGMA).sample(&mut rng);
        }
        0.0
    }

    /// Samples the per-measurement additive components: jitter, transient
    /// spike, and server time.
    pub fn sample_extra_ms<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let jitter = LogNormal::new(JITTER_MS_MEDIAN, JITTER_MS_SIGMA).sample(rng);
        let spike = if rng.gen::<f64>() < SPIKE_PROB {
            rng.gen_range(SPIKE_MIN_MS..=SPIKE_MAX_MS)
        } else {
            0.0
        };
        let server = LogNormal::new(SERVER_MS_MEDIAN, SERVER_MS_SIGMA).sample(rng);
        jitter + spike + server
    }
}

impl LatencyModel {
    /// The stable path penalty of routing towards `announcement`'s unicast
    /// /24 from `as_id`'s network: zero for most pairs, a lognormal penalty
    /// for a [`P_UNICAST_PATH_PENALTY`] share (non-engineered single-prefix
    /// paths).
    pub fn unicast_path_penalty_ms(&self, as_id: AsId, announcement: BorderId) -> f64 {
        let key = 0x5550_0000_0000_0000 | (u64::from(as_id.0) << 24) | u64::from(announcement.0);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mix(self.congestion_seed, key, 0x751c));
        if rng.gen::<f64>() < P_UNICAST_PATH_PENALTY {
            LogNormal::new(UNICAST_PENALTY_MS_MEDIAN, UNICAST_PENALTY_MS_SIGMA).sample(&mut rng)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{Hop, HopKind, RoutePath};
    use anycast_geo::{GeoPoint, MetroId};
    use rand::rngs::SmallRng;

    fn straight_km(km_target: f64) -> f64 {
        // Length of an equatorial two-hop path of roughly the requested length.
        let start = GeoPoint::new(0.0, 0.0);
        let end = start.destination(90.0, km_target);
        RoutePath::new(vec![
            Hop {
                kind: HopKind::ClientAccess,
                metro: MetroId(0),
                location: start,
            },
            Hop {
                kind: HopKind::FrontEnd,
                metro: MetroId(1),
                location: end,
            },
        ])
        .total_km()
    }

    fn model() -> LatencyModel {
        LatencyModel::new(NetConfig::default(), 7)
    }

    #[test]
    fn rtt_scales_with_distance() {
        let m = model();
        let near = m.base_rtt_ms(
            straight_km(100.0),
            AccessTech::Fiber,
            AsId(50),
            BorderId(0),
            Day(0),
            0.0,
        );
        let far = m.base_rtt_ms(
            straight_km(5000.0),
            AccessTech::Fiber,
            AsId(50),
            BorderId(0),
            Day(0),
            0.0,
        );
        assert!(far > near + 40.0, "near {near} far {far}");
        // 5000 km * 1.25 stretch / 200 km/ms * 2 = 62.5 ms of propagation.
        assert!(far > 62.0 && far < 120.0, "far {far}");
    }

    #[test]
    fn last_mile_orders_by_technology() {
        let m = model();
        let km = straight_km(500.0);
        let fiber = m.base_rtt_ms(km, AccessTech::Fiber, AsId(50), BorderId(0), Day(0), 0.0);
        let cable = m.base_rtt_ms(km, AccessTech::Cable, AsId(50), BorderId(0), Day(0), 0.0);
        let dsl = m.base_rtt_ms(km, AccessTech::Dsl, AsId(50), BorderId(0), Day(0), 0.0);
        let mobile = m.base_rtt_ms(km, AccessTech::Mobile, AsId(50), BorderId(0), Day(0), 0.0);
        assert!(fiber < cable && cable < dsl && dsl < mobile);
        assert!((mobile - fiber - 39.0).abs() < 1e-9);
    }

    #[test]
    fn congestion_fraction_matches_config() {
        let m = model();
        let n = 20_000u32;
        let congested_today = (0..n)
            .filter(|&i| m.congestion_ms(AsId(i % 400), BorderId((i / 400) as u16), Day(3)) > 0.0)
            .count();
        let frac = congested_today as f64 / f64::from(n);
        let expected = P_CHRONIC_CONGESTION + (1.0 - P_CHRONIC_CONGESTION) * P_EPISODIC_CONGESTION;
        assert!(
            (frac - expected).abs() < 0.01,
            "congested fraction {frac} vs expected {expected}"
        );
    }

    #[test]
    fn chronic_congestion_is_stable_across_days() {
        // A pair congested on *every* probed day must carry the identical
        // chronic penalty, and such pairs must exist.
        let m = model();
        let mut found_chronic = false;
        for i in 0..2000u32 {
            let a = AsId(i % 400);
            let b = BorderId((i / 400) as u16);
            let per_day: Vec<f64> = (0..20).map(|d| m.congestion_ms(a, b, Day(d))).collect();
            if per_day.iter().all(|&x| x > 0.0) {
                found_chronic = true;
                assert!(
                    per_day.windows(2).all(|w| w[0] == w[1]),
                    "chronic penalty varies"
                );
            }
        }
        assert!(found_chronic, "no chronic adjacency found");
    }

    #[test]
    fn episodic_congestion_is_mostly_single_day() {
        // Among non-chronic congested (pair, day) observations, runs of
        // consecutive congested days should be rare.
        let m = model();
        let mut episode_days = 0u32;
        let mut followed_by_another = 0u32;
        for i in 0..4000u32 {
            let a = AsId(i % 400);
            let b = BorderId((i / 400) as u16);
            if (0..28).all(|d| m.congestion_ms(a, b, Day(d)) > 0.0) {
                continue; // chronic
            }
            for d in 0..27 {
                if m.congestion_ms(a, b, Day(d)) > 0.0 {
                    episode_days += 1;
                    if m.congestion_ms(a, b, Day(d + 1)) > 0.0 {
                        followed_by_another += 1;
                    }
                }
            }
        }
        assert!(
            episode_days > 100,
            "too few episodes to judge ({episode_days})"
        );
        let continuation = f64::from(followed_by_another) / f64::from(episode_days);
        assert!(
            continuation < 0.15,
            "episodes too persistent: {continuation}"
        );
    }

    #[test]
    fn noise_is_positive_and_noisy_in_the_tail() {
        let m = model();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut xs: Vec<f64> = (0..20_000).map(|_| m.sample_extra_ms(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.total_cmp(b));
        let p50 = xs[xs.len() / 2];
        let p99 = xs[xs.len() * 99 / 100];
        // The tail must be much fatter than the median — the §6 noise
        // argument for preferring low percentiles as prediction metrics.
        assert!(p99 > 3.0 * p50, "p50 {p50} p99 {p99}");
    }

    #[test]
    fn access_mix_sums_to_one_and_samples_cover_all() {
        let total: f64 = AccessTech::MIX.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let mut seen = crate::stream::FastMap::default();
        for i in 0..100 {
            seen.insert(AccessTech::sample(i as f64 / 100.0), ());
        }
        assert_eq!(seen.len(), 4);
        // Boundary draw falls back to Mobile rather than panicking.
        assert_eq!(AccessTech::sample(1.0), AccessTech::Mobile);
    }

    #[test]
    fn empty_path_still_has_floor_latency() {
        let m = model();
        let rtt = m.base_rtt_ms(
            RoutePath::default().total_km(),
            AccessTech::Dsl,
            AsId(50),
            BorderId(0),
            Day(0),
            0.0,
        );
        // Fixed hops + last mile, no propagation.
        assert!(rtt > 15.0 && rtt < 30.0, "floor {rtt}");
    }
}
