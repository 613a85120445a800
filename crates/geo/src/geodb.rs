//! Geolocation database with a stable error model.
//!
//! The paper relies on a commercial geolocation database in two places: the
//! beacon picks candidate front-ends by *LDNS geolocation* (§3.3), and the
//! distance analyses geolocate client prefixes (§5). Footnote 1 concedes that
//! "no geolocation database is perfect" and that a fraction of very long
//! client-to-front-end distances may be geolocation artifacts.
//!
//! [`GeoDb`] reproduces that imperfection deterministically: for any key
//! (e.g. a /24 prefix id or an LDNS id) it reports either the true location
//! or — with probability [`MISLOCATE_PROB`] — a displaced one. The displacement is
//! a lognormal-distributed distance in a uniform direction, and crucially it
//! is a *stable function of the key*: the database returns the same wrong
//! answer every time, exactly like a real database with a stale entry.

use crate::coords::GeoPoint;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use rand_chacha_free::SplitMix64;

/// A tiny deterministic key-to-stream generator.
///
/// We avoid pulling in a hash crate: SplitMix64 is the standard 64-bit mixer
/// (public domain, used by `rand` internals and Java's `SplittableRandom`).
/// It gives us an independent, reproducible random stream per database key.
mod rand_chacha_free {
    /// SplitMix64 state; see Steele et al., "Fast Splittable Pseudorandom
    /// Number Generators" (OOPSLA 2014).
    pub struct SplitMix64(pub u64);

    impl SplitMix64 {
        /// Next 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Probability that a key's database entry is mislocated at all. Real
/// databases are right at country level almost always and at city level
/// most of the time; this models a 6% city-level miss rate.
pub const MISLOCATE_PROB: f64 = 0.06;
/// Median displacement of a mislocated entry, in km.
pub const ERROR_KM_MEDIAN: f64 = 200.0;
/// Lognormal shape parameter of the displacement (sigma of the underlying
/// normal). Larger values fatten the tail of very wrong entries — the
/// paper's "very long client-to-front-end distances" artifact.
pub const ERROR_KM_SIGMA: f64 = 1.4;

/// A deterministic geolocation database.
///
/// `GeoDb` does not store entries; it *is* the (pure) function from
/// `(key, true_location)` to `believed_location`, parameterized by a seed.
/// This keeps memory flat no matter how many client prefixes an experiment
/// uses, while behaving exactly like a static database snapshot.
#[derive(Debug, Clone, Copy)]
pub struct GeoDb {
    seed: u64,
}

impl GeoDb {
    /// Creates the database snapshot named by `seed`.
    pub fn new(seed: u64) -> Self {
        GeoDb { seed }
    }

    /// The believed location of `key`, whose true location is `true_loc`.
    ///
    /// Stable: the same `(seed, key, true_loc)` always yields the same
    /// answer. Independent keys get independent error draws.
    pub fn locate(&self, key: u64, true_loc: GeoPoint) -> GeoPoint {
        let mut mix = SplitMix64(self.seed ^ key.wrapping_mul(0xA24B_AED4_963E_E407));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(mix.next_u64());
        if rng.gen::<f64>() >= MISLOCATE_PROB {
            return true_loc;
        }
        // Lognormal displacement distance: median * exp(sigma * N(0,1)).
        let normal: f64 = sample_standard_normal(&mut rng);
        let distance = ERROR_KM_MEDIAN * (ERROR_KM_SIGMA * normal).exp();
        let bearing = rng.gen_range(0.0..360.0);
        true_loc.destination(bearing, distance)
    }
}

/// Samples a standard normal via Box–Muller; avoids depending on
/// `rand_distr` (not in the approved dependency set).
fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // Uniform draws in (0, 1]: guard against ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A lognormal sampler usable by other crates (latency jitter etc.), built on
/// the same Box–Muller primitive so the whole workspace shares one
/// implementation.
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    /// exp(mu): the median of the distribution.
    pub median: f64,
    /// Sigma of the underlying normal.
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a sampler with the given median and shape.
    pub fn new(median: f64, sigma: f64) -> Self {
        LogNormal { median, sigma }
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.median * (self.sigma * n).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;

    #[test]
    fn locate_is_stable_per_key() {
        let db = GeoDb::new(42);
        let p = GeoPoint::new(48.85, 2.35);
        for key in 0..500 {
            assert_eq!(db.locate(key, p), db.locate(key, p), "key {key}");
        }
    }

    #[test]
    fn different_seeds_give_different_snapshots() {
        // Of the keys either snapshot mislocates, almost none agree.
        let a = GeoDb::new(1);
        let b = GeoDb::new(2);
        let p = GeoPoint::new(0.0, 0.0);
        let (mut wrong, mut differing) = (0, 0);
        for k in 0..5_000 {
            let (la, lb) = (a.locate(k, p), b.locate(k, p));
            if la != p || lb != p {
                wrong += 1;
                differing += usize::from(la != lb);
            }
        }
        assert!(wrong > 300, "{wrong} mislocated keys");
        assert!(differing * 10 > wrong * 9, "{differing} of {wrong} differ");
    }

    #[test]
    fn mislocate_fraction_matches_model() {
        let db = GeoDb::new(7);
        let p = GeoPoint::new(35.68, 139.65);
        let n = 50_000;
        let bad = (0..n).filter(|&k| db.locate(k, p) != p).count();
        let frac = bad as f64 / n as f64;
        assert!((frac - MISLOCATE_PROB).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn error_distances_have_expected_median() {
        let db = GeoDb::new(11);
        let p = GeoPoint::new(51.5, -0.13);
        let mut dists: Vec<f64> = (0..300_000)
            .map(|k| db.locate(k, p))
            .filter(|&q| q != p)
            .map(|q| q.haversine_km(&p))
            .collect();
        assert!(dists.len() > 15_000, "{} mislocated keys", dists.len());
        dists.sort_by(|a, b| a.total_cmp(b));
        let median = dists[dists.len() / 2];
        assert!((median - ERROR_KM_MEDIAN).abs() < 25.0, "median {median}");
        // Fat tail exists: some entries are very wrong (> 1500 km).
        assert!(dists.iter().any(|&d| d > 1500.0));
    }

    #[test]
    fn lognormal_sampler_median_and_positivity() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let ln = LogNormal::new(50.0, 0.5);
        let mut xs: Vec<f64> = (0..20_000).map(|_| ln.sample(&mut rng)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.total_cmp(b));
        let median = xs[xs.len() / 2];
        assert!((median - 50.0).abs() < 3.0, "median {median}");
    }
}
