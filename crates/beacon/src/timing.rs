//! Browser timing accuracy.
//!
//! "Using JavaScript to measure the elapsed time between the start and end
//! of a fetch is known to not be a precise measurement of performance,
//! whereas the W3C Resource Timing API provides access to accurate resource
//! download timing information from compliant Web browsers. The beacon
//! first records latency using the primitive timings. Upon completion, if
//! the browser supports the resource timing API, then the beacon
//! substitutes the more accurate values" (§3.2.2).
//!
//! [`browser_is_compliant`] and [`observe`] reproduce that: a
//! [`RESOURCE_TIMING_SUPPORT`] share of beacon runs come from compliant
//! browsers and report the true RTT; the rest report the primitive timing —
//! the true RTT plus a positive, lognormal overhead (event-loop scheduling,
//! DOM callbacks).

use anycast_geo::LogNormal;
use rand::distributions::Distribution;
use rand::Rng;

/// Fraction of browsers supporting the Resource Timing API (mid-2015: most
/// evergreen desktop browsers, not yet Safari).
pub const RESOURCE_TIMING_SUPPORT: f64 = 0.78;
/// Median of the primitive-timing overhead, ms.
pub const PRIMITIVE_OVERHEAD_MS: f64 = 9.0;
/// Lognormal sigma of the overhead.
pub const PRIMITIVE_OVERHEAD_SIGMA: f64 = 0.9;

/// Whether this beacon run's browser supports resource timing (drawn once
/// per execution — all four measurements share the browser).
pub fn browser_is_compliant(rng: &mut impl Rng) -> bool {
    rng.gen::<f64>() < RESOURCE_TIMING_SUPPORT
}

/// The latency the beacon reports for a fetch whose true RTT is
/// `true_rtt_ms`, given browser compliance.
///
/// Reports are quantized to **whole milliseconds**: both `Date.now()`
/// deltas and the 2015-era Resource Timing attributes surface integer (or
/// integer-rounded) millisecond values. This quantization matters
/// analytically — it is what lets two statistically identical paths
/// produce *exactly* equal medians, so the §5 "any improvement"
/// classification is not dominated by sub-millisecond noise ties.
pub fn observe(true_rtt_ms: f64, compliant: bool, rng: &mut impl Rng) -> f64 {
    let raw = if compliant {
        true_rtt_ms
    } else {
        true_rtt_ms + LogNormal::new(PRIMITIVE_OVERHEAD_MS, PRIMITIVE_OVERHEAD_SIGMA).sample(rng)
    };
    raw.round()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn compliant_browsers_report_truth_in_whole_ms() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(observe(42.0, true, &mut rng), 42.0);
            assert_eq!(observe(42.4, true, &mut rng), 42.0);
            assert_eq!(observe(42.6, true, &mut rng), 43.0);
        }
    }

    #[test]
    fn reports_are_integer_milliseconds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for i in 0..1000 {
            let rtt = 10.0 + f64::from(i) * 0.37;
            let compliant = i % 2 == 0;
            let v = observe(rtt, compliant, &mut rng);
            assert_eq!(v, v.round());
        }
    }

    #[test]
    fn primitive_timings_overestimate() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut overheads: Vec<f64> = (0..5000)
            .map(|_| observe(42.0, false, &mut rng) - 42.0)
            .collect();
        assert!(overheads.iter().all(|&o| o >= 0.0));
        overheads.sort_by(|a, b| a.total_cmp(b));
        let median = overheads[overheads.len() / 2];
        assert!(
            (median - PRIMITIVE_OVERHEAD_MS).abs() < 1.5,
            "median overhead {median}"
        );
    }

    #[test]
    fn support_fraction_is_respected() {
        let mut rng = SmallRng::seed_from_u64(3);
        let compliant = (0..20_000)
            .filter(|_| browser_is_compliant(&mut rng))
            .count() as f64
            / 20_000.0;
        assert!(
            (compliant - RESOURCE_TIMING_SUPPORT).abs() < 0.02,
            "compliant fraction {compliant}"
        );
    }
}
