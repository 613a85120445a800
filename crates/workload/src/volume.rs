//! Query-volume skew.
//!
//! "To reflect that the number of queries per /24 is heavily skewed across
//! prefixes, … we present some of our results weighting the /24s by the
//! number of queries from the prefix" (§3.2). The skew is Zipfian: the
//! r-th most active prefix contributes ∝ 1/r^s queries.

use rand::seq::SliceRandom;
use rand::Rng;

/// Draws `n` daily query volumes summing approximately to `total`, Zipf-
/// distributed with exponent `s`, randomly permuted so volume rank is
/// independent of generation order. Every prefix gets at least one query.
///
/// # Panics
/// Panics if `n` is zero or `s` is not finite and non-negative.
pub fn zipf_volumes(n: usize, s: f64, total: u64, rng: &mut impl Rng) -> Vec<u64> {
    assert!(n > 0, "need at least one prefix");
    assert!(s.is_finite() && s >= 0.0, "bad Zipf exponent {s}");
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let weight_sum: f64 = weights.iter().sum();
    let mut volumes: Vec<u64> = weights
        .iter()
        .map(|w| ((w / weight_sum) * total as f64).round().max(1.0) as u64)
        .collect();
    volumes.shuffle(rng);
    volumes
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn volumes_sum_near_total() {
        let mut rng = SmallRng::seed_from_u64(1);
        let v = zipf_volumes(1000, 1.05, 100_000, &mut rng);
        let total: u64 = v.iter().sum();
        assert!((total as f64 - 100_000.0).abs() < 10_000.0, "total {total}");
    }

    #[test]
    fn every_prefix_gets_a_query() {
        let mut rng = SmallRng::seed_from_u64(2);
        let v = zipf_volumes(5000, 1.3, 10_000, &mut rng);
        assert!(v.iter().all(|&x| x >= 1));
    }

    #[test]
    fn zipf_is_skewed_uniform_is_not() {
        let mut rng = SmallRng::seed_from_u64(3);
        let zipf = zipf_volumes(2000, 1.1, 1_000_000, &mut rng);
        let uniform = zipf_volumes(2000, 0.0, 1_000_000, &mut rng);
        // Share of all volume held by the top tenth of prefixes.
        let top_decile_share = |v: &[u64]| {
            let mut sorted = v.to_vec();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let top: u64 = sorted[..v.len() / 10].iter().sum();
            top as f64 / v.iter().sum::<u64>() as f64
        };
        assert!(top_decile_share(&zipf) > 0.6, "zipf head too light");
        assert!(top_decile_share(&uniform) < 0.11, "uniform head too heavy");
    }

    #[test]
    fn shuffle_decouples_rank_from_index() {
        let mut rng = SmallRng::seed_from_u64(4);
        let v = zipf_volumes(1000, 1.1, 1_000_000, &mut rng);
        // The largest volume should almost never sit at index 0 after the
        // shuffle.
        let max = *v.iter().max().unwrap();
        let max_pos = v.iter().position(|&x| x == max).unwrap();
        assert!(max_pos != 0 || v[1] != max, "suspiciously unshuffled");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_prefixes_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        zipf_volumes(0, 1.0, 100, &mut rng);
    }
}
