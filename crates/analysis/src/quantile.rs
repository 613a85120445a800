//! Percentiles.
//!
//! Every percentile the evaluation reports (50th/75th) and every score the
//! §6 exact trainers read is one linear-interpolation rule, read over a
//! sorted slice ([`percentile_sorted`]) or by selection
//! ([`percentile_mut`], or [`percentile_of_keys`] over [`order_key`]s).

/// Linear-interpolation percentile of `values` at `p ∈ [0, 100]`.
/// Returns `None` for an empty slice or non-finite `p`. Input need not be
/// sorted; NaNs are rejected by returning `None` (a NaN in a latency vector
/// is a bug upstream, surfaced rather than propagated).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    percentile_mut(&mut values.to_vec(), p)
}

/// [`percentile`] without the copy, by selection instead of a sort: finds
/// the lower order statistic with `select_nth_unstable_by` (`total_cmp`
/// order) and the upper one as the minimum of what lies to its right, so a
/// read costs O(n). The result is bit-identical to [`percentile_sorted`]
/// over a sorted copy. Leaves `values` partitioned around the read, not
/// sorted. Same `None` cases as [`percentile`]; the slice is untouched
/// then.
pub fn percentile_mut(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() || !p.is_finite() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let (lo, hi, frac) = rank(values.len(), p);
    // Unstable is exact here: values that compare equal under `total_cmp`
    // are bit-identical, so which of them lands at `lo` cannot show.
    let (_, &mut at_lo, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
    if lo == hi {
        return Some(at_lo);
    }
    let at_hi = above.iter().copied().min_by(f64::total_cmp);
    let at_hi = at_hi.expect("hi = lo + 1 lies inside the slice");
    Some(interpolate(at_lo, at_hi, frac))
}

/// `x` as a `u64` whose integer order is [`f64::total_cmp`]'s. The map is
/// a bijection ([`from_order_key`] inverts it), so keys select and sort
/// exactly as their values do under `total_cmp`, on integer compares.
pub fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    // Negative: every bit flips. Positive: only the sign bit does.
    bits ^ (((bits as i64) >> 63) as u64 | 1 << 63)
}

/// The value [`order_key`] keyed.
pub fn from_order_key(key: u64) -> f64 {
    f64::from_bits(key ^ (!(((key as i64) >> 63) as u64) | 1 << 63))
}

/// [`percentile_mut`] over the [`order_key`]s of the values: the same
/// read, bit for bit, with the selection on integer compares. Leaves
/// `keys` partitioned around the read; same `None` cases, the slice
/// untouched then.
pub fn percentile_of_keys(keys: &mut [u64], p: f64) -> Option<f64> {
    // A NaN of either sign keys above +∞ or below -∞.
    let ordered = order_key(f64::NEG_INFINITY)..=order_key(f64::INFINITY);
    if keys.is_empty() || !p.is_finite() || keys.iter().any(|k| !ordered.contains(k)) {
        return None;
    }
    let (lo, hi, frac) = rank(keys.len(), p);
    let at_lo = from_order_key(select_key(keys, lo));
    if lo == hi {
        return Some(at_lo);
    }
    let at_hi = keys[hi..].iter().copied().min();
    let at_hi = from_order_key(at_hi.expect("hi = lo + 1 lies inside the slice"));
    Some(interpolate(at_lo, at_hi, frac))
}

/// Moves the `k`-th smallest of `keys` to `keys[k]`, with no greater key
/// before it and no smaller one after, and returns it. A quickselect whose
/// partitions branch on no comparison, so keys in random order cost no
/// mispredicted branches; past about two passes per halving of the slice
/// it hands what is left to the standard introselect, which bounds the
/// worst case.
fn select_key(keys: &mut [u64], k: usize) -> u64 {
    let (mut lo, mut hi) = (0, keys.len());
    let mut passes = 2 * (usize::BITS - keys.len().leading_zeros());
    while hi - lo > 2 {
        if passes == 0 {
            return *keys[lo..hi].select_nth_unstable(k - lo).1;
        }
        passes -= 1;
        let (a, b, c) = (keys[lo], keys[lo + (hi - lo) / 2], keys[hi - 1]);
        let pivot = a.min(b).max(a.max(b).min(c));
        let below = lo + to_front(&mut keys[lo..hi], |key| key < pivot);
        if k < below {
            hi = below;
        } else if below > lo {
            lo = below;
        } else {
            // The pivot is the least key left: its copies come next.
            let equal = lo + to_front(&mut keys[lo..hi], |key| key == pivot);
            if k < equal {
                return pivot;
            }
            lo = equal;
        }
    }
    if hi - lo == 2 && keys[lo] > keys[lo + 1] {
        keys.swap(lo, lo + 1);
    }
    keys[k]
}

/// Moves the keys `front` holds for to the front of `keys`, in one pass
/// that branches on no key, and returns how many there are.
fn to_front(keys: &mut [u64], front: impl Fn(u64) -> bool) -> usize {
    let mut n = 0;
    for i in 0..keys.len() {
        keys.swap(i, n);
        n += usize::from(front(keys[n]));
    }
    n
}

/// Percentile over an already-sorted slice (ascending). Callers computing
/// many percentiles over the same data should sort once and use this.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let (lo, hi, frac) = rank(sorted.len(), p);
    if lo == hi {
        sorted[lo]
    } else {
        interpolate(sorted[lo], sorted[hi], frac)
    }
}

/// Where the `p`-th percentile of `n ≥ 1` ordered values lies: the two
/// order statistics it falls between (equal when it lands on one) and the
/// fraction of the way from the lower to the upper.
fn rank(n: usize, p: f64) -> (usize, usize, f64) {
    let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// The one interpolation expression every percentile read shares, so the
/// sorting and the selecting reads cannot differ in a bit.
fn interpolate(at_lo: f64, at_hi: f64, frac: f64) -> f64 {
    at_lo * (1.0 - frac) + at_hi * frac
}

/// The median (50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 25.0), Some(2.0));
        // Interpolation between ranks.
        assert_eq!(percentile(&v, 10.0), Some(1.4));
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
    }

    #[test]
    fn percentile_mut_sorts_once_and_matches_the_copying_read() {
        let v: [f64; 7] = [5.0, -0.0, 3.0, 0.0, 3.0, 4.0, 1.0];
        let mut by_hand = v;
        by_hand.sort_by(|a, b| a.total_cmp(b));
        let mut owned = v;
        for p in [0.0, 10.0, 25.0, 50.0, 99.0, 100.0] {
            let want = Some(percentile_sorted(&by_hand, p).to_bits());
            assert_eq!(percentile(&v, p).map(f64::to_bits), want);
            assert_eq!(percentile_mut(&mut owned, p).map(f64::to_bits), want);
        }
        // Partitioned around the last read, not sorted: the same multiset,
        // bit for bit.
        owned.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(owned.map(f64::to_bits), by_hand.map(f64::to_bits));
        // The `None` cases leave the input as it was.
        let mut bad = [2.0, f64::NAN, 1.0];
        assert_eq!(percentile_mut(&mut bad, 50.0), None);
        assert_eq!(bad[0], 2.0);
        assert_eq!(percentile_mut(&mut [], 50.0), None);
        assert_eq!(percentile_mut(&mut [1.0], f64::INFINITY), None);
    }

    #[test]
    fn selection_read_equals_the_sorted_read_on_every_small_input() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2015);
        for n in 1..=48usize {
            for round in 0..8 {
                // Few distinct values, so ties are everywhere; every third
                // round draws signed zeros among them.
                let distinct = rng.gen_range(1..=n.min(7) as u64);
                let values: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..distinct + 2) {
                        0 if round % 3 == 0 => -0.0,
                        1 if round % 3 == 0 => 0.0,
                        k => k as f64 * 1.25 - 3.0,
                    })
                    .collect();
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let sorted_bits: Vec<u64> = sorted.iter().map(|v| v.to_bits()).collect();
                for p in [0.0, 10.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0] {
                    let mut owned = values.clone();
                    let got = percentile_mut(&mut owned, p).map(f64::to_bits);
                    let want = Some(percentile_sorted(&sorted, p).to_bits());
                    assert_eq!(got, want, "n {n} round {round} p {p}: {values:?}");
                    owned.sort_by(|a, b| a.total_cmp(b));
                    let owned_bits: Vec<u64> = owned.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(owned_bits, sorted_bits, "n {n} p {p}: samples kept");
                }
            }
        }
        // The three `None` cases leave the input untouched.
        let shuffled = [3.0, 1.0, 2.0, 0.5];
        let mut with_nan = [3.0, f64::NAN, 2.0, 0.5];
        assert_eq!(percentile_mut(&mut with_nan, 50.0), None);
        assert_eq!(with_nan[0], 3.0);
        assert!(with_nan[1].is_nan());
        assert_eq!(with_nan[2..], shuffled[2..]);
        for bad_p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut owned = shuffled;
            assert_eq!(percentile_mut(&mut owned, bad_p), None);
            assert_eq!(owned, shuffled);
        }
        assert_eq!(percentile_mut(&mut [], 25.0), None);
    }

    #[test]
    fn order_keys_order_as_total_cmp_and_keyed_reads_match() {
        let specials = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in specials {
            assert_eq!(from_order_key(order_key(a)).to_bits(), a.to_bits());
            for b in specials {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{a} {b}");
            }
        }
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for n in 1..=40usize {
            let values: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..6u32) {
                    0 => -0.0,
                    1 => 0.0,
                    k => f64::from(k) * 1.75 - 4.0,
                })
                .collect();
            for p in [0.0, 25.0, 50.0, 95.0, 100.0] {
                let mut keys: Vec<u64> = values.iter().map(|&v| order_key(v)).collect();
                let want = percentile(&values, p).map(f64::to_bits);
                assert_eq!(percentile_of_keys(&mut keys, p).map(f64::to_bits), want);
            }
        }
        // Orders a median-of-three pivot handles worst, long enough to run
        // out of branch-free passes: every rank reads as the sorted one,
        // and the keys stay partitioned around it.
        for n in [3usize, 64, 300, 5_000] {
            let patterns: [Vec<u64>; 5] = [
                (0..n as u64).collect(),
                (0..n as u64).rev().collect(),
                (0..n as u64).map(|i| i.min(n as u64 - i)).collect(),
                (0..n as u64).map(|i| i % 3).collect(),
                vec![7; n],
            ];
            for keys in patterns {
                let mut sorted = keys.clone();
                sorted.sort_unstable();
                for k in [0, n / 4, n / 2, n - 1] {
                    let mut owned = keys.clone();
                    assert_eq!(select_key(&mut owned, k), sorted[k], "n {n} k {k}");
                    assert!(owned[..k].iter().all(|&key| key <= owned[k]));
                    assert!(owned[k..].iter().all(|&key| key >= owned[k]));
                }
            }
        }
        for bad in [[1.0, f64::NAN], [-f64::NAN, 2.0]] {
            let mut keys = bad.map(order_key);
            assert_eq!(percentile_of_keys(&mut keys, 50.0), None);
            assert_eq!(keys, bad.map(order_key));
        }
        assert_eq!(percentile_of_keys(&mut [], 25.0), None);
        assert_eq!(percentile_of_keys(&mut [order_key(1.0)], f64::NAN), None);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[1.0, f64::NAN], 50.0), None);
        assert_eq!(percentile(&[1.0, 2.0], f64::NAN), None);
        // Out-of-range p clamps.
        assert_eq!(percentile(&[1.0, 2.0], 150.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], -10.0), Some(1.0));
    }

    #[test]
    fn median_even_count_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
    }
}
