//! Property tests pinning the pipeline's two contracts:
//!
//! * **accuracy** — a quantile read never misses the requested rank by
//!   more than the advertised `eps · n` (plus the off-by-one a discrete
//!   rank comparison needs);
//! * **determinism** — merging is bit-exactly commutative and associative,
//!   and a sharded ingestion run produces bit-identical output for any
//!   worker count;
//! * **one read** — the in-place `quantile_read` the sketched trainer
//!   scores with answers bit-for-bit what the copying `quantile` answers,
//!   and a sketch's state does not depend on how its insert buffer grew.

use std::collections::BTreeMap;

use anycast_beacon::Target;
use anycast_netsim::SiteId;
use anycast_pipeline::{mix64, sketch_day, QuantileSketch, ShardConfig};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn sketch_of(values: &[f64], eps: f64) -> QuantileSketch {
    let mut s = QuantileSketch::new(eps);
    for &v in values {
        s.observe(v);
    }
    s
}

/// The positions `estimate` could occupy in `sorted` (ties make it a
/// range): `[count(< estimate), count(<= estimate) - 1]`.
fn rank_window(sorted: &[f64], estimate: f64) -> (f64, f64) {
    let below = sorted.iter().filter(|v| **v < estimate).count();
    let at_or_below = sorted.iter().filter(|v| **v <= estimate).count();
    (below as f64, (at_or_below - 1) as f64)
}

/// The flush threshold of a sketch built with `eps` (the cap of its
/// demand-grown insert buffer), by the sketch's own expression.
fn flush_threshold(eps: f64) -> usize {
    (1.0 / (2.0 * (eps / 3.0))).ceil() as usize
}

/// Asserts `quantile_read` on a copy answers exactly what `quantile`
/// does, at the training percentiles and at `p`.
fn assert_reads_agree(s: &QuantileSketch, p: f64, what: &str) -> Result<(), TestCaseError> {
    for p in [0.0, 25.0, 50.0, 75.0, 100.0, p] {
        let copying = s.quantile(p).map(f64::to_bits);
        let in_place = s.clone().quantile_read(p).map(f64::to_bits);
        prop_assert_eq!(
            in_place,
            copying,
            "{} sketch, n = {}, p = {}",
            what,
            s.count(),
            p
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn in_place_read_equals_the_copying_read_bit_for_bit(
        values in prop::collection::vec(0.0f64..1_000.0, 700..1_500),
        eps in prop::sample::select(vec![0.005, 0.01, 0.05]),
        small in 1usize..30,
        p in 0.0f64..100.0,
    ) {
        let limit = flush_threshold(eps);
        // Buffer-only: never flushed, answered by in-place selection.
        let buffered = sketch_of(&values[..small.min(limit - 1)], eps);
        prop_assert_eq!(buffered.tuples_len(), 0);
        assert_reads_agree(&buffered, p, "buffer-only")?;
        // One short of the threshold, and exactly at it (the first flush).
        let brim = sketch_of(&values[..limit - 1], eps);
        prop_assert_eq!(brim.tuples_len(), 0);
        assert_reads_agree(&brim, p, "brim-full")?;
        let at_limit = sketch_of(&values[..limit], eps);
        prop_assert!(at_limit.tuples_len() > 0);
        assert_reads_agree(&at_limit, p, "at-threshold")?;
        // Spilled: tuples plus a part-filled buffer.
        let spilled = sketch_of(&values, eps);
        assert_reads_agree(&spilled, p, "spilled")?;
        // Merged: two buffer-only days, and a spilled day into a small one.
        let mut merged_small = buffered.clone();
        merged_small.merge(&sketch_of(&values[small..small + 20], eps));
        assert_reads_agree(&merged_small, p, "merged buffer-only")?;
        let mut merged = buffered;
        merged.merge(&spilled);
        assert_reads_agree(&merged, p, "merged spilled")?;
    }

    #[test]
    fn sketch_state_is_independent_of_buffer_growth(
        values in prop::collection::vec(0.0f64..1_000.0, 1..1_200),
        cut in 0usize..1_200,
        eps in prop::sample::select(vec![0.005, 0.01, 0.05]),
    ) {
        // A clone's buffer holds exactly its values, so from `cut` on the
        // copy reallocates on a different schedule than the original —
        // same stream, different capacities, and the state must not care.
        let limit = flush_threshold(eps);
        let cut = cut % values.len();
        let mut grown = QuantileSketch::new(eps);
        let mut recut = grown.clone();
        for (i, &v) in values.iter().enumerate() {
            if i == cut {
                recut = grown.clone();
            }
            grown.observe(v);
            if i >= cut {
                recut.observe(v);
            }
            if grown.tuples_len() == 0 {
                // Demand growth: at most double what it holds (16 at
                // first), and never past the flush threshold.
                let held = grown.count() as usize;
                prop_assert!(
                    grown.buffer_capacity() <= (2 * held).max(16).min(limit),
                    "{} values in {} slots (threshold {})", held, grown.buffer_capacity(), limit
                );
            }
        }
        prop_assert_eq!(&recut, &grown);
        prop_assert_eq!(sketch_of(&values, eps), grown);
    }

    #[test]
    fn quantile_reads_stay_within_the_advertised_rank_error(
        values in prop::collection::vec(0.0f64..1_000.0, 1..3_000),
        p in 0.0f64..100.0,
    ) {
        let eps = 0.02;
        let s = sketch_of(&values, eps);
        let estimate = s.quantile(p).unwrap();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let target = p / 100.0 * (sorted.len() - 1) as f64;
        let slack = eps * sorted.len() as f64 + 1.0;
        let (lo, hi) = rank_window(&sorted, estimate);
        prop_assert!(
            lo - slack <= target && target <= hi + slack,
            "p{p}: estimate {estimate} sits at ranks [{lo}, {hi}], \
             target {target} ± {slack} (n = {})",
            sorted.len()
        );
    }

    #[test]
    fn merging_preserves_the_bound_over_a_split_stream(
        a in prop::collection::vec(0.0f64..500.0, 1..800),
        b in prop::collection::vec(0.0f64..500.0, 1..800),
        p in 0.0f64..100.0,
    ) {
        let eps = 0.05;
        let mut merged = sketch_of(&a, eps);
        merged.merge(&sketch_of(&b, eps));
        let estimate = merged.quantile(p).unwrap();
        let mut sorted: Vec<f64> = a.iter().chain(&b).copied().collect();
        sorted.sort_by(|x, y| x.total_cmp(y));
        let target = p / 100.0 * (sorted.len() - 1) as f64;
        let slack = eps * sorted.len() as f64 + 1.0;
        let (lo, hi) = rank_window(&sorted, estimate);
        prop_assert!(
            lo - slack <= target && target <= hi + slack,
            "merged p{p}: ranks [{lo}, {hi}], target {target} ± {slack}"
        );
    }

    #[test]
    fn merge_is_bitwise_commutative_and_associative(
        a in prop::collection::vec(0.0f64..100.0, 0..400),
        b in prop::collection::vec(0.0f64..100.0, 0..400),
        c in prop::collection::vec(0.0f64..100.0, 0..400),
    ) {
        let eps = 0.05;
        let (sa, sb, sc) = (sketch_of(&a, eps), sketch_of(&b, eps), sketch_of(&c, eps));

        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab;
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
    }

    #[test]
    fn sharded_ingestion_is_worker_count_invariant(
        records in prop::collection::vec(
            (0u32..64, 0u8..4, 0.0f64..250.0),
            1..2_000,
        ),
        workers in 2usize..9,
        eps in prop::sample::select(vec![0.02, 0.2]),
        p in 0.0f64..100.0,
    ) {
        let records: Vec<(u32, Target, f64)> = records
            .into_iter()
            .map(|(k, t, v)| {
                let target = match t {
                    0 => Target::Anycast,
                    t => Target::Unicast(SiteId(u16::from(t))),
                };
                (k, target, v)
            })
            .collect();
        // Everything a day's sketches answer: the pairs, who passes a
        // count filter, and each pair's percentile, bit for bit.
        let run = |workers: usize| {
            let mut day = sketch_day(
                records.iter().copied(),
                eps,
                ShardConfig { workers },
                |k: &u32| mix64(u64::from(*k)),
            );
            let reads: Vec<_> = [(25.0, 0), (p, 3), (50.0, 20)]
                .into_iter()
                .map(|(p, min_count)| {
                    let scores = day.read(p, min_count);
                    let mut rows: Vec<(u32, Target, u64)> = scores
                        .rows
                        .into_iter()
                        .map(|(k, t, v)| (k, t, v.to_bits()))
                        .collect();
                    rows.sort_unstable();
                    (rows, scores.admitted)
                })
                .collect();
            (day.len(), reads)
        };
        let reference = run(1);
        prop_assert_eq!(reference.1[0].1, reference.0 as u64, "no filter admits every pair");
        let sharded = run(workers);
        prop_assert_eq!(&sharded, &reference, "workers = {}", workers);
    }
}

/// Non-proptest companion: exact counts survive sharding for every key —
/// a cheap full-coverage check the random cases above build on. A pair
/// passes the count filter at `n` exactly when it holds `n` observations
/// or more, so sweeping `n` reads every pair's count.
#[test]
fn sharded_counts_are_exact_per_key() {
    let records: Vec<(u32, Target, f64)> = (0..10_000u64)
        .map(|i| {
            (
                (mix64(i) % 37) as u32,
                Target::Anycast,
                (mix64(i) % 300) as f64,
            )
        })
        .collect();
    let mut expected: BTreeMap<u32, u64> = BTreeMap::new();
    for &(k, _, _) in &records {
        *expected.entry(k).or_insert(0) += 1;
    }
    let mut day = sketch_day(
        records.iter().copied(),
        0.05,
        ShardConfig { workers: 5 },
        |k: &u32| mix64(u64::from(*k)),
    );
    assert_eq!(day.len(), expected.len());
    let mut counted: BTreeMap<u32, u64> = BTreeMap::new();
    let most = *expected.values().max().unwrap();
    for n in 1..=most + 1 {
        for (k, _, _) in day.read(50.0, n).rows {
            counted.insert(k, n);
        }
    }
    assert_eq!(counted, expected);
}
