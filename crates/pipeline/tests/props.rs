//! Property tests pinning the pipeline's two contracts:
//!
//! * **exactness** — a column assembled from any split of a stream, its
//!   parts merged in any order, reads every percentile bit for bit as the
//!   exact `percentile` of the whole stream, and counts it exactly;
//! * **determinism** — a sharded ingestion run leaves the same per-pair
//!   columns for any worker count.

use std::collections::BTreeMap;

use anycast_analysis::quantile::percentile;
use anycast_beacon::Target;
use anycast_netsim::stream::mix64;
use anycast_netsim::SiteId;
use anycast_pipeline::{sketch_day, QuantileSketch, ShardConfig};
use proptest::prelude::*;

/// Every worker count the invariance contract is pinned at.
const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 5, 8];

/// `records` gathered by `workers` workers: every pair with its column.
fn columns(
    records: &[(u32, Target, f64)],
    workers: usize,
) -> BTreeMap<(u32, Target), QuantileSketch> {
    let day = sketch_day(
        records.iter().copied(),
        0.05,
        ShardConfig { workers },
        |k: &u32| mix64(u64::from(*k)),
    );
    let out: BTreeMap<_, _> = day.iter().map(|(&p, s)| (p, s.clone())).collect();
    assert_eq!(out.len(), day.len(), "a pair lies in exactly one share");
    out
}

proptest! {
    #[test]
    fn merged_parts_read_the_exact_percentile_of_the_whole(
        raw in prop::collection::vec(0u32..400, 0..600),
        cuts in prop::collection::vec(0usize..10_000, 0..6),
        order in any::<u64>(),
    ) {
        // Eighths of a ms: ties and fractions both occur.
        let all: Vec<f64> = raw.iter().map(|&v| f64::from(v) / 8.0).collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (all.len() + 1)).collect();
        cuts.push(0);
        cuts.push(all.len());
        cuts.sort_unstable();
        let mut parts: Vec<(u64, QuantileSketch)> = cuts
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let mut part = QuantileSketch::new(0.01);
                all[w[0]..w[1]].iter().for_each(|&v| part.observe(v));
                (mix64(order ^ i as u64), part)
            })
            .collect();
        // A seeded shuffle: the parts merge in any order.
        parts.sort_unstable_by_key(|(rank, _)| *rank);
        let mut merged = QuantileSketch::new(0.2);
        parts.iter().for_each(|(_, part)| merged.merge(part));

        prop_assert_eq!(merged.count(), all.len() as u64);
        prop_assert_eq!(merged.tuples_len(), all.len());
        for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
            prop_assert_eq!(
                merged.quantile(p).map(f64::to_bits),
                percentile(&all, p).map(f64::to_bits),
                "p{} of {} values in {} parts", p, all.len(), parts.len()
            );
        }
        let mut poisoned = merged.clone();
        let nan = std::panic::catch_unwind(move || poisoned.observe(f64::NAN));
        prop_assert!(nan.is_err(), "a NaN was accepted");
    }

    #[test]
    fn sharded_ingestion_is_worker_count_invariant(
        records in prop::collection::vec(
            (0u32..64, 0u8..4, 0.0f64..250.0),
            1..2_000,
        ),
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
        // What the columns are defined to equal: one column a pair, fed
        // the pair's records in stream order.
        let mut direct: BTreeMap<(u32, Target), QuantileSketch> = BTreeMap::new();
        for &(k, t, v) in &records {
            direct.entry((k, t)).or_default().observe(v);
        }
        for workers in WORKER_COUNTS {
            prop_assert_eq!(&columns(&records, workers), &direct, "workers = {}", workers);
        }
    }
}

/// Non-proptest companion: exact counts survive sharding for every key —
/// a cheap full-coverage check the random cases above build on.
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
    for workers in WORKER_COUNTS {
        let counted: BTreeMap<u32, u64> = columns(&records, workers)
            .into_iter()
            .map(|((k, _), column)| (k, column.count()))
            .collect();
        assert_eq!(counted, expected, "workers {workers}");
    }
}
