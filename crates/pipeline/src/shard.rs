//! Key ownership: which worker of a sharded run keeps a key.

/// The worker, of `workers`, that owns the keys hashing to `hash` (mix
/// well — see [`anycast_netsim::stream::mix64`]).
///
/// Multiply-shift range reduction (Lemire): a pure function of (hash,
/// worker count) like `%`, without the hardware divide — every worker
/// runs this once per log record.
pub(crate) fn owner(hash: u64, workers: usize) -> usize {
    ((u128::from(hash) * workers as u128) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sketch_day, QuantileSketch, ShardConfig};
    use anycast_beacon::Target;
    use anycast_netsim::stream::mix64;

    /// A day of `records` gathered by `workers` workers: every key with
    /// its column, in key order.
    fn run(workers: usize, records: &[(u64, f64)]) -> Vec<(u64, QuantileSketch)> {
        let day = sketch_day(
            records.iter().map(|&(k, v)| (k, Target::Anycast, v)),
            0.05,
            ShardConfig { workers },
            |k: &u64| mix64(*k),
        );
        let mut columns: Vec<(u64, QuantileSketch)> = day
            .iter()
            .map(|(&(key, _), column)| (key, column.clone()))
            .collect();
        columns.sort_unstable_by_key(|(key, _)| *key);
        columns
    }

    #[test]
    fn owner_covers_every_worker_and_nothing_else() {
        for workers in [1usize, 2, 3, 5, 8] {
            let mut seen = vec![false; workers];
            for i in 0..1_000u64 {
                seen[owner(mix64(i), workers)] = true;
            }
            assert!(seen.iter().all(|&s| s), "workers={workers}");
            assert_eq!(owner(u64::MAX, workers), workers - 1);
            assert_eq!(owner(0, workers), 0);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        // 251 keys of ~20 values each, and one key of 600.
        let records: Vec<(u64, f64)> = (0..6_000)
            .map(|i| {
                let key = if i % 10 == 0 { 1_000 } else { mix64(i) % 251 };
                (key, (mix64(i ^ 0xabcd) % 500) as f64)
            })
            .collect();
        let one = run(1, &records);
        assert_eq!(one.len(), 252);
        for workers in [2, 3, 5, 8] {
            assert_eq!(run(workers, &records), one, "workers={workers}");
        }
    }

    #[test]
    fn empty_stream_yields_empty_output() {
        assert!(run(4, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        run(0, &[(1, 1.0)]);
    }
}
