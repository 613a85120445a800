//! A training window's sketches.
//!
//! The §6 predictor "updates its mapping every prediction interval, set to
//! one day in our experiment": training reads a window of whole days as
//! one record stream, sketched once. [`DaySketches`] is that stream's
//! per-`(group, front-end)` latency sketches as sharded ingestion leaves
//! them — one share per worker, key sets disjoint — and
//! [`DaySketches::read`] scores them, each share on its own thread.
//!
//! The group key is generic: the pipeline is used with `Prefix` (ECS
//! granularity), `LdnsId`, and `anycast_core`'s own `GroupKey`.

use std::hash::{BuildHasher, BuildHasherDefault, Hash};

use anycast_beacon::Target;

use crate::bank::SketchBank;
use crate::shard::run_workers;
use crate::sketch::FastHasher;

/// An open-addressing index from a pair to its id that holds no keys: a
/// slot is the top half of the pair's hash over its id, and the pairs
/// themselves lie in the share's `keys` only. Eight bytes a slot whatever
/// the key type — the probe runs once per log record, and what it costs
/// is the cache lines its slots span.
#[derive(Debug, Clone)]
struct PairIndex {
    /// `EMPTY`, or `tag << 32 | id`; a power of two long, at most half
    /// full. Ids stay under `u32::MAX` (the bank's own limit), so no entry
    /// reads as `EMPTY`.
    slots: Vec<u64>,
}

const EMPTY: u64 = u64::MAX;

impl PairIndex {
    /// The slot of id `id`, whose pair hashes to `hash`.
    fn slot(hash: u64, id: u32) -> u64 {
        hash >> 32 << 32 | u64::from(id)
    }

    /// An index of the ids `0..` whose pairs hash to `hashes`, in order,
    /// with room for as many again.
    fn of(hashes: impl ExactSizeIterator<Item = u64>) -> PairIndex {
        let mut index = PairIndex {
            slots: vec![EMPTY; (4 * hashes.len()).next_power_of_two().max(16)],
        };
        for (id, hash) in hashes.enumerate() {
            let at = index.probe(hash, |_| false);
            index.slots[at] = PairIndex::slot(hash, id as u32);
        }
        index
    }

    /// The slot `hash` leads to: the one holding the id whose pair `is`
    /// accepts, else the empty one that pair would fill.
    fn probe(&self, hash: u64, is: impl Fn(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == EMPTY || (slot >> 32 == hash >> 32 && is(slot as u32)) {
                return at;
            }
            at = (at + 1) & mask;
        }
    }
}

fn hash_of<T: Hash>(pair: &T) -> u64 {
    BuildHasherDefault::<FastHasher>::default().hash_one(pair)
}

/// The pairs one worker owns: dense ids in first-seen order, the bank
/// member of each id its sketch.
#[derive(Debug, Clone)]
pub(crate) struct Share<K> {
    index: PairIndex,
    keys: Vec<(K, Target)>,
    bank: SketchBank,
}

impl<K: Hash + Eq + Clone> Share<K> {
    /// An empty share whose sketches carry rank-error bound `eps`.
    pub(crate) fn new(eps: f64) -> Share<K> {
        Share {
            index: PairIndex::of(std::iter::empty()),
            keys: Vec::new(),
            bank: SketchBank::new(eps),
        }
    }

    /// The id of `pair`; one seen for the first time takes the id of a
    /// new, empty bank member.
    fn id_of(&mut self, pair: (K, Target)) -> u32 {
        let hash = hash_of(&pair);
        let at = self.index.probe(hash, |id| self.keys[id as usize] == pair);
        let slot = self.index.slots[at];
        if slot != EMPTY {
            return slot as u32;
        }
        let id = self.bank.add();
        debug_assert_eq!(id as usize, self.keys.len());
        self.keys.push(pair);
        self.index.slots[at] = PairIndex::slot(hash, id);
        if 2 * self.keys.len() > self.index.slots.len() {
            self.index = PairIndex::of(self.keys.iter().map(hash_of));
        }
        id
    }

    /// Feeds one latency observation of `(key, target)` to its sketch.
    pub(crate) fn observe(&mut self, key: K, target: Target, rtt_ms: f64) {
        let id = self.id_of((key, target));
        self.bank.observe(id, rtt_ms);
    }

    /// This share's part of [`DaySketches::read`].
    fn read(&mut self, p: f64, min_count: u64) -> DayScores<K> {
        let mut scores = DayScores {
            rows: Vec::with_capacity(self.keys.len()),
            admitted: 0,
        };
        for (id, (key, target)) in self.keys.iter().enumerate() {
            let id = id as u32;
            if self.bank.count(id) < min_count {
                continue;
            }
            scores.admitted += 1;
            if let Some(score) = self.bank.quantile_read(id, p) {
                scores.rows.push((key.clone(), *target, score));
            }
        }
        scores
    }
}

/// One record stream's per-`(group, target)` latency sketches — a day's,
/// or a window's read as one stream — as
/// [`sketch_day`](crate::source::sketch_day) leaves them: one share per
/// worker, each pair in exactly one.
///
/// Each sketch answers any percentile within its rank-error bound and
/// carries the **exact** sample count the "20+ measurements" filter
/// needs. Nothing read from a `DaySketches` depends on how many shares it
/// has.
#[derive(Debug, Clone)]
pub struct DaySketches<K> {
    pub(crate) shares: Vec<Share<K>>,
}

/// What [`DaySketches::read`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct DayScores<K> {
    /// `(group, target, percentile)` of every admitted pair, in no
    /// particular order.
    pub rows: Vec<(K, Target, f64)>,
    /// Pairs holding at least the asked-for number of observations.
    pub admitted: u64,
}

impl<K: Hash + Eq + Clone + Send> DaySketches<K> {
    /// Number of `(group, target)` pairs.
    pub fn len(&self) -> usize {
        self.shares.iter().map(|share| share.keys.len()).sum()
    }

    /// Whether no record landed in the stream.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the `p`-th percentile
    /// ([`QuantileSketch::quantile_read`](crate::QuantileSketch::quantile_read))
    /// of every pair that holds at least `min_count` observations, each
    /// share on its own thread. The shares' rows are gathered into one
    /// allocation of their total length.
    pub fn read(&mut self, p: f64, min_count: u64) -> DayScores<K> {
        let parts = run_workers(self.shares.iter_mut().collect(), |_, share| {
            share.read(p, min_count)
        })
        .unwrap_or_else(|e| panic!("day sketch read failed: {e}"));
        let mut scores = DayScores {
            rows: Vec::with_capacity(parts.iter().map(|part| part.rows.len()).sum()),
            admitted: 0,
        };
        for part in parts {
            scores.rows.extend(part.rows);
            scores.admitted += part.admitted;
        }
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use crate::sketch::{mix64, QuantileSketch};
    use crate::source::sketch_day;
    use anycast_netsim::SiteId;
    use std::collections::BTreeMap;

    /// Every worker count the invariance contract is pinned at.
    const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 5, 8];

    /// Every pair of `day` as a sketch of its own.
    fn sketches<K: Ord + Clone>(day: &DaySketches<K>) -> BTreeMap<(K, Target), QuantileSketch> {
        let mut out = BTreeMap::new();
        for share in &day.shares {
            for (id, pair) in share.keys.iter().enumerate() {
                let twice = out.insert(pair.clone(), share.bank.sketch(id as u32));
                assert!(twice.is_none(), "a pair lies in exactly one share");
            }
        }
        out
    }

    /// One `QuantileSketch` per pair, fed the pair's values in stream
    /// order: what a day's sketches are defined to equal.
    fn direct(records: &[(u32, Target, f64)], eps: f64) -> BTreeMap<(u32, Target), QuantileSketch> {
        let mut out: BTreeMap<(u32, Target), QuantileSketch> = BTreeMap::new();
        for &(k, t, v) in records {
            out.entry((k, t))
                .or_insert_with(|| QuantileSketch::new(eps))
                .observe(v);
        }
        out
    }

    fn sharded(records: &[(u32, Target, f64)], eps: f64, workers: usize) -> DaySketches<u32> {
        sketch_day(
            records.iter().copied(),
            eps,
            ShardConfig { workers },
            |k: &u32| mix64(u64::from(*k)),
        )
    }

    /// Thirteen keys whose pairs hold a few dozen values each, and (from
    /// `heavy` on) one key in every four records, well past any flush
    /// threshold used here.
    fn obs(i: u64, heavy: u64) -> (u32, Target, f64) {
        let key = if i >= heavy && i.is_multiple_of(4) {
            100
        } else {
            (i % 13) as u32
        };
        let target = if i.is_multiple_of(4) {
            Target::Anycast
        } else {
            Target::Unicast(SiteId((i % 3) as u16))
        };
        (key, target, (mix64(i) % 200) as f64)
    }

    #[test]
    fn sharded_day_equals_direct_day() {
        // Light pairs (slab members) beside one that spills again and
        // again: key for key the directly fed sketch, at every count.
        let records: Vec<(u32, Target, f64)> = (0..5_000).map(|i| obs(i, 1_000)).collect();
        for eps in [0.01, 0.2] {
            let want = direct(&records, eps);
            assert!(want[&(100, Target::Anycast)].tuples_len() > 0, "spilled");
            // At the coarse bound every pair has spilled.
            let light = want.values().filter(|s| s.tuples_len() == 0).count();
            assert_eq!(light > 0, eps == 0.01, "{light} buffer-only pairs");
            for workers in WORKER_COUNTS {
                let day = sharded(&records, eps, workers);
                assert_eq!(day.len(), want.len());
                assert_eq!(sketches(&day), want, "eps {eps}, workers {workers}");
            }
        }
    }

    #[test]
    fn a_window_is_one_stream() {
        // Day 0 is empty, day 1 light, day 2 brings a heavy key and new
        // pairs, day 3 repeats some: the window's sketches are the direct
        // sketches of the days' records concatenated, and read as those do.
        let days: [Vec<(u32, Target, f64)>; 4] = [
            Vec::new(),
            (0..700).map(|i| obs(i, u64::MAX)).collect(),
            (700..2_600).map(|i| obs(i * 7, 0)).collect(),
            (0..300).map(|i| obs(i * 2, u64::MAX)).collect(),
        ];
        let window = days.concat();
        let eps = 0.05;
        let want = direct(&window, eps);
        // Read on a copy: a read sorts a sketch's buffer.
        let rows: Vec<(u32, Target, f64)> = want
            .clone()
            .iter_mut()
            .filter(|(_, s)| s.count() >= 20)
            .map(|(&(k, t), s)| (k, t, s.quantile_read(25.0).expect("not empty")))
            .collect();
        for workers in WORKER_COUNTS {
            let mut sketched = sharded(&window, eps, workers);
            assert_eq!(sketches(&sketched), want, "workers {workers}");
            let mut scores = sketched.read(25.0, 20);
            scores.rows.sort_by_key(|row| (row.0, row.1));
            assert_eq!(scores.admitted, rows.len() as u64);
            assert_eq!(scores.rows, rows, "workers {workers}");
        }
    }

    #[test]
    fn exact_counts_survive_sharding() {
        let records: Vec<(u32, Target, f64)> = (0..999).map(|i| obs(i, 500)).collect();
        let mut expected: BTreeMap<(u32, Target), u64> = BTreeMap::new();
        for &(k, t, _) in &records {
            *expected.entry((k, t)).or_insert(0) += 1;
        }
        let day = sharded(&records, 0.05, 3);
        let counts: BTreeMap<(u32, Target), u64> = sketches(&day)
            .into_iter()
            .map(|(pair, s)| (pair, s.count()))
            .collect();
        assert_eq!(counts, expected);
        assert_eq!(counts.values().sum::<u64>(), 999);
    }
}
