//! Mergeable streaming summaries.
//!
//! The paper's analyses run over "more than 420 million queries" of passive
//! logs and a month of beacon measurements (§3.2). At that volume the
//! repo's exact path — materialize every `(group, target)` latency vector,
//! sort it, read a percentile — stops being the thing a production CDN
//! would run. This module provides the bounded-memory summary the
//! day-scale aggregation actually needs: [`QuantileSketch`], a
//! Greenwald–Khanna streaming quantile summary with a configurable
//! rank-error bound, for the §6 per-group 25th-percentile prediction
//! metric.
//!
//! The summary is **mergeable** and **deterministic**: merging is
//! insensitive to operand order, and the same input stream produces the
//! same bytes regardless of how ingestion was sharded (see
//! [`crate::shard`] for the ownership discipline that guarantees the
//! latter).

use anycast_netsim::stream::splitmix64;

/// SplitMix64 of one key: a cheap, high-quality 64-bit mixer used for
/// deterministic hashing (shard routing), stable across platforms and
/// releases.
pub fn mix64(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// A cheap multiply-rotate hasher (FxHash construction) for the
/// pipeline's per-record hot maps. Runs once per log record, where
/// SipHash's per-lookup cost is measurable at day scale. Deterministic
/// and DoS-hardening-free by design — pipeline keys are simulator ids,
/// not attacker-controlled input.
#[derive(Debug, Default, Clone)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FastHasher {
    /// The state with its high bits folded down. After the multiply the
    /// low bits of the state depend only on the low bits of the input,
    /// and `hashbrown` picks the bucket from the hash's low bits: returned
    /// raw, keys of the shape `x << k | small` pile into a few buckets.
    /// The top bits are the ones every input bit reaches, so the high
    /// half goes onto the low half and the top twelve onto the bottom
    /// twelve; the top seven, `hashbrown`'s tag, stay as they are.
    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0;
        h ^ (h >> 32) ^ (h >> 52)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FastHasher>>;

/// One Greenwald–Khanna tuple: a stored value `v` covering `g` observations
/// whose rank is known up to `delta` ("the GK summary maintains tuples
/// (vᵢ, gᵢ, Δᵢ) such that rmin(vᵢ) = Σⱼ≤ᵢ gⱼ and rmax(vᵢ) = rmin(vᵢ) + Δᵢ").
#[derive(Debug, Clone, Copy, PartialEq)]
struct Tuple {
    v: f64,
    g: u64,
    delta: u64,
}

/// A streaming quantile summary with a configurable rank-error bound.
///
/// `QuantileSketch::new(eps)` guarantees, for a sketch fed a single stream,
/// a returned quantile whose rank differs from the requested rank by at
/// most `eps/3 · n`; for a sketch assembled by **any** sequence of
/// [`merge`](QuantileSketch::merge) calls over single-stream sketches of
/// the same `eps`, by at most `eps · N` (N = total observations). The
/// internal budget is `eps/3` precisely so that arbitrary merge trees stay
/// inside the advertised bound: a merge is a canonical tuple union that
/// adds no per-tuple uncertainty but can hide up to one tuple-spread of
/// rank per operand.
///
/// Merging never compresses, so the merged state is literally the multiset
/// union of the operands' tuples in canonical order — which makes `merge`
/// bit-exactly commutative and associative, the property the sharded
/// ingestion layer's determinism contract rests on.
///
/// Space: O((1/eps) · log(eps·n)) tuples, plus an insert buffer that
/// batches sort+merge work. The buffer is **demand-grown**: it doubles
/// from 16 values as observations arrive and ⌈3/(2·eps)⌉ (the
/// flush threshold) is the *cap* on that doubling, not an up-front
/// reservation — a day holds one sketch per `(group, target)` pair and
/// most pairs see a few dozen samples, so a sketch costs what its samples
/// need (a 20-sample sketch at eps 0.01 holds 32 slots, not 150). Flush
/// points read the buffer's length, never its capacity, so the sketch's
/// state is the same whatever the growth schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Advertised rank-error bound (fraction of n).
    eps: f64,
    /// Observations already folded into `tuples`.
    n: u64,
    /// GK tuples, ascending by `(v, g, delta)` (canonical order).
    tuples: Vec<Tuple>,
    /// Observations awaiting a flush, unordered.
    buffer: Vec<f64>,
    /// Cached ⌈1/(2ε')⌉ — a pure function of `eps`, read once per observe.
    buf_limit: usize,
}

/// First allocation of a sketch's insert buffer, in values; see the
/// "Space" note on [`QuantileSketch`].
const MIN_BUFFER_SLOTS: usize = 16;

impl QuantileSketch {
    /// Creates an empty sketch with rank-error bound `eps` (e.g. `0.01`
    /// for ±1% of n).
    ///
    /// # Panics
    /// Panics unless `0 < eps < 0.5`.
    pub fn new(eps: f64) -> QuantileSketch {
        assert!(
            eps > 0.0 && eps < 0.5,
            "rank-error bound must be in (0, 0.5), got {eps}"
        );
        QuantileSketch {
            eps,
            n: 0,
            tuples: Vec::new(),
            buffer: Vec::new(),
            buf_limit: Self::flush_threshold(eps),
        }
    }

    /// Exact number of observations fed in — the §6 "20+ measurements"
    /// filter reads this, so it must not be an estimate.
    pub fn count(&self) -> u64 {
        self.n + self.buffer.len() as u64
    }

    /// Whether the sketch has seen no observations.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Number of stored tuples (space introspection for tests/benches).
    pub fn tuples_len(&self) -> usize {
        self.tuples.len()
    }

    /// Values the insert buffer has room for without reallocating (space
    /// introspection beside [`tuples_len`](QuantileSketch::tuples_len)).
    pub fn buffer_capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// Internal rank-error budget: a third of the advertised bound, the
    /// rest being reserved for merge slack (see the type docs).
    fn eps_internal(&self) -> f64 {
        self.eps / 3.0
    }

    /// The GK capacity ⌊2·ε'·n⌋ at the current n, floored at 1.
    fn capacity(&self) -> u64 {
        ((2.0 * self.eps_internal() * self.n as f64) as u64).max(1)
    }

    /// Insert-buffer size: one flush per ⌈1/(2ε')⌉ observations amortizes
    /// the sort+merge to O(log) comparisons per observation.
    fn buffer_limit(&self) -> usize {
        self.buf_limit
    }

    /// The flush threshold ⌈3/(2·eps)⌉: the observation count at which a
    /// sketch first folds its buffer into tuples.
    pub(crate) fn flush_threshold(eps: f64) -> usize {
        (1.0 / (2.0 * (eps / 3.0))).ceil() as usize
    }

    /// Absorbs one observation. NaNs are rejected (a NaN latency is an
    /// upstream bug; dropping it silently would corrupt counts).
    ///
    /// # Panics
    /// Panics on NaN input.
    pub fn observe(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN fed to QuantileSketch");
        let cap = self.buffer.capacity();
        if self.buffer.len() == cap && cap < self.buf_limit {
            // Exact doubling up to the flush threshold, so a small group
            // never pays for the full buffer; past the threshold (hot
            // streams waiting on the tuple list) `push` grows as usual.
            // The capacity reached is kept across flushes.
            let want = (cap * 2).max(MIN_BUFFER_SLOTS).min(self.buf_limit);
            self.buffer.reserve_exact(want - cap);
        }
        self.buffer.push(v);
        // Adaptive schedule: never flush before the accuracy-driven
        // minimum, and on hot streams wait until the buffer matches the
        // tuple list so each tuple-walk amortizes to O(1) per record.
        // Both operands are pure functions of the stream, so the flush
        // points — and hence the bytes — stay deterministic.
        if self.buffer.len() >= self.buffer_limit().max(self.tuples.len()) {
            self.flush();
        }
    }

    /// Folds the insert buffer into the tuple list: sort the buffer, walk
    /// it against the (sorted) tuples once, then compress. Each new tuple
    /// gets `delta = capacity − 1` (computed at the post-flush n, which
    /// only over-states uncertainty — bounds stay valid), except stream
    /// minima/maxima which are exact (`delta = 0`).
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.buffer);
        // Unstable sorts stay deterministic here: ties are bitwise-equal
        // values, indistinguishable in the output.
        batch.sort_unstable_by(|a, b| a.total_cmp(b));
        self.n += batch.len() as u64;
        let delta = self.capacity() - 1;

        let old = std::mem::take(&mut self.tuples);
        let mut merged = Vec::with_capacity(old.len() + batch.len());
        let mut bi = 0;
        for t in old {
            while bi < batch.len() && batch[bi] < t.v {
                merged.push(self.new_tuple(batch[bi], delta, merged.is_empty()));
                bi += 1;
            }
            merged.push(t);
        }
        while bi < batch.len() {
            merged.push(self.new_tuple(batch[bi], delta, merged.is_empty()));
            bi += 1;
        }
        // The last tuple holds the stream maximum, whose rank is exactly n
        // (rmin of the last tuple is Σg = n), so its delta is always 0.
        if let Some(last) = merged.last_mut() {
            last.delta = 0;
        }
        // Hand the (cleared) batch allocation back to the insert buffer so
        // hot streams don't re-grow it every flush cycle.
        batch.clear();
        self.buffer = batch;
        self.tuples = merged;
        self.compress();
        // Canonical order: compress and tie placement can leave equal-value
        // runs ordered by history; merge commutativity needs the total
        // (v, g, delta) order. The list is always v-sorted, so only
        // equal-value runs can be out of order — check before paying for
        // a sort (continuous latencies rarely tie).
        let canonical = self.tuples.windows(2).all(|w| tuple_le(&w[0], &w[1]));
        if !canonical {
            self.tuples.sort_unstable_by(|a, b| {
                a.v.total_cmp(&b.v)
                    .then(a.g.cmp(&b.g))
                    .then(a.delta.cmp(&b.delta))
            });
        }
    }

    fn new_tuple(&self, v: f64, delta: u64, is_first: bool) -> Tuple {
        Tuple {
            v,
            g: 1,
            delta: if is_first { 0 } else { delta },
        }
    }

    /// GK compression: merge tuple i into i+1 whenever the combined spread
    /// stays within capacity. The first and last tuples are preserved so
    /// the stream minimum and maximum stay exact.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let cap = self.capacity();
        // Single backward pass: merge tuple i into its nearest surviving
        // right neighbour j when the combined spread fits, tombstone i
        // (g = 0), and compact once at the end — O(T) where the naive
        // remove-in-place loop is O(T²).
        let mut j = self.tuples.len() - 1;
        let mut i = j - 1;
        while i >= 1 {
            let g = self.tuples[i].g;
            let next = self.tuples[j];
            if g + next.g + next.delta <= cap {
                self.tuples[j].g += g;
                self.tuples[i].g = 0;
            } else {
                j = i;
            }
            i -= 1;
        }
        self.tuples.retain(|t| t.g > 0);
    }

    /// Merges `other` into `self`: a canonical multiset union of tuples
    /// (both insert buffers flushed first), `n` summed, `eps` the max of
    /// the two bounds. No compression happens here, so merging is
    /// bit-exactly commutative and associative. `other` is copied only
    /// when it has buffered observations to flush; a compacted operand is
    /// read in place.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.flush();
        let flushed;
        let o = if other.buffer.is_empty() {
            other
        } else {
            let mut copy = other.clone();
            copy.flush();
            flushed = copy;
            &flushed
        };
        self.eps = self.eps.max(o.eps);
        self.buf_limit = Self::flush_threshold(self.eps);
        self.n += o.n;
        let a = std::mem::take(&mut self.tuples);
        let mut merged = Vec::with_capacity(a.len() + o.tuples.len());
        let (mut ai, mut bi) = (0, 0);
        while ai < a.len() && bi < o.tuples.len() {
            if tuple_le(&a[ai], &o.tuples[bi]) {
                merged.push(a[ai]);
                ai += 1;
            } else {
                merged.push(o.tuples[bi]);
                bi += 1;
            }
        }
        merged.extend_from_slice(&a[ai..]);
        merged.extend_from_slice(&o.tuples[bi..]);
        self.tuples = merged;
    }

    /// Folds any buffered observations into the tuple summary in place.
    /// A compacted sketch answers [`quantile`](QuantileSketch::quantile)
    /// without the internal defensive copy, so batch readers (day close,
    /// training) should compact once, then query.
    pub fn compact(&mut self) {
        self.flush();
    }

    /// The day-close read path: like [`quantile`](QuantileSketch::quantile)
    /// but `&mut`, so it never copies. A sketch that never overflowed its
    /// insert buffer (the common case — most client groups are small)
    /// answers **exactly** via in-place selection, skipping tuple
    /// construction entirely; otherwise it compacts once and walks the
    /// summary. Same rank convention as `quantile`, so the two agree on
    /// buffer-only sketches.
    pub fn quantile_read(&mut self, p: f64) -> Option<f64> {
        if self.is_empty() || !p.is_finite() {
            return None;
        }
        if self.tuples.is_empty() {
            return Some(pick_buffered(&mut self.buffer, p));
        }
        self.compact();
        Some(self.query(p))
    }

    /// The estimated percentile `p ∈ [0, 100]`; `None` when empty. Uses
    /// the same percentile convention as `anycast_analysis::percentile`
    /// (rank `p/100 · (n−1)` in zero-based terms), so sketch and exact
    /// paths answer the same question.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.is_empty() || !p.is_finite() {
            return None;
        }
        if self.buffer.is_empty() {
            return Some(self.query(p));
        }
        let mut flushed = self.clone();
        flushed.flush();
        Some(flushed.query(p))
    }

    /// Query against the flushed tuple list: pick the tuple whose rank
    /// midpoint is closest to the target rank (error ≤ max spread ≈ ε'n
    /// beyond the summary's own uncertainty).
    fn query(&self, p: f64) -> f64 {
        debug_assert!(self.buffer.is_empty() && !self.tuples.is_empty());
        let p = p.clamp(0.0, 100.0);
        let target = 1.0 + p / 100.0 * (self.n - 1) as f64;
        let mut rmin = 0u64;
        let mut best = (f64::INFINITY, self.tuples[0].v);
        for t in &self.tuples {
            rmin += t.g;
            let mid = rmin as f64 + t.delta as f64 / 2.0;
            let dist = (mid - target).abs();
            if dist < best.0 {
                best = (dist, t.v);
            }
        }
        best.1
    }
}

/// The `p`-th percentile (finite) of a never-flushed sketch's
/// observations, by in-place selection: the one buffer-only read, under
/// [`QuantileSketch::quantile_read`] and under the bank's read of a member
/// that has not spilled. `values` must be non-empty and is left
/// partitioned, not sorted.
///
/// Nearest-rank with ties to the lower rank — the same pick the tuple
/// walk makes on a buffer-only flush (g = 1, Δ = 0). The target is
/// `query`'s own one-based expression: its distances to the two
/// neighbouring ranks are exact, so the pick agrees with the walk bit for
/// bit at every `p`.
pub(crate) fn pick_buffered(values: &mut [f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 100.0);
    let target = 1.0 + p / 100.0 * (values.len() - 1) as f64;
    let lo = target.floor();
    let rank = if target - lo <= 0.5 { lo } else { lo + 1.0 };
    let idx = rank as usize - 1;
    let (_, v, _) = values.select_nth_unstable_by(idx, |a, b| a.total_cmp(b));
    *v
}

fn tuple_le(a: &Tuple, b: &Tuple) -> bool {
    (a.v.total_cmp(&b.v))
        .then(a.g.cmp(&b.g))
        .then(a.delta.cmp(&b.delta))
        .is_le()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        anycast_analysis::quantile::percentile_sorted(sorted, p)
    }

    /// Asserts the estimate's rank is within `slack` ranks of the target.
    fn assert_rank_close(sorted: &[f64], p: f64, estimate: f64, slack: f64) {
        let n = sorted.len() as f64;
        let target = p / 100.0 * (n - 1.0);
        let lo = ((target - slack).floor().max(0.0)) as usize;
        let hi = ((target + slack).ceil() as usize).min(sorted.len() - 1);
        assert!(
            sorted[lo] <= estimate && estimate <= sorted[hi],
            "p{p}: estimate {estimate} outside rank window [{}, {}] (exact {})",
            sorted[lo],
            sorted[hi],
            exact_percentile(sorted, p),
        );
    }

    #[test]
    fn small_streams_are_near_exact() {
        let mut s = QuantileSketch::new(0.1);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.observe(v);
        }
        assert_eq!(s.count(), 5);
        // Five values fit in the buffer: the p0/p100 are exact.
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(100.0), Some(5.0));
    }

    #[test]
    fn empty_sketch_answers_none() {
        let mut s = QuantileSketch::new(0.05);
        assert!(s.is_empty());
        assert_eq!(s.quantile(50.0), None);
        assert_eq!(s.quantile_read(50.0), None);
    }

    #[test]
    fn quantile_read_agrees_with_quantile() {
        // Buffer-only (selection path) and flushed (summary path) sketches
        // must answer identically to the immutable read.
        for n in [1u64, 2, 7, 64, 149, 150, 151, 5_000] {
            let mut s = QuantileSketch::new(0.01);
            for i in 0..n {
                s.observe((mix64(i) % 997) as f64);
            }
            for p in [0.0, 10.0, 25.0, 50.0, 90.0, 100.0] {
                let immut = s.quantile(p);
                assert_eq!(s.clone().quantile_read(p), immut, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn quantile_read_breaks_half_rank_ties_as_the_tuple_walk_does() {
        // p/100·(n−1) lands one ulp above k + ½ here; the walk's one-based
        // target rounds that ulp away and picks the lower rank.
        for (n, p) in [(26u64, 14.0), (51, 7.0), (101, 3.5)] {
            let mut s = QuantileSketch::new(0.01);
            for i in 0..n {
                s.observe((mix64(i) % 9_973) as f64);
            }
            assert_eq!(s.tuples_len(), 0, "buffer-only");
            assert_eq!(s.clone().quantile_read(p), s.quantile(p), "n={n} p={p}");
        }
    }

    #[test]
    fn buffer_grows_on_demand_up_to_the_flush_threshold() {
        let mut s = QuantileSketch::new(0.01);
        assert_eq!(s.buffer_capacity(), 0, "an empty sketch owns no buffer");
        let mut seen = Vec::new();
        for i in 0..150u64 {
            s.observe(i as f64);
            if seen.last() != Some(&s.buffer_capacity()) {
                seen.push(s.buffer_capacity());
            }
            if i == 19 {
                assert!(s.buffer_capacity() <= 32, "20 samples fit 32 slots");
            }
        }
        assert_eq!(seen, [16, 32, 64, 128, 150], "doubling, capped");
        assert!(s.tuples_len() > 0, "the 150th observation flushed");
        // The grown buffer is kept across the flush.
        assert_eq!(s.buffer_capacity(), 150);
        // A bound whose threshold is under the first step starts at it.
        let mut coarse = QuantileSketch::new(0.2);
        coarse.observe(1.0);
        assert_eq!(coarse.buffer_capacity(), 8);
    }

    #[test]
    fn merge_reads_a_compacted_operand_in_place() {
        // Same result whether the operand still buffers or was compacted.
        let build = |lo: u64, hi: u64| {
            let mut s = QuantileSketch::new(0.05);
            for i in lo..hi {
                s.observe((mix64(i) % 1000) as f64);
            }
            s
        };
        for (lo, hi) in [(0u64, 7u64), (0, 30), (0, 333)] {
            let buffered = build(lo, hi);
            let mut compacted = buffered.clone();
            compacted.compact();
            let mut a = build(1_000, 1_400);
            let mut b = a.clone();
            a.merge(&buffered);
            b.merge(&compacted);
            assert_eq!(a, b, "operand of {} values", hi - lo);
        }
    }

    #[test]
    fn large_stream_within_bound_and_bounded_space() {
        let eps = 0.01;
        let mut s = QuantileSketch::new(eps);
        let n = 100_000u64;
        // Deterministic scrambled order.
        let mut values: Vec<f64> = Vec::with_capacity(n as usize);
        for i in 0..n {
            values.push((mix64(i) % 1_000_000) as f64 / 100.0);
        }
        for &v in &values {
            s.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        for p in [1.0, 25.0, 50.0, 75.0, 99.0] {
            assert_rank_close(&sorted, p, s.quantile(p).unwrap(), eps * n as f64 + 1.0);
        }
        assert!(
            s.tuples_len() < 6_000,
            "sketch must stay sublinear: {} tuples for {n} values",
            s.tuples_len()
        );
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let build = |lo: u64, hi: u64| {
            let mut s = QuantileSketch::new(0.05);
            for i in lo..hi {
                s.observe((mix64(i) % 1000) as f64);
            }
            s
        };
        let (a, b, c) = (build(0, 500), build(500, 2_000), build(2_000, 2_100));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
        assert_eq!(ab_c.count(), 2_100);
    }

    #[test]
    fn merged_sketch_stays_within_advertised_bound() {
        let eps = 0.03;
        let mut all: Vec<f64> = Vec::new();
        let mut merged = QuantileSketch::new(eps);
        for day in 0..7u64 {
            let mut s = QuantileSketch::new(eps);
            for i in 0..3_000u64 {
                let v = (mix64(day * 10_000 + i) % 100_000) as f64;
                s.observe(v);
                all.push(v);
            }
            merged.merge(&s);
        }
        all.sort_by(|a, b| a.total_cmp(b));
        for p in [10.0, 25.0, 50.0, 90.0] {
            assert_rank_close(
                &all,
                p,
                merged.quantile(p).unwrap(),
                eps * all.len() as f64 + 1.0,
            );
        }
    }

    #[test]
    #[should_panic(expected = "rank-error bound")]
    fn zero_eps_rejected() {
        QuantileSketch::new(0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        QuantileSketch::new(0.1).observe(f64::NAN);
    }

    #[test]
    fn fast_hasher_spreads_keys_whose_low_bits_are_constant() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<FastHasher>::default();
        for shift in [20u32, 40] {
            let buckets: std::collections::BTreeSet<u64> = (0..4096u64)
                .map(|i| build.hash_one(i << shift) & 0xfff)
                .collect();
            assert!(
                buckets.len() >= 2_000,
                "keys i << {shift} reach {} of 4096 buckets",
                buckets.len()
            );
        }
    }

    /// `Prefix` stores its length plus one; the pipeline's maps must still
    /// hash it as the `(net, len)` it stood for, or their order moves.
    #[test]
    fn fast_hasher_sees_a_prefix_as_its_net_and_length() {
        use anycast_netsim::Prefix;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<FastHasher>::default();
        for raw in [0u32, 0x0102_0304, u32::MAX] {
            for len in 0..=32u8 {
                let p = Prefix::from_raw(raw, len);
                assert_eq!(build.hash_one(p), build.hash_one((p.raw(), len)), "{p}");
            }
        }
    }

    #[test]
    fn mix64_is_stable() {
        // Pin the mixer: shard routing depends on these exact bits.
        assert_eq!(mix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(mix64(1), 0x910a2dec89025cc1);
    }
}
