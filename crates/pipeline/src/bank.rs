//! A bank of sketches in one slab.
//!
//! A day holds one latency sketch per `(group, target)` pair, and nearly
//! every pair stays far under the flush threshold: on the pinned 40k-/24
//! day all 157k pairs hold 16–40 samples against a threshold of 150. A
//! [`QuantileSketch`] of that size is nothing but its insert buffer, so a
//! [`SketchBank`] keeps such members as chains of fixed-size chunks in one
//! slab — no heap allocation per sketch, nothing to free one by one —
//! and turns a member into a real `QuantileSketch` on the observation
//! that reaches the threshold, the one on which the sketch itself would
//! first flush.
//!
//! The slab is [`Pages`]: it grows a page at a time and never moves a
//! chunk. A slab that doubled would copy itself on every doubling and,
//! once the allocator serves blocks of its size from the heap, leave
//! holes there that outlive the day.
//!
//! **Defined by equivalence.** For every member, [`SketchBank::count`],
//! [`SketchBank::quantile_read`] and [`SketchBank::sketch`] equal, bit for
//! bit, those of a `QuantileSketch` of the bank's bound fed the same
//! values in the same order. The bank owns no rank arithmetic of its own:
//! an unspilled member is read by the sketch's own buffer-only pick, a
//! spilled one *is* a sketch.

use std::ops::{Index, IndexMut};

use crate::sketch::{pick_buffered, QuantileSketch};

/// Values per chunk: a 16–40-sample member wastes half a chunk on
/// average, four values.
const CHUNK: usize = 8;

/// "No chunk": the end of a chain and of the free list.
const NIL: u32 = u32::MAX;

/// Items per page of [`Pages`]: item `i` lies at `(i / PAGE, i % PAGE)`.
const PAGE: usize = 256;

/// A push-and-index array in fixed pages of [`PAGE`] items, at most 64 KiB
/// each: a push allocates at most one page and moves no item.
#[derive(Debug)]
struct Pages<T> {
    /// Each allocated for exactly `PAGE` items; all but the last full.
    pages: Vec<Vec<T>>,
}

impl<T> Pages<T> {
    fn new() -> Pages<T> {
        const { assert!(PAGE * std::mem::size_of::<T>() <= 64 << 10) };
        Pages { pages: Vec::new() }
    }

    fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |page| (self.pages.len() - 1) * PAGE + page.len())
    }

    fn push(&mut self, item: T) {
        match self.pages.last_mut() {
            Some(page) if page.len() < PAGE => page.push(item),
            _ => {
                let mut page = Vec::with_capacity(PAGE);
                page.push(item);
                self.pages.push(page);
            }
        }
    }
}

impl<T: Clone> Clone for Pages<T> {
    /// Page for page, each copy a whole page too.
    fn clone(&self) -> Pages<T> {
        let copy = |page: &Vec<T>| {
            let mut copy = Vec::with_capacity(PAGE);
            copy.extend_from_slice(page);
            copy
        };
        Pages {
            pages: self.pages.iter().map(copy).collect(),
        }
    }
}

impl<T> Index<usize> for Pages<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.pages[i / PAGE][i % PAGE]
    }
}

impl<T> IndexMut<usize> for Pages<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.pages[i / PAGE][i % PAGE]
    }
}

#[derive(Debug, Clone)]
struct Chunk {
    values: [f64; CHUNK],
    /// The chunk holding the member's next values (the next free chunk,
    /// on the free list).
    next: u32,
}

#[derive(Debug, Clone, Copy)]
enum Member {
    /// Under the flush threshold: `len` values in arrival order along the
    /// chunks `head → … → tail`. An empty member owns no chunk.
    Chain { head: u32, tail: u32, len: u32 },
    /// At or past it: `spilled[at]`.
    Spilled { at: u32 },
}

/// Sketches of one rank-error bound, addressed by dense member id; see
/// the module docs.
#[derive(Debug, Clone)]
pub(crate) struct SketchBank {
    eps: f64,
    /// The count at which a member leaves the slab: the bound's flush
    /// threshold.
    threshold: u32,
    members: Vec<Member>,
    chunks: Pages<Chunk>,
    /// Head of the list of chunks that spilled members gave back.
    free: u32,
    spilled: Vec<QuantileSketch>,
    /// Where a chain is laid out flat to be read.
    scratch: Vec<f64>,
}

impl SketchBank {
    /// An empty bank of sketches with rank-error bound `eps`.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 0.5`, as [`QuantileSketch::new`] does.
    pub(crate) fn new(eps: f64) -> SketchBank {
        let _ = QuantileSketch::new(eps);
        // A member may leave the slab early — replayed, it is the sketch
        // it would have been — so a threshold past 32 bits is capped.
        let threshold = u32::try_from(QuantileSketch::flush_threshold(eps)).unwrap_or(u32::MAX);
        SketchBank {
            eps,
            threshold,
            members: Vec::new(),
            chunks: Pages::new(),
            free: NIL,
            spilled: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Adds an empty member and returns its id (ids count up from 0 and
    /// stay under `u32::MAX`).
    pub(crate) fn add(&mut self) -> u32 {
        assert!(self.members.len() < NIL as usize, "bank is full");
        let id = self.members.len() as u32;
        self.members.push(Member::Chain {
            head: NIL,
            tail: NIL,
            len: 0,
        });
        id
    }

    /// Takes chain member `id` out of the slab: its values replayed in
    /// order into a sketch of its own, its chunks to the free list.
    fn spill(&mut self, id: u32) {
        let Member::Chain { head, tail, .. } = self.members[id as usize] else {
            unreachable!("only a chain spills");
        };
        let sketch = self.sketch(id);
        // At the threshold a chain holds at least one value, so a chunk.
        self.chunks[tail as usize].next = self.free;
        self.free = head;
        // No more sketches than members.
        let at = self.spilled.len() as u32;
        self.spilled.push(sketch);
        self.members[id as usize] = Member::Spilled { at };
    }

    /// The `len` values of the chain that starts at chunk `head`, in
    /// arrival order.
    fn chain(&self, head: u32, len: u32) -> impl Iterator<Item = f64> + '_ {
        let mut chunk = head;
        (0..len as usize).map(move |i| {
            if i > 0 && i % CHUNK == 0 {
                chunk = self.chunks[chunk as usize].next;
            }
            self.chunks[chunk as usize].values[i % CHUNK]
        })
    }

    /// Feeds one observation to member `id`.
    ///
    /// # Panics
    /// Panics on NaN input, as [`QuantileSketch::observe`] does.
    pub(crate) fn observe(&mut self, id: u32, v: f64) {
        assert!(!v.is_nan(), "NaN fed to QuantileSketch");
        let (head, tail, len) = match &mut self.members[id as usize] {
            Member::Spilled { at } => return self.spilled[*at as usize].observe(v),
            Member::Chain { head, tail, len } => (head, tail, len),
        };
        let slot = *len as usize % CHUNK;
        if slot == 0 {
            let fresh = if self.free == NIL {
                assert!(self.chunks.len() < NIL as usize, "bank slab is full");
                self.chunks.push(Chunk {
                    values: [0.0; CHUNK],
                    next: NIL,
                });
                (self.chunks.len() - 1) as u32
            } else {
                let fresh = self.free;
                self.free = std::mem::replace(&mut self.chunks[fresh as usize].next, NIL);
                fresh
            };
            if *len == 0 {
                *head = fresh;
            } else {
                self.chunks[*tail as usize].next = fresh;
            }
            *tail = fresh;
        }
        self.chunks[*tail as usize].values[slot] = v;
        *len += 1;
        if *len == self.threshold {
            // Replayed in order, the sketch flushes on this very
            // observation, as it would have fed directly.
            self.spill(id);
        }
    }

    /// Exact number of observations fed to member `id`.
    pub(crate) fn count(&self, id: u32) -> u64 {
        match self.members[id as usize] {
            Member::Chain { len, .. } => u64::from(len),
            Member::Spilled { at } => self.spilled[at as usize].count(),
        }
    }

    /// [`QuantileSketch::quantile_read`] of member `id`.
    pub(crate) fn quantile_read(&mut self, id: u32, p: f64) -> Option<f64> {
        match self.members[id as usize] {
            Member::Spilled { at } => self.spilled[at as usize].quantile_read(p),
            Member::Chain { len: 0, .. } => None,
            Member::Chain { .. } if !p.is_finite() => None,
            Member::Chain { head, len, .. } => {
                let mut flat = std::mem::take(&mut self.scratch);
                flat.clear();
                flat.extend(self.chain(head, len));
                let picked = pick_buffered(&mut flat, p);
                self.scratch = flat;
                Some(picked)
            }
        }
    }

    /// Member `id` as a sketch of its own.
    pub(crate) fn sketch(&self, id: u32) -> QuantileSketch {
        match self.members[id as usize] {
            Member::Spilled { at } => self.spilled[at as usize].clone(),
            Member::Chain { head, len, .. } => {
                let mut sketch = QuantileSketch::new(self.eps);
                self.chain(head, len).for_each(|v| sketch.observe(v));
                sketch
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::mix64;

    const BOUNDS: [f64; 3] = [0.01, 0.05, 0.2];
    const PERCENTILES: [f64; 8] = [0.0, 10.0, 25.0, 50.0, 75.0, 99.0, 100.0, f64::NAN];

    /// A stream with ties, both zeros and a few distinct magnitudes.
    fn value(i: u64) -> f64 {
        match mix64(i) % 6 {
            0 => 0.0,
            1 => -0.0,
            2 => 7.5,
            _ => (mix64(i ^ 0x5eed) % 23) as f64 / 4.0 - 2.0,
        }
    }

    /// Asserts member `id` is, to every read, the sketch `want`. Reads run
    /// on copies: a read compacts a spilled sketch.
    fn assert_member_is(bank: &SketchBank, id: u32, want: &QuantileSketch, what: &str) {
        assert_eq!(bank.count(id), want.count(), "{what}: count");
        assert_eq!(&bank.sketch(id), want, "{what}: materialised sketch");
        for p in PERCENTILES {
            assert_eq!(
                bank.clone().quantile_read(id, p).map(f64::to_bits),
                want.clone().quantile_read(p).map(f64::to_bits),
                "{what}: p{p}"
            );
        }
    }

    #[test]
    fn bank_member_equals_a_sketch_fed_the_same_stream() {
        for eps in BOUNDS {
            let threshold = QuantileSketch::flush_threshold(eps) as u64;
            let mut bank = SketchBank::new(eps);
            let id = bank.add();
            let mut want = QuantileSketch::new(eps);
            assert_member_is(&bank, id, &want, "empty");
            for n in 1..=2 * threshold + 3 {
                bank.observe(id, value(n));
                want.observe(value(n));
                assert_member_is(&bank, id, &want, &format!("eps {eps}, n {n}"));
                // The member leaves the slab on the observation on which
                // the sketch first flushes, not before.
                assert_eq!(want.tuples_len() > 0, n >= threshold, "eps {eps}, n {n}");
                assert_eq!(bank.spilled.len() as u64, u64::from(n >= threshold));
            }
        }
    }

    #[test]
    fn bank_members_interleave_in_the_slab() {
        // Three members fed round-robin at different rates, so the chunks
        // of one chain alternate with the others' in the slab.
        for eps in BOUNDS {
            let threshold = QuantileSketch::flush_threshold(eps) as u64;
            let mut bank = SketchBank::new(eps);
            let ids = [bank.add(), bank.add(), bank.add()];
            let mut want = [eps; 3].map(QuantileSketch::new);
            for i in 0..3 * threshold {
                for (m, every) in [1u64, 2, 5].into_iter().enumerate() {
                    if i % every == 0 {
                        let v = value(i * 3 + m as u64);
                        bank.observe(ids[m], v);
                        want[m].observe(v);
                    }
                }
                if i % 7 == 0 || i + 1 == 3 * threshold {
                    for m in 0..3 {
                        assert_member_is(
                            &bank,
                            ids[m],
                            &want[m],
                            &format!("eps {eps}, i {i}, m {m}"),
                        );
                    }
                }
            }
            assert!(want[0].tuples_len() > 0 && want[2].tuples_len() == 0);
        }
    }

    #[test]
    fn bank_reuses_the_chunks_a_spill_gives_back() {
        let eps = 0.05;
        let threshold = QuantileSketch::flush_threshold(eps) as u64; // 30
        let mut bank = SketchBank::new(eps);
        let ids = [bank.add(), bank.add(), bank.add()];
        let mut want = [eps; 3].map(QuantileSketch::new);
        let mut feed = |bank: &mut SketchBank, m: usize, n: u64| {
            for i in 0..n {
                let v = value(1_000 * m as u64 + want[m].count() + i);
                bank.observe(ids[m], v);
                want[m].observe(v);
            }
        };
        assert_eq!(CHUNK, 8, "the counts below are in 8-value chunks");
        // Members 1 and 2 stop mid-chunk; member 0 fills four chunks less
        // three values.
        feed(&mut bank, 1, 5);
        feed(&mut bank, 0, threshold - 1);
        feed(&mut bank, 2, 10);
        let slab = bank.chunks.len();
        assert_eq!(slab, 1 + 4 + 2);
        // Member 0 spills: its four chunks go to the free list…
        feed(&mut bank, 0, 1);
        assert_eq!((bank.spilled.len(), bank.chunks.len()), (1, slab));
        assert_ne!(bank.free, NIL);
        // …and the others' next chunks come from it: the slab does not
        // grow until the list is empty.
        feed(&mut bank, 1, 12);
        feed(&mut bank, 2, 15);
        assert_eq!((bank.chunks.len(), bank.free), (slab, NIL));
        feed(&mut bank, 1, 7);
        assert_eq!(bank.chunks.len(), slab, "24 values lie in three chunks");
        feed(&mut bank, 2, 5);
        assert_eq!((bank.spilled.len(), bank.chunks.len()), (2, slab));
        feed(&mut bank, 0, 3 * threshold);
        for m in 0..3 {
            assert_member_is(&bank, ids[m], &want[m], &format!("member {m}"));
        }
    }

    /// A bank beside the sketches its members must equal, both fed one
    /// stream.
    struct Twin {
        bank: SketchBank,
        want: Vec<QuantileSketch>,
        fed: u64,
    }

    impl Twin {
        fn add(&mut self) -> u32 {
            self.want.push(QuantileSketch::new(self.bank.eps));
            self.bank.add()
        }

        fn feed(&mut self, id: u32) {
            self.fed += 1;
            self.bank.observe(id, value(self.fed));
            self.want[id as usize].observe(value(self.fed));
        }

        fn pages_of(&self, id: u32) -> (usize, usize) {
            match self.bank.members[id as usize] {
                Member::Chain { head, tail, .. } => (head as usize / PAGE, tail as usize / PAGE),
                Member::Spilled { .. } => panic!("member {id} left the slab"),
            }
        }
    }

    #[test]
    fn bank_chains_cross_pages_onto_the_chunks_spills_free() {
        for eps in BOUNDS {
            let threshold = QuantileSketch::flush_threshold(eps) as u64;
            // The chunks of a member one value short of spilling.
            let full = (threshold as usize - 1).div_ceil(CHUNK);
            let mut twin = Twin {
                bank: SketchBank::new(eps),
                want: Vec::new(),
                fed: 0,
            };
            // Page 0: members fed round-robin to one value short of the
            // threshold, so their chains interleave.
            let early: Vec<u32> = (0..PAGE / full).map(|_| twin.add()).collect();
            for _ in 1..threshold {
                early.iter().for_each(|&id| twin.feed(id));
            }
            assert!(twin.bank.chunks.len() <= PAGE, "eps {eps}");
            // Page 1 and the start of page 2: one single-value member a
            // chunk.
            let mut late = Vec::new();
            while twin.bank.chunks.len() < 2 * PAGE + 8 {
                let id = twin.add();
                twin.feed(id);
                late.push(id);
            }
            let late = late.split_off(late.len() - 8);
            assert!(late.iter().all(|&id| twin.pages_of(id) == (2, 2)));
            let slab = twin.bank.chunks.len();
            // The early members spill, freeing every chunk they held on
            // page 0…
            early.iter().for_each(|&id| twin.feed(id));
            assert_eq!(twin.bank.spilled.len(), early.len(), "eps {eps}");
            let mut free = early.len() * full;
            // …which the late members' chains go on in, up to one value
            // short of the threshold, before the slab grows a chunk.
            for _ in 2..threshold {
                late.iter().for_each(|&id| twin.feed(id));
            }
            free -= late.len() * (full - 1);
            assert_eq!(twin.bank.chunks.len(), slab, "eps {eps}");
            if full > 1 {
                assert!(late.iter().all(|&id| twin.pages_of(id) == (2, 0)));
            }
            // New members take the rest of the list, then grow the slab.
            for _ in 0..=free {
                let id = twin.add();
                twin.feed(id);
            }
            assert_eq!(twin.bank.chunks.len(), slab + 1, "eps {eps}");
            for (id, want) in twin.want.iter().enumerate() {
                assert_member_is(
                    &twin.bank,
                    id as u32,
                    want,
                    &format!("eps {eps}, member {id}"),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN fed to QuantileSketch")]
    fn bank_rejects_nan() {
        let mut bank = SketchBank::new(0.1);
        let id = bank.add();
        bank.observe(id, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "rank-error bound")]
    fn bank_rejects_a_bound_no_sketch_takes() {
        SketchBank::new(0.5);
    }
}
