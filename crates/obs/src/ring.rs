//! Fixed-capacity overwrite rings for the flight recorder.
//!
//! A [`Ring`] is a bounded, lossy mailbox between a producer on the serve
//! hot path and a drain thread that folds records into the metrics
//! registry. The buffer is allocated once at construction and never grows:
//! a `push` into a full ring overwrites the oldest record and bumps an
//! overwrite counter, so the hot path never blocks on the reader and never
//! allocates. Loss is accounted, not hidden — [`Ring::drain_into`] returns
//! how many records were overwritten since the previous drain.
//!
//! The ring is deliberately a `Mutex` around a plain state struct rather
//! than a lock-free queue: the obs crate forbids `unsafe`, producers only
//! push *sampled* records (one in 64 queries) plus one event per batch,
//! and the critical section is a couple of array writes. Contention is
//! between exactly one producer shard and one drain thread.

use std::sync::Mutex;

/// A fixed-capacity single-allocation ring that overwrites its oldest
/// entry when full.
#[derive(Debug)]
pub struct Ring<T: Copy + Default> {
    inner: Mutex<State<T>>,
}

#[derive(Debug)]
struct State<T> {
    buf: Box<[T]>,
    /// Index the next push writes to.
    head: usize,
    /// Live records, `<= buf.len()`.
    len: usize,
    /// Records overwritten since the last drain.
    overwritten: u64,
}

impl<T: Copy + Default> Ring<T> {
    /// Creates a ring holding at most `capacity` (> 0) records. The
    /// backing buffer is allocated here, once; pushes never allocate.
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            inner: Mutex::new(State {
                buf: vec![T::default(); capacity].into_boxed_slice(),
                head: 0,
                len: 0,
                overwritten: 0,
            }),
        }
    }

    /// Appends a record, overwriting the oldest one if the ring is full.
    pub fn push(&self, item: T) {
        let mut s = self.inner.lock().expect("ring poisoned");
        let cap = s.buf.len();
        let head = s.head;
        if s.len == cap {
            s.overwritten += 1;
        } else {
            s.len += 1;
        }
        s.buf[head] = item;
        s.head = (head + 1) % cap;
    }

    /// Moves every live record into `out` in arrival order (oldest first),
    /// empties the ring, and returns how many records were overwritten
    /// since the previous drain. `out` is appended to, not cleared, so a
    /// reader can reuse one scratch vector across shards.
    pub fn drain_into(&self, out: &mut Vec<T>) -> u64 {
        let mut s = self.inner.lock().expect("ring poisoned");
        let cap = s.buf.len();
        // Oldest record: `head` when the ring wrapped, else slot 0.
        let start = (s.head + cap - s.len) % cap;
        for i in 0..s.len {
            out.push(s.buf[(start + i) % cap]);
        }
        s.len = 0;
        std::mem::take(&mut s.overwritten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_arrival_order() {
        let r: Ring<u32> = Ring::new(4);
        for v in 1..=3 {
            r.push(v);
        }
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 0);
        assert_eq!(out, vec![1, 2, 3]);
        // The drain emptied the ring.
        out.clear();
        assert_eq!(r.drain_into(&mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn overwrites_oldest_and_counts_loss() {
        let r: Ring<u32> = Ring::new(3);
        for v in 1..=5 {
            r.push(v);
        }
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 2);
        assert_eq!(out, vec![3, 4, 5]);
        // A drain resets the loss counter.
        r.push(9);
        out.clear();
        assert_eq!(r.drain_into(&mut out), 0);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn wraparound_keeps_order_across_many_drains() {
        let r: Ring<u32> = Ring::new(4);
        let mut out = Vec::new();
        for round in 0..10u32 {
            for v in 0..3 {
                r.push(round * 3 + v);
            }
            out.clear();
            r.drain_into(&mut out);
            assert_eq!(out, vec![round * 3, round * 3 + 1, round * 3 + 2]);
        }
    }
}
