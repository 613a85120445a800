//! Hash-partitioned, backpressured streaming ingestion.
//!
//! A production CDN's log volume ("more than 420 million queries … from
//! more than 10 million client IP addresses", §3.2.1) arrives as a stream,
//! not a `Vec`. This module fans a record stream out to N worker threads
//! over bounded channels and folds each worker's partial aggregate into
//! one result at day close.
//!
//! **Determinism contract.** Records are routed by a caller-supplied key
//! — the client-group key, in every adapter this crate ships — so each
//! group is *wholly owned* by one worker and sees its records in stream
//! order. Worker outputs are keyed maps with disjoint key sets, and
//! [`merge_keyed`] unions them into a `BTreeMap`. The merged result is
//! therefore **bit-identical for any worker count**, including one: the
//! same seed yields the same bytes whether ingestion ran on 1 thread or 8.
//! The `shard-invariance` proptest pins this.
//!
//! **Backpressure.** Channels are `sync_channel`s holding a bounded number
//! of record batches; a producer outrunning the workers blocks in
//! [`ShardedIngest::push`] rather than buffering the day in memory.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::thread::JoinHandle;

use anycast_obs::counter;

/// A shard worker died mid-stream. Carries the worker's index and its
/// panic message, recovered from the `JoinHandle::join` payload — the
/// producer used to abort with an opaque `SendError` that lost both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the worker that died (0-based, stable across runs for a
    /// given routing function and worker count).
    pub worker: usize,
    /// The worker's panic payload rendered as text: `&str` and `String`
    /// payloads verbatim, anything else a placeholder.
    pub message: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard worker {} panicked: {}", self.worker, self.message)
    }
}

impl std::error::Error for ShardError {}

/// Renders a `JoinHandle::join` panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A per-worker streaming aggregate: consumes records one at a time,
/// produces a partial result at end of stream.
pub trait Aggregate: Send + 'static {
    /// The record type consumed.
    type Record: Send + 'static;
    /// The partial result handed back when the stream closes.
    type Output: Send + 'static;

    /// Absorbs one record.
    fn observe(&mut self, record: Self::Record);

    /// Closes the stream and returns the partial result.
    fn finish(self) -> Self::Output;
}

/// Tuning knobs for a sharded ingestion run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker thread count (≥ 1). The merged result does not depend on it.
    pub workers: usize,
    /// Records per channel batch: amortizes channel synchronization.
    pub batch: usize,
    /// Batches a channel buffers before `push` blocks (backpressure depth).
    pub queue_depth: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 2,
            batch: 1024,
            queue_depth: 4,
        }
    }
}

/// A running sharded ingestion: N workers, each owning a key-space slice
/// (a fixed multiply-shift reduction of `hash(key)` over N), fed over
/// bounded channels.
pub struct ShardedIngest<A: Aggregate, R: Fn(&A::Record) -> u64> {
    senders: Vec<SyncSender<Vec<A::Record>>>,
    pending: Vec<Vec<A::Record>>,
    handles: Vec<Option<JoinHandle<A::Output>>>,
    /// First worker death observed by `push`, replayed by `finish` so the
    /// failure cannot be lost by continuing to drive a dead ingestion.
    dead: Option<ShardError>,
    route: R,
    batch: usize,
}

impl<A: Aggregate, R: Fn(&A::Record) -> u64> ShardedIngest<A, R> {
    /// Spawns the workers. `route` must be a pure function of the record's
    /// group key (mix well — see [`crate::sketch::mix64`]); `make(i)`
    /// builds worker i's empty aggregate.
    ///
    /// # Panics
    /// Panics when `cfg.workers`, `cfg.batch`, or `cfg.queue_depth` is 0.
    pub fn new(
        cfg: ShardConfig,
        route: R,
        mut make: impl FnMut(usize) -> A,
    ) -> ShardedIngest<A, R> {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(
            cfg.batch > 0 && cfg.queue_depth > 0,
            "batch and queue_depth must be positive"
        );
        let mut senders = Vec::with_capacity(cfg.workers);
        let mut handles = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let (tx, rx) = sync_channel::<Vec<A::Record>>(cfg.queue_depth);
            let mut agg = make(i);
            handles.push(Some(std::thread::spawn(move || {
                for batch in rx {
                    for record in batch {
                        agg.observe(record);
                    }
                }
                agg.finish()
            })));
            senders.push(tx);
        }
        ShardedIngest {
            senders,
            pending: (0..cfg.workers)
                .map(|_| Vec::with_capacity(cfg.batch))
                .collect(),
            handles,
            dead: None,
            route,
            batch: cfg.batch,
        }
    }

    /// Feeds one record; blocks when the owning worker's queue is full.
    ///
    /// # Errors
    /// Returns [`ShardError`] when the owning worker has panicked: the
    /// worker is joined and its panic message recovered, so the caller can
    /// surface *why* ingestion degraded instead of an opaque `SendError`.
    pub fn push(&mut self, record: A::Record) -> Result<(), ShardError> {
        // Multiply-shift range reduction (Lemire): a pure function of
        // (hash, worker count) like `%`, without the hardware divide —
        // this runs once per log record.
        let hash = (self.route)(&record);
        let shard = ((u128::from(hash) * self.senders.len() as u128) >> 64) as usize;
        self.pending[shard].push(record);
        if self.pending[shard].len() >= self.batch {
            let batch = std::mem::replace(&mut self.pending[shard], Vec::with_capacity(self.batch));
            // Routed records are counted a batch at a time (and the
            // residues in `finish`): the producer bounds sharded ingest,
            // and one atomic per record is what it can least afford.
            counter!("pipeline_records_routed_total").add(batch.len() as u64);
            counter!("pipeline_batches_sent_total").inc();
            // try_send first so a full queue — the producer outrunning the
            // workers — is visible as a backpressure event before blocking.
            match self.senders[shard].try_send(batch) {
                Ok(()) => {}
                Err(TrySendError::Full(batch)) => {
                    counter!("pipeline_backpressure_blocks_total").inc();
                    if self.senders[shard].send(batch).is_err() {
                        return Err(self.reap(shard));
                    }
                }
                // A send only fails when the receiver hung up, i.e. the
                // worker died. Reap it for the real panic payload.
                Err(TrySendError::Disconnected(_)) => return Err(self.reap(shard)),
            }
        }
        Ok(())
    }

    /// Joins a dead worker and converts its panic payload into the typed
    /// error.
    fn reap(&mut self, shard: usize) -> ShardError {
        let err = match self.handles[shard].take() {
            Some(h) => match h.join() {
                Err(payload) => {
                    counter!("pipeline_shard_panics_total").inc();
                    ShardError {
                        worker: shard,
                        message: panic_message(payload),
                    }
                }
                Ok(_) => ShardError {
                    worker: shard,
                    message: "worker exited before end of stream".to_string(),
                },
            },
            None => ShardError {
                worker: shard,
                message: "worker already reaped".to_string(),
            },
        };
        if self.dead.is_none() {
            self.dead = Some(err.clone());
        }
        err
    }

    /// Closes the stream: flushes residual batches, joins every worker,
    /// and returns the partial outputs in worker order (0..N).
    ///
    /// # Errors
    /// Returns the first worker failure observed — the one `push` already
    /// reported if any, else the lowest-index panicking worker's
    /// [`ShardError`]. Every worker is still joined first, so no thread is
    /// leaked on the error path.
    pub fn finish(mut self) -> Result<Vec<A::Output>, ShardError> {
        for (i, residue) in self.pending.drain(..).enumerate() {
            if !residue.is_empty() {
                counter!("pipeline_records_routed_total").add(residue.len() as u64);
                // A failed flush means the worker died; the join below
                // recovers its panic payload, so ignore the send error.
                let _ = self.senders[i].send(residue);
            }
        }
        self.senders.clear();
        let mut outputs = Vec::with_capacity(self.handles.len());
        let mut first_err: Option<ShardError> = None;
        for (i, slot) in self.handles.into_iter().enumerate() {
            let Some(h) = slot else { continue };
            match h.join() {
                Ok(out) => outputs.push(out),
                Err(payload) => {
                    counter!("pipeline_shard_panics_total").inc();
                    if first_err.is_none() {
                        first_err = Some(ShardError {
                            worker: i,
                            message: panic_message(payload),
                        });
                    }
                }
            }
        }
        match self.dead.or(first_err) {
            Some(e) => Err(e),
            None => Ok(outputs),
        }
    }
}

/// Unions keyed partial outputs, combining values that collide. With
/// key-ownership routing the key sets are disjoint and the result is
/// worker-count invariant; even with collisions it is deterministic
/// because parts arrive in worker order.
pub fn merge_keyed<K: Ord, V>(
    parts: Vec<BTreeMap<K, V>>,
    mut combine: impl FnMut(&mut V, V),
) -> BTreeMap<K, V> {
    let mut out = BTreeMap::new();
    for part in parts {
        for (k, v) in part {
            match out.entry(k) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(v);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    combine(e.get_mut(), v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::mix64;

    /// Toy aggregate: per-key sums.
    struct Sums(BTreeMap<u64, u64>);

    impl Aggregate for Sums {
        type Record = (u64, u64);
        type Output = BTreeMap<u64, u64>;

        fn observe(&mut self, (k, w): (u64, u64)) {
            *self.0.entry(k).or_insert(0) += w;
        }

        fn finish(self) -> BTreeMap<u64, u64> {
            self.0
        }
    }

    fn run(workers: usize, records: &[(u64, u64)]) -> BTreeMap<u64, u64> {
        let cfg = ShardConfig {
            workers,
            batch: 7,
            queue_depth: 2,
        };
        let mut ingest =
            ShardedIngest::new(cfg, |r: &(u64, u64)| mix64(r.0), |_| Sums(BTreeMap::new()));
        for &r in records {
            ingest.push(r).unwrap();
        }
        merge_keyed(ingest.finish().unwrap(), |a, b| *a += b)
    }

    /// Aggregate that panics on a poison record — models a worker hitting
    /// a malformed log row or an internal invariant failure.
    struct Poisonable;

    impl Aggregate for Poisonable {
        type Record = u64;
        type Output = u64;

        fn observe(&mut self, record: u64) {
            assert!(record != 42, "poison record 42 observed");
        }

        fn finish(self) -> u64 {
            0
        }
    }

    #[test]
    fn sharded_sums_match_sequential() {
        let records: Vec<(u64, u64)> = (0..10_000).map(|i| (i % 97, 1)).collect();
        let mut expected = BTreeMap::new();
        for &(k, w) in &records {
            *expected.entry(k).or_insert(0) += w;
        }
        assert_eq!(run(3, &records), expected);
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let records: Vec<(u64, u64)> = (0..5_000).map(|i| (mix64(i) % 251, i)).collect();
        let one = run(1, &records);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers, &records), one, "workers={workers}");
        }
    }

    #[test]
    fn empty_stream_yields_empty_output() {
        assert!(run(4, &[]).is_empty());
    }

    #[test]
    fn merge_keyed_combines_collisions_in_worker_order() {
        let parts = vec![
            BTreeMap::from([(1, vec!["a"]), (2, vec!["b"])]),
            BTreeMap::from([(1, vec!["c"])]),
        ];
        let merged = merge_keyed(parts, |a, b| a.extend(b));
        assert_eq!(merged[&1], vec!["a", "c"]);
        assert_eq!(merged[&2], vec!["b"]);
    }

    #[test]
    fn worker_panic_message_reaches_the_producer() {
        // Regression: a worker panic used to surface as an opaque
        // `SendError` expect in the producer, losing the panic payload.
        let cfg = ShardConfig {
            workers: 2,
            batch: 1, // every push sends, so the death is observed quickly
            queue_depth: 1,
        };
        let mut ingest = ShardedIngest::new(cfg, |r: &u64| mix64(*r), |_| Poisonable);
        let mut err = None;
        for i in 0..10_000u64 {
            let record = if i == 5 { 42 } else { i };
            if let Err(e) = ingest.push(record) {
                err = Some(e);
                break;
            }
        }
        // Either a later push hit the dead worker, or finish reaps it.
        let e = match err {
            Some(e) => e,
            None => ingest.finish().expect_err("worker panicked"),
        };
        assert!(e.worker < 2);
        assert!(
            e.message.contains("poison record 42"),
            "panic payload lost: {:?}",
            e.message
        );
        assert!(e.to_string().contains("shard worker"));
    }

    #[test]
    fn panic_during_flush_is_reported_by_finish() {
        let cfg = ShardConfig {
            workers: 2,
            batch: 1_000_000, // poison stays in the residue until finish
            queue_depth: 1,
        };
        let mut ingest = ShardedIngest::new(cfg, |r: &u64| mix64(*r), |_| Poisonable);
        for i in 0..50u64 {
            ingest.push(if i == 25 { 42 } else { i }).unwrap();
        }
        let e = ingest.finish().expect_err("worker panicked at flush");
        assert!(e.message.contains("poison record 42"), "{}", e.message);
    }

    #[test]
    fn healthy_streams_are_unaffected_by_the_error_path() {
        // The Result-returning API must not change any output bytes.
        let records: Vec<(u64, u64)> = (0..3_000).map(|i| (i % 31, 2)).collect();
        let mut expected = BTreeMap::new();
        for &(k, w) in &records {
            *expected.entry(k).or_insert(0) += w;
        }
        for workers in [1, 2, 5] {
            assert_eq!(run(workers, &records), expected);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let cfg = ShardConfig {
            workers: 0,
            ..ShardConfig::default()
        };
        ShardedIngest::new(cfg, |r: &(u64, u64)| r.0, |_| Sums(BTreeMap::new()));
    }
}
