//! Key-ownership sharding: who owns a key, how the workers run, and what
//! a dead worker looks like to the caller.
//!
//! A production CDN's log volume ("more than 420 million queries … from
//! more than 10 million client IP addresses", §3.2.1) is more than one
//! core's day. Ingestion here is sharded by **key ownership**, without a
//! producer: every worker replays the record source itself and keeps the
//! records whose key it owns, so nothing is copied, batched or
//! queued between threads and a worker's state is touched by that worker
//! alone.
//!
//! **Determinism contract.** Records are routed by a caller-supplied hash
//! of the client-group key, so each group is *wholly owned* by one worker
//! and sees its records in stream order. Worker outputs have disjoint key
//! sets, and what is read from them — exact counts, quantiles — is a
//! function of each key's own record sequence. The result is therefore
//! **bit-identical for any worker count**, including one: the same seed
//! yields the same bytes whether ingestion ran on 1 thread or 8. The
//! `shard-invariance` proptest pins this.

use std::fmt;

use anycast_obs::counter;

/// A shard worker died mid-stream. Carries the worker's index and its
/// panic message, recovered from the `join` payload, so the caller can
/// surface *why* ingestion failed.
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

/// Renders a panic payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// How a sharded ingestion run is spread over threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker count (≥ 1). The result does not depend on it.
    pub workers: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { workers: 2 }
    }
}

/// The worker, of `workers`, that owns the keys hashing to `hash` (mix
/// well — see [`crate::sketch::mix64`]).
///
/// Multiply-shift range reduction (Lemire): a pure function of (hash,
/// worker count) like `%`, without the hardware divide — every worker
/// runs this once per log record.
pub(crate) fn owner(hash: u64, workers: usize) -> usize {
    ((u128::from(hash) * workers as u128) >> 64) as usize
}

/// Runs `work(w, inputs[w])` for every worker `w` at once — worker 0 on
/// the calling thread, the others on scoped threads of their own — and
/// returns the outputs in worker order.
///
/// # Errors
/// Returns the lowest-index panicking worker's [`ShardError`]. Every
/// worker is joined first, and each death is counted in
/// `pipeline_shard_panics_total`.
pub fn run_workers<S: Send, T: Send>(
    inputs: Vec<S>,
    work: impl Fn(usize, S) -> T + Sync,
) -> Result<Vec<T>, ShardError> {
    let work = &work;
    let mut inputs = inputs.into_iter().enumerate();
    let first = inputs.next();
    let joined: Vec<std::thread::Result<T>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = inputs
            .map(|(w, input)| scope.spawn(move || work(w, input)))
            .collect();
        // The unwind stops here only to be reported as an `Err` like any
        // other worker's: the caller gives up what a dead worker held.
        let inline = first.map(|(w, input)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(w, input)))
        });
        inline
            .into_iter()
            .chain(spawned.into_iter().map(|handle| handle.join()))
            .collect()
    });
    let mut outputs = Vec::with_capacity(joined.len());
    let mut first_err = None;
    for (worker, result) in joined.into_iter().enumerate() {
        match result {
            Ok(output) => outputs.push(output),
            Err(payload) => {
                counter!("pipeline_shard_panics_total").inc();
                first_err.get_or_insert(ShardError {
                    worker,
                    message: panic_message(payload),
                });
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(outputs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::mix64;
    use crate::source::sketch_day;
    use crate::window::DayScores;
    use anycast_beacon::Target;

    /// A day of `records` sketched by `workers` workers and read at the
    /// 25th percentile behind the 20-sample filter, rows in key order.
    fn run(workers: usize, records: &[(u64, f64)]) -> (usize, DayScores<u64>) {
        let mut day = sketch_day(
            records.iter().map(|&(k, v)| (k, Target::Anycast, v)),
            0.05,
            ShardConfig { workers },
            |k: &u64| mix64(*k),
        );
        let mut scores = day.read(25.0, 20);
        scores.rows.sort_by_key(|row| row.0);
        (day.len(), scores)
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
        // 251 keys of ~20 values each, and one key past the flush
        // threshold, so both the filter and the spill are exercised.
        let records: Vec<(u64, f64)> = (0..6_000)
            .map(|i| {
                let key = if i % 10 == 0 { 1_000 } else { mix64(i) % 251 };
                (key, (mix64(i ^ 0xabcd) % 500) as f64)
            })
            .collect();
        let one = run(1, &records);
        assert_eq!(one.0, 252);
        assert!(one.1.admitted > 0 && one.1.admitted < 252);
        for workers in [2, 3, 5, 8] {
            assert_eq!(run(workers, &records), one, "workers={workers}");
        }
    }

    #[test]
    fn empty_stream_yields_empty_output() {
        let (pairs, scores) = run(4, &[]);
        assert_eq!(pairs, 0);
        assert_eq!((scores.rows.len(), scores.admitted), (0, 0));
    }

    #[test]
    fn outputs_come_back_in_worker_order() {
        let inputs: Vec<usize> = (0..5).collect();
        let caller = std::thread::current().id();
        let outputs = run_workers(inputs, |w, input| {
            assert_eq!(w, input);
            (10 * input, std::thread::current().id() == caller)
        })
        .unwrap();
        let (tens, inline): (Vec<usize>, Vec<bool>) = outputs.into_iter().unzip();
        assert_eq!(tens, [0, 10, 20, 30, 40]);
        // Worker 0 is the calling thread; the others are not.
        assert_eq!(inline, [true, false, false, false, false]);
    }

    #[test]
    fn worker_panic_message_reaches_the_caller() {
        // The calling thread's own worker dies like any other.
        for poison in [0usize, 2] {
            let e = run_workers(vec![0usize, 1, 2], |_, input| {
                assert!(input != poison, "poison input {poison} observed");
                input
            })
            .expect_err("a worker panicked");
            assert_eq!(e.worker, poison);
            assert!(
                e.message.contains(&format!("poison input {poison}")),
                "panic payload lost: {:?}",
                e.message
            );
            assert!(e.to_string().contains("shard worker"));
        }
        // Two deaths: the lowest index is the one reported.
        let e = run_workers(vec![(); 4], |w, ()| assert!(w % 2 == 0, "odd worker {w}"))
            .expect_err("two workers panicked");
        assert_eq!((e.worker, e.message.as_str()), (1, "odd worker 1"));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        run(0, &[(1, 1.0)]);
    }
}
