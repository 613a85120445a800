//! The workspace's determinism contract: splittable RNG streams, the
//! hashes every deterministic decision runs on, and the one worker runner.
//!
//! The simulator's determinism story has two tiers. Pure schedule models
//! ([`crate::outage::OutageModel`], [`crate::worldgen::dynamics`]) hash
//! `(seed, entity, day)` straight to a decision and need no generator at
//! all. Stochastic per-event noise (RTT jitter, beacon scheduling, browser
//! timing) does need a generator — and if every event in a campaign pulls
//! from one shared sequential RNG, the draw order becomes part of the
//! output and nothing can be computed out of order, let alone on another
//! thread.
//!
//! This module closes that gap: [`derive()`] folds an arbitrary key path
//! (e.g. `(day, client, beacon)`) through the same SplitMix64-style mixer
//! the schedule models use, and [`stream_rng`] seeds a [`SmallRng`] from
//! the result. Two properties make the campaign engine parallelizable:
//!
//! * **Independence** — streams for different key paths are statistically
//!   uncorrelated (SplitMix64's finalizer decorrelates adjacent keys), so
//!   per-client streams can be consumed in any order, on any thread.
//! * **Stability** — a stream's identity is exactly `(seed, key path)`.
//!   Adding workers, reordering clients, or skipping events never shifts
//!   another stream's draws.
//!
//! A stream may make a *variable* number of draws (rejection sampling is
//! fine) as long as the draw count depends only on that stream's own
//! output — never on draws from a different stream.
//!
//! **Fan-out.** Every parallel pass in the workspace — a campaign day's
//! event ranges, the trainers' row ranges, a day's route snapshot, the
//! catchment warm-up — runs through [`run_workers`]: worker 0 on the
//! calling thread, the rest on scoped threads, outputs in worker order.
//! Each worker owns its input outright and nothing is handed between
//! threads mid-pass, so a pass whose workers compute pure functions of
//! their inputs is **bit-identical for any worker count**. [`FastMap`]
//! is the deterministic hash map the hot per-record passes keep.

use std::fmt;

use anycast_obs::counter;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64-style mixing of (seed, key, salt) into a well-distributed
/// u64. Identical to the mixer used by the schedule models so the whole
/// repo shares one derivation idiom.
pub fn mix(seed: u64, key: u64, salt: u64) -> u64 {
    splitmix64(
        seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    )
}

/// The SplitMix64 finalizer: every hash in the workspace above `geo`
/// pre-mixes its own inputs and ends here. Stable across platforms and
/// releases by construction — never replace it with `DefaultHasher`, whose
/// output is allowed to change between Rust versions.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to the unit interval with 53 bits of precision.
pub fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Folds a key path into a single stream identity. The position of each
/// key is salted in, so `derive(s, &[a, b]) != derive(s, &[b, a])` and a
/// path is never a prefix-collision of a longer one with zero keys.
pub fn derive(seed: u64, keys: &[u64]) -> u64 {
    let mut h = seed ^ 0x5354_5245_414d_7321; // "STREAMs!"
    for (i, &k) in keys.iter().enumerate() {
        h = mix(h, k, (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    h
}

/// A fresh generator for the stream identified by `(seed, keys)`. Cheap
/// enough to build per event: seeding a [`SmallRng`] is a few multiplies.
pub fn stream_rng(seed: u64, keys: &[u64]) -> SmallRng {
    SmallRng::seed_from_u64(derive(seed, keys))
}

/// SplitMix64 of one key: a cheap, high-quality 64-bit mixer for
/// deterministic hashing (shard routing, seeded test data), stable across
/// platforms and releases.
pub fn mix64(x: u64) -> u64 {
    splitmix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// A cheap multiply-rotate hasher (FxHash construction) for the per-record
/// hot maps, where SipHash's per-lookup cost is measurable at day scale.
/// Deterministic and DoS-hardening-free by design — the keys are simulator
/// ids, not attacker-controlled input.
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

/// A worker of [`run_workers`] died. Carries the worker's index and its
/// panic message, recovered from the `join` payload, so the caller can
/// surface *why* the pass failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Index of the worker that died (0-based: its input's position).
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
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive(7, &[1, 2, 3]), derive(7, &[1, 2, 3]));
        let mut a = stream_rng(7, &[0, 5]);
        let mut b = stream_rng(7, &[0, 5]);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn key_order_and_depth_matter() {
        assert_ne!(derive(7, &[1, 2]), derive(7, &[2, 1]));
        assert_ne!(derive(7, &[1]), derive(7, &[1, 0]));
        assert_ne!(derive(7, &[]), derive(7, &[0]));
        assert_ne!(derive(7, &[1, 2]), derive(8, &[1, 2]));
    }

    #[test]
    fn adjacent_streams_are_decorrelated() {
        // Crude independence check: first draws of adjacent client streams
        // should look uniform, not clustered.
        let draws: Vec<f64> = (0..1000).map(|c| to_unit(derive(42, &[3, c]))).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        let below = draws.iter().filter(|&&x| x < 0.5).count();
        assert!((400..600).contains(&below), "{below} below median");
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

    /// `Prefix` stores its length plus one; the hot maps must still hash
    /// it as the `(net, len)` it stood for, or their order moves.
    #[test]
    fn fast_hasher_sees_a_prefix_as_its_net_and_length() {
        use crate::Prefix;
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
