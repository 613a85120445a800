//! Live telemetry plane: the hot-path flight recorder.
//!
//! The serving plane (anycast-serve) answers queries in batches at
//! hundreds of thousands of QPS; per-query metric updates at that rate
//! would dominate the hot path, and post-mortem run reports say nothing
//! while the server is running. The flight recorder closes that gap:
//!
//! * each worker shard owns a [`ShardRecorder`] holding two fixed-capacity
//!   [`Ring`]s — one for sampled per-query [`TraceRecord`]s (arrival →
//!   table lookup depth → template hit/miss → valve state → send), one for
//!   per-batch [`BatchEvent`]s;
//! * queries are sampled by a **deterministic txid hash**: an FNV-1a hash
//!   over the raw packet bytes, kept when the low [`SAMPLE_SHIFT`] bits
//!   are zero (one query in 64). The same packet is sampled on every run
//!   and under any worker count — no RNG is drawn, upholding the
//!   obs-neutrality contract;
//! * a drain thread off the hot path periodically calls
//!   [`FlightRecorder::drain`], which folds the buffered records into the
//!   ordinary registry counters and log-linear histograms
//!   (`serve_trace_*`), where they flow out through run reports, the
//!   Prometheus export, and the in-band CHAOS scrape.
//!
//! The recorder writes nothing back: `sample` only reads packet bytes,
//! `record` only writes into a preallocated ring, and a full ring
//! overwrites its oldest record rather than blocking. Enabling or
//! disabling the recorder therefore never changes an answer byte — the
//! serve crate's loopback golden tests pin this.
//!
//! Because ring drains race with traffic, `serve_trace_*` totals are
//! timing-dependent (a record can be overwritten before the drain
//! reaches it); they are excluded from
//! [`Snapshot::deterministic`](crate::Snapshot::deterministic).

use std::sync::Arc;

use crate::ring::Ring;
use crate::{counter, histogram};

/// Trace flag: the query was answered from the pre-encoded template fast
/// path (a canonical-form A/IN query over UDP).
pub const TRACE_TEMPLATE_HIT: u8 = 1 << 0;
/// Trace flag: the answer came from the overload valve (anycast VIP).
pub const TRACE_VALVE: u8 = 1 << 1;
/// Trace flag: the source address did not map to a known LDNS resolver.
pub const TRACE_UNKNOWN_LDNS: u8 = 1 << 2;
/// Trace flag: the batch this query arrived in was in overload state.
pub const TRACE_OVERLOAD: u8 = 1 << 3;

/// One sampled query's trip through the serving hot path. 8 bytes, `Copy`,
/// built on the stack and pushed into a preallocated ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceRecord {
    /// DNS transaction id of the sampled query.
    pub txid: u16,
    /// Table lookup depth: the matched ECS prefix length (= the answer's
    /// ECS scope), 0 for LDNS-keyed answers, valve answers, and the slow
    /// path.
    pub depth: u8,
    /// `TRACE_*` bit flags.
    pub flags: u8,
    /// Bytes written to the wire for the response (0 = dropped).
    pub resp_len: u16,
}

/// One batch receive on a worker shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchEvent {
    /// Datagrams delivered by this `recvmmsg` call.
    pub fill: u16,
    /// Whether the shard's overload valve was engaged for this batch.
    pub overloaded: bool,
}

/// The recorder samples one query in `2^SAMPLE_SHIFT`.
pub const SAMPLE_SHIFT: u32 = 6;

/// Per-shard ring capacity, in records: queries and batches each get a
/// ring of this size. At one sampled query in 64, a query ring spans
/// ~65k queries between drains before it overwrites.
const RING_CAPACITY: usize = 1024;

/// How many leading packet bytes feed the sampling hash. The DNS header
/// (12 bytes, txid included) plus the start of the question section is
/// enough entropy to spread the sampled set; hashing the whole packet
/// would put an O(len) serial-dependency chain on every packet for no
/// extra sampling quality.
const SAMPLE_HASH_PREFIX: usize = 32;

/// FNV-1a over the packet bytes: the deterministic sampling hash. Pure
/// function of the wire bytes, so the sampled set is identical across
/// runs, shards, and worker counts.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One worker shard's half of the flight recorder: sampling decision plus
/// two overwrite rings. Shared with the drain side via `Arc`.
#[derive(Debug)]
pub struct ShardRecorder {
    active: bool,
    queries: Ring<TraceRecord>,
    batches: Ring<BatchEvent>,
}

impl ShardRecorder {
    fn new(active: bool) -> ShardRecorder {
        ShardRecorder {
            active,
            queries: Ring::new(RING_CAPACITY),
            batches: Ring::new(RING_CAPACITY),
        }
    }

    /// Decides whether this packet's trip should be recorded. One branch
    /// when the recorder is disabled; a short FNV-1a hash over the first
    /// `SAMPLE_HASH_PREFIX` bytes otherwise.
    #[inline]
    pub fn sample(&self, packet: &[u8]) -> bool {
        const MASK: u64 = (1 << SAMPLE_SHIFT) - 1;
        self.active && fnv1a(&packet[..packet.len().min(SAMPLE_HASH_PREFIX)]) & MASK == 0
    }

    /// Buffers a sampled query trace. Call only when [`sample`] said yes.
    ///
    /// [`sample`]: ShardRecorder::sample
    #[inline]
    pub fn record(&self, r: TraceRecord) {
        if self.active {
            self.queries.push(r);
        }
    }

    /// Buffers one batch event (every batch, not sampled — the per-packet
    /// amortized cost is `1/batch` ring pushes).
    #[inline]
    pub fn record_batch(&self, e: BatchEvent) {
        if self.active {
            self.batches.push(e);
        }
    }
}

/// The assembled recorder: one [`ShardRecorder`] per worker plus the
/// drain that folds buffered records into the global registry.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    shards: Vec<Arc<ShardRecorder>>,
}

impl FlightRecorder {
    /// Builds a recorder with `shards` independent shard recorders (one
    /// per serve worker; minimum 1). A disabled recorder reduces every
    /// hot-path hook to one predictable branch.
    pub fn new(shards: usize, enabled: bool) -> FlightRecorder {
        FlightRecorder {
            enabled,
            shards: (0..shards.max(1))
                .map(|_| Arc::new(ShardRecorder::new(enabled)))
                .collect(),
        }
    }

    /// Whether hot-path hooks do anything at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The shard recorder for worker `i` (clamped to the shard count).
    pub fn shard(&self, i: usize) -> Arc<ShardRecorder> {
        Arc::clone(&self.shards[i.min(self.shards.len() - 1)])
    }

    /// Drains every shard's rings and folds the records into registry
    /// metrics. Called from the drain thread, never from the hot path.
    /// Returns the number of query traces folded.
    pub fn drain(&self) -> usize {
        if !self.enabled {
            return 0;
        }
        let mut traces: Vec<TraceRecord> = Vec::new();
        let mut batches: Vec<BatchEvent> = Vec::new();
        let mut dropped = 0u64;
        for shard in &self.shards {
            dropped += shard.queries.drain_into(&mut traces);
            dropped += shard.batches.drain_into(&mut batches);
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut valve = 0u64;
        let mut unknown = 0u64;
        let depth_hist = histogram!("serve_trace_depth");
        let resp_hist = histogram!("serve_trace_resp_bytes");
        for t in &traces {
            if t.flags & TRACE_TEMPLATE_HIT != 0 {
                hits += 1;
            } else {
                misses += 1;
            }
            if t.flags & TRACE_VALVE != 0 {
                valve += 1;
            }
            if t.flags & TRACE_UNKNOWN_LDNS != 0 {
                unknown += 1;
            }
            depth_hist.observe(t.depth as f64);
            resp_hist.observe(t.resp_len as f64);
        }
        let fill_hist = histogram!("serve_trace_batch_fill");
        let mut overload_batches = 0u64;
        for b in &batches {
            fill_hist.observe(b.fill as f64);
            if b.overloaded {
                overload_batches += 1;
            }
        }
        counter!("serve_trace_sampled_total").add(traces.len() as u64);
        counter!("serve_trace_template_hits_total").add(hits);
        counter!("serve_trace_template_misses_total").add(misses);
        counter!("serve_trace_valve_total").add(valve);
        counter!("serve_trace_unknown_ldns_total").add(unknown);
        counter!("serve_trace_batches_total").add(batches.len() as u64);
        counter!("serve_trace_overload_batches_total").add(overload_batches);
        counter!("serve_trace_dropped_total").add(dropped);
        traces.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_shard_invariant() {
        let one = FlightRecorder::new(1, true);
        let four = FlightRecorder::new(4, true);
        let n = 16_384u32;
        let mut kept = 0;
        for i in 0..n {
            let pkt = i.to_be_bytes();
            let d = one.shard(0).sample(&pkt);
            // Every shard, in every layout, makes the same call.
            for s in 0..4 {
                assert_eq!(four.shard(s).sample(&pkt), d);
            }
            assert_eq!(one.shard(0).sample(&pkt), d);
            kept += d as u32;
        }
        // One in 2^SAMPLE_SHIFT: a fair sampler keeps Binomial(n, 1/64),
        // mean 256 and sd ~15.9; the band is the mean ± 6 sd.
        let p = 1.0 / f64::from(1u32 << SAMPLE_SHIFT);
        let mean = f64::from(n) * p;
        let sd = (mean * (1.0 - p)).sqrt();
        let kept = f64::from(kept);
        assert!(
            (kept - mean).abs() <= 6.0 * sd,
            "kept {kept} of {n}, expected {mean} ± {:.0}",
            6.0 * sd
        );
    }

    #[test]
    fn disabled_recorder_never_samples_or_folds() {
        let rec = FlightRecorder::new(2, false);
        for i in 0..256u32 {
            assert!(!rec.shard(0).sample(&i.to_be_bytes()));
        }
        rec.shard(0).record(TraceRecord::default());
        rec.shard(0).record_batch(BatchEvent::default());
        assert_eq!(rec.drain(), 0);
    }

    #[test]
    fn drain_folds_flags_into_tallies() {
        let rec = FlightRecorder::new(2, true);
        rec.shard(0).record(TraceRecord {
            txid: 7,
            depth: 24,
            flags: TRACE_TEMPLATE_HIT,
            resp_len: 64,
        });
        rec.shard(1).record(TraceRecord {
            txid: 8,
            depth: 0,
            flags: TRACE_VALVE | TRACE_OVERLOAD,
            resp_len: 48,
        });
        rec.shard(0).record_batch(BatchEvent {
            fill: 32,
            overloaded: true,
        });
        assert_eq!(rec.drain(), 2);
        // A second drain finds nothing new.
        assert_eq!(rec.drain(), 0);
    }
}
