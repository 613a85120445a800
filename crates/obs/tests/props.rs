//! Property tests for the obs crate's algebraic contracts:
//!
//! * histogram merge is bit-exactly **commutative** and **associative**,
//!   and merging per-worker partials equals observing the whole stream
//!   in one histogram (the same contract the pipeline crate's quantile
//!   sketches make);
//! * snapshot `diff` inverts accumulation;
//! * a hot loop's local tally, merged into a live [`Histogram`] or
//!   [`SpanAcc`], leaves it exactly where recording each event there
//!   would — and a disabled registry takes nothing from a merge;
//! * the JSON writer and parser round-trip arbitrary value trees.

use anycast_obs::json::{self, Value};
use anycast_obs::{Histogram, HistogramSnapshot, Registry, SpanAcc, SpanSnapshot};
use proptest::prelude::*;

fn hist_of(values: &[f64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::default();
    for &v in values {
        h.observe(v);
    }
    h
}

/// Latency-shaped values: a wide positive range plus degenerate corners.
fn latency() -> impl Strategy<Value = f64> {
    (any::<u32>(), any::<u16>()).prop_map(|(a, b)| {
        // Spread across octaves: mantissa from a, scale from b.
        let base = f64::from(a) / f64::from(u32::MAX);
        let scale = f64::powi(2.0, i32::from(b % 28) - 5);
        base * scale
    })
}

/// Latencies mixed with the values a bucket or the sum could misplace:
/// NaN, ±0, ±∞, negatives, subnormals, and bucket edges with their
/// neighbouring floats.
fn edgy() -> impl Strategy<Value = f64> {
    (any::<u8>(), latency(), any::<u16>()).prop_map(|(kind, v, pick)| {
        // Every bucket's lower edge: 2^e · (1 + k/4) from 1/16 ms up.
        let edge =
            f64::powi(2.0, i32::from(pick % 27) - 4) * (1.0 + f64::from(pick / 27 % 4) / 4.0);
        match kind % 10 {
            0 => f64::NAN,
            1 => -0.0,
            2 => [0.0, f64::INFINITY, f64::NEG_INFINITY, -v, f64::from_bits(1)][pick as usize % 5],
            3 => edge,
            4 => f64::from_bits(edge.to_bits() - 1),
            5 => f64::from_bits(edge.to_bits() + 1),
            6 => v * 1e6,
            _ => v,
        }
    })
}

/// A live histogram and span accumulator of a fresh registry.
fn live(enabled: bool) -> (Registry, std::sync::Arc<Histogram>, std::sync::Arc<SpanAcc>) {
    let r = Registry::new();
    r.set_enabled(enabled);
    let (h, s) = (r.histogram("h_ms"), r.span("stage", "0"));
    (r, h, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_local_tallies_equal_per_event_recording(
        values in prop::collection::vec(edgy(), 0..300),
        spans in prop::collection::vec(any::<u32>(), 0..60),
        block in 1usize..40,
    ) {
        let (_direct_r, direct_h, direct_s) = live(true);
        let (_merged_r, merged_h, merged_s) = live(true);
        for &v in &values {
            direct_h.observe(v);
        }
        for &ns in &spans {
            direct_s.record_ns(u64::from(ns));
        }
        // Local tallies flushed every `block` events, as a hot loop does.
        let mut local = HistogramSnapshot::default();
        for chunk in values.chunks(block) {
            chunk.iter().for_each(|&v| local.observe(v));
            merged_h.merge(&local);
            local.clear();
        }
        for chunk in spans.chunks(block) {
            let mut local = SpanSnapshot::default();
            chunk.iter().for_each(|&ns| local.record_ns(u64::from(ns)));
            merged_s.merge(&local);
        }
        prop_assert_eq!(merged_h.snapshot(), direct_h.snapshot());
        prop_assert_eq!(merged_h.snapshot(), hist_of(&values));
        prop_assert_eq!(merged_s.snapshot(), direct_s.snapshot());
        let want = SpanSnapshot {
            count: spans.len() as u64,
            total_ns: spans.iter().map(|&ns| u64::from(ns)).sum(),
        };
        prop_assert_eq!(merged_s.snapshot(), want);
    }

    #[test]
    fn a_disabled_registry_takes_nothing_from_a_merge(
        values in prop::collection::vec(edgy(), 1..100),
        ns in 1u32..u32::MAX,
    ) {
        let (r, h, s) = live(false);
        let mut span = SpanSnapshot::default();
        span.record_ns(u64::from(ns));
        h.merge(&hist_of(&values));
        s.merge(&span);
        prop_assert_eq!(h.snapshot(), HistogramSnapshot::default());
        prop_assert_eq!(s.snapshot(), SpanSnapshot::default());
        // Switched back on, the same handles record the next merge.
        r.set_enabled(true);
        h.merge(&hist_of(&values));
        s.merge(&span);
        prop_assert_eq!(h.snapshot(), hist_of(&values));
        prop_assert_eq!(s.snapshot(), span);
    }

    #[test]
    fn hist_merge_is_commutative(
        xs in prop::collection::vec(latency(), 0..200),
        ys in prop::collection::vec(latency(), 0..200),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn hist_merge_is_associative(
        xs in prop::collection::vec(latency(), 0..120),
        ys in prop::collection::vec(latency(), 0..120),
        zs in prop::collection::vec(latency(), 0..120),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn sharded_observation_equals_sequential(
        values in prop::collection::vec(latency(), 1..400),
        workers in 1usize..8,
    ) {
        // Partition round-robin across "workers", merge the partials:
        // must equal one histogram fed the whole stream.
        let mut parts = vec![HistogramSnapshot::default(); workers];
        for (i, &v) in values.iter().enumerate() {
            parts[i % workers].observe(v);
        }
        let mut merged = HistogramSnapshot::default();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged, hist_of(&values));
    }

    #[test]
    fn diff_inverts_merge(
        xs in prop::collection::vec(latency(), 0..150),
        ys in prop::collection::vec(latency(), 0..150),
    ) {
        let base = hist_of(&xs);
        let delta = hist_of(&ys);
        let mut grown = base.clone();
        grown.merge(&delta);
        prop_assert_eq!(grown.diff(&base), delta);
        prop_assert_eq!(grown.count(), xs.len() as u64 + ys.len() as u64);
    }
}

/// A small recursive strategy for JSON value trees.
fn json_value() -> impl Strategy<Value = Value> {
    let leaf = (any::<u8>(), any::<u32>()).prop_map(|(kind, n)| match kind % 4 {
        0 => Value::Null,
        1 => Value::Bool(n % 2 == 0),
        2 => Value::Num(f64::from(n) / 8.0 - 1000.0),
        _ => Value::Str(format!("s{}\n\"{}\"", n % 97, n % 13)),
    });
    (prop::collection::vec(leaf, 0..12), any::<u8>()).prop_map(|(leaves, shape)| {
        if shape % 2 == 0 {
            Value::Arr(leaves)
        } else {
            Value::Obj(
                leaves
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (format!("k{i}"), v))
                    .collect(),
            )
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_roundtrips(v in json_value()) {
        prop_assert_eq!(&json::parse(&v.to_json()).unwrap(), &v);
    }
}
