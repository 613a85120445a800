//! The thread-safe metrics registry and its snapshot form.
//!
//! A [`Registry`] owns every metric by canonical [`MetricKey`]
//! (name + sorted label pairs). Handles ([`Counter`],
//! [`crate::Histogram`], [`crate::SpanAcc`]) are `Arc`s of lock-free
//! atomics: registration takes the registry mutex once, after which hot
//! paths touch only the handle — no per-event allocation, no lock.
//!
//! **The neutrality contract.** Metrics are write-only from the
//! instrumented code's point of view: nothing in this module draws
//! randomness or feeds values back into computation, so enabling,
//! disabling, or resharding instrumentation can never change simulation
//! output bytes. Counters and histogram bucket vectors record
//! *deterministic event counts* and are worker-count invariant wherever
//! the instrumented code is; spans record wall time and are not.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::{SpanAcc, SpanSnapshot};

/// Canonical metric identity: a name plus label pairs sorted by label
/// name. Two call sites naming the same `(name, labels)` share one
/// metric.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style, e.g. `beacon_fetch_attempts_total`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, canonicalizing label order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for MetricKey {
    /// Prometheus-style rendering: `name` or `name{a="x",b="y"}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}=\"{v}\"")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    fn new(enabled: Arc<AtomicBool>) -> Counter {
        Counter {
            value: AtomicU64::new(0),
            enabled,
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The metric store. Cheap to create (tests use private registries);
/// production code uses [`crate::global`].
#[derive(Debug, Default)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<MetricKey, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<MetricKey, Arc<Histogram>>>,
    spans: Mutex<BTreeMap<MetricKey, Arc<SpanAcc>>>,
}

impl Registry {
    /// An empty, enabled registry.
    pub fn new() -> Registry {
        let r = Registry::default();
        r.enabled.store(true, Ordering::Relaxed);
        r
    }

    /// Whether metrics record at all.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Existing handles observe the change
    /// immediately (they share the flag).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Registers (or finds) the counter `name` with no labels.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Registers (or finds) a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut map = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(Counter::new(Arc::clone(&self.enabled)))),
        )
    }

    /// Registers (or finds) the histogram `name` (histograms carry no
    /// labels).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let key = MetricKey::new(name, &[]);
        let mut map = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(Histogram::new(Arc::clone(&self.enabled)))),
        )
    }

    /// Registers (or finds) the wall-time span accumulator for `stage`,
    /// attributed to `worker` (`"main"` for single-threaded stages).
    pub fn span(&self, stage: &str, worker: &str) -> Arc<SpanAcc> {
        let key = MetricKey::new(stage, &[("worker", worker)]);
        let mut map = self.spans.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(
            map.entry(key)
                .or_insert_with(|| Arc::new(SpanAcc::new(Arc::clone(&self.enabled)))),
        )
    }

    /// A consistent point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        let spans = self
            .spans
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, s)| (k.clone(), s.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
            spans,
        }
    }
}

/// A point-in-time copy of a registry's metrics: plain data, ordered
/// maps, safe to diff/merge/export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by key.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Histogram states by key.
    pub histograms: BTreeMap<MetricKey, HistogramSnapshot>,
    /// Span aggregates by key (label `worker` carries the attribution).
    pub spans: BTreeMap<MetricKey, SpanSnapshot>,
}

impl Snapshot {
    /// The increments recorded since `baseline`: counters and histograms
    /// subtract (saturating, so unrelated concurrent activity can only
    /// inflate, never underflow), and so do spans' counts and totals.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                let b = baseline.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(b))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let d = match baseline.histograms.get(k) {
                    Some(b) => h.diff(b),
                    None => h.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, s)| {
                let d = match baseline.spans.get(k) {
                    Some(b) => s.diff(b),
                    None => *s,
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot {
            counters,
            histograms,
            spans,
        }
    }

    /// Counter value for `name` with no labels (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_with(name, &[])
    }

    /// Counter value for `(name, labels)` (0 when absent).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .get(&MetricKey::new(name, labels))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of every counter series named `name`, across labels.
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// The deterministic slice of the snapshot: every counter and
    /// histogram, and no spans. This is the part the obs-neutrality
    /// proptests compare across worker counts — spans carry wall-clock
    /// state, while counters and histograms depend only on the input
    /// stream.
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
            spans: BTreeMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_canonicalize_label_order() {
        let a = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "m{a=\"1\",b=\"2\"}");
        assert_eq!(a.label("b"), Some("2"));
        assert_eq!(MetricKey::new("m", &[]).to_string(), "m");
    }

    #[test]
    fn counters_share_identity_and_count() {
        let r = Registry::new();
        let c1 = r.counter("hits_total");
        let c2 = r.counter("hits_total");
        c1.inc();
        c2.add(4);
        assert_eq!(r.snapshot().counter("hits_total"), 5);
        // A differently labeled series is separate.
        r.counter_with("hits_total", &[("day", "0")]).add(7);
        let s = r.snapshot();
        assert_eq!(s.counter("hits_total"), 5);
        assert_eq!(s.counter_with("hits_total", &[("day", "0")]), 7);
        assert_eq!(s.counter_sum("hits_total"), 12);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        r.set_enabled(false);
        c.add(100);
        assert_eq!(c.get(), 1);
        r.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn snapshot_diff_isolates_a_window() {
        let r = Registry::new();
        let c = r.counter("events_total");
        c.add(10);
        let before = r.snapshot();
        c.add(3);
        r.counter("late_total").inc();
        let d = r.snapshot().diff(&before);
        assert_eq!(d.counter("events_total"), 3);
        assert_eq!(d.counter("late_total"), 1);
    }

    #[test]
    fn prometheus_text_renders_each_kind() {
        let r = Registry::new();
        r.counter("a_total").add(2);
        r.histogram("lat_ms").observe(5.0);
        r.span("study.execute", "0").record_ns(2_000_000);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 2"));
        assert!(text.contains("# TYPE lat_ms histogram"));
        assert!(text.contains("lat_ms_count 1"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("obs_span_events_total{stage=\"study.execute\",worker=\"0\"} 1"));
    }

    #[test]
    fn concurrent_increments_are_all_counted() {
        let r = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = r.counter("spins_total");
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("spins_total"), 40_000);
    }
}
