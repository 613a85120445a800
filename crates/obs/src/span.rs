//! Lightweight scoped spans: wall-time aggregation per `(stage, worker)`.
//!
//! A [`SpanAcc`] is two atomics — event count and total nanoseconds —
//! registered once per `(stage, worker)` pair. Starting a span is one
//! `Instant::now()`; dropping the guard is a second plus two relaxed
//! atomic ops. Nothing allocates after
//! registration, so per-event spans are safe inside the campaign
//! engine's worker loops.
//!
//! Span values are wall time and therefore **not** deterministic; they
//! are excluded from [`crate::Snapshot::deterministic`] and never
//! compared by the neutrality proptests. What *is* guaranteed is that
//! timing can never feed back into simulation state: a span only writes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The per-`(stage, worker)` wall-time accumulator.
#[derive(Debug)]
pub struct SpanAcc {
    count: AtomicU64,
    total_ns: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl SpanAcc {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> SpanAcc {
        SpanAcc {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            enabled,
        }
    }

    /// Starts a scoped timer; elapsed time is recorded when the guard
    /// drops. When the registry is disabled the guard is inert and no
    /// clock is read.
    #[inline]
    pub fn start(&self) -> SpanTimer<'_> {
        let start = if self.enabled.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        };
        SpanTimer { acc: self, start }
    }

    /// Times a closure under this span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let _t = self.start();
        f()
    }

    /// Records a measured duration directly (ns).
    pub fn record_ns(&self, ns: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds a locally built aggregate: counts and totals add. A hot loop
    /// that records into its own [`SpanSnapshot`] and merges it once per
    /// block leaves the count and the total exactly where recording each
    /// span here would.
    pub fn merge(&self, local: &SpanSnapshot) {
        if !self.enabled.load(Ordering::Relaxed) || local.count == 0 {
            return;
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.total_ns.fetch_add(local.total_ns, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard: records the elapsed time into its accumulator on drop.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    acc: &'a SpanAcc,
    start: Option<Instant>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.acc.record_ns(elapsed_ns(start));
        }
    }
}

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Plain-data span aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Completed span count.
    pub count: u64,
    /// Total wall time, ns.
    pub total_ns: u64,
}

impl SpanSnapshot {
    /// Records one span of `ns` into the plain aggregate (the non-atomic
    /// path: a hot loop's local tally, which [`SpanAcc::merge`]
    /// publishes).
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.wrapping_add(ns);
    }

    /// Records the span that began at `start` and ends now, measured as
    /// the registry's [`SpanTimer`] measures it.
    pub fn record_since(&mut self, start: Instant) {
        self.record_ns(elapsed_ns(start));
    }

    /// Total wall time in ms.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Increments since `baseline`.
    pub fn diff(&self, baseline: &SpanSnapshot) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.saturating_sub(baseline.count),
            total_ns: self.total_ns.saturating_sub(baseline.total_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc() -> SpanAcc {
        SpanAcc::new(Arc::new(AtomicBool::new(true)))
    }

    #[test]
    fn guard_records_on_drop() {
        let a = acc();
        {
            let _t = a.start();
            std::hint::black_box(1 + 1);
        }
        assert_eq!(a.snapshot().count, 1);
    }

    #[test]
    fn time_wraps_a_closure() {
        let a = acc();
        let v = a.time(|| 42);
        assert_eq!(v, 42);
        assert_eq!(a.snapshot().count, 1);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let enabled = Arc::new(AtomicBool::new(false));
        let a = SpanAcc::new(Arc::clone(&enabled));
        a.time(|| ());
        a.record_ns(5);
        assert_eq!(a.snapshot(), SpanSnapshot::default());
    }

    #[test]
    fn record_ns_aggregates() {
        let a = acc();
        a.record_ns(10);
        a.record_ns(30);
        a.record_ns(20);
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 60);
        assert!((s.total_ms() - 6e-5).abs() < 1e-12);
    }

    #[test]
    fn diff_subtracts_counts_and_totals() {
        let a = SpanSnapshot {
            count: 5,
            total_ns: 100,
        };
        let b = SpanSnapshot {
            count: 2,
            total_ns: 30,
        };
        let d = a.diff(&b);
        assert_eq!(d.count, 3);
        assert_eq!(d.total_ns, 70);
    }
}
