//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! layer, and kept in memory until the run ends. A traced run turns the
//! recorder on; an end-to-end run leaves it off, where `enter`/`exit` are
//! one branch each. All spans come from the one thread that drives the
//! workload, so a stack gives each span its parent.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `trace_id` is the day, cycle or phase it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.train_sketched`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Day, cycle or phase number shared by the spans of one segment.
    pub trace_id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Durations, ms, in recording order.
    pub durations_ms: Vec<f64>,
    /// Sum over spans of duration minus direct children's durations, ms.
    pub self_ms: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, recording only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Pauses or resumes recording between segments (a traced run
    /// alternates so the same run yields the tracing overhead). Must not
    /// be called with a span open.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between segments");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str, trace_id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            trace_id,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close innermost
    /// first.
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.retain(|&i| i != idx);
        self.spans[idx].end_ns = end_ns;
    }

    /// Times `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, trace_id: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, trace_id);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals by span name; self time is a span's duration minus its
    /// direct children's.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.durations_ms.push(s.duration_ns() as f64 / 1e6);
            t.self_ms += s.duration_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of the spans named `name`, empty when none.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_know_their_parent_and_self_time_excludes_them() {
        let mut t = Tracer::new(true);
        let cycle = t.enter("retrain.cycle", 3);
        t.span("core.train_sketched", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("core.train_aggregated", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(cycle);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.trace_id == 3 && s.end_ns >= s.start_ns));
        let totals = t.totals();
        let cycle = &totals["retrain.cycle"];
        let kids = totals["core.train_sketched"].durations_ms[0]
            + totals["core.train_aggregated"].durations_ms[0];
        assert!(cycle.durations_ms[0] >= kids);
        assert!((cycle.self_ms - (cycle.durations_ms[0] - kids)).abs() < 1e-6);
        assert_eq!(t.durations_ms("core.train_sketched").len(), 1);
        assert!(t.durations_ms("absent").is_empty());
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("x", 1, || ());
        t.set_enabled(false);
        t.span("x", 2, || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].trace_id, 1);
    }
}
