//! Streaming drift detectors: EWMA baselines and two-sided CUSUM change
//! detection.
//!
//! The paper's operational chapters (§5–§6) are about *noticing* change —
//! route flips, front-end overload, prediction staleness. These detectors
//! watch the metric streams the rest of the workspace already produces
//! and turn persistent deviations into [`DriftKind`] signals that the
//! control loop (`anycast-control::closedloop`) consumes to trigger early
//! table recompiles.
//!
//! Detector math, in the units the monitor feeds it:
//!
//! * **EWMA** — `m ← α·x + (1−α)·m`, the smoothed baseline for a counter
//!   delta stream; the residual fed to CUSUM is `x − m_prev`, so a step
//!   change shows up as a run of same-signed residuals while noise around
//!   a stable rate cancels.
//! * **CUSUM** (two-sided, Page 1954) — `S⁺ ← max(0, S⁺ + r − k)` and
//!   `S⁻ ← max(0, S⁻ − r − k)`; a signal fires when either side exceeds
//!   the decision threshold `h`. The slack `k` absorbs persistent bias
//!   smaller than `k` per sample, so a shift of magnitude `d > k` fires
//!   within `⌈h / (d − k)⌉` samples and pure noise below the slack never
//!   accumulates.
//!
//! Everything here is plain `f64` state — no clocks, no randomness, no
//! registry coupling — so detection latency is testable in closed form
//! and a monitor embedded in a deterministic replay stays deterministic.

use std::collections::BTreeMap;

/// Tuning for every detector a [`DriftMonitor`] runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// EWMA smoothing factor for counter-delta baselines (0 < α ≤ 1).
    pub alpha: f64,
    /// CUSUM slack per sample: persistent bias below this never fires.
    pub k: f64,
    /// CUSUM decision threshold.
    pub h: f64,
    /// Samples a series must deliver before it may fire (lets the EWMA
    /// baseline seed itself).
    pub warmup: u32,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            alpha: 0.3,
            k: 0.05,
            h: 0.25,
            warmup: 1,
        }
    }
}

/// What kind of change a detector saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftKind {
    /// The series shifted persistently upward (CUSUM high side).
    Surge,
    /// The series shifted persistently downward (CUSUM low side).
    Collapse,
}

/// Exponentially weighted moving average with an unseeded start: the
/// first sample becomes the baseline exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ewma {
    alpha: f64,
    mean: Option<f64>,
}

impl Ewma {
    /// A new baseline with smoothing factor `alpha`.
    pub fn new(alpha: f64) -> Ewma {
        Ewma { alpha, mean: None }
    }

    /// Folds in one sample and returns the residual against the baseline
    /// *before* this sample (0 for the seeding sample).
    pub fn update(&mut self, x: f64) -> f64 {
        match self.mean {
            None => {
                self.mean = Some(x);
                0.0
            }
            Some(m) => {
                self.mean = Some(self.alpha * x + (1.0 - self.alpha) * m);
                x - m
            }
        }
    }
}

/// Two-sided CUSUM change detector over a residual stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cusum {
    k: f64,
    h: f64,
    pos: f64,
    neg: f64,
}

impl Cusum {
    /// A detector with slack `k` and decision threshold `h`.
    pub fn new(k: f64, h: f64) -> Cusum {
        Cusum {
            k,
            h,
            pos: 0.0,
            neg: 0.0,
        }
    }

    /// Accumulates one residual; fires when either side crosses `h`, then
    /// resets that side so the next change is detected fresh.
    pub fn update(&mut self, residual: f64) -> Option<DriftKind> {
        self.pos = (self.pos + residual - self.k).max(0.0);
        self.neg = (self.neg - residual - self.k).max(0.0);
        if self.pos > self.h {
            self.pos = 0.0;
            return Some(DriftKind::Surge);
        }
        if self.neg > self.h {
            self.neg = 0.0;
            return Some(DriftKind::Collapse);
        }
        None
    }
}

#[derive(Debug, Clone, Default)]
struct SeriesState {
    ewma: Ewma,
    cusum: Cusum,
    samples: u32,
}

/// Multiplexes detectors over named series: EWMA+CUSUM on counter deltas,
/// plain CUSUM on externally computed residuals (e.g. measured minus
/// projected per-site share).
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    cfg: DriftConfig,
    series: BTreeMap<String, SeriesState>,
    signals: u64,
}

impl DriftMonitor {
    /// A monitor with shared tuning for every series it will see.
    pub fn new(cfg: DriftConfig) -> DriftMonitor {
        DriftMonitor {
            cfg,
            series: BTreeMap::new(),
            signals: 0,
        }
    }

    fn state(&mut self, series: &str) -> &mut SeriesState {
        if !self.series.contains_key(series) {
            self.series.insert(
                series.to_string(),
                SeriesState {
                    ewma: Ewma::new(self.cfg.alpha),
                    cusum: Cusum::new(self.cfg.k, self.cfg.h),
                    samples: 0,
                },
            );
        }
        self.series.get_mut(series).expect("just inserted")
    }

    /// Feeds one counter-delta sample: the residual against the EWMA
    /// baseline goes through CUSUM.
    pub fn observe(&mut self, series: &str, value: f64) -> Option<DriftKind> {
        let warmup = self.cfg.warmup;
        let st = self.state(series);
        st.samples += 1;
        let r = st.ewma.update(value);
        let armed = st.samples > warmup;
        let fired = st.cusum.update(r);
        self.emit(armed, fired)
    }

    /// Feeds one externally computed residual (no EWMA baseline — the
    /// caller already knows the expectation, e.g. a demand-model
    /// projection).
    pub fn observe_residual(&mut self, series: &str, residual: f64) -> Option<DriftKind> {
        let warmup = self.cfg.warmup;
        let st = self.state(series);
        st.samples += 1;
        let armed = st.samples >= warmup.max(1);
        let fired = st.cusum.update(residual);
        self.emit(armed, fired)
    }

    fn emit(&mut self, armed: bool, fired: Option<DriftKind>) -> Option<DriftKind> {
        let kind = fired.filter(|_| armed)?;
        self.signals += 1;
        Some(kind)
    }

    /// Total signals emitted over the monitor's lifetime.
    pub fn signals_total(&self) -> u64 {
        self.signals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cusum_fires_within_closed_form_bound() {
        // Shift d over slack k must fire within ceil(h / (d - k)) samples.
        let (k, h, d) = (0.05_f64, 0.25_f64, 0.15_f64);
        let bound = (h / (d - k)).ceil() as usize + 1;
        let mut c = Cusum::new(k, h);
        let mut fired_at = None;
        for i in 1..=bound + 5 {
            if let Some(kind) = c.update(d) {
                fired_at = Some((i, kind));
                break;
            }
        }
        let (epoch, kind) = fired_at.expect("persistent shift must fire");
        assert_eq!(kind, DriftKind::Surge);
        assert!(epoch <= bound, "fired at {epoch}, bound {bound}");
    }

    #[test]
    fn cusum_ignores_noise_below_slack() {
        let mut c = Cusum::new(0.05, 0.25);
        // Alternating noise inside the slack band never accumulates.
        for i in 0..10_000 {
            let r = if i % 2 == 0 { 0.04 } else { -0.04 };
            assert!(c.update(r).is_none(), "fired on sub-slack noise at {i}");
        }
        assert!(c.pos < 0.25 && c.neg < 0.25);
    }

    #[test]
    fn cusum_detects_collapse() {
        let mut c = Cusum::new(0.05, 0.25);
        let mut kinds = Vec::new();
        for _ in 0..10 {
            if let Some(k) = c.update(-0.2) {
                kinds.push(k);
            }
        }
        assert!(kinds.contains(&DriftKind::Collapse));
        assert!(!kinds.contains(&DriftKind::Surge));
    }

    #[test]
    fn ewma_seeds_then_tracks() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.update(10.0), 0.0);
        assert_eq!(e.mean, Some(10.0));
        let r = e.update(20.0);
        assert!((r - 10.0).abs() < 1e-12);
        assert!((e.mean.unwrap() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn monitor_counter_stream_fires_on_step_change_only() {
        let mut m = DriftMonitor::new(DriftConfig {
            k: 1.0,
            h: 5.0,
            alpha: 0.2,
            ..DriftConfig::default()
        });
        // Stable rate: no signal.
        for _ in 0..50 {
            assert!(m.observe("tcp_fallbacks", 10.0).is_none());
        }
        // Step to 10x: fires within a few epochs.
        let mut fired = false;
        for _ in 0..5 {
            if let Some(kind) = m.observe("tcp_fallbacks", 100.0) {
                assert_eq!(kind, DriftKind::Surge);
                fired = true;
                break;
            }
        }
        assert!(fired);
        assert_eq!(m.signals_total(), 1);
    }

    #[test]
    fn residual_stream_respects_warmup() {
        let mut m = DriftMonitor::new(DriftConfig {
            warmup: 3,
            k: 0.0,
            h: 0.1,
            ..DriftConfig::default()
        });
        // Huge residuals during warmup are swallowed.
        assert!(m.observe_residual("site_share_0", 10.0).is_none());
        assert!(m.observe_residual("site_share_0", 10.0).is_none());
        // First armed sample may fire.
        assert!(m.observe_residual("site_share_0", 10.0).is_some());
    }
}
