//! Front-end failures: unplanned outages and planned maintenance drains.
//!
//! The paper's operational argument for anycast (§2) is that when a
//! front-end dies, BGP "automatically" re-routes its clients to the
//! next-best catchment, whereas DNS-based redirection keeps handing out the
//! dead unicast address until cached answers expire. To reproduce that
//! claim the simulator needs a notion of a site being *down* — this module
//! supplies it, mirroring the churn law ([`crate::worldgen::dynamics`]):
//! everything is a pure function of `(seed, site, day, time)`, so any
//! instant can be queried in isolation and results are identical across
//! processes, threads, and replays.
//!
//! Two kinds of window exist, with different data-plane consequences:
//!
//! * **Unplanned outages** — the site crashes mid-announcement. Its border
//!   withdraws the anycast prefix *reactively*, so clients whose steady
//!   route lands on the dead site lose packets until BGP reconverges
//!   ([`BGP_RECONVERGENCE_S`]); after that one routing step they are served
//!   by the next-best catchment.
//! * **Maintenance drains** — operators withdraw the announcement *before*
//!   taking the site down (the FastRoute-style drains Sinha et al. study
//!   on the same CDN). Routing has already moved everyone by the window
//!   start, so anycast clients see zero loss.
//!
//! In both kinds the site's **unicast** prefix points at a machine that is
//! off: unicast requests fail for the entire window. That asymmetry — and
//! the DNS TTL lag it creates — is exactly what the failure experiments in
//! `bench` measure.

use crate::config::NetConfig;
use crate::ids::SiteId;
use crate::sim::Day;
use crate::stream::{mix, to_unit};

/// Why a site is down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutageKind {
    /// Unannounced crash: the anycast withdrawal races client traffic, so
    /// the old catchment blackholes until BGP reconverges.
    Unplanned,
    /// Pre-announced drain: routing moved before the site went dark, so
    /// anycast clients never notice.
    Maintenance,
}

/// One contiguous down-window within a day, in seconds since midnight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutageWindow {
    /// Outage or drain.
    pub kind: OutageKind,
    /// Window start, seconds within the day (inclusive).
    pub start_s: f64,
    /// Window end, seconds within the day (exclusive).
    pub end_s: f64,
}

impl OutageWindow {
    /// Whether `time_s` falls inside the window.
    pub fn contains(&self, time_s: f64) -> bool {
        self.start_s <= time_s && time_s < self.end_s
    }
}

/// Duration of a maintenance-drain window, seconds (≤ one day).
const DRAIN_DURATION_S: f64 = 14_400.0;
/// How long an *unplanned* anycast withdrawal takes to propagate: clients
/// whose steady route lands on the crashed site lose requests for this
/// many seconds after the window opens, then recover via the next-best
/// catchment (the paper's §2 "one routing step").
pub const BGP_RECONVERGENCE_S: f64 = 30.0;

/// Deterministic failure schedule over `(site, day, time)`.
///
/// At most one window per site per day; windows never span a day boundary
/// (their start is hash-placed inside `[0, 86400 - duration]`). A site is
/// never drawn for *both* an outage and a drain on the same day — operators
/// do not schedule maintenance on a site that just crashed.
#[derive(Debug, Clone, Copy)]
pub struct OutageModel {
    seed: u64,
    p_outage: f64,
    p_drain: f64,
    outage_duration_s: f64,
}

impl OutageModel {
    /// Builds the model from configuration.
    pub fn new(cfg: &NetConfig, seed: u64) -> Self {
        OutageModel {
            seed: seed ^ 0x6f75_7467_6f21_0000,
            p_outage: cfg.p_site_outage,
            p_drain: cfg.p_site_drain,
            outage_duration_s: cfg.outage_duration_s,
        }
    }

    /// A failure-free model (for idealized worlds and tests).
    pub fn frozen(seed: u64) -> Self {
        OutageModel {
            seed,
            p_outage: 0.0,
            p_drain: 0.0,
            outage_duration_s: 1.0,
        }
    }

    /// Whether any failure injection is configured at all (fast path for
    /// route builders: most worlds never schedule a window).
    pub fn enabled(&self) -> bool {
        self.p_outage > 0.0 || self.p_drain > 0.0
    }

    /// The down-window scheduled for `site` on `day`, if any.
    pub fn window_on(&self, site: SiteId, day: Day) -> Option<OutageWindow> {
        let d = u64::from(day.0);
        if self.p_outage > 0.0 {
            let roll = to_unit(mix(self.seed, key(site), 0x0dd5_0000_0000_0000 ^ d));
            if roll < self.p_outage {
                let span = (86_400.0 - self.outage_duration_s).max(0.0);
                let start = to_unit(mix(self.seed, key(site), 0x57a2_0000_0000_0000 ^ d)) * span;
                return Some(OutageWindow {
                    kind: OutageKind::Unplanned,
                    start_s: start,
                    end_s: start + self.outage_duration_s,
                });
            }
        }
        if self.p_drain > 0.0 {
            let roll = to_unit(mix(self.seed, key(site), 0xd2a1_0000_0000_0000 ^ d));
            if roll < self.p_drain {
                let span = 86_400.0 - DRAIN_DURATION_S;
                let start = to_unit(mix(self.seed, key(site), 0x3a1e_0000_0000_0000 ^ d)) * span;
                return Some(OutageWindow {
                    kind: OutageKind::Maintenance,
                    start_s: start,
                    end_s: start + DRAIN_DURATION_S,
                });
            }
        }
        None
    }

    /// Whether `site` is down (serving nothing) at `(day, time_s)`.
    pub fn is_down(&self, site: SiteId, day: Day, time_s: f64) -> bool {
        if !self.enabled() {
            return false;
        }
        self.window_on(site, day)
            .is_some_and(|w| w.contains(time_s))
    }

    /// Whether an *unplanned* withdrawal of `site` is still propagating at
    /// `(day, time_s)`: packets following the stale route are lost. Drains
    /// never converge-lag — the withdrawal preceded the window.
    pub fn converging(&self, site: SiteId, day: Day, time_s: f64) -> bool {
        if !self.enabled() {
            return false;
        }
        match self.window_on(site, day) {
            Some(w) if w.kind == OutageKind::Unplanned => {
                let converged_at = (w.start_s + BGP_RECONVERGENCE_S).min(w.end_s);
                w.start_s <= time_s && time_s < converged_at
            }
            _ => false,
        }
    }
}

fn key(site: SiteId) -> u64 {
    u64::from(site.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failing_cfg() -> NetConfig {
        NetConfig {
            p_site_outage: 0.2,
            p_site_drain: 0.1,
            ..NetConfig::small()
        }
    }

    fn model() -> OutageModel {
        OutageModel::new(&failing_cfg(), 7)
    }

    #[test]
    fn frozen_model_schedules_nothing() {
        let m = OutageModel::frozen(3);
        assert!(!m.enabled());
        for s in 0..40 {
            for day in Day(0).span(30) {
                assert!(m.window_on(SiteId(s), day).is_none());
                assert!(!m.is_down(SiteId(s), day, 43_200.0));
            }
        }
    }

    #[test]
    fn windows_fit_within_the_day() {
        let m = model();
        for s in 0..40 {
            for day in Day(0).span(60) {
                if let Some(w) = m.window_on(SiteId(s), day) {
                    assert!(w.start_s >= 0.0);
                    assert!(w.end_s <= 86_400.0 + 1e-6, "window spills past midnight");
                    assert!(w.end_s > w.start_s);
                }
            }
        }
    }

    #[test]
    fn is_down_matches_window_membership() {
        let m = model();
        let (site, day, w) = (0..40u16)
            .flat_map(|s| Day(0).span(60).map(move |d| (SiteId(s), d)))
            .find_map(|(s, d)| m.window_on(s, d).map(|w| (s, d, w)))
            .expect("some window scheduled");
        assert!(m.is_down(site, day, (w.start_s + w.end_s) / 2.0));
        assert!(!m.is_down(site, day, w.end_s + 1.0));
        if w.start_s > 1.0 {
            assert!(!m.is_down(site, day, w.start_s - 1.0));
        }
    }

    #[test]
    fn unplanned_outages_converge_after_the_configured_lag() {
        let m = model();
        let found = (0..40u16)
            .flat_map(|s| Day(0).span(120).map(move |d| (SiteId(s), d)))
            .find_map(|(s, d)| match m.window_on(s, d) {
                Some(w) if w.kind == OutageKind::Unplanned => Some((s, d, w)),
                _ => None,
            })
            .expect("some unplanned outage");
        let (site, day, w) = found;
        let reconv = BGP_RECONVERGENCE_S;
        assert!(m.converging(site, day, w.start_s + reconv / 2.0));
        assert!(!m.converging(site, day, w.start_s + reconv + 1.0));
        // Still down after convergence — just no longer blackholing the
        // old catchment.
        assert!(m.is_down(site, day, w.start_s + reconv + 1.0));
    }

    #[test]
    fn drains_never_blackhole() {
        let m = model();
        for s in 0..40u16 {
            for day in Day(0).span(120) {
                if let Some(w) = m.window_on(SiteId(s), day) {
                    if w.kind == OutageKind::Maintenance {
                        assert!(!m.converging(SiteId(s), day, w.start_s + 1.0));
                    }
                }
            }
        }
    }

    #[test]
    fn scheduled_fraction_tracks_config() {
        let cfg = failing_cfg();
        let m = model();
        let mut outages = 0u32;
        let mut drains = 0u32;
        let n_draws = 40u32 * 250;
        for s in 0..40u16 {
            for day in Day(0).span(250) {
                match m.window_on(SiteId(s), day).map(|w| w.kind) {
                    Some(OutageKind::Unplanned) => outages += 1,
                    Some(OutageKind::Maintenance) => drains += 1,
                    None => {}
                }
            }
        }
        let out_frac = f64::from(outages) / f64::from(n_draws);
        let drain_frac = f64::from(drains) / f64::from(n_draws);
        assert!(
            (out_frac - cfg.p_site_outage).abs() < 0.02,
            "outage fraction {out_frac} vs configured {}",
            cfg.p_site_outage
        );
        // Drains only roll when no outage was drawn.
        let expect_drain = (1.0 - cfg.p_site_outage) * cfg.p_site_drain;
        assert!(
            (drain_frac - expect_drain).abs() < 0.02,
            "drain fraction {drain_frac} vs expected {expect_drain}"
        );
    }

    #[test]
    fn determinism() {
        let a = model();
        let b = model();
        for s in 0..20u16 {
            for day in Day(0).span(30) {
                assert_eq!(a.window_on(SiteId(s), day), b.window_on(SiteId(s), day));
                for t in [0.0, 21_600.0, 43_200.0, 64_800.0] {
                    assert_eq!(a.is_down(SiteId(s), day, t), b.is_down(SiteId(s), day, t));
                }
            }
        }
    }
}
