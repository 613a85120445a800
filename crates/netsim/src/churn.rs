//! Route churn: day-to-day instability of route selection.
//!
//! Figure 7 of the paper tracks the cumulative fraction of clients that have
//! switched front-ends by each day of a week: ~7% within the first day,
//! another 2–4% per weekday, and almost nothing on weekends, plateauing
//! around 21%. Figure 8 shows that switches usually move a client to a
//! *nearby* alternative front-end (median 483 km).
//!
//! [`ChurnModel`] reproduces this with a per-attachment-point process, the
//! distance engine's only source of day-to-day change:
//!
//! * a fixed fraction of `(AS, metro)` attachment points are **flappy**;
//!   the rest never change routes (the stable majority);
//! * each day, a flappy attachment flips its BGP tie-break with a
//!   weekday-dependent probability (weekends heavily damped);
//! * a flip is a **one-day excursion** to the runner-up egress: the
//!   preferred route is back in force at the next day boundary (operators
//!   push a change and roll it back). A switch therefore lands on a nearby
//!   alternative — the Figure 8 behaviour — and poor days from churn are
//!   short-lived — the Figure 6 behaviour.
//!
//! A flip also has an instant, [`ChurnModel::flip_s`], and the two clocks
//! that read the model disagree about it. The day's route
//! ([`Internet::anycast_route`](crate::Internet::anycast_route), and so
//! every campaign lookup) takes the runner-up for the *whole* flip day;
//! only [`Internet::anycast_day`](crate::Internet::anycast_day) — the
//! passive log and the flow-disruption model — keeps the preferred route
//! until the flip instant. EXPERIMENTS.md (*Known deviations* §5) measures
//! the difference.
//!
//! Everything is a pure function of `(seed, as, metro, day)`: no state to
//! update, no ordering constraints, and any day can be queried in isolation.

use anycast_geo::MetroId;

use crate::ids::AsId;
use crate::sim::Day;
use crate::stream::{mix, splitmix64, to_unit};

/// Fraction of `(AS, metro)` attachment points that are flappy at all; the
/// rest never change routes. Figure 7 plateaus near 21% over a full week:
/// most clients are stable.
pub const FLAPPY_FRACTION: f64 = 0.42;
/// Probability that a flappy attachment point flips its route tie-break on
/// a given weekday. Calibrated against Figure 7 *end to end*: an
/// attachment-level flip only becomes a visible front-end switch when the
/// alternative egress maps to a different site and the client is observed
/// on both routes, so the attachment-level rates here are roughly 2.5× the
/// client-visible rates the paper reports (~7% of clients switching on day
/// one, ~21% over the week).
pub const WEEKDAY_FLIP_PROB: f64 = 0.42;
/// Same, on weekend days. Figure 7 shows churn under 0.5% on weekends
/// ("network operators not pushing out changes during the weekend").
pub const WEEKEND_FLIP_PROB: f64 = 0.02;

/// Deterministic churn process over attachment points.
#[derive(Debug, Clone, Copy)]
pub struct ChurnModel {
    /// The world seed, unsalted: the flip instant hashes it as it is.
    seed: u64,
}

impl ChurnModel {
    /// Builds the model for the world seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChurnModel { seed }
    }

    /// The seed the flappy and flip-day draws hash.
    fn salted(&self) -> u64 {
        self.seed ^ 0x6368_7572_6e21_0000
    }

    /// Whether the attachment point `(as_id, metro)` ever changes routes.
    pub fn is_flappy(&self, as_id: AsId, metro: MetroId) -> bool {
        let h = mix(self.salted(), key(as_id, metro), 0xf1a9);
        to_unit(h) < FLAPPY_FRACTION
    }

    /// Whether a flip event occurs *on* `day` for this attachment point.
    pub fn flips_on(&self, as_id: AsId, metro: MetroId, day: Day) -> bool {
        if !self.is_flappy(as_id, metro) {
            return false;
        }
        let p = if day.weekday().is_weekend() {
            WEEKEND_FLIP_PROB
        } else {
            WEEKDAY_FLIP_PROB
        };
        let h = mix(self.salted(), key(as_id, metro), 0xd00d ^ u64::from(day.0));
        to_unit(h) < p
    }

    /// The UTC second of `day` at which the attachment point's flip takes
    /// effect, on a flip day (deterministic per attachment and day).
    pub fn flip_s(&self, as_id: AsId, metro: MetroId, day: Day) -> Option<f64> {
        self.flips_on(as_id, metro, day).then(|| {
            let z = self.seed
                ^ (u64::from(as_id.0) << 40)
                ^ (u64::from(metro.0) << 16)
                ^ u64::from(day.0);
            to_unit(splitmix64(z)) * 86_400.0
        })
    }

    /// The egress-selection rank in force on `day`: 0 selects the best
    /// candidate, 1 the runner-up. A flip day is a one-day excursion — an
    /// operator pushes a change and rolls it back — so the rank is 1 exactly
    /// on flip days. Figure 6 shows poor paths are mostly short-lived, and
    /// Figure 7's weekday churn is consistent with change windows rather
    /// than permanent reroutes; consecutive flip days still model the rarer
    /// multi-day reroute.
    pub fn selection_rank(&self, as_id: AsId, metro: MetroId, day: Day) -> usize {
        usize::from(self.flips_on(as_id, metro, day))
    }
}

fn key(as_id: AsId, metro: MetroId) -> u64 {
    (u64::from(as_id.0) << 32) | u64::from(metro.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ChurnModel {
        ChurnModel::new(99)
    }

    #[test]
    fn frozen_model_never_flips() {
        // The stable majority is the frozen part of the model.
        let m = model();
        let stable: Vec<AsId> = (0..200)
            .map(AsId)
            .filter(|&a| !m.is_flappy(a, MetroId(0)))
            .collect();
        assert!(stable.len() > 50);
        for &a in &stable {
            for day in Day(0).span(14) {
                assert!(!m.flips_on(a, MetroId(0), day));
                assert_eq!(m.selection_rank(a, MetroId(0), day), 0);
            }
        }
    }

    #[test]
    fn flappy_fraction_approximates_config() {
        let m = model();
        let n = 20_000;
        let flappy = (0..n)
            .filter(|&i| m.is_flappy(AsId(i % 500), MetroId(i / 500)))
            .count();
        let frac = flappy as f64 / n as f64;
        assert!(
            (frac - FLAPPY_FRACTION).abs() < 0.02,
            "flappy fraction {frac} vs configured {FLAPPY_FRACTION}"
        );
    }

    #[test]
    fn rank_is_one_exactly_on_flip_days() {
        let m = model();
        // Find a flappy attachment.
        let (a, mm) = (0..2000u32)
            .map(|i| (AsId(i % 300), MetroId(i / 300)))
            .find(|(a, mm)| m.is_flappy(*a, *mm))
            .expect("some flappy attachment");
        for day in Day(0).span(28) {
            let rank = m.selection_rank(a, mm, day);
            assert_eq!(rank == 1, m.flips_on(a, mm, day), "{day}");
        }
    }

    #[test]
    fn weekends_are_damped() {
        let m = model();
        let mut weekday_flips = 0u32;
        let mut weekend_flips = 0u32;
        let mut weekday_opps = 0u32;
        let mut weekend_opps = 0u32;
        for i in 0..3000u32 {
            let a = AsId(i % 300);
            let mm = MetroId(i / 300);
            if !m.is_flappy(a, mm) {
                continue;
            }
            for day in Day(0).span(28) {
                if day.weekday().is_weekend() {
                    weekend_opps += 1;
                    weekend_flips += u32::from(m.flips_on(a, mm, day));
                } else {
                    weekday_opps += 1;
                    weekday_flips += u32::from(m.flips_on(a, mm, day));
                }
            }
        }
        let wd = f64::from(weekday_flips) / f64::from(weekday_opps.max(1));
        let we = f64::from(weekend_flips) / f64::from(weekend_opps.max(1));
        assert!(
            (wd - WEEKDAY_FLIP_PROB).abs() < 0.03,
            "weekday rate {wd} vs configured {WEEKDAY_FLIP_PROB}"
        );
        assert!(we < WEEKEND_FLIP_PROB + 0.02, "weekend rate {we}");
    }

    #[test]
    fn cumulative_flippers_match_process_parameters() {
        // Attachment-level flip accumulation must follow the configured
        // process: day-one fraction ≈ flappy × weekday_prob, and the weekly
        // cumulative ≈ flappy × (1 - (1-p_wd)^5 (1-p_we)^2). The *client-
        // visible* Figure 7 calibration happens end-to-end in the bench
        // crate, where flips are filtered by whether they change the
        // serving front-end.
        let m = model();
        let n = 8000u32;
        let mut switched_by_day = [0u32; 7];
        for i in 0..n {
            let a = AsId(i % 400);
            let mm = MetroId(i / 400);
            let mut switched = false;
            for (di, day) in Day(0).span(7).enumerate() {
                if m.flips_on(a, mm, day) {
                    switched = true;
                }
                if switched {
                    switched_by_day[di] += 1;
                }
            }
        }
        let day0 = f64::from(switched_by_day[0]) / f64::from(n);
        let week = f64::from(switched_by_day[6]) / f64::from(n);
        let expect_day0 = FLAPPY_FRACTION * WEEKDAY_FLIP_PROB;
        let expect_week = FLAPPY_FRACTION
            * (1.0 - (1.0 - WEEKDAY_FLIP_PROB).powi(5) * (1.0 - WEEKEND_FLIP_PROB).powi(2));
        assert!(
            (day0 - expect_day0).abs() < 0.03,
            "day-one {day0} vs {expect_day0}"
        );
        assert!(
            (week - expect_week).abs() < 0.04,
            "week {week} vs {expect_week}"
        );
    }

    #[test]
    fn determinism() {
        let a = model();
        let b = model();
        for i in 0..500u32 {
            let asid = AsId(i % 100);
            let metro = MetroId(i / 100);
            for day in Day(0).span(10) {
                assert_eq!(a.flips_on(asid, metro, day), b.flips_on(asid, metro, day));
            }
        }
    }
}
