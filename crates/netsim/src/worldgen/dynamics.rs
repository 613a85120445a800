//! Route dynamics, and the one egress-churn law every routing engine reads.
//!
//! "Anycast Performance in Context" finds that route *dynamics* — path
//! flaps and egress changes, not load — dominate anycast instability.
//! [`RouteDynamics`] schedules the windowed events of policy worlds: a
//! **session flap** drops one AS↔CDN BGP session, and a **border flap**
//! withdraws the anycast announcement at one CDN border, for a window.
//!
//! **The churn law** ([`selection_rank`], [`flip_s`]) is Figure 7's
//! weekday-heavy churn (~7% of clients switch on day one, 2–4% more each
//! weekday, almost none on weekends). A fixed fraction of `(AS, metro)`
//! attachment points are flappy; each day a flappy one flips with a
//! weekday-dependent probability, for **one day**, to its runner-up egress
//! (an operator pushes a change and rolls it back). A switch therefore
//! lands on a nearby alternative (Figure 8) and poor days from churn are
//! short-lived (Figure 6). A flip moves the ingress, not the AS path, so it
//! needs no route environment: the distance engine takes the runner-up of
//! its ranking, a policy table the runner-up live border of the session its
//! path ends on ([`PolicyWorld::ingress_at`](super::PolicyWorld::ingress_at)).
//!
//! A flip has an instant, [`flip_s`], that the two clocks reading the law
//! disagree about: the day's route
//! ([`Internet::anycast_route`](crate::Internet::anycast_route), and so
//! every campaign lookup) takes the runner-up for the *whole* flip day,
//! and only [`Internet::anycast_day`](crate::Internet::anycast_day) keeps
//! the preferred route until the instant (EXPERIMENTS.md, *Known
//! deviations* §5).
//!
//! Everything is a pure hash of the world seed and `(entity, day)` — the
//! same determinism contract as [`crate::outage::OutageModel`].

use anycast_geo::MetroId;

use crate::ids::{AsId, BorderId};
use crate::sim::Day;
use crate::stream::{mix, splitmix64, to_unit};

use super::graph::PolicyGraph;

/// Fraction of `(AS, metro)` attachment points that are flappy at all; the
/// rest never change routes. Figure 7 plateaus near 21% over a full week:
/// most clients are stable.
pub const FLAPPY_FRACTION: f64 = 0.42;
/// Probability that a flappy attachment point flips its egress on a given
/// weekday. Calibrated against Figure 7 *end to end*: an attachment-level
/// flip only becomes a visible front-end switch when the alternative
/// egress maps to a different site and the client is observed on both
/// routes, so the attachment-level rates here are roughly 2.5× the
/// client-visible rates the paper reports (~7% of clients switching on day
/// one, ~21% over the week).
pub const WEEKDAY_FLIP_PROB: f64 = 0.42;
/// Same, on weekend days. Figure 7 shows churn under 0.5% on weekends
/// ("network operators not pushing out changes during the weekend").
pub const WEEKEND_FLIP_PROB: f64 = 0.02;

/// The seed the flappy and flip-day draws hash.
fn churn_salted(seed: u64) -> u64 {
    seed ^ 0x6368_7572_6e21_0000
}

fn attachment_key(as_id: AsId, metro: MetroId) -> u64 {
    (u64::from(as_id.0) << 32) | u64::from(metro.0)
}

/// Whether the attachment point `(as_id, metro)` of the world seeded with
/// `seed` ever changes egress.
pub fn is_flappy(seed: u64, as_id: AsId, metro: MetroId) -> bool {
    let h = mix(churn_salted(seed), attachment_key(as_id, metro), 0xf1a9);
    to_unit(h) < FLAPPY_FRACTION
}

/// Whether the attachment point flips its egress *on* `day`.
pub fn flips_on(seed: u64, as_id: AsId, metro: MetroId, day: Day) -> bool {
    if !is_flappy(seed, as_id, metro) {
        return false;
    }
    let p = if day.weekday().is_weekend() {
        WEEKEND_FLIP_PROB
    } else {
        WEEKDAY_FLIP_PROB
    };
    let key = attachment_key(as_id, metro);
    to_unit(mix(churn_salted(seed), key, 0xd00d ^ u64::from(day.0))) < p
}

/// The UTC second of `day` at which the attachment point's flip takes
/// effect, on a flip day.
pub fn flip_s(seed: u64, as_id: AsId, metro: MetroId, day: Day) -> Option<f64> {
    flips_on(seed, as_id, metro, day).then(|| {
        let z = seed ^ (u64::from(as_id.0) << 40) ^ (u64::from(metro.0) << 16) ^ u64::from(day.0);
        to_unit(splitmix64(z)) * 86_400.0
    })
}

/// The egress-selection rank in force on `day`: 0 selects the preferred
/// egress, 1 the runner-up. A flip day is a one-day excursion, so the rank
/// is 1 exactly on flip days; consecutive flip days still model the rarer
/// multi-day reroute.
pub fn selection_rank(seed: u64, as_id: AsId, metro: MetroId, day: Day) -> usize {
    usize::from(flips_on(seed, as_id, metro, day))
}

/// One scheduled routing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynEvent {
    /// Session `.0` (index into [`PolicyGraph::sessions`]) is down.
    SessionDown(u32),
    /// Border `.0` has withdrawn the anycast announcement.
    BorderDown(BorderId),
}

/// An event with its active window (seconds within the day, `start < end`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventWindow {
    /// What happens.
    pub event: DynEvent,
    /// Window start, seconds from midnight.
    pub start_s: f64,
    /// Window end, seconds from midnight (≤ 86 400).
    pub end_s: f64,
}

impl EventWindow {
    /// Whether `time_s` falls inside the window.
    pub fn contains(&self, time_s: f64) -> bool {
        time_s >= self.start_s && time_s < self.end_s
    }
}

/// Shortest event window, seconds: half an hour, a session reset that
/// outlives BGP's own timers.
const FLAP_MIN_S: f64 = 1_800.0;
/// Longest event window, seconds: four hours, a maintenance slot.
const FLAP_MAX_S: f64 = 14_400.0;

/// Deterministic per-day event scheduler. Probabilities come from
/// [`crate::worldgen::WorldGenConfig`]; all zero means no dynamics and the
/// steady catchment table serves every instant.
#[derive(Debug, Clone)]
pub struct RouteDynamics {
    seed: u64,
    p_session_flap: f64,
    p_border_flap: f64,
}

impl RouteDynamics {
    /// Builds the scheduler. `seed` must be the world seed so the schedule
    /// is part of the world's identity.
    pub fn new(seed: u64, p_session_flap: f64, p_border_flap: f64) -> RouteDynamics {
        RouteDynamics {
            seed: seed ^ 0x6479_6e61_6d69_6373,
            p_session_flap,
            p_border_flap,
        }
    }

    /// Whether any event can ever fire.
    pub fn enabled(&self) -> bool {
        self.p_session_flap > 0.0 || self.p_border_flap > 0.0
    }

    /// All events scheduled on `day`, sorted by (start, event identity).
    /// O(sessions + borders) hashing; callers cache per day.
    pub fn events_on(&self, graph: &PolicyGraph, n_borders: usize, day: Day) -> Vec<EventWindow> {
        let mut out = Vec::new();
        if !self.enabled() {
            return out;
        }
        for s in 0..graph.sessions.len() as u32 {
            if let Some(w) = self.roll(0xF1A9, u64::from(s), day, self.p_session_flap) {
                out.push(EventWindow {
                    event: DynEvent::SessionDown(s),
                    start_s: w.0,
                    end_s: w.1,
                });
            }
        }
        for b in 0..n_borders as u64 {
            if let Some(w) = self.roll(0xB0D7, b, day, self.p_border_flap) {
                out.push(EventWindow {
                    event: DynEvent::BorderDown(BorderId(b as u16)),
                    start_s: w.0,
                    end_s: w.1,
                });
            }
        }
        // Stable sort: ties keep the deterministic generation order
        // (sessions ascending, then borders ascending).
        out.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        out
    }

    /// Rolls one `(salt, entity, day)` event; returns its window if it
    /// fires. Start is uniform in the first 70% of the day, duration
    /// uniform in `[FLAP_MIN_S, FLAP_MAX_S]`, clamped to midnight.
    fn roll(&self, salt: u64, entity: u64, day: Day, p: f64) -> Option<(f64, f64)> {
        if p <= 0.0 {
            return None;
        }
        let fire = to_unit(mix64(self.seed, (entity << 20) | u64::from(day.0), salt));
        if fire >= p {
            return None;
        }
        let start = to_unit(mix64(
            self.seed,
            (entity << 20) | u64::from(day.0),
            salt ^ 0x57A2,
        )) * 60_480.0;
        let span = FLAP_MIN_S
            + to_unit(mix64(
                self.seed,
                (entity << 20) | u64::from(day.0),
                salt ^ 0xD0A2,
            )) * (FLAP_MAX_S - FLAP_MIN_S);
        Some((start, (start + span).min(86_400.0)))
    }
}

/// SplitMix64-style (seed, key, salt) mixer — the same construction the
/// outage/latency models use.
fn mix64(seed: u64, key: u64, salt: u64) -> u64 {
    splitmix64(
        seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_dynamics_schedule_nothing() {
        let d = RouteDynamics::new(7, 0.0, 0.0);
        assert!(!d.enabled());
    }

    #[test]
    fn windows_are_within_the_day() {
        let d = RouteDynamics::new(7, 0.5, 0.5);
        for entity in 0..50u64 {
            for day in 0..5 {
                if let Some((s, e)) = d.roll(0xF1A9, entity, Day(day), 0.5) {
                    assert!(s >= 0.0 && e <= 86_400.0 && s < e);
                }
            }
        }
    }

    #[test]
    fn rolls_are_deterministic() {
        let a = RouteDynamics::new(9, 0.3, 0.3);
        let b = RouteDynamics::new(9, 0.3, 0.3);
        for entity in 0..100 {
            assert_eq!(
                a.roll(0xF1A9, entity, Day(3), 0.3),
                b.roll(0xF1A9, entity, Day(3), 0.3)
            );
        }
    }

    const SEED: u64 = 99;

    #[test]
    fn frozen_model_never_flips() {
        // The stable majority is the frozen part of the law.
        let stable: Vec<AsId> = (0..200)
            .map(AsId)
            .filter(|&a| !is_flappy(SEED, a, MetroId(0)))
            .collect();
        assert!(stable.len() > 50);
        for &a in &stable {
            for day in Day(0).span(14) {
                assert!(!flips_on(SEED, a, MetroId(0), day));
                assert_eq!(selection_rank(SEED, a, MetroId(0), day), 0);
                assert_eq!(flip_s(SEED, a, MetroId(0), day), None);
            }
        }
    }

    #[test]
    fn flappy_fraction_approximates_config() {
        let n = 20_000;
        let flappy = (0..n)
            .filter(|&i| is_flappy(SEED, AsId(i % 500), MetroId(i / 500)))
            .count();
        let frac = flappy as f64 / n as f64;
        assert!(
            (frac - FLAPPY_FRACTION).abs() < 0.02,
            "flappy fraction {frac} vs {FLAPPY_FRACTION}"
        );
    }

    #[test]
    fn rank_is_one_exactly_on_flip_days() {
        let (a, m) = (0..2000u32)
            .map(|i| (AsId(i % 300), MetroId(i / 300)))
            .find(|&(a, m)| is_flappy(SEED, a, m))
            .expect("some flappy attachment");
        for day in Day(0).span(28) {
            let flips = flips_on(SEED, a, m, day);
            assert_eq!(selection_rank(SEED, a, m, day) == 1, flips, "{day}");
            let at = flip_s(SEED, a, m, day);
            assert_eq!(at.is_some(), flips);
            assert!(at.is_none_or(|s| (0.0..86_400.0).contains(&s)));
        }
    }

    #[test]
    fn weekends_are_damped() {
        let (mut weekday, mut weekend) = ([0u32; 2], [0u32; 2]);
        for i in 0..3000u32 {
            let (a, m) = (AsId(i % 300), MetroId(i / 300));
            if !is_flappy(SEED, a, m) {
                continue;
            }
            for day in Day(0).span(28) {
                let tally = if day.weekday().is_weekend() {
                    &mut weekend
                } else {
                    &mut weekday
                };
                tally[0] += 1;
                tally[1] += u32::from(flips_on(SEED, a, m, day));
            }
        }
        let wd = f64::from(weekday[1]) / f64::from(weekday[0].max(1));
        let we = f64::from(weekend[1]) / f64::from(weekend[0].max(1));
        assert!(
            (wd - WEEKDAY_FLIP_PROB).abs() < 0.03,
            "weekday rate {wd} vs {WEEKDAY_FLIP_PROB}"
        );
        assert!(we < WEEKEND_FLIP_PROB + 0.02, "weekend rate {we}");
    }

    #[test]
    fn cumulative_flippers_match_process_parameters() {
        // Attachment-level flips accumulate as the law says: day one ≈
        // flappy × weekday rate, the week ≈ flappy × (1 − (1 − p_wd)^5 (1 −
        // p_we)^2). The *client-visible* Figure 7 calibration happens end to
        // end in the bench crate, where flips are filtered by whether they
        // change the serving front-end.
        let n = 8000u32;
        let mut switched_by_day = [0u32; 7];
        for i in 0..n {
            let (a, m) = (AsId(i % 400), MetroId(i / 400));
            let mut switched = false;
            for (di, day) in Day(0).span(7).enumerate() {
                switched |= flips_on(SEED, a, m, day);
                switched_by_day[di] += u32::from(switched);
            }
        }
        let day0 = f64::from(switched_by_day[0]) / f64::from(n);
        let week = f64::from(switched_by_day[6]) / f64::from(n);
        let expect_day0 = FLAPPY_FRACTION * WEEKDAY_FLIP_PROB;
        let expect_week = FLAPPY_FRACTION
            * (1.0 - (1.0 - WEEKDAY_FLIP_PROB).powi(5) * (1.0 - WEEKEND_FLIP_PROB).powi(2));
        assert!(
            (day0 - expect_day0).abs() < 0.03,
            "day one {day0} vs {expect_day0}"
        );
        assert!(
            (week - expect_week).abs() < 0.04,
            "week {week} vs {expect_week}"
        );
    }

    #[test]
    fn determinism() {
        // A pure function of the world seed and the attachment-day: the
        // same inputs always draw alike, and another seed draws otherwise.
        let draws = |seed| -> Vec<Option<f64>> {
            (0..500u32)
                .flat_map(|i| Day(0).span(10).map(move |day| (i, day)))
                .map(|(i, day)| flip_s(seed, AsId(i % 100), MetroId(i / 100), day))
                .collect()
        };
        assert_eq!(draws(SEED), draws(SEED));
        assert_ne!(draws(SEED), draws(SEED + 1));
    }
}
