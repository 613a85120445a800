//! Mid-day route dynamics over the policy graph.
//!
//! "Anycast Performance in Context" finds that route *dynamics* — path
//! flaps and egress changes, not load — dominate anycast instability. This
//! module schedules three deterministic event kinds per day:
//!
//! * **session flap** — one AS↔CDN BGP session drops for a window; every
//!   route through that session re-resolves (the dirty subtree of the
//!   catchment BFS recomputes);
//! * **border flap** — one CDN border router withdraws the anycast
//!   announcement for a window (maintenance on the router itself);
//! * **egress shift** — a multi-border session's hot-potato handoff moves
//!   to its runner-up border for a window (the adjacent AS re-balanced its
//!   internal costs), changing ingress without changing the AS path.
//!
//! Every event is a pure hash of `(seed, day, entity)`, so the schedule is
//! reproducible and independent of query order — the same determinism
//! contract as [`crate::outage::OutageModel`].

use crate::ids::BorderId;
use crate::sim::Day;
use crate::stream::{splitmix64, to_unit};

use super::graph::PolicyGraph;

/// One scheduled routing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynEvent {
    /// Session `.0` (index into [`PolicyGraph::sessions`]) is down.
    SessionDown(u32),
    /// Border `.0` has withdrawn the anycast announcement.
    BorderDown(BorderId),
    /// Session `.0`'s hot-potato handoff is shifted to the runner-up border.
    EgressShift(u32),
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
    p_egress_shift: f64,
}

impl RouteDynamics {
    /// Builds the scheduler. `seed` must be the world seed so the schedule
    /// is part of the world's identity.
    pub fn new(
        seed: u64,
        p_session_flap: f64,
        p_border_flap: f64,
        p_egress_shift: f64,
    ) -> RouteDynamics {
        RouteDynamics {
            seed: seed ^ 0x6479_6e61_6d69_6373,
            p_session_flap,
            p_border_flap,
            p_egress_shift,
        }
    }

    /// Whether any event can ever fire.
    pub fn enabled(&self) -> bool {
        self.p_session_flap > 0.0 || self.p_border_flap > 0.0 || self.p_egress_shift > 0.0
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
            if graph.sessions[s as usize].borders.len() > 1 {
                if let Some(w) = self.roll(0x5417, u64::from(s), day, self.p_egress_shift) {
                    out.push(EventWindow {
                        event: DynEvent::EgressShift(s),
                        start_s: w.0,
                        end_s: w.1,
                    });
                }
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
/// churn/outage/latency models use.
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
        let d = RouteDynamics::new(7, 0.0, 0.0, 0.0);
        assert!(!d.enabled());
    }

    #[test]
    fn windows_are_within_the_day() {
        let d = RouteDynamics::new(7, 0.5, 0.5, 0.5);
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
        let a = RouteDynamics::new(9, 0.3, 0.3, 0.3);
        let b = RouteDynamics::new(9, 0.3, 0.3, 0.3);
        for entity in 0..100 {
            assert_eq!(
                a.roll(0xF1A9, entity, Day(3), 0.3),
                b.roll(0xF1A9, entity, Day(3), 0.3)
            );
        }
    }
}
