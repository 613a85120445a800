//! TCP-session disruption under anycast route changes (§2's claim,
//! quantified).
//!
//! "Anycast routing changes can cause ongoing TCP sessions to terminate
//! and need to be restarted. In the context of the Web, which is dominated
//! by short flows, this does not appear to be an issue in practice" (§2,
//! citing operational experience \[31\] and FastRoute \[23\]).
//!
//! This module tests that claim in the simulator: flows with configurable
//! duration distributions arrive on the diurnal clock; a flow breaks if an
//! anycast route change (a churn flip, which lands at a deterministic time
//! within its day) occurs during the flow's lifetime *and* actually moves
//! the client to a different front-end. Sweeping the duration distribution
//! from web-like (sub-second) to video-like (minutes) shows where the
//! "short flows are fine" argument stops holding.

use anycast_geo::LogNormal;
use anycast_netsim::Day;
use anycast_workload::{temporal, Scenario};
use rand::distributions::Distribution;
use rand::Rng;

/// Flow duration model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowModel {
    /// Median flow duration, seconds.
    pub duration_median_s: f64,
    /// Lognormal sigma (web traffic is heavy-tailed).
    pub duration_sigma: f64,
}

impl FlowModel {
    /// Web page loads: short, heavy-tailed.
    pub fn web() -> FlowModel {
        FlowModel {
            duration_median_s: 1.5,
            duration_sigma: 1.2,
        }
    }

    /// Video sessions: minutes.
    pub fn video() -> FlowModel {
        FlowModel {
            duration_median_s: 300.0,
            duration_sigma: 0.8,
        }
    }
}

/// Outcome of one disruption experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisruptionStats {
    /// Flows simulated.
    pub flows: u64,
    /// Flows whose lifetime contained a front-end-changing route flip.
    pub broken: u64,
}

impl DisruptionStats {
    /// Fraction of flows broken.
    pub fn broken_fraction(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.broken as f64 / self.flows as f64
        }
    }
}

/// Simulates `flows_per_client` flows per client on `day` and counts the
/// ones broken by an anycast route change.
///
/// A client's route can change at most once per day (the switch
/// [`Internet::anycast_day`](anycast_netsim::Internet::anycast_day)
/// reports); a flow is broken when it spans the switch *and* the switch
/// changes the serving front-end (switches between egresses mapping to the
/// same site keep TCP intact — the connection's packets still reach the
/// same terminating server).
pub fn disruption_rate(
    scenario: &Scenario,
    day: Day,
    model: FlowModel,
    flows_per_client: u32,
    rng: &mut impl Rng,
) -> DisruptionStats {
    let duration = LogNormal::new(model.duration_median_s, model.duration_sigma);
    let mut flows = 0u64;
    let mut broken = 0u64;
    for client in &scenario.clients {
        let routes = scenario.internet.anycast_day(&client.attachment, day);
        let change = routes
            .switch
            .and_then(|(at_s, before)| (before.site != routes.route.site).then_some(at_s));
        for _ in 0..flows_per_client {
            flows += 1;
            let Some(flip_at) = change else { continue };
            let start = temporal::sample_query_time(client.attachment.location.lon_deg(), rng);
            let end = start + duration.sample(rng);
            if start < flip_at && end > flip_at {
                broken += 1;
            }
        }
    }
    DisruptionStats { flows, broken }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_workload::scenario::seeded_rng;

    #[test]
    fn web_flows_are_rarely_broken() {
        let scenario = Scenario::small(21);
        let mut rng = seeded_rng(21, 0xf10);
        let stats = disruption_rate(&scenario, Day(0), FlowModel::web(), 10, &mut rng);
        assert!(stats.flows > 1000);
        // The paper's operational claim: for short web flows this "does
        // not appear to be an issue in practice".
        assert!(
            stats.broken_fraction() < 0.001,
            "web flows broken at {:.4}%",
            100.0 * stats.broken_fraction()
        );
    }

    #[test]
    fn longer_flows_break_more() {
        let scenario = Scenario::small(22);
        let mut rng = seeded_rng(22, 0xf10);
        let web = disruption_rate(&scenario, Day(0), FlowModel::web(), 20, &mut rng);
        let mut rng = seeded_rng(22, 0xf10);
        let video = disruption_rate(&scenario, Day(0), FlowModel::video(), 20, &mut rng);
        assert!(
            video.broken_fraction() >= web.broken_fraction(),
            "video {} vs web {}",
            video.broken_fraction(),
            web.broken_fraction()
        );
    }

    #[test]
    fn frozen_world_breaks_nothing() {
        // Only the clients anycast does not move that day.
        let mut scenario = Scenario::small(23);
        let internet = &scenario.internet;
        scenario
            .clients
            .retain(|c| internet.anycast_day(&c.attachment, Day(0)).switch.is_none());
        assert!(!scenario.clients.is_empty());
        let mut rng = seeded_rng(23, 0xf10);
        let stats = disruption_rate(&scenario, Day(0), FlowModel::video(), 5, &mut rng);
        assert_eq!(stats.broken, 0);
    }

    #[test]
    fn stats_handle_zero_flows() {
        let stats = DisruptionStats {
            flows: 0,
            broken: 0,
        };
        assert_eq!(stats.broken_fraction(), 0.0);
    }
}
