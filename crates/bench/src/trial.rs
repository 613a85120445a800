//! The paper's §6 method as one seam, and one replay of a probe schedule.
//!
//! A [`Trial`] runs a world's beacon campaign once; each table is then
//! trained from a [`TrainSpec`] (a [`Day`] alone is the paper's scheme)
//! and scored on a later day's beacons as the weighted improved /
//! unchanged / hurt [`Shares`] of Figure 9. Every
//! figure, ablation and extra that trains or evaluates a table goes
//! through here, and every probe-schedule sweep (anycast VIP against a DNS
//! answer cache) goes through [`replay`].

use std::collections::HashMap;

use anycast_core::evaluation::outcome_shares;
use anycast_core::{
    evaluate_prediction, EvalRow, FailureReason, Grouping, PredictionTable, Predictor,
    PredictorConfig, RequestOutcome, Study, StudyConfig, TrainSpec,
};
use anycast_netsim::{Day, Prefix24, RouteSnapshot};
use anycast_workload::Scenario;

/// Weighted shares of an evaluation at the 75th percentile — the Bing
/// team's benchmark (§6). They sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    /// Share the prediction made faster than anycast.
    pub improved: f64,
    /// Share left as fast as anycast (mostly: the prediction kept it).
    pub unchanged: f64,
    /// Share the prediction made slower than anycast.
    pub hurt: f64,
}

impl Shares {
    /// The shares of evaluated rows.
    pub fn of(rows: &[EvalRow]) -> Shares {
        let (improved, unchanged, hurt) = outcome_shares(rows, false);
        Shares {
            improved,
            unchanged,
            hurt,
        }
    }

    /// Net benefit: `improved − hurt`.
    pub fn margin(&self) -> f64 {
        self.improved - self.hurt
    }
}

/// A world whose campaign has run: tables train on its days and are scored
/// on its later days.
pub struct Trial {
    study: Study,
    volumes: HashMap<Prefix24, u64>,
}

impl Trial {
    /// Runs `days` campaign days, from day 0, over `scenario`.
    pub fn run(scenario: Scenario, days: u32) -> Trial {
        let mut study = Study::new(scenario, StudyConfig::default());
        study.run_days(Day(0), days);
        let volumes = study.volumes();
        Trial { study, volumes }
    }

    /// The world the campaign ran over.
    pub fn scenario(&self) -> &Scenario {
        self.study.scenario()
    }

    /// Trains a table on the campaign's beacons.
    pub fn train(&self, cfg: PredictorConfig, spec: impl Into<TrainSpec>) -> PredictionTable {
        Predictor::new(cfg).train(self.study.dataset(), spec)
    }

    /// Scores `table`, trained at `grouping`, against `day`'s beacons: one
    /// row per /24 the comparison is defined for.
    pub fn rows(&self, table: &PredictionTable, grouping: Grouping, day: Day) -> Vec<EvalRow> {
        let (data, ldns_of) = (self.study.dataset(), self.study.ldns_of());
        evaluate_prediction(table, grouping, data, day, ldns_of, &self.volumes)
    }

    /// The weighted shares of [`rows`](Trial::rows).
    pub fn shares(&self, table: &PredictionTable, grouping: Grouping, day: Day) -> Shares {
        Shares::of(&self.rows(table, grouping, day))
    }
}

/// What a [`replay`] counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Probes served.
    pub served: u64,
    /// Probes lost.
    pub failed: u64,
    /// Probes lost for the reason the replay asked about.
    pub of_reason: u64,
}

impl Tally {
    /// Share of probes lost.
    pub fn unavailability(&self) -> f64 {
        self.failed as f64 / (self.served + self.failed) as f64
    }
}

/// Replays one deterministic probe schedule: every client of `scenario` at
/// each of `times` on each of `days` days from day 0, in day × time ×
/// client order so that time runs forward for any answer cache `request`
/// holds. `request` answers a probe from the day's route snapshot, the
/// client's index and the time of day.
pub fn replay(
    scenario: &Scenario,
    days: u32,
    times: &[f64],
    reason: FailureReason,
    mut request: impl FnMut(&RouteSnapshot, usize, f64) -> RequestOutcome,
) -> Tally {
    // Probes come many times per client-day, so each day's routes are
    // resolved once into a snapshot; only an outage window's fallback
    // re-resolves (the route-memo transparency proptest pins the
    // equivalence).
    let attachments: Vec<_> = scenario.clients.iter().map(|c| c.attachment).collect();
    let mut tally = Tally::default();
    for day in 0..days {
        let snap = RouteSnapshot::build(&scenario.internet, &attachments, Day(day));
        for &t in times {
            for client in 0..attachments.len() {
                let out = request(&snap, client, t);
                if out.served() {
                    tally.served += 1;
                } else {
                    tally.failed += 1;
                    tally.of_reason += u64::from(out.reason() == Some(reason));
                }
            }
        }
    }
    tally
}
