//! Every HTTP row of a campaign day finds its DNS half.
//!
//! A worker joins each block of beacons against the authoritative log of
//! that block alone and then empties the log; the day-sized log that used
//! to be checked row by row is never built. What it stood for is this:
//! `study_day_rows_total` tallies the HTTP rows the beacons reported, the
//! dataset grows by the rows the join matched, and the two are equal —
//! four a beacon — wherever the range and block seams fall, in a world
//! whose fetches are retried and fail as in a quiet one.
//!
//! A dedicated integration-test binary, one test: nothing else records
//! into the global registry while the capture windows are open.

use anycast_core::{Study, StudyConfig};
use anycast_netsim::Day;
use anycast_workload::{Scenario, ScenarioConfig};

#[test]
fn every_http_row_is_joined_at_any_worker_count() {
    anycast_obs::set_enabled(true);
    for outages in [false, true] {
        let mut cfg = ScenarioConfig::small(7);
        if outages {
            cfg.net.p_site_outage = 0.25;
            cfg.net.p_site_drain = 0.15;
        }
        for workers in [1, 2, 5] {
            let scenario = Scenario::build(cfg.clone()).expect("valid config");
            let study_cfg = StudyConfig {
                workers,
                ..StudyConfig::default()
            };
            let mut study = Study::new(scenario, study_cfg);
            for day in 0..2 {
                let before = study.dataset().len();
                let ((), delta) = anycast_obs::capture(|| study.run_day(Day(day)));
                let rows = &study.dataset().measurements()[before..];
                let failed = rows.iter().filter(|m| m.failed).count() as u64;
                let label = day.to_string();
                let counted = |name: &str| delta.counter_with(name, &[("day", &label)]);
                let events = counted("study_day_events_total");
                let world = format!("outages {outages}, {workers} worker(s), day {day}");
                assert!(events > 512, "{world}: only {events} beacons");
                assert_eq!(counted("study_day_rows_total"), 4 * events, "{world}");
                assert_eq!(rows.len() as u64, 4 * events, "{world}");
                assert_eq!(counted("study_day_failed_rows_total"), failed, "{world}");
                assert_eq!(failed > 0, outages, "{world}");
            }
        }
    }
}
