//! The obs-neutrality contract, pinned end to end.
//!
//! Instrumentation is write-only: it never draws randomness and never
//! feeds a value back into simulation state. Two things must therefore
//! hold for the same seed:
//!
//! 1. **Output bytes are invariant** — obs enabled, disabled, or the
//!    campaign spread over any worker count, the joined dataset is
//!    byte-identical.
//! 2. **Deterministic metrics are invariant** — the counter/histogram
//!    slice of the snapshot (`Snapshot::deterministic`) is identical for
//!    any worker count, because every deterministic series tallies the
//!    event stream, not the scheduling.
//!
//! This file is a dedicated integration-test binary: `obs::capture`
//! serializes capture windows, and nothing else runs in this process, so
//! exact-count comparisons are safe.

use anycast_core::{Study, StudyConfig};
use anycast_netsim::Day;
use anycast_obs::Snapshot;
use anycast_workload::{Scenario, ScenarioConfig};
use proptest::prelude::*;

/// The tests below run one at a time. They share the global registry's
/// on/off switch, and they compare whole deltas, in which a name another
/// test registers between two windows shows up as a zero.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// One campaign day; returns the output bytes (the joined dataset, via the
/// derived `Debug` form, which covers every field).
fn run_campaign(seed: u64, workers: usize, outages: bool) -> String {
    let mut cfg = ScenarioConfig::small(seed);
    if outages {
        cfg.net.p_site_outage = 0.25;
        cfg.net.p_site_drain = 0.15;
    }
    let scenario = Scenario::build(cfg).expect("valid config");
    let study_cfg = StudyConfig {
        workers,
        ..StudyConfig::default()
    };
    let mut st = Study::new(scenario, study_cfg);
    st.run_day(Day(0));
    format!("{:?}", st.dataset().measurements())
}

/// Runs the campaign inside a capture window, returning output bytes and
/// the deterministic metrics delta.
fn captured_run(seed: u64, workers: usize, outages: bool) -> (String, Snapshot) {
    anycast_obs::set_enabled(true);
    let (bytes, delta) = anycast_obs::capture(|| run_campaign(seed, workers, outages));
    (bytes, delta.deterministic())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn outputs_and_deterministic_metrics_are_obs_and_worker_invariant(
        seed in 0u64..200,
        outages in any::<bool>(),
    ) {
        let _serial = serial();
        // Baseline: sequential, obs recording.
        let (bytes_1w, metrics_1w) = captured_run(seed, 1, outages);
        prop_assert!(
            metrics_1w.counter_sum("beacon_executions_total") > 0,
            "instrumentation recorded nothing"
        );

        // Worker counts must change neither output bytes nor the
        // deterministic metric slice.
        for workers in [2usize, 8] {
            let (bytes, metrics) = captured_run(seed, workers, outages);
            prop_assert_eq!(&bytes, &bytes_1w, "output bytes diverge at {} workers", workers);
            prop_assert_eq!(
                &metrics, &metrics_1w,
                "deterministic metrics diverge at {} workers", workers
            );
        }

        // Disabling obs must change no output byte either (and records
        // nothing at all).
        // (Switched inside the capture window: the other tests of this
        // binary record only inside windows of their own.)
        let (bytes_off, delta_off) = anycast_obs::capture(|| {
            anycast_obs::set_enabled(false);
            let bytes = run_campaign(seed, 2, outages);
            anycast_obs::set_enabled(true);
            bytes
        });
        prop_assert_eq!(&bytes_off, &bytes_1w, "output bytes change when obs is disabled");
        prop_assert_eq!(delta_off.deterministic().counter_sum("beacon_executions_total"), 0);
    }
}

#[test]
fn more_workers_than_events_changes_nothing() {
    let _serial = serial();
    // A day of a few dozen beacons run by five more workers than it has
    // events: every event is a range of its own, every gap between two
    // events a seam, and five workers have nothing to run.
    let day = |workers: usize| {
        anycast_obs::capture(|| {
            let scenario = Scenario::build(ScenarioConfig::small(5)).expect("valid config");
            let cfg = StudyConfig {
                workers,
                beacon_rate: 0.002,
                ..StudyConfig::default()
            };
            let mut st = Study::new(scenario, cfg);
            st.run_day(Day(0));
            st.dataset().measurements().to_vec()
        })
    };
    anycast_obs::set_enabled(true);
    let (rows_1w, delta_1w) = day(1);
    let events = delta_1w.counter_sum("beacon_executions_total") as usize;
    // More than the eight workers any other test of this binary uses, so
    // the highest `study.beacon` worker label below is this test's.
    assert!(events > 8, "only {events} events");
    let (rows, delta) = day(events + 5);
    assert_eq!(rows, rows_1w, "joined rows diverge");
    assert_eq!(delta.deterministic(), delta_1w.deterministic());
    assert!(rows.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    // A range registers its span when it starts: the labels stop at the
    // last event, so no empty range was started.
    let highest_worker = delta
        .spans
        .keys()
        .filter(|k| k.name == "study.beacon")
        .filter_map(|k| k.label("worker")?.parse::<usize>().ok())
        .max();
    assert_eq!(highest_worker, Some(events - 1));
}

#[test]
fn per_day_counters_match_the_dataset() {
    let _serial = serial();
    // The per-day labeled counters must agree with what the dataset
    // itself says: rows tallied per day equal rows joined per day.
    anycast_obs::set_enabled(true);
    let ((rows, failed), delta) = anycast_obs::capture(|| {
        let scenario = Scenario::build(ScenarioConfig::small(7)).expect("valid config");
        let mut st = Study::new(scenario, StudyConfig::default());
        st.run_day(Day(0));
        let rows = st.dataset().measurements().len() as u64;
        let failed = st
            .dataset()
            .measurements()
            .iter()
            .filter(|m| m.failed)
            .count() as u64;
        (rows, failed)
    });
    assert_eq!(
        delta.counter_with("study_day_rows_total", &[("day", "0")]),
        rows
    );
    assert_eq!(
        delta.counter_with("study_day_failed_rows_total", &[("day", "0")]),
        failed
    );
    assert!(delta.counter_with("study_day_events_total", &[("day", "0")]) > 0);
}
