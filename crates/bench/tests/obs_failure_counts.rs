//! Failure observability: the counters the run report surfaces must agree
//! with what the analysis layer independently computes.
//!
//! * `beacon_fetch_failures_total` — beacon executions whose every
//!   attempt timed out — must match the failed rows of the joined dataset
//!   the same days produced (satellite: failure worlds are *visible*, not
//!   just survived).
//! * `pipeline_shard_panics_total` — ShardError recoveries — must match
//!   the number of worker deaths the caller actually observed.
//!
//! Dedicated integration-test binary: exact-count assertions run inside
//! `obs::capture` windows with nothing else in the process.

use anycast_beacon::Target;
use anycast_core::{Study, StudyConfig};
use anycast_netsim::Day;
use anycast_pipeline::{mix64, sketch_day, ShardConfig};
use anycast_workload::{Scenario, ScenarioConfig};

/// A failure world: outages and drains scheduled at high rates so some
/// beacon fetches really do hit dead front-ends.
fn failure_world(seed: u64) -> Scenario {
    let mut cfg = ScenarioConfig::small(seed);
    cfg.net.p_site_outage = 0.3;
    cfg.net.p_site_drain = 0.15;
    Scenario::build(cfg).expect("valid config")
}

#[test]
fn failed_fetch_counter_matches_the_dataset_rows() {
    anycast_obs::set_enabled(true);
    let (st, delta) = anycast_obs::capture(|| {
        let mut st = Study::new(failure_world(11), StudyConfig::default());
        st.run_days(Day(0), 3);
        st
    });

    // Independent ground truth: fold the joined rows.
    let rows = st.dataset().measurements();
    let failed_rows = rows.iter().filter(|m| m.failed).count() as u64;
    assert!(failed_rows > 0, "failure world produced no failed fetches");
    assert!(failed_rows < rows.len() as u64);

    assert_eq!(
        delta.counter("beacon_fetch_failures_total"),
        failed_rows,
        "run-report failure counter disagrees with the dataset"
    );
    // Failed fetches imply retries: the retry counter saw at least one
    // retry per failure (a beacon makes two attempts).
    assert!(delta.counter("beacon_fetch_retries_total") >= failed_rows);
    // And the per-day failed-row counters sum to the same total.
    assert_eq!(
        delta.counter_sum("study_day_failed_rows_total"),
        failed_rows
    );
}

#[test]
fn shard_panic_counter_matches_observed_errors() {
    anycast_obs::set_enabled(true);
    // Key 9's owner meets a NaN latency mid-stream and dies; the other
    // worker finishes its share.
    let records = (0..1_000u64).map(|i| {
        let v = if i == 509 { f64::NAN } else { i as f64 };
        (i % 10, Target::Anycast, v)
    });
    let (observed, delta) = anycast_obs::capture(|| {
        let died = std::panic::catch_unwind(|| {
            sketch_day(records, 0.05, ShardConfig { workers: 2 }, |k: &u64| {
                mix64(*k)
            })
        })
        .expect_err("the poisoned worker's death reaches the caller");
        let message = died.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("shard worker"), "{message}");
        assert!(message.contains("NaN fed to QuantileSketch"), "{message}");
        1u64
    });
    assert_eq!(
        delta.counter("pipeline_shard_panics_total"),
        observed,
        "panic counter disagrees with observed ShardErrors"
    );
    // The survivor still reports the rows it kept.
    let routed = delta.counter("pipeline_records_routed_total");
    assert!(
        routed > 0 && routed % 100 == 0 && routed < 1_000,
        "{routed}"
    );
}
