//! Failure observability: the counters the run report surfaces must agree
//! with what the analysis layer independently computes.
//!
//! * `beacon_fetch_failures_total` — beacon executions whose every
//!   attempt timed out — must match the failed rows of the joined dataset
//!   the same days produced (satellite: failure worlds are *visible*, not
//!   just survived).
//! * `pipeline_shard_panics_total` — the worker runner's `ShardError`
//!   recoveries — must match the number of worker deaths the caller
//!   actually observed.
//!
//! Dedicated integration-test binary: exact-count assertions run inside
//! `obs::capture` windows with nothing else in the process.

use anycast_core::{Study, StudyConfig};
use anycast_netsim::stream::run_workers;
use anycast_netsim::Day;
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
    // Worker 1 of three dies mid-pass; the other two finish theirs.
    let (observed, delta) = anycast_obs::capture(|| {
        let e = run_workers(vec![0u64, 1, 2], |_, input| {
            assert!(input != 1, "poison input {input}");
            input
        })
        .expect_err("the poisoned worker's death reaches the caller");
        assert_eq!(e.worker, 1);
        assert!(e.to_string().contains("shard worker"), "{e}");
        assert!(e.message.contains("poison input 1"), "{e}");
        1u64
    });
    assert_eq!(
        delta.counter("pipeline_shard_panics_total"),
        observed,
        "panic counter disagrees with observed ShardErrors"
    );
}
