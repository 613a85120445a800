//! The catchment engine's counters are a function of the day, not of the
//! worker count.
//!
//! `netsim_catchment_cache_{hits,misses}_total` and
//! `netsim_catchment_incremental_recomputes_total` are in the
//! deterministic slice of the snapshot (`Snapshot::deterministic`), so
//! they must tally the event stream, not which worker reached a table
//! first: a memoized table is computed once however many workers ask for
//! it at the same moment, and each of a day's event environments once, in
//! the snapshot build.
//!
//! A dedicated integration-test binary, one test: nothing else records
//! into the global registry while the capture windows are open.

use anycast_core::{Study, StudyConfig};
use anycast_netsim::{Day, WorldGenConfig};
use anycast_obs::Snapshot;
use anycast_workload::{Scenario, ScenarioConfig};

/// One day on a fresh 10k-AS policy world (no table memoized yet) whose
/// sessions flap some forty times a day, with or without site outages on
/// top; returns the joined rows and the deterministic metrics delta.
fn captured_day(workers: usize, outages: bool) -> (String, Snapshot) {
    let (bytes, delta) = anycast_obs::capture(|| {
        let mut cfg = ScenarioConfig::small(11);
        cfg.net.worldgen = Some(WorldGenConfig {
            p_session_flap: 0.004,
            p_border_flap: 0.01,
            ..WorldGenConfig::with_ases(10_000)
        });
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
    });
    (bytes, delta.deterministic())
}

#[test]
fn policy_world_deterministic_metrics_are_worker_invariant() {
    anycast_obs::set_enabled(true);
    for outages in [false, true] {
        let (bytes_1w, metrics_1w) = captured_day(1, outages);
        let recomputes = metrics_1w.counter("netsim_catchment_incremental_recomputes_total");
        assert!(recomputes >= 20, "only {recomputes} event environments");
        // Only instants inside a site down-window reach the Internet.
        let fell_back = metrics_1w.counter("netsim_route_memo_misses_total") > 0;
        assert_eq!(fell_back, outages);
        for workers in [2usize, 8] {
            let (bytes, metrics) = captured_day(workers, outages);
            assert_eq!(bytes, bytes_1w, "rows diverge at {workers} workers");
            assert_eq!(
                metrics, metrics_1w,
                "deterministic metrics diverge at {workers} workers"
            );
        }
    }
}
