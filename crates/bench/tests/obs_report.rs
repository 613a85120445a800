//! The metrics export end to end: one campaign day plus sketched
//! training must (a) carry metrics from every instrumented layer —
//! pipeline, study, beacon, netsim, and prediction — and (b) export them
//! as Prometheus text that passes the grammar check `obs_validate` runs;
//! a campaign day alone must export its beacon families well formed.

use anycast_bench::worlds::{self, Scale};
use anycast_core::{Predictor, PredictorConfig};
use anycast_netsim::Day;

#[test]
fn bench_run_report_validates_and_covers_every_layer() {
    anycast_obs::set_enabled(true);
    let (_, delta) = anycast_obs::capture(|| {
        // The smallest real run: one beacon day, then the streaming
        // pipeline's sketched training over it.
        let mut st = worlds::study(Scale::Small, 3);
        st.run_day(Day(0));
        Predictor::new(PredictorConfig::default()).train_sketched(
            st.dataset(),
            &[Day(0)],
            0.01,
            anycast_pipeline::ShardConfig::default(),
        )
    });

    // Layer coverage: that run must light up all five instrumented
    // subsystems — pipeline, beacon, netsim, prediction, study.
    for counter in [
        "pipeline_records_routed_total",   // sketched training shards records
        "beacon_executions_total",         // the campaign ran beacons
        "netsim_route_memo_hits_total",    // fetches routed via the day memo
        "prediction_groups_trained_total", // training scored groups
    ] {
        assert!(delta.counter(counter) > 0, "no {counter} recorded");
    }
    assert!(
        delta.counter_sum("study_day_events_total") > 0,
        "no per-day study counters recorded"
    );
    assert!(
        delta
            .histograms
            .keys()
            .any(|k| k.name == "beacon_reported_ms"),
        "latency histogram missing"
    );
    assert!(
        delta.spans.keys().any(|k| k.name == "study.execute"),
        "study phase spans missing"
    );

    // The export of that snapshot — the run's metric report — passes the
    // grammar check `obs_validate` runs.
    let prom = delta.to_prometheus();
    assert!(prom.contains("# TYPE prediction_groups_trained_total counter"));
    assert!(prom.contains("# TYPE pipeline_records_routed_total counter"));
    let errors = anycast_obs::validate_prometheus(&prom);
    assert!(
        errors.is_empty(),
        "Prometheus dump is malformed:\n{}",
        errors.join("\n")
    );
}

#[test]
fn prometheus_dump_is_well_formed() {
    anycast_obs::set_enabled(true);
    let (_, delta) = anycast_obs::capture(|| {
        let mut st = worlds::study(Scale::Small, 5);
        st.run_day(Day(0));
    });
    let prom = delta.to_prometheus();
    assert!(prom.contains("# TYPE beacon_executions_total counter"));
    assert!(prom.contains("# TYPE beacon_reported_ms histogram"));
    assert!(prom.contains("beacon_reported_ms_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("beacon_reported_ms_count"));
    // The grammar check `obs_validate --prom` runs: names, one contiguous
    // group per family, cumulative buckets and `+Inf` agreeing with
    // `_count`.
    let errors = anycast_obs::validate_prometheus(&prom);
    assert!(
        errors.is_empty(),
        "Prometheus dump is malformed:\n{}",
        errors.join("\n")
    );
}
