//! The run report end to end: one campaign day plus sketched training
//! must produce a report that (a) validates against the checked-in JSON
//! schema CI enforces, and (b) carries metrics from every instrumented
//! layer — pipeline, study, beacon, netsim, and prediction.

use anycast_bench::worlds::{self, Scale};
use anycast_core::{Predictor, PredictorConfig};
use anycast_netsim::Day;
use anycast_obs::{json, schema, RunMeta, RunReport};

fn checked_in_schema() -> json::Value {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../obs/schemas/run_report.schema.json"
    );
    let text = std::fs::read_to_string(path).expect("schema file is checked in");
    json::parse(&text).expect("schema file is valid JSON")
}

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

    // The report over that snapshot validates against the checked-in
    // schema — the same check CI runs over `figures --obs-out` output.
    let report = RunReport::new(
        RunMeta {
            tool: "figures".into(),
            scale: "small".into(),
            seed: 3,
            workers: 1,
            artifacts: vec!["bench".into()],
        },
        delta,
    );
    let doc = json::parse(&report.to_json()).expect("report serializes to valid JSON");
    let violations = schema::validate(&doc, &checked_in_schema());
    assert!(
        violations.is_empty(),
        "run report violates its schema:\n{}",
        violations.join("\n")
    );
}

#[test]
fn prometheus_dump_is_well_formed() {
    anycast_obs::set_enabled(true);
    let (_, delta) = anycast_obs::capture(|| {
        let mut st = anycast_bench::worlds::study(Scale::Small, 5);
        st.run_day(anycast_netsim::Day(0));
    });
    let prom = delta.to_prometheus();
    assert!(prom.contains("# TYPE beacon_executions_total counter"));
    assert!(prom.contains("# TYPE beacon_reported_ms histogram"));
    assert!(prom.contains("beacon_reported_ms_bucket{le=\"+Inf\"}"));
    assert!(prom.contains("beacon_reported_ms_count"));
    // The grammar check `obs_validate --prom` runs: names, TYPE lines,
    // cumulative buckets and `+Inf` agreeing with `_count`.
    let errors = anycast_obs::validate_prometheus(&prom);
    assert!(
        errors.is_empty(),
        "Prometheus dump is malformed:\n{}",
        errors.join("\n")
    );
}
