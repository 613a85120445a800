//! The `prediction_groups_*_total` counters, read off the process-wide
//! registry.
//!
//! Training passes tally their `(group, target)` pairs locally and add the
//! tally to the counters once per pass; the unit tests in
//! `anycast_core::prediction` pin those tallies against a brute-force
//! count of the window's columns. This file pins the last step — that the
//! tally reaches the registry, exactly — and is a dedicated
//! integration-test binary with a single test, so nothing else in the
//! process moves the counters.

use std::collections::BTreeMap;

use anycast_core::prediction::{
    AggregationConfig, PredictionTable, Predictor, PredictorConfig, ShardConfig, TrainSpec,
};
use anycast_core::{Study, StudyConfig};
use anycast_netsim::Day;
use anycast_workload::{Scenario, ScenarioConfig};

#[test]
fn every_training_mode_counts_each_pair_once() {
    anycast_obs::set_enabled(true);
    let scenario = Scenario::build(ScenarioConfig::small(7)).expect("valid config");
    let mut st = Study::new(scenario, StudyConfig::default());
    st.run_day(Day(0));
    let data = st.dataset();

    // What the dataset itself says: pairs at or over the "20+
    // measurements" bar, and pairs under it (failed fetches count — they
    // train at the penalty).
    let predictor = Predictor::new(PredictorConfig::default());
    let min = predictor.config().min_samples;
    let mut per_pair: BTreeMap<_, usize> = BTreeMap::new();
    for m in data.day(Day(0)) {
        *per_pair.entry((m.prefix, m.target)).or_default() += 1;
    }
    let trained = per_pair.values().filter(|&&n| n >= min).count() as u64;
    let discarded = per_pair.len() as u64 - trained;
    assert!(trained > 0 && discarded > 0, "{trained} / {discarded}");

    let counts = |delta: &anycast_obs::Snapshot| {
        [
            delta.counter_sum("prediction_groups_trained_total"),
            delta.counter_sum("prediction_groups_discarded_total"),
            delta.counter_sum("prediction_groups_borrowed_total"),
        ]
    };
    // The names the benchmark calls, and the one entry under them: one
    // entry per group, each pair trained or discarded once.
    let disabled = AggregationConfig::disabled();
    let window = TrainSpec {
        days: vec![Day(0)],
        agg: None,
    };
    let shard = ShardConfig::default();
    let modes: [(&str, &dyn Fn() -> PredictionTable); 4] = [
        ("train(Day)", &|| predictor.train(data, Day(0))),
        ("train_sketched", &|| {
            predictor.train_sketched(data, &[Day(0)], 0.01, shard)
        }),
        ("train_aggregated, aggregation disabled", &|| {
            predictor.train_aggregated(data, Day(0), &disabled)
        }),
        ("train(TrainSpec { agg: None })", &|| {
            predictor.train(data, window.clone())
        }),
    ];
    for (name, train) in modes {
        let (_, delta) = anycast_obs::capture(train);
        assert_eq!(counts(&delta), [trained, discarded, 0], "{name}");
    }

    // Under an aggregate a leaf's pairs are neither trained nor discarded
    // (the aggregate speaks for them), and a leaf with no pair over the
    // bar borrows: every pair is accounted for at most once.
    let (_, aggregated) = anycast_obs::capture(|| {
        predictor.train_aggregated(data, Day(0), &AggregationConfig::default())
    });
    let [agg_trained, agg_discarded, borrowed] = counts(&aggregated);
    assert!(agg_trained <= trained && agg_discarded <= discarded);
    assert!(
        borrowed > 0,
        "the small scenario has sparse /24s under aggregates"
    );
}
