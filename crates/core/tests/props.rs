//! Property tests for the core contribution: the predictor must hold its
//! invariants under arbitrary inputs.

use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot, Target};
use anycast_core::{GroupKey, Grouping, Metric, Predictor, PredictorConfig, Study, StudyConfig};
use anycast_dns::LdnsId;
use anycast_netsim::{Day, Prefix24, SiteId, WorldGenConfig};
use anycast_workload::{Scenario, ScenarioConfig};
use proptest::prelude::*;

/// Builds a dataset from a compact spec: per (prefix, target) a list of
/// rtts.
fn dataset(spec: &[(u8, Option<u16>, Vec<f64>)]) -> BeaconDataset {
    let mut ds = BeaconDataset::new();
    let mut exec = 0u64;
    for (prefix_octet, site, rtts) in spec {
        let prefix = Prefix24::containing(std::net::Ipv4Addr::new(11, 0, *prefix_octet, 1));
        let (slot, target) = match site {
            None => (Slot::Anycast, Target::Anycast),
            Some(s) => (Slot::GeoClosest, Target::Unicast(SiteId(*s))),
        };
        let rows: Vec<BeaconMeasurement> = rtts
            .iter()
            .map(|&rtt| {
                exec += 1;
                BeaconMeasurement {
                    measurement_id: slot.id_for(exec),
                    slot,
                    prefix,
                    ldns: LdnsId(0),
                    ecs: None,
                    target,
                    served_site: SiteId(site.unwrap_or(0)),
                    rtt_ms: rtt,
                    failed: false,
                    day: Day(0),
                    time_s: 0.0,
                }
            })
            .collect();
        ds.extend(rows);
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn predictor_never_uses_undersampled_targets(
        anycast_rtts in prop::collection::vec(1.0..300.0f64, 0..40),
        unicast_rtts in prop::collection::vec(1.0..300.0f64, 0..40),
        min_samples in 1usize..30,
    ) {
        let ds = dataset(&[
            (1, None, anycast_rtts.clone()),
            (1, Some(3), unicast_rtts.clone()),
        ]);
        let cfg = PredictorConfig { grouping: Grouping::Ecs, metric: Metric::P25, min_samples };
        let table = Predictor::new(cfg).train(&ds, Day(0));
        let prefix = Prefix24::containing(std::net::Ipv4Addr::new(11, 0, 1, 1));
        match table.predict(GroupKey::Ecs(prefix.into())) {
            None => {
                prop_assert!(anycast_rtts.len() < min_samples && unicast_rtts.len() < min_samples);
            }
            Some(Target::Anycast) => prop_assert!(anycast_rtts.len() >= min_samples),
            Some(Target::Unicast(_)) => prop_assert!(unicast_rtts.len() >= min_samples),
        }
    }

    #[test]
    fn predictor_choice_minimizes_the_metric(
        a in prop::collection::vec(1.0..300.0f64, 10..30),
        b in prop::collection::vec(1.0..300.0f64, 10..30),
        c in prop::collection::vec(1.0..300.0f64, 10..30),
    ) {
        let ds = dataset(&[(1, None, a.clone()), (1, Some(2), b.clone()), (1, Some(5), c.clone())]);
        let cfg = PredictorConfig { grouping: Grouping::Ecs, metric: Metric::P25, min_samples: 10 };
        let table = Predictor::new(cfg).train(&ds, Day(0));
        let prefix = Prefix24::containing(std::net::Ipv4Addr::new(11, 0, 1, 1));
        let chosen = table.predict(GroupKey::Ecs(prefix.into())).unwrap();
        let score = |v: &Vec<f64>| Metric::P25.score(v).unwrap();
        let best = score(&a).min(score(&b)).min(score(&c));
        let chosen_score = match chosen {
            Target::Anycast => score(&a),
            Target::Unicast(SiteId(2)) => score(&b),
            Target::Unicast(SiteId(5)) => score(&c),
            _ => unreachable!(),
        };
        prop_assert!((chosen_score - best).abs() < 1e-9);
    }

    #[test]
    fn hybrid_filter_is_monotone_in_threshold(
        gains in prop::collection::vec(0.0..100.0f64, 1..20),
        t1 in 0.0..50.0f64,
        t2 in 0.0..50.0f64,
    ) {
        // Build a table with one redirected group per gain value.
        let spec: Vec<(u8, Option<u16>, Vec<f64>)> = gains
            .iter()
            .enumerate()
            .flat_map(|(i, &g)| {
                vec![
                    (i as u8, None, vec![100.0 + g; 12]),
                    (i as u8, Some(1), vec![100.0; 12]),
                ]
            })
            .collect();
        let ds = dataset(&spec);
        let cfg = PredictorConfig { grouping: Grouping::Ecs, metric: Metric::P25, min_samples: 10 };
        let table = Predictor::new(cfg).train(&ds, Day(0));
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(table.hybrid_filter(hi).len() <= table.hybrid_filter(lo).len());
        // Every surviving group clears the threshold.
        for (_, choice) in table.hybrid_filter(lo).iter() {
            prop_assert!(choice.gain_ms.unwrap() >= lo - 1e-9);
        }
    }
}

// Each case runs three full campaign days over a Small world, so this
// block keeps its case count low; CI invokes it by name.
/// Runs `days` campaign days and returns the joined rows, each day's
/// checked to be in global time order and to hold only that day's rows.
fn run_study(scenario: Scenario, workers: usize, days: u32) -> Vec<BeaconMeasurement> {
    let cfg = StudyConfig {
        workers,
        ..StudyConfig::default()
    };
    let mut st = Study::new(scenario, cfg);
    for day in Day(0).span(days) {
        let before = st.dataset().len();
        st.run_day(day);
        let joined = &st.dataset().measurements()[before..];
        assert!(!joined.is_empty(), "{day:?} joined no row");
        assert!(joined.iter().all(|row| row.day == day));
        // Time order over the whole day is time order across every seam
        // between two workers' ranges.
        assert!(joined.windows(2).all(|w| w[0].time_s <= w[1].time_s));
    }
    st.dataset().measurements().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn study_worker_invariance(
        seed in 0u64..500,
        outages in any::<bool>(),
    ) {
        // The threaded campaign engine must be output-transparent: for a
        // fixed seed, the joined dataset is byte-identical for any worker
        // count — even splits and uneven ones — including in worlds where
        // front-ends fail mid-day.
        let world = |seed: u64| {
            let mut cfg = ScenarioConfig::small(seed);
            if outages {
                cfg.net.p_site_outage = 0.25;
                cfg.net.p_site_drain = 0.15;
            }
            Scenario::build(cfg).expect("valid config")
        };
        let run = |workers: usize| run_study(world(seed), workers, 2);
        let m1 = run(1);
        for workers in [2usize, 3, 7, 8] {
            prop_assert_eq!(&run(workers), &m1, "measurements diverge at {} workers", workers);
        }
    }
}

// Same transparency requirement on a policy-routed 10,000-AS world: the
// generated topology, the catchment tables behind every route, and the
// study output must all be bit-identical across worker counts. Route
// dynamics are boosted so mid-day incremental recomputes are exercised,
// not just the steady fast path.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn policy_world_study_worker_invariance(seed in 0u64..100) {
        let world = |seed: u64| {
            let mut cfg = ScenarioConfig::small(seed);
            cfg.net.worldgen = Some(WorldGenConfig {
                p_session_flap: 0.02,
                p_border_flap: 0.01,
                ..WorldGenConfig::with_ases(10_000)
            });
            cfg.net.p_site_outage = 0.25;
            cfg.net.p_site_drain = 0.15;
            Scenario::build(cfg).expect("valid config")
        };
        let run = |workers: usize| run_study(world(seed), workers, 1);
        let m1 = run(1);
        for workers in [2usize, 3, 7, 8] {
            prop_assert_eq!(&run(workers), &m1, "measurements diverge at {} workers", workers);
        }
    }
}
