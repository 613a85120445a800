//! A campaign day's obs values do not depend on where its workers flush.
//!
//! Each worker tallies its beacons' counters, the reported-latency
//! histogram, its route lookups and their outcomes, and its `study.beacon`
//! span locally and merges them into the global registry once a block. So
//! the block length and the worker count decide only *when* a value
//! becomes visible: over whole days every `beacon_*` and
//! `netsim_route_memo_*` counter, the reconvergence-loss, failover-reroute
//! and policy-unrouted counters, every bucket and the sum of
//! `beacon_reported_ms`, and the `study.beacon` span count read what
//! per-event recording gives, at workers 1, 2 and 3 and block lengths 1, 7
//! and 512.
//!
//! A dedicated integration-test binary, one test: nothing else records
//! into the global registry while the capture windows are open.

use std::collections::BTreeMap;

use anycast_core::{Study, StudyConfig};
use anycast_netsim::{Day, WorldGenConfig};
use anycast_obs::HistogramSnapshot;
use anycast_workload::{Scenario, ScenarioConfig};

/// The anycast lookup outcomes a worker tallies beside its memo hits and
/// misses: site-down lookups, direct or through a snapshot, add to these.
const ROUTE_OUTCOMES: [&str; 3] = [
    "netsim_reconvergence_losses_total",
    "netsim_failover_reroutes_total",
    "netsim_policy_unrouted_total",
];

/// What a pair of days leaves in the registry, for the metrics a worker
/// flushes: nonzero counters by name, the histogram, the span count.
#[derive(Debug, PartialEq)]
struct Flushed {
    counters: BTreeMap<String, u64>,
    reported_ms: HistogramSnapshot,
    beacon_spans: u64,
}

fn two_days(world: &ScenarioConfig, workers: usize, block: usize) -> Flushed {
    let scenario = Scenario::build(world.clone()).expect("valid config");
    let ((), delta) = anycast_obs::capture(|| {
        let cfg = StudyConfig {
            workers,
            ..StudyConfig::default()
        };
        let mut study = Study::new(scenario, cfg);
        for day in Day(0).span(2) {
            study.run_day_in_blocks(day, block);
        }
    });
    let flushed = |name: &str| {
        name.starts_with("beacon_")
            || name.starts_with("netsim_route_memo_")
            || ROUTE_OUTCOMES.contains(&name)
    };
    Flushed {
        counters: delta
            .counters
            .iter()
            .filter(|&(k, &v)| flushed(&k.name) && v > 0)
            .map(|(k, &v)| (k.to_string(), v))
            .collect(),
        reported_ms: delta
            .histograms
            .iter()
            .find(|(k, _)| k.name == "beacon_reported_ms")
            .map(|(_, h)| h.clone())
            .unwrap_or_default(),
        beacon_spans: delta
            .spans
            .iter()
            .filter(|(k, _)| k.name == "study.beacon")
            .map(|(_, s)| s.count)
            .sum(),
    }
}

#[test]
fn day_metrics_are_the_same_at_any_worker_count_and_block_length() {
    anycast_obs::set_enabled(true);
    let default_world = ScenarioConfig::small(7);
    let mut outage_world = ScenarioConfig::small(14);
    outage_world.net.p_site_outage = 0.25;
    outage_world.net.p_site_drain = 0.15;
    let mut policy_world = ScenarioConfig::small(7);
    policy_world.net.worldgen = Some(WorldGenConfig::with_ases(1_000));
    // Policy routing under site outages and frequent route dynamics: both
    // the memoized dynamics answers and the site-down lookups tally
    // outcomes.
    let mut policy_outage_world = outage_world.clone();
    policy_outage_world.net.worldgen = Some(WorldGenConfig {
        p_session_flap: 0.2,
        p_border_flap: 0.1,
        ..WorldGenConfig::with_ases(1_000)
    });
    for (world, cfg) in [
        ("default", default_world),
        ("outages", outage_world),
        ("policy", policy_world),
        ("policy outages", policy_outage_world),
    ] {
        let want = two_days(&cfg, 1, 512);
        let executions = want.counters["beacon_executions_total"];
        assert!(executions > 1_000, "{world}: only {executions} beacons");
        assert_eq!(want.beacon_spans, executions, "{world}");
        assert_eq!(want.reported_ms.count(), 4 * executions, "{world}");
        if world.contains("outages") {
            assert!(want.counters.contains_key("beacon_fetch_retries_total"));
            assert!(want.counters.contains_key("netsim_route_memo_misses_total"));
            assert!(want.counters.contains_key("netsim_failover_reroutes_total"));
        }
        for workers in [1, 2, 3] {
            for block in [1, 7, 512] {
                assert_eq!(
                    two_days(&cfg, workers, block),
                    want,
                    "{world}: {workers} worker(s), blocks of {block}"
                );
            }
        }
    }
}
