//! What warming a world's catchment tables costs, counted in nodes
//! relaxed rather than read off a clock: two full passes (the steady
//! table and the unicast base) plus one cone per site — never a full pass
//! per site — and the same count whatever the worker count.
//!
//! A dedicated integration-test binary, one test: nothing else records
//! into the global registry while the capture windows are open.

use anycast_netsim::{BorderId, Internet, NetConfig, WorldGenConfig};

const N_ASES: usize = 10_000;

fn fresh_world() -> Internet {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig::with_ases(N_ASES)),
        ..NetConfig::default()
    };
    Internet::new(cfg, 3).unwrap()
}

#[test]
fn warming_relaxes_two_passes_and_one_cone_per_site() {
    anycast_obs::set_enabled(true);
    let n = N_ASES as u64;
    let mut relaxed_at = Vec::new();
    for workers in [1usize, 2, 8] {
        let net = fresh_world();
        let pw = net.policy_world().unwrap();
        let cdn = &net.topology().cdn;
        let mut borders: Vec<BorderId> = cdn
            .site_ids()
            .map(|s| cdn.unicast_announcement_border(s))
            .collect();
        let ((), warm) = anycast_obs::capture(|| pw.warm_tables(&borders, workers));
        borders.sort_unstable();
        borders.dedup();
        let sites = borders.len() as u64;
        assert!(sites >= 40, "only {sites} announcement borders");

        let relaxed = warm.counter("netsim_catchment_nodes_relaxed_total");
        assert!(relaxed > 2 * n, "{relaxed} nodes: no cone was relaxed");
        assert!(
            (relaxed as f64) < 0.15 * (1 + sites) as f64 * n as f64,
            "{relaxed} nodes relaxed for {sites} sites over {n} ASes: \
             unicast tables are costing full passes again"
        );
        // Each table is a memo miss as a from-scratch compute was, the
        // base is nobody's table, and a derivation is not an event.
        assert_eq!(
            warm.counter("netsim_catchment_cache_misses_total"),
            1 + sites
        );
        assert_eq!(warm.counter("netsim_catchment_cache_hits_total"), 0);
        assert_eq!(
            warm.counter("netsim_catchment_incremental_recomputes_total"),
            0
        );
        relaxed_at.push(relaxed);

        // Warm again: every table is held, nothing is counted.
        let ((), again) = anycast_obs::capture(|| pw.warm_tables(&borders, workers));
        assert_eq!(again.counter("netsim_catchment_nodes_relaxed_total"), 0);
        assert_eq!(again.counter("netsim_catchment_cache_hits_total"), 0);
    }
    assert!(
        relaxed_at.iter().all(|&r| r == relaxed_at[0]),
        "work depends on the worker count: {relaxed_at:?}"
    );

    // Two threads asking a fresh world for one table: one base pass and
    // one cone between them, the second caller a hit.
    let net = fresh_world();
    let pw = net.policy_world().unwrap();
    let ((), raced) = anycast_obs::capture(|| {
        std::thread::scope(|scope| {
            scope.spawn(|| pw.unicast_table(BorderId(0)));
            pw.unicast_table(BorderId(0));
        })
    });
    let relaxed = raced.counter("netsim_catchment_nodes_relaxed_total");
    assert!((n..2 * n).contains(&relaxed), "{relaxed} nodes relaxed");
    assert_eq!(raced.counter("netsim_catchment_cache_misses_total"), 1);
    assert_eq!(raced.counter("netsim_catchment_cache_hits_total"), 1);
}
