//! The failover tallies of a memoized day, pinned to the direct path's.
//!
//! `RouteSnapshot::anycast_at` answers route-dynamics segments from its
//! own overrides without calling the `Internet`, so it has to keep the
//! counters `Internet::anycast_route_at` would have kept; and
//! `RouteSnapshot::unicast_at` routes a site outside the client's row on
//! the spot, which it has to count as a memo miss. This file is a
//! dedicated integration-test binary: `obs::capture` serializes capture
//! windows and nothing else runs in this process, so exact deltas are safe.

mod common;

use anycast_netsim::{Day, RouteSnapshot, RouteTally, SiteId};
use common::{clients_sharing_ases, flappy_world, probe_times};

const TALLIES: [&str; 3] = [
    "netsim_failover_reroutes_total",
    "netsim_policy_unrouted_total",
    "netsim_reconvergence_losses_total",
];

#[test]
fn memoized_lookups_keep_the_direct_paths_tallies() {
    anycast_obs::set_enabled(true);
    let mut moved = [0u64; 3];
    for seed in 0..2 {
        let net = flappy_world(seed);
        let clients = clients_sharing_ases(&net, 0, 6);
        for day in Day(0).span(2) {
            let snap = RouteSnapshot::build(&net, &clients, day);
            let times = probe_times(&net, day);
            let (memo_routes, memo) = anycast_obs::capture(|| {
                let mut routes = Vec::new();
                let mut tally = RouteTally::default();
                for &t in &times {
                    for i in 0..clients.len() {
                        routes.push(snap.anycast_at(&net, i, t, &mut tally));
                    }
                }
                tally.flush();
                routes
            });
            let (direct_routes, direct) = anycast_obs::capture(|| {
                let mut routes = Vec::new();
                for &t in &times {
                    for c in &clients {
                        routes.push(net.anycast_route_at(c, day, t));
                    }
                }
                routes
            });
            assert_eq!(memo_routes, direct_routes, "seed {seed} {day:?}");
            for (n, name) in TALLIES.iter().enumerate() {
                assert_eq!(
                    memo.counter(name),
                    direct.counter(name),
                    "{name} differs on seed {seed} {day:?}"
                );
                moved[n] += direct.counter(name);
            }
            // The memo answered every dynamics-only instant itself.
            assert!(memo.counter("netsim_route_memo_hits_total") > 0);
            assert!(
                memo.counter("netsim_catchment_incremental_recomputes_total")
                    <= memo.counter("netsim_route_memo_misses_total"),
                "a lookup outside a site down-window reached the catchment engine"
            );

            // Unicast, from rows that declare two sites a client: a stored
            // decision is a hit, and a lookup the snapshot could not answer
            // from its row — the site is down, or was never declared and
            // is routed on the spot — is a miss, never silent.
            let sites: Vec<SiteId> = net.topology().cdn.site_ids().collect();
            let row = |c: usize| &sites[c % 5..c % 5 + 2];
            let rows = RouteSnapshot::build_rows(&net, &clients, day, 1, row);
            let lookups = || {
                times.iter().flat_map(|&t| {
                    let sites = &sites;
                    (0..clients.len()).flat_map(move |i| sites.iter().map(move |&s| (t, i, s)))
                })
            };
            let (memo_routes, memo) = anycast_obs::capture(|| {
                let mut tally = RouteTally::default();
                let routes = lookups()
                    .map(|(t, i, s)| rows.unicast_at(&net, i, s, t, &mut tally))
                    .collect::<Vec<_>>();
                tally.flush();
                routes
            });
            let (direct_routes, direct) = anycast_obs::capture(|| {
                lookups()
                    .map(|(t, i, s)| net.unicast_route_at(&clients[i], s, day, t))
                    .collect::<Vec<_>>()
            });
            assert_eq!(memo_routes, direct_routes, "seed {seed} {day:?}");
            let stored = lookups()
                .filter(|&(t, i, s)| row(i).contains(&s) && !net.outages().is_down(s, day, t))
                .count() as u64;
            assert!(stored > 0);
            assert_eq!(memo.counter("netsim_route_memo_hits_total"), stored);
            assert_eq!(
                memo.counter("netsim_route_memo_misses_total"),
                lookups().count() as u64 - stored
            );
            for name in TALLIES {
                assert_eq!(memo.counter(name), direct.counter(name), "{name}");
            }
        }
    }
    // Not vacuous: the probed days rerouted clients and lost requests to
    // reconvergence.
    assert!(
        moved[0] > 0 && moved[2] > 0,
        "tallies never moved: {moved:?}"
    );
}
