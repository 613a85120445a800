//! A route snapshot answers the same whatever rows it was built from.
//!
//! `RouteSnapshot::build_rows` stores, per client, the unicast decisions
//! of the sites its caller declared; a lookup outside the row is routed on
//! the spot. So the rows may decide what a lookup costs and never what it
//! returns: for every row shape below, every client, every site (inside
//! its row and outside) and every instant at which the day's routing can
//! change, the snapshot must answer like the all-sites snapshot and like
//! the `Internet` itself — and hold the same arrays at any worker count.

mod common;

use anycast_netsim::{
    ClientAttachment, Day, Internet, NetConfig, RouteSnapshot, RouteTally, SiteId, WorldGenConfig,
};
use common::{clients_sharing_ases, probe_times};

/// The small default (distance-ranked) world with site outages and drains.
fn outage_world() -> Internet {
    let cfg = NetConfig {
        p_site_outage: 0.25,
        p_site_drain: 0.15,
        ..NetConfig::small()
    };
    Internet::new(cfg, 11).unwrap()
}

/// A 1,000-AS policy world whose sessions flap and whose sites fail
/// several times a day.
fn flapping_policy_world() -> Internet {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig {
            p_session_flap: 0.1,
            p_border_flap: 0.05,
            ..WorldGenConfig::with_ases(1_000)
        }),
        p_site_outage: 0.2,
        p_site_drain: 0.1,
        ..NetConfig::small()
    };
    Internet::new(cfg, 3).unwrap()
}

/// Named row shapes: what each declares for every client.
fn row_shapes(
    net: &Internet,
    clients: &[ClientAttachment],
) -> Vec<(&'static str, Vec<Vec<SiteId>>)> {
    let sites: Vec<SiteId> = net.topology().cdn.site_ids().collect();
    let nearest = |c: &ClientAttachment, k: usize| -> Vec<SiteId> {
        let mut by_km: Vec<(f64, SiteId)> = sites
            .iter()
            .map(|&s| (net.client_site_km(c, s), s))
            .collect();
        by_km.sort_by(|a, b| a.0.total_cmp(&b.0));
        by_km.into_iter().take(k).map(|(_, s)| s).collect()
    };
    let per_client = |row: &dyn Fn(usize, &ClientAttachment) -> Vec<SiteId>| -> Vec<Vec<SiteId>> {
        clients.iter().enumerate().map(|(i, c)| row(i, c)).collect()
    };
    let one = |i: usize| sites[(i * 5 + 1) % sites.len()];
    let twice = |i: usize| vec![one(i), sites[(i + 2) % sites.len()], one(i)];
    vec![
        ("empty", per_client(&|_, _| Vec::new())),
        ("one site", per_client(&|i, _| vec![one(i)])),
        ("ten nearest", per_client(&|_, c| nearest(c, 10))),
        ("every site", per_client(&|_, _| sites.clone())),
        (
            "every site, reversed",
            per_client(&|_, _| sites.iter().rev().copied().collect()),
        ),
        ("a site listed twice", per_client(&|i, _| twice(i))),
        // As many entries as there are sites, but not one of each.
        (
            "a full-length row with a repeat",
            per_client(&|i, _| {
                let mut row = sites.clone();
                row[0] = one(i);
                row
            }),
        ),
        // Neighbouring clients with rows of every length, so a wrong
        // offset reads a neighbour's decisions.
        (
            "mixed",
            per_client(&|i, c| match i % 5 {
                0 => Vec::new(),
                1 => nearest(c, 3),
                2 => sites.clone(),
                3 => twice(i),
                _ => vec![one(i)],
            }),
        ),
    ]
}

fn rows_never_change_an_answer(net: &Internet, days: u32) {
    let clients = clients_sharing_ases(net, 0, 4);
    let sites: Vec<SiteId> = net.topology().cdn.site_ids().collect();
    let shapes = row_shapes(net, &clients);
    let mut edges = 0;
    for day in Day(0).span(days) {
        let times = probe_times(net, day);
        edges += times.len() - 48;
        // What the `Internet` answers, asked once: anycast per (instant,
        // client), unicast per (instant, client, site).
        let mut direct_anycast = Vec::new();
        let mut direct_unicast = Vec::new();
        for &t in &times {
            for c in &clients {
                direct_anycast.push(net.anycast_route_at(c, day, t));
                direct_unicast.extend(sites.iter().map(|&s| net.unicast_route_at(c, s, day, t)));
            }
        }
        let agrees = |snap: &RouteSnapshot, shape: &str| {
            let mut anycast = direct_anycast.iter();
            let mut unicast = direct_unicast.iter();
            let mut tally = RouteTally::default();
            for &t in &times {
                for i in 0..clients.len() {
                    assert_eq!(
                        snap.anycast_at(net, i, t, &mut tally),
                        *anycast.next().unwrap(),
                        "{shape}: anycast of client {i} at {t} on {day:?}"
                    );
                    for &s in &sites {
                        assert_eq!(
                            snap.unicast_at(net, i, s, t, &mut tally),
                            *unicast.next().unwrap(),
                            "{shape}: client {i} site {s:?} at {t} on {day:?}"
                        );
                    }
                }
            }
            tally.flush();
        };
        agrees(&RouteSnapshot::build(net, &clients, day), "all sites");
        for (shape, rows) in &shapes {
            let build = |workers| {
                RouteSnapshot::build_rows(net, &clients, day, workers, |c| rows[c].as_slice())
            };
            let snap = build(1);
            for workers in [2, 3] {
                assert!(
                    build(workers) == snap,
                    "{shape}: {workers} workers built another snapshot on {day:?}"
                );
            }
            agrees(&snap, shape);
        }
    }
    assert!(edges > 0, "no window opened on any probed day");
}

#[test]
fn rows_never_change_an_answer_in_an_outage_world() {
    rows_never_change_an_answer(&outage_world(), 3);
}

#[test]
fn rows_never_change_an_answer_in_a_flapping_policy_world() {
    rows_never_change_an_answer(&flapping_policy_world(), 2);
}
