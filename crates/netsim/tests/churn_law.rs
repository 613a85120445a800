//! The churn law on policy worlds: the table's AS paths stand, rank 0 is
//! the table's own ingress, rank 1 is the runner-up live border of the
//! session the path ends on, and a week's switches fall on weekdays.

use anycast_netsim::worldgen::{CatchmentTable, RouteEnv};
use anycast_netsim::{
    AccessTech, BorderId, ClientAttachment, Day, Internet, NetConfig, PolicyWorld, RouteSnapshot,
    RouteTally, WorldGenConfig,
};

fn policy_world(seed: u64) -> Internet {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig::with_ases(1_000)),
        ..NetConfig::small()
    };
    Internet::new(cfg, seed).unwrap()
}

/// One client per hosting AS, at its first point of presence.
fn hosted_clients(net: &Internet) -> Vec<ClientAttachment> {
    let topo = net.topology();
    topo.eyeballs()
        .filter(|e| !e.pops.is_empty())
        .map(|e| ClientAttachment {
            as_id: e.id,
            metro: e.pops[0],
            location: topo.atlas.metro(e.pops[0]).location(),
            access: AccessTech::Cable,
        })
        .collect()
}

/// The rank-1 ingress of `v` by brute force: the borders of the session
/// its path ends on that `live` keeps, sorted by distance from the metro
/// the hot-potato rule reads (the adjacent AS's own when `v` is adjacent,
/// else that of the AS one hop before it) and then by id; the second, or
/// the first when it is alone.
fn runner_up(
    net: &Internet,
    pw: &PolicyWorld,
    table: &CatchmentTable,
    v: u32,
    live: impl Fn(BorderId) -> bool,
) -> BorderId {
    let path = table.path(v);
    let adjacent = *path.last().unwrap();
    let seen_from = path[path.len().saturating_sub(2)];
    let metro = pw.graph.home_metro[seen_from as usize];
    let cdn = &net.topology().cdn;
    let atlas = &net.topology().atlas;
    let mut borders: Vec<(f64, BorderId)> = pw
        .graph
        .session(adjacent)
        .unwrap()
        .borders
        .iter()
        .filter(|&&b| live(b))
        .map(|&b| (atlas.metro_km(metro, cdn.border_metro(b)), b))
        .collect();
    borders.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    borders.get(1).unwrap_or(&borders[0]).1
}

#[test]
fn rank_one_moves_only_the_ingress_to_the_sessions_runner_up() {
    for seed in 1..=3 {
        let net = policy_world(seed);
        let pw = net.policy_world().unwrap();
        let n_borders = net.topology().cdn.borders.len() as u16;
        // The steady environment, and one that withdraws two borders.
        let withdrawn = vec![BorderId(seed as u16 % n_borders), BorderId(n_borders - 1)];
        let envs = [
            RouteEnv::default(),
            RouteEnv {
                withdrawn,
                ..RouteEnv::default()
            },
        ];
        let mut moved = 0;
        for env in &envs {
            let table = pw.table_for(env);
            let before = table.entries().into_owned();
            for v in 0..pw.graph.n {
                let Some(e) = table.entry(v) else {
                    assert_eq!(pw.ingress_at(&table, env, v, 1), None);
                    continue;
                };
                assert_eq!(pw.ingress_at(&table, env, v, 0), Some(BorderId(e.ingress)));
                let live = |b: BorderId| env.withdrawn.binary_search(&b).is_err();
                let rank1 = pw.ingress_at(&table, env, v, 1).unwrap();
                assert_eq!(rank1, runner_up(&net, pw, &table, v, live), "AS {v}");
                moved += usize::from(rank1.0 != e.ingress);
            }
            // Reading rank 1 leaves every AS path as it was.
            assert_eq!(table.entries().into_owned(), before);
        }
        assert!(
            moved > 100,
            "seed {seed}: rank 1 moved only {moved} ingresses"
        );
    }
}

#[test]
fn a_policy_world_switches_on_weekdays_more_than_on_weekends() {
    let (mut weekday, mut weekend) = ([0usize; 2], [0usize; 2]);
    for seed in 1..=3 {
        let net = policy_world(seed);
        for c in hosted_clients(&net) {
            for day in Day(0).span(14) {
                let today = net.anycast_day(&c, day);
                if let Some((_, before)) = today.switch {
                    // A flip moves the ingress, never the AS path.
                    assert_eq!(before.via_transit, today.route.via_transit);
                    assert_eq!(before.handoff_metro, today.route.handoff_metro);
                }
                let tally = if day.weekday().is_weekend() {
                    &mut weekend
                } else {
                    &mut weekday
                };
                tally[0] += 1;
                tally[1] += usize::from(today.switch.is_some());
            }
        }
    }
    let share = |t: [usize; 2]| t[1] as f64 / t[0] as f64;
    assert!(
        share(weekday) > 2.0 * share(weekend) && share(weekday) > 0.02,
        "weekday {:.4} vs weekend {:.4}",
        share(weekday),
        share(weekend)
    );
}

/// A withdrawn border can move a client on a flip day whose AS keeps its
/// route: its runner-up border was the withdrawn one. The day's snapshot
/// must answer it as the direct lookup does.
#[test]
fn the_snapshot_answers_flip_day_clients_under_a_withdrawn_border() {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig {
            p_border_flap: 0.3,
            ..WorldGenConfig::with_ases(1_000)
        }),
        ..NetConfig::small()
    };
    let net = Internet::new(cfg, 5).unwrap();
    let pw = net.policy_world().unwrap();
    let clients = hosted_clients(&net);
    let mut flip_only = 0;
    for day in Day(0).span(3) {
        let snap = RouteSnapshot::build(&net, &clients, day);
        let mut tally = RouteTally::default();
        for w in pw.events_on(day).iter() {
            let t = (w.start_s + w.end_s) / 2.0;
            let env = pw.env_at(day, t, &[]);
            let (steady, table) = (pw.steady_table(), pw.table_for(&env));
            for (i, c) in clients.iter().enumerate() {
                let direct = net.anycast_route_at(c, day, t);
                assert_eq!(
                    snap.anycast_at(&net, i, t, &mut tally),
                    direct,
                    "{c:?} at {t}"
                );
                let kept = table.entry(c.as_id.0) == steady.entry(c.as_id.0);
                flip_only += usize::from(kept && direct != Some(*snap.steady_anycast(i)));
            }
        }
    }
    assert!(
        flip_only > 0,
        "no withdrawn border moved a flip-day client alone"
    );
}
