//! Property tests for the Internet substrate: routing invariants that must
//! hold over *any* generated world.

use anycast_geo::MetroId;
use anycast_netsim::latency::{FIBER_KM_PER_MS, FIBER_PATH_STRETCH};
use anycast_netsim::worldgen::dynamics::flips_on;
use anycast_netsim::worldgen::{
    route_class, CdnRelation, Csr, RouteDynamics, RouteEnv, Sessions, CDN_NEXT, NO_SESSION,
};
use anycast_netsim::{
    AccessTech, AsClass, BorderId, CatchmentTable, ClientAttachment, Day, HopKind, Internet,
    NetConfig, OutageKind, OutageModel, PolicyGraph, PolicyWorld, Prefix24, PrefixAllocator,
    RouteSnapshot, RouteTally, SiteId, Topology, WorldGenConfig,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod common;
use common::{clients_sharing_ases, flappy_world, policy_client, probe_times};

fn world(seed: u64) -> Internet {
    Internet::new(NetConfig::small(), seed).unwrap()
}

fn policy_world(n_ases: usize, seed: u64) -> Internet {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig::with_ases(n_ases)),
        ..NetConfig::small()
    };
    Internet::new(cfg, seed).unwrap()
}

/// Checks that every entry of `table` is the Gao-Rexford best of what its
/// neighbours' entries *in the same table* offer under `env`, in order of
/// preference: its own live transit session (a customer route of length
/// 1), a customer holding a customer route, its own live peering session,
/// a peer holding a customer route, any routed provider — within a class
/// the lowest `(path_len, next_hop)`. A node is unrouted iff nothing is
/// offered. Routes enter at the one live border of a single-border
/// announcement, else at the nearest live border (ties by id) of the
/// terminal AS's session, seen from the home metro of the AS one hop
/// before it (its own when the node is the terminal AS).
///
/// The provider graph is a DAG, so each phase's fixpoint is unique: a table
/// that is locally best at every node is *the* table of `env`. It is also
/// valley-free: customer routes flow down customer edges, peer routes take
/// exactly one lateral step into a customer-routed AS, provider routes
/// climb provider edges — every forwarding path is `Provider* Peer?
/// Customer*` — and every path ends on a session that lists its ingress.
fn assert_locally_best(
    pw: &PolicyWorld,
    topo: &Topology,
    env: &RouteEnv,
    table: &CatchmentTable,
) -> Result<(), TestCaseError> {
    use route_class::{CUSTOMER, PEER, PROVIDER};
    let g = &pw.graph;
    let live =
        |b: &&BorderId| env.only_border.is_none_or(|o| o == **b) && !env.withdrawn.contains(b);
    let direct = |v: u32, relation| {
        let dead = env.dead_sessions.contains(&g.session_of[v as usize]);
        let s = g
            .session(v)
            .filter(|s| !dead && s.borders.iter().any(|b| live(&b)));
        s.is_some_and(|s| s.relation == relation)
    };
    for v in 0..g.n {
        let classes = [
            (
                CUSTOMER,
                Some(CdnRelation::Transit),
                g.customers.neighbors(v),
            ),
            (PEER, Some(CdnRelation::Peer), g.peers.neighbors(v)),
            (PROVIDER, None, g.providers.neighbors(v)),
        ];
        let best = classes.into_iter().find_map(|(class, relation, from)| {
            let own = relation.filter(|&r| direct(v, r)).map(|_| (1, CDN_NEXT));
            let learned = from.iter().filter_map(|&u| {
                let e = table
                    .entry(u)
                    .filter(|e| class == PROVIDER || e.class == CUSTOMER)?;
                Some((e.path_len + 1, u))
            });
            learned.chain(own).min().map(|(len, hop)| (class, len, hop))
        });
        let entry = table.entry(v);
        let got = entry.map(|e| (e.class, e.path_len, e.next_hop));
        prop_assert_eq!(got, best, "node {}", v);
        let Some(e) = entry else { continue };
        let path = table.path(v);
        prop_assert_eq!(path.len(), usize::from(e.path_len), "path of node {}", v);
        let seen_from = path.len().checked_sub(2).map_or(v, |i| path[i]);
        let km = topo.atlas.metro_km_from(g.home_metro[seen_from as usize]);
        let km = |b: &&BorderId| km[topo.cdn.border_metro(**b).0 as usize];
        let terminal = g.session(path[path.len() - 1]).unwrap().borders.iter();
        let nearest = terminal
            .filter(live)
            .min_by(|a, b| km(a).total_cmp(&km(b)).then(a.cmp(b)));
        let ingress = env.only_border.filter(|b| live(&b)).or(nearest.copied());
        prop_assert_eq!(Some(BorderId(e.ingress)), ingress, "ingress of node {}", v);
    }
    Ok(())
}

/// A deterministic pseudo-random disturbance over `n_borders` borders:
/// up to five overlapping session flaps, borders withdrawn as a border flap
/// or a site outage would (any border, not only a flapped session's), and
/// one time in eight the announcement pinned to one border.
fn arbitrary_env(pw: &PolicyWorld, n_borders: usize, env_seed: u64) -> RouteEnv {
    let mix = |k: u64| {
        let mut z = env_seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    let (n_sessions, n_borders) = (pw.graph.sessions.len() as u64, n_borders as u64);
    let mut env = RouteEnv::default();
    for i in 0..(mix(1) % 6) {
        env.dead_sessions.push((mix(100 + i) % n_sessions) as u32);
    }
    if mix(3) % 3 == 0 {
        for i in 0..=(mix(4) % 3) {
            env.withdrawn
                .push(BorderId((mix(300 + i) % n_borders) as u16));
        }
    }
    if mix(5) % 8 == 0 {
        env.only_border = Some(BorderId((mix(400) % n_borders) as u16));
    }
    env.dead_sessions.sort_unstable();
    env.dead_sessions.dedup();
    env.withdrawn.sort_unstable();
    env.withdrawn.dedup();
    env
}

fn client_of(net: &Internet, idx: usize, offset_km: f64) -> ClientAttachment {
    let eyeballs = net.topology().eyeballs();
    let e = eyeballs.clone().nth(idx % eyeballs.len()).unwrap();
    let metro = e.pops[idx % e.pops.len()];
    ClientAttachment {
        as_id: e.id,
        metro,
        location: net
            .topology()
            .atlas
            .metro(metro)
            .location()
            .destination((idx as f64 * 37.0) % 360.0, offset_km),
        access: AccessTech::sample((idx as f64 * 0.137) % 1.0),
    }
}

fn well_formed_anycast_route(seed: u64, idx: usize, day: u32) -> Result<(), TestCaseError> {
    let net = world(seed);
    let c = client_of(&net, idx, 25.0);
    let d = net.anycast_route(&c, Day(day));
    // Site is a real site; ingress a real border.
    prop_assert!((d.site.0 as usize) < net.topology().cdn.sites.len());
    prop_assert!((d.ingress.0 as usize) < net.topology().cdn.borders.len());
    // Path shape: starts at the client, ends at the chosen site.
    let path = net.path_of(&c, &d);
    let hops = path.hops();
    prop_assert!(hops.len() >= 3);
    prop_assert_eq!(hops[0].kind, HopKind::ClientAccess);
    let last = hops.last().unwrap();
    prop_assert_eq!(last.kind, HopKind::FrontEnd);
    prop_assert_eq!(last.metro, net.topology().cdn.site_metro(d.site));
    // Latency is at least two-way stretched propagation over the path.
    let floor = 2.0 * path.total_km() * FIBER_PATH_STRETCH / FIBER_KM_PER_MS;
    prop_assert!(d.base_rtt_ms >= floor - 1e-9);
    prop_assert!(d.base_rtt_ms.is_finite());
    Ok(())
}

fn deterministic_day_route(seed: u64, idx: usize, day: u32) -> Result<(), TestCaseError> {
    let net = world(seed);
    let c = client_of(&net, idx, 10.0);
    let route = net.anycast_route(&c, Day(day));
    prop_assert_eq!(route, net.anycast_route(&c, Day(day)));
    Ok(())
}

fn day_start_route_on_flip_days(seed: u64, idx: usize, day: u32) -> Result<(), TestCaseError> {
    let net = world(seed);
    let c = client_of(&net, idx, 10.0);
    let today = net.anycast_day(&c, Day(day));
    prop_assert_eq!(today.route, net.anycast_route(&c, Day(day)));
    let start = *today.at(0.0);
    if !flips_on(seed, c.as_id, c.metro, Day(day)) {
        prop_assert!(today.switch.is_none());
        prop_assert_eq!(start, today.route);
    }
    Ok(())
}

fn deterministic_policy_route(seed: u64, idx: usize, day: u32) -> Result<(), TestCaseError> {
    // Two independently built worlds from the same seed agree on every
    // route — and the steady table is one shared allocation across
    // days (the cross-day memoization the cache counters track).
    let a = policy_world(800, seed);
    let b = policy_world(800, seed);
    let ca = policy_client(&a, idx);
    let cb = policy_client(&b, idx);
    let route = a.anycast_route(&ca, Day(day));
    prop_assert_eq!(route, b.anycast_route(&cb, Day(day)));
    let pa = a.policy_world().unwrap();
    let before = pa.steady_table();
    for d in 0..4 {
        let _ = a.anycast_route(&ca, Day(d));
    }
    prop_assert!(std::sync::Arc::ptr_eq(&before, &pa.steady_table()));
    Ok(())
}

/// The case a proptest run once saved (seed 4, idx 5, day 3), run through
/// every property that draws `(seed, idx, day)`.
#[test]
fn the_saved_case_holds_for_every_seed_idx_day_property() {
    for property in [
        well_formed_anycast_route,
        deterministic_day_route,
        day_start_route_on_flip_days,
        deterministic_policy_route,
    ] {
        property(4, 5, 3).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn anycast_routes_are_well_formed(seed in 0u64..20, idx in 0usize..200, day in 0u32..14) {
        well_formed_anycast_route(seed, idx, day)?;
    }

    #[test]
    fn unicast_routes_serve_the_requested_site(seed in 0u64..10, idx in 0usize..100, site_pick in 0usize..12) {
        let net = world(seed);
        let c = client_of(&net, idx, 30.0);
        let sites: Vec<_> = net.topology().cdn.site_ids().collect();
        let site = sites[site_pick % sites.len()];
        let d = net.unicast_route(&c, site, Day(0));
        prop_assert_eq!(d.site, site);
        let path = net.path_of(&c, &d);
        prop_assert_eq!(
            path.hops().last().unwrap().metro,
            net.topology().cdn.site_metro(site)
        );
    }

    #[test]
    fn routing_day_determinism(seed in 0u64..10, idx in 0usize..100, day in 0u32..28) {
        deterministic_day_route(seed, idx, day)?;
    }

    #[test]
    fn day_start_route_differs_only_on_flip_days(seed in 0u64..8, idx in 0usize..80, day in 1u32..14) {
        day_start_route_on_flip_days(seed, idx, day)?;
    }

    #[test]
    fn idealized_world_is_pathology_free(seed in 0u64..6, idx in 0usize..60) {
        let net = world(seed);
        let c = client_of(&net, idx, 10.0);
        // No churn: every day with no switch and no IGP episode routes
        // identically.
        let d0 = net.anycast_route(&c, Day(0));
        let calm = |day| {
            net.anycast_day(&c, Day(day)).switch.is_none()
                && !net.igp_episode_on(d0.ingress, Day(day))
        };
        if calm(0) {
            for day in (1..10).filter(|&d| calm(d)) {
                prop_assert_eq!(net.anycast_route(&c, Day(day)).site, d0.site);
            }
        }
    }

    #[test]
    fn sampled_rtts_always_exceed_base(seed in 0u64..6, idx in 0usize..60, noise_seed in any::<u64>()) {
        use rand::SeedableRng;
        let net = world(seed);
        let c = client_of(&net, idx, 10.0);
        let d = net.anycast_route(&c, Day(0));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(noise_seed);
        for _ in 0..20 {
            let rtt = net.sample_rtt(&d, &mut rng);
            prop_assert!(rtt > d.base_rtt_ms);
            prop_assert!(rtt.is_finite());
        }
    }

    #[test]
    fn prefix_allocator_never_repeats(n in 1usize..2000) {
        let mut alloc = PrefixAllocator::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n {
            let p: Prefix24 = alloc.alloc();
            prop_assert!(seen.insert(p));
        }
    }

    #[test]
    fn outage_schedule_is_deterministic_and_well_formed(
        seed in any::<u64>(),
        rate in 0.0f64..0.5,
        site in 0u16..64,
        day in 0u32..365,
    ) {
        let cfg = NetConfig {
            p_site_outage: rate,
            p_site_drain: rate * 0.5,
            ..NetConfig::small()
        };
        let a = OutageModel::new(&cfg, seed);
        let b = OutageModel::new(&cfg, seed);
        let win = a.window_on(SiteId(site), Day(day));
        // Pure function of (seed, site, day): replays agree bit-for-bit.
        prop_assert_eq!(win, b.window_on(SiteId(site), Day(day)));
        if let Some(w) = win {
            // Windows sit inside the day and never span midnight.
            prop_assert!(w.start_s >= 0.0);
            prop_assert!(w.start_s < w.end_s);
            prop_assert!(w.end_s <= 86_400.0);
            // is_down agrees with the window over the whole day.
            for probe in [w.start_s, w.end_s - 1e-6, (w.start_s + w.end_s) / 2.0] {
                prop_assert!(a.is_down(SiteId(site), Day(day), probe));
            }
            prop_assert!(!a.is_down(SiteId(site), Day(day), w.end_s));
        } else {
            prop_assert!(!a.is_down(SiteId(site), Day(day), 43_200.0));
        }
    }

    #[test]
    fn outage_fraction_tracks_the_configured_rate(
        seed in any::<u64>(),
        rate in 0.05f64..0.45,
    ) {
        let cfg = NetConfig { p_site_outage: rate, ..NetConfig::small() };
        let m = OutageModel::new(&cfg, seed);
        let (n_sites, n_days) = (16u16, 200u32);
        let mut outages = 0u32;
        for s in 0..n_sites {
            for d in 0..n_days {
                if matches!(
                    m.window_on(SiteId(s), Day(d)),
                    Some(w) if w.kind == OutageKind::Unplanned
                ) {
                    outages += 1;
                }
            }
        }
        let frac = f64::from(outages) / f64::from(u32::from(n_sites) * n_days);
        // 3 200 draws: the observed fraction must sit well within
        // binomial noise of the configured probability (±5σ ≈ 0.045).
        prop_assert!((frac - rate).abs() < 0.05, "fraction {frac} vs rate {rate}");
    }

    #[test]
    fn catchments_never_point_at_down_sites(
        seed in 0u64..6,
        idx in 0usize..60,
        day in 0u32..10,
        slot in 0u32..24,
    ) {
        let cfg = NetConfig {
            p_site_outage: 0.3,
            p_site_drain: 0.2,
            ..NetConfig::small()
        };
        let net = Internet::new(cfg, seed).unwrap();
        let c = client_of(&net, idx, 20.0);
        let t = (f64::from(slot) + 0.5) * 3_600.0;
        // Anycast only ever resolves to a live site — failover is routing's
        // job, so a Some(..) answer must be servable.
        if let Some(d) = net.anycast_route_at(&c, Day(day), t) {
            prop_assert!(!net.outages().is_down(d.site, Day(day), t));
        }
        // Unicast has no such escape hatch: a down site is unreachable for
        // the whole window.
        for site in net.topology().cdn.site_ids() {
            if net.outages().is_down(site, Day(day), t) {
                prop_assert!(net.unicast_route_at(&c, site, Day(day), t).is_none());
            }
        }
    }

    #[test]
    fn config_validation_rejects_out_of_range(p in 1.01f64..100.0) {
        for field in 0..2 {
            let mut cfg = NetConfig::default();
            match field {
                0 => cfg.p_site_outage = p,
                _ => cfg.p_site_drain = p,
            }
            prop_assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn valley_free_invariant_holds_at_every_scale(
        seed in 0u64..6,
        scale_pick in 0usize..3,
    ) {
        // The tentpole invariant: every selected route in a generated
        // world, at every scale, is valley-free — verified edge by edge
        // against the Gao-Rexford export rules.
        let n_ases = [500, 2_000, 5_000][scale_pick];
        let net = policy_world(n_ases, seed);
        let pw = net.policy_world().expect("worldgen world has a policy engine");
        let table = pw.steady_table();
        // Steady state routes the whole graph.
        prop_assert_eq!(table.routed_count(), pw.graph.n as usize);
        assert_locally_best(pw, net.topology(), &RouteEnv::default(), &table)?;
        // Unicast announcements (single border) stay valley-free too, and
        // every route ingresses at the announcement border.
        let border = net.topology().cdn.border_ids().next().unwrap();
        let uni = pw.unicast_table(border);
        prop_assert_eq!(uni.routed_count(), pw.graph.n as usize);
        assert_locally_best(pw, net.topology(), &only_at(border), &uni)?;
    }

    #[test]
    fn incremental_recompute_matches_scratch_oracle(
        seed in 0u64..8,
        env_seed in any::<u64>(),
    ) {
        // Dirty-subtree recomputation must be bit-identical to a full
        // from-scratch pass under the same environment — the same routine
        // runs both, restricted to different dirty sets.
        let net = policy_world(1_500, seed);
        let pw = net.policy_world().unwrap();
        let env = arbitrary_env(pw, net.topology().cdn.borders.len(), env_seed);
        prop_assume!(!env.is_steady());
        let base = pw.steady_table();
        let incremental = pw.recompute_incremental(&base, &env);
        let scratch = pw.compute_scratch(&env);
        prop_assert_eq!(incremental.entries(), scratch.entries());
        assert_locally_best(pw, net.topology(), &env, &scratch)?;
    }

    #[test]
    fn policy_worlds_route_deterministically(
        seed in 0u64..5,
        idx in 0usize..60,
        day in 0u32..6,
    ) {
        deterministic_policy_route(seed, idx, day)?;
    }

    #[test]
    fn route_memo_is_transparent(
        seed in 0u64..6,
        idx in 0usize..60,
        day in 0u32..10,
        slot in 0u32..48,
    ) {
        // A per-day RouteSnapshot must be a pure cache: every route it
        // answers — steady fast path or outage-window fallback — is the
        // route the Internet would have computed directly, in a world
        // where outages and drains actually fire.
        let cfg = NetConfig {
            p_site_outage: 0.25,
            p_site_drain: 0.15,
            ..NetConfig::small()
        };
        let net = Internet::new(cfg, seed).unwrap();
        let c = client_of(&net, idx, 15.0);
        let snap = RouteSnapshot::build(&net, std::slice::from_ref(&c), Day(day));
        let t = f64::from(slot) * 1_800.0 + 900.0;
        let mut tally = RouteTally::default();
        let memo = snap.anycast_at(&net, 0, t, &mut tally);
        let direct = net.anycast_route_at(&c, Day(day), t);
        prop_assert_eq!(memo, direct, "anycast memo diverges at t={}", t);
        for site in net.topology().cdn.site_ids() {
            let memo = snap.unicast_at(&net, 0, site, t, &mut tally);
            let direct = net.unicast_route_at(&c, site, Day(day), t);
            prop_assert_eq!(memo, direct, "unicast memo diverges at site {:?}", site);
        }
        tally.flush();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn policy_route_memo_is_transparent(
        seed in 0u64..5,
        first in 0usize..40,
        day in 0u32..6,
    ) {
        // RouteSnapshot must stay a pure cache in worldgen worlds, where
        // mid-day route dynamics (not just outages) can move catchments:
        // probed where the answer can change — at every window edge and
        // the instants either side of it — for clients that share ASes,
        // so one moved AS is several memoized rows.
        let net = flappy_world(seed);
        let clients = clients_sharing_ases(&net, first, 4);
        let snap = RouteSnapshot::build(&net, &clients, Day(day));
        let times = probe_times(&net, Day(day));
        prop_assert!(times.len() > 48, "no window fired on day {}", day);
        let mut tally = RouteTally::default();
        for &t in &times {
            for (i, c) in clients.iter().enumerate() {
                let memo = snap.anycast_at(&net, i, t, &mut tally);
                let direct = net.anycast_route_at(c, Day(day), t);
                prop_assert_eq!(memo, direct, "anycast memo diverges for client {} at t={}", i, t);
            }
            for site in net.topology().cdn.site_ids() {
                let memo = snap.unicast_at(&net, 0, site, t, &mut tally);
                let direct = net.unicast_route_at(&clients[0], site, Day(day), t);
                prop_assert_eq!(memo, direct, "unicast memo diverges at site {:?} t={}", site, t);
            }
        }
        tally.flush();
    }
}

/// Satellite invariant for the catchment memo (the PR-3 `RouteSnapshot`
/// memoization, extended): days that share an announcement set share one
/// computed table, and the obs cache-hit counter records the reuse.
#[test]
fn catchment_tables_are_reused_across_days() {
    let net = policy_world(1_000, 21);
    let pw = net
        .policy_world()
        .expect("worldgen world has a policy plane");
    let c = policy_client(&net, 7);

    let hits = |snap: &anycast_obs::Snapshot| snap.counter("netsim_catchment_cache_hits_total");
    let before = hits(&anycast_obs::global().snapshot());
    let first = pw.steady_table();
    for day in 0..12 {
        net.anycast_route(&c, Day(day));
    }
    // Every day resolved against the very table computed up front…
    assert!(std::sync::Arc::ptr_eq(&first, &pw.steady_table()));
    // …and the counter proves each resolution was a cache hit, not a
    // recompute (other tests in this binary only ever add hits).
    let after = hits(&anycast_obs::global().snapshot());
    assert!(
        after >= before + 12,
        "expected >=12 cache hits across days, saw {before} -> {after}"
    );
}

fn only_at(border: BorderId) -> RouteEnv {
    RouteEnv {
        only_border: Some(border),
        ..RouteEnv::default()
    }
}

/// Every table of worlds of 1,000, 1,500 and 10,000 ASes, seeds 0 and 1 —
/// the steady table, eight disturbances from scratch and incrementally over
/// it, four unicast tables — hashed field by field, FNV-1a. Recorded while a
/// sweep-until-stable copy of the relaxation still checked the worklist
/// kernel table for table.
const CATCHMENT_DIGEST: u64 = 0x75e0_03af_75ed_3acb;

#[test]
fn catchment_tables_are_locally_best_and_match_the_recorded_digest() {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for n_ases in [1_000, 1_500, 10_000] {
        for seed in 0..2 {
            let net = policy_world(n_ases, seed);
            let (pw, topo) = (net.policy_world().unwrap(), net.topology());
            let mut check = |env: &RouteEnv, table: &CatchmentTable| {
                assert_locally_best(pw, topo, env, table).unwrap();
                for e in table.entries().iter() {
                    let fields = e
                        .next_hop
                        .to_le_bytes()
                        .into_iter()
                        .chain(e.ingress.to_le_bytes());
                    for b in fields.chain([e.class, e.path_len]) {
                        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                    }
                }
            };
            let steady = pw.steady_table();
            check(&RouteEnv::default(), &steady);
            for env_seed in 0..8 {
                let env = arbitrary_env(pw, topo.cdn.borders.len(), env_seed);
                check(&env, &pw.compute_scratch(&env));
                check(&env, &pw.recompute_incremental(&steady, &env));
            }
            for b in (0..4).map(BorderId) {
                check(&only_at(b), &pw.unicast_table(b));
            }
        }
    }
    assert_eq!(h, CATCHMENT_DIGEST, "catchment digest {h:#018x}");
}

/// A policy world over `topo`'s CDN of 2-8 ASes no generator would build:
/// provider edges only to lower ids (the provider graph stays a DAG),
/// random peerings, and at least one session, each at a random subset of
/// the first five borders or at every border.
fn random_world(topo: &Topology, graph_seed: u64) -> PolicyWorld {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(graph_seed);
    let n = rng.gen_range(2..=8usize);
    let (mut provider_edges, mut peer_edges) = (Vec::new(), Vec::new());
    for a in 0..n as u32 {
        for b in 0..a {
            match rng.gen_range(0..6) {
                0 | 1 => provider_edges.push((a, b)),
                2 => peer_edges.extend([(a, b), (b, a)]),
                _ => {}
            }
        }
    }
    let mut sessions = Sessions::default();
    let mut session_of = vec![NO_SESSION; n];
    for v in 0..n as u32 {
        if !rng.gen_bool(0.5) && (v + 1 < n as u32 || !sessions.is_empty()) {
            continue;
        }
        let relation = [CdnRelation::Transit, CdnRelation::Peer][rng.gen_range(0..2usize)];
        let every = rng.gen_range(0..4) == 0;
        let mut borders: Vec<BorderId> = topo
            .cdn
            .border_ids()
            .filter(|b| every || (b.0 < 5 && rng.gen_bool(0.5)))
            .collect();
        if borders.is_empty() {
            borders.push(BorderId(rng.gen_range(0..5)));
        }
        session_of[v as usize] = sessions.len() as u32;
        sessions.push(v, relation, &borders);
    }
    let graph = PolicyGraph {
        n: n as u32,
        class: vec![AsClass::Stp; n],
        home_metro: (0..n)
            .map(|_| MetroId(rng.gen_range(0..topo.atlas.len() as u32)))
            .collect(),
        providers: Csr::from_pairs(n, provider_edges.clone()),
        customers: Csr::from_pairs(n, provider_edges.iter().map(|&(c, p)| (p, c)).collect()),
        peers: Csr::from_pairs(n, peer_edges),
        sessions,
        session_of,
    };
    let quiet = RouteDynamics::new(graph_seed, 0.0, 0.0);
    PolicyWorld::new(graph, quiet, &topo.atlas, &topo.cdn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On graphs small enough that every shape turns up — a transit session
    /// on some borders only, a peer into a customer-routed AS, an AS whose
    /// one provider peers at one border — scratch, incremental over steady
    /// and every unicast table are locally best and agree.
    #[test]
    fn small_graphs_route_locally_best_every_way(graph_seed in any::<u64>(), env_seed in any::<u64>()) {
        let net = world(5);
        let topo = net.topology();
        let pw = random_world(topo, graph_seed);
        let env = arbitrary_env(&pw, 5, env_seed);
        let steady = pw.steady_table();
        assert_locally_best(&pw, topo, &RouteEnv::default(), &steady)?;
        let scratch = pw.compute_scratch(&env);
        assert_locally_best(&pw, topo, &env, &scratch)?;
        prop_assert!(pw.recompute_incremental(&steady, &env) == scratch, "{:?}", env);
        for b in (0..6).map(BorderId) {
            let unicast = pw.unicast_table(b);
            assert_locally_best(&pw, topo, &only_at(b), &unicast)?;
            prop_assert!(*unicast == pw.compute_scratch(&only_at(b)), "{:?}", b);
        }
    }
}

/// [`Csr::from_pairs`] by its definition: the pairs sorted and deduped,
/// then cut into one row per `from`.
fn sorted_rows(n: usize, pairs: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut rows = vec![Vec::new(); n];
    for (from, to) in sorted {
        rows[from as usize].push(to);
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Few nodes and many pairs in any order, so duplicates, isolated
    /// nodes and empty rows are all common.
    #[test]
    fn csr_from_pairs_is_the_sorted_deduped_pairs(
        n in 1usize..40,
        raw in prop::collection::vec((0u32..40, 0u32..40), 0..160),
    ) {
        let n32 = n as u32;
        let pairs: Vec<(u32, u32)> = raw.iter().map(|&(a, b)| (a % n32, b % n32)).collect();
        let csr = Csr::from_pairs(n, pairs.clone());
        let rows = sorted_rows(n, &pairs);
        for v in 0..n32 {
            prop_assert_eq!(csr.neighbors(v), &rows[v as usize][..]);
        }
        prop_assert_eq!(csr.len(), rows.iter().map(Vec::len).sum::<usize>());
        // The transpose is the build of the swapped pairs.
        let swapped = pairs.iter().map(|&(a, b)| (b, a)).collect();
        prop_assert_eq!(csr.transposed(), Csr::from_pairs(n, swapped));
    }
}
