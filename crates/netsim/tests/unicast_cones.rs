//! Unicast tables as what one border adds to a shared base, checked as a
//! property of the production code: for every border of every world, the
//! memoized table answers exactly as a from-scratch pass under the same
//! single-border environment.

use std::sync::{Arc, Barrier};

use anycast_geo::MetroId;
use anycast_netsim::worldgen::{
    route_class, CdnRelation, CdnSession, Csr, RouteDynamics, RouteEnv, NO_SESSION,
};
use anycast_netsim::{
    AsClass, BorderId, CatchmentTable, Internet, NetConfig, PolicyGraph, PolicyWorld,
    WorldGenConfig,
};

fn policy_world(cfg: NetConfig, n_ases: usize, seed: u64) -> Internet {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig::with_ases(n_ases)),
        ..cfg
    };
    Internet::new(cfg, seed).unwrap()
}

fn only_at(border: BorderId) -> RouteEnv {
    RouteEnv {
        only_border: Some(border),
        ..RouteEnv::default()
    }
}

/// `pw.unicast_table(b)` against `compute_scratch` for every border of
/// the world, through every accessor. Returns the tables.
fn assert_every_border_matches_scratch(
    pw: &PolicyWorld,
    n_borders: u16,
) -> Vec<Arc<CatchmentTable>> {
    (0..n_borders)
        .map(|b| {
            let border = BorderId(b);
            let table = pw.unicast_table(border);
            let scratch = pw.compute_scratch(&only_at(border));
            assert!(*table == scratch, "border {b}: entries differ");
            assert_eq!(table.routed_count(), scratch.routed_count(), "border {b}");
            for v in 0..pw.graph.n {
                assert_eq!(table.entry(v), scratch.entry(v), "border {b} node {v}");
                assert_eq!(table.ingress(v), scratch.ingress(v), "border {b} node {v}");
                assert_eq!(table.path(v), scratch.path(v), "border {b} node {v}");
                if let Some(ingress) = table.ingress(v) {
                    assert_eq!(ingress, border, "node {v} enters elsewhere");
                }
            }
            table
        })
        .collect()
}

#[test]
fn every_borders_unicast_table_equals_a_from_scratch_pass() {
    let mut overridden = 0;
    for (cfg, n_ases) in [
        (NetConfig::small(), 64),
        (NetConfig::small(), 250),
        (NetConfig::small(), 900),
        (NetConfig::small(), 2_000),
        (NetConfig::default(), 1_000),
    ] {
        for seed in 0..4 {
            let net = policy_world(cfg.clone(), n_ases, seed);
            let pw = net.policy_world().unwrap();
            let n_borders = net.topology().cdn.borders.len() as u16;
            let tables = assert_every_border_matches_scratch(pw, n_borders);
            overridden += tables.iter().filter(|t| !t.overrides().is_empty()).count();
            // Asked again, each is the one allocation.
            for (b, table) in tables.iter().enumerate() {
                assert!(Arc::ptr_eq(table, &pw.unicast_table(BorderId(b as u16))));
            }
        }
    }
    assert!(overridden > 100, "only {overridden} tables held a cone");
}

// Nodes of the bespoke graph.
const T0: u32 = 0; // tier-1, CDN transit at every border
const T1: u32 = 1; // tier-1 without a session, peers with T0
const U: u32 = 2; // customer of T1, peers with P
const R: u32 = 3; // customer of U and T0; CDN *transit* at two borders
const P: u32 = 4; // customer of T2 (nobody above R), peer of U
const C: u32 = 5; // customer of P
const E: u32 = 6; // peers into customer-routed T0, no provider
const Q: u32 = 7; // no provider; CDN peer at one border
const S: u32 = 8; // only provider is Q
const M: u32 = 9; // customer of T0; CDN peer at two borders
const L: u32 = 10; // customer of M and R
const T2: u32 = 11; // CDN transit at every border, customer of W
const W: u32 = 12; // provider-free, customer-routed through T2 alone
const O: u32 = 13; // no provider; CDN peer at one border
const X: u32 = 14; // customer of O, peers with W
const N: usize = 15;

const B: BorderId = BorderId(3);
const B2: BorderId = BorderId(5);
const B3: BorderId = BorderId(9);

/// A world generation never emits: a `Transit` session on a proper subset
/// of the borders (R), a peer edge into a customer-routed AS (E into T0, P
/// into U once R's transit climbs to it), an AS whose only provider peers
/// at one border (S under Q) — and a dirty AS (X, under O) whose route
/// runs through clean ASes two hops from the CDN, so that it inherits an
/// ingress the base holds for a different announcement.
fn bespoke_world() -> (PolicyWorld, u16) {
    let net = policy_world(NetConfig::small(), 64, 5);
    let topo = net.topology();
    let n_borders = topo.cdn.borders.len() as u16;
    assert!(B3.0 < n_borders);
    let session = |node, relation, borders: &[BorderId]| CdnSession {
        node,
        relation,
        borders: borders.to_vec(),
    };
    let every: Vec<BorderId> = topo.cdn.border_ids().collect();
    let sessions = vec![
        session(T0, CdnRelation::Transit, &every),
        session(T2, CdnRelation::Transit, &every),
        session(R, CdnRelation::Transit, &[B, B2]),
        session(Q, CdnRelation::Peer, &[B]),
        session(M, CdnRelation::Peer, &[B, B3]),
        session(O, CdnRelation::Peer, &[B3]),
    ];
    let mut session_of = vec![NO_SESSION; N];
    for (s, sess) in sessions.iter().enumerate() {
        session_of[sess.node as usize] = s as u32;
    }
    // (customer, provider)
    let provider_edges = vec![
        (U, T1),
        (R, U),
        (R, T0),
        (P, T2),
        (C, P),
        (S, Q),
        (M, T0),
        (L, M),
        (L, R),
        (T2, W),
        (X, O),
    ];
    let peer_edges = [(T0, T1), (U, P), (E, T0), (X, W)];
    let graph = PolicyGraph {
        n: N as u32,
        class: vec![AsClass::Stp; N],
        home_metro: (0..N as u32)
            .map(|v| MetroId(v * 17 % topo.atlas.len() as u32))
            .collect(),
        providers: Csr::from_pairs(N, provider_edges.clone()),
        customers: Csr::from_pairs(N, provider_edges.iter().map(|&(c, p)| (p, c)).collect()),
        peers: Csr::from_pairs(
            N,
            peer_edges
                .iter()
                .flat_map(|&(a, b)| [(a, b), (b, a)])
                .collect(),
        ),
        sessions,
        session_of,
    };
    let quiet = RouteDynamics::new(5, 0.0, 0.0);
    (
        PolicyWorld::new(graph, quiet, &topo.atlas, &topo.cdn),
        n_borders,
    )
}

#[test]
fn a_graph_generation_never_emits_still_matches_scratch() {
    let (pw, n_borders) = bespoke_world();
    let tables = assert_every_border_matches_scratch(&pw, n_borders);
    let class = |border: BorderId, v: u32| tables[border.0 as usize].entry(v).map(|e| e.class);

    // R's transit session, live at B and B2 only, is a customer route that
    // climbs to U and T1 and crosses U's peering to P…
    for border in [B, B2] {
        assert_eq!(class(border, R), Some(route_class::CUSTOMER));
        assert_eq!(class(border, U), Some(route_class::CUSTOMER));
        assert_eq!(class(border, T1), Some(route_class::CUSTOMER));
        assert_eq!(class(border, P), Some(route_class::PEER));
        assert_eq!(tables[border.0 as usize].path(C), vec![C, P, U, R]);
    }
    // …and elsewhere R is one more customer of T0, P of T2.
    assert_eq!(class(B3, R), Some(route_class::PROVIDER));
    assert_eq!(class(B3, T1), Some(route_class::PEER));
    assert_eq!(class(B3, P), Some(route_class::PROVIDER));
    // E peers into customer-routed T0 under every announcement.
    assert!((0..n_borders).all(|b| class(BorderId(b), E) == Some(route_class::PEER)));
    // S is reachable only while its one provider's one border announces.
    for b in 0..n_borders {
        let routed = BorderId(b) == B;
        assert_eq!(class(BorderId(b), Q).is_some(), routed, "Q at border {b}");
        assert_eq!(class(BorderId(b), S).is_some(), routed, "S at border {b}");
    }
    assert_eq!(class(B, S), Some(route_class::PROVIDER));
    assert_eq!(tables[B3.0 as usize].path(L), vec![L, M]);
    // X is re-relaxed when O's session comes up, and keeps its peer route.
    assert_eq!(class(B3, O), Some(route_class::PEER));
    assert_eq!(tables[B3.0 as usize].path(X), vec![X, W, T2]);

    // A border no partial session lists adds nothing to the base: a table
    // of no differences that holds no bytes of its own, yet still answers
    // with its own border as every ingress.
    for b in (0..n_borders)
        .map(BorderId)
        .filter(|b| ![B, B2, B3].contains(b))
    {
        let table = &tables[b.0 as usize];
        assert!(table.overrides().is_empty(), "border {b:?} holds a cone");
        assert_eq!(table.memory_bytes(), 0);
        assert_eq!(table.ingress(C), Some(b));
    }
    for b in [B, B2, B3] {
        let table = &tables[b.0 as usize];
        assert!(!table.overrides().is_empty());
        assert_eq!(table.memory_bytes(), 12 * table.overrides().len());
    }
}

#[test]
fn two_threads_asking_for_one_missing_table_share_it() {
    for seed in 0..4 {
        let net = policy_world(NetConfig::small(), 2_000, seed);
        let pw = net.policy_world().unwrap();
        let start = Barrier::new(2);
        let ask = || {
            start.wait();
            pw.unicast_table(BorderId(2))
        };
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(ask);
            (ask(), other.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert!(*a == pw.compute_scratch(&only_at(BorderId(2))));
    }
}
