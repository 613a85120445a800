//! Reproducibility: the property the whole workspace is built around.
//!
//! Every figure in EXPERIMENTS.md is stamped with a seed; these tests pin
//! the guarantee that the seed fully determines the output — world
//! generation, routing, measurement noise, analysis — bit for bit.

use anycast_cdn::netsim::Day;
use anycast_cdn::workload::{scenario::seeded_rng, Scenario};

#[test]
fn scenario_worlds_are_bit_identical() {
    let a = Scenario::small(99);
    let b = Scenario::small(99);
    assert_eq!(a.clients, b.clients);
    assert_eq!(a.ldns.by_client, b.ldns.by_client);
    assert_eq!(a.ldns.resolvers.len(), b.ldns.resolvers.len());
    for (x, y) in a.ldns.resolvers.iter().zip(&b.ldns.resolvers) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.supports_ecs, y.supports_ecs);
        assert_eq!(x.location, y.location);
    }
}

#[test]
fn passive_logs_are_bit_identical() {
    let a = Scenario::small(7);
    let b = Scenario::small(7);
    let mut rng_a = seeded_rng(7, 0xdead);
    let mut rng_b = seeded_rng(7, 0xdead);
    for day in Day(0).span(3) {
        let la = a.generate_passive_day(day, &mut rng_a);
        let lb = b.generate_passive_day(day, &mut rng_b);
        assert_eq!(la.len(), lb.len(), "{day}");
        for (x, y) in la.iter().zip(&lb) {
            assert_eq!(x, y);
        }
    }
}

#[test]
fn routing_is_independent_of_query_order() {
    // Routing decisions must be pure functions of (client, day): querying
    // clients in a different order, or interleaving days, cannot change any
    // answer.
    let s = Scenario::small(13);
    let forward: Vec<_> = s
        .clients
        .iter()
        .map(|c| s.internet.anycast_route(&c.attachment, Day(2)).site)
        .collect();
    let backward: Vec<_> = s
        .clients
        .iter()
        .rev()
        .map(|c| s.internet.anycast_route(&c.attachment, Day(2)).site)
        .collect();
    let backward_reversed: Vec<_> = backward.into_iter().rev().collect();
    assert_eq!(forward, backward_reversed);
}

#[test]
fn distinct_salts_give_independent_streams() {
    // The seeded_rng helper must derive decorrelated streams per salt, or
    // experiments sharing a master seed would silently correlate.
    use rand::Rng;
    let mut a = seeded_rng(1, 100);
    let mut b = seeded_rng(1, 101);
    let va: Vec<u32> = (0..64).map(|_| a.gen()).collect();
    let vb: Vec<u32> = (0..64).map(|_| b.gen()).collect();
    assert_ne!(va, vb);
    let equal = va.iter().zip(&vb).filter(|(x, y)| x == y).count();
    assert!(
        equal < 4,
        "streams suspiciously correlated: {equal}/64 equal"
    );
}
