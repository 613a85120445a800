//! TTL-honoring resolver cache.
//!
//! Cache entries are keyed by `(name, ECS prefix)` per RFC 7871 §7.3.1: an
//! answer computed for one client subnet must not be served to another. A
//! non-ECS answer has no prefix and is shared by all clients of the
//! resolver — exactly the coarseness that makes pure LDNS-granularity
//! redirection imprecise (§2).
//!
//! The two kinds live in two maps, resolver-wide answers by name and
//! subnet-scoped ones by `(name, /24)`, so the resolver-wide lookup — the
//! only one a campaign makes, since it runs with ECS off — hashes the
//! caller's name where it is and copies nothing. One capacity and one
//! eviction order span both.
//!
//! Time is absolute experiment seconds (day × 86 400 + seconds-of-day).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::net::Ipv4Addr;

use anycast_netsim::Prefix24;

use crate::name::DnsName;

#[derive(Debug, Clone)]
struct Entry {
    addr: Ipv4Addr,
    expires_at: f64,
}

/// A TTL cache of A answers.
#[derive(Debug, Clone, Default)]
pub struct DnsCache {
    /// Answers shared by every client of the resolver.
    global: HashMap<DnsName, Entry>,
    /// Answers tailored to one client subnet.
    scoped: HashMap<(DnsName, Prefix24), Entry>,
    hits: u64,
    misses: u64,
    /// Maximum live entries; 0 = unbounded. Real resolvers bound their
    /// cache; the beacon's unique per-measurement names would otherwise
    /// grow a resolver's cache without limit over a month-long campaign.
    capacity: usize,
}

/// The live address `map` holds under `key` at `now_s`; an expired entry
/// is dropped.
fn live<K, Q>(map: &mut HashMap<K, Entry>, key: &Q, now_s: f64) -> Option<Ipv4Addr>
where
    K: Borrow<Q> + Hash + Eq,
    Q: Hash + Eq + ?Sized,
{
    let entry = map.get(key)?;
    if entry.expires_at > now_s {
        return Some(entry.addr);
    }
    map.remove(key);
    None
}

/// When the soonest-expiring entry of `map` expires.
fn soonest<K>(map: &HashMap<K, Entry>) -> Option<f64> {
    map.values().map(|e| e.expires_at).min_by(f64::total_cmp)
}

/// Removes the least key of `map` among the entries that expire at `at`
/// — by name bytes, then by scope — so which entry goes never depends on
/// the map's hash order.
fn evict<K: Hash + Ord + Clone>(map: &mut HashMap<K, Entry>, at: f64) {
    let victim = map
        .iter()
        .filter(|(_, e)| e.expires_at == at)
        .map(|(k, _)| k)
        .min()
        .cloned();
    if let Some(k) = victim {
        map.remove(&k);
    }
}

impl DnsCache {
    /// Creates an unbounded cache.
    pub fn new() -> DnsCache {
        DnsCache::default()
    }

    /// Creates a cache evicting down to `capacity` live entries. Eviction
    /// removes the entries expiring soonest — the cheapest victims, since
    /// they are the least likely to be hit again before expiry. Among
    /// entries that expire at the same instant, a resolver-wide answer goes
    /// before a subnet-scoped one, and within each kind the least name in
    /// byte order goes first (then the least subnet), so two caches fed
    /// the same puts keep the same entries.
    pub fn with_capacity(capacity: usize) -> DnsCache {
        DnsCache {
            capacity,
            ..DnsCache::default()
        }
    }

    /// Looks up `name` (scoped to `ecs` if the cached answer was
    /// subnet-scoped) at time `now_s`. Expired entries are treated as
    /// absent (and dropped).
    pub fn get(&mut self, name: &DnsName, ecs: Option<Prefix24>, now_s: f64) -> Option<Ipv4Addr> {
        let addr = match ecs {
            None => live(&mut self.global, name, now_s),
            Some(subnet) => live(&mut self.scoped, &(name.clone(), subnet), now_s),
        };
        match addr {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        addr
    }

    /// Stores an answer valid for `ttl_s` seconds from `now_s`, evicting
    /// expired and soonest-expiring entries if a capacity is set.
    pub fn put(
        &mut self,
        name: DnsName,
        ecs: Option<Prefix24>,
        addr: Ipv4Addr,
        ttl_s: u32,
        now_s: f64,
    ) {
        let entry = Entry {
            addr,
            expires_at: now_s + f64::from(ttl_s),
        };
        // Overwriting an existing key does not grow the cache, so it must
        // not trigger eviction: doing so could victimize the key itself
        // (it may be the soonest-expiring entry) and then evict an
        // unrelated live entry on the next insert.
        let full = self.capacity > 0 && self.len() >= self.capacity;
        match ecs {
            None => {
                if full && !self.global.contains_key(&name) {
                    self.make_room(now_s);
                }
                self.global.insert(name, entry);
            }
            Some(subnet) => {
                let key = (name, subnet);
                if full && !self.scoped.contains_key(&key) {
                    self.make_room(now_s);
                }
                self.scoped.insert(key, entry);
            }
        }
    }

    /// Brings a full cache under its capacity, whichever map the victims
    /// are in.
    fn make_room(&mut self, now_s: f64) {
        // Cheap pass: drop everything already expired.
        self.global.retain(|_, e| e.expires_at > now_s);
        self.scoped.retain(|_, e| e.expires_at > now_s);
        // Still full: evict the soonest-expiring entries.
        while self.len() >= self.capacity {
            match (soonest(&self.global), soonest(&self.scoped)) {
                (Some(g), Some(s)) if s < g => evict(&mut self.scoped, s),
                (Some(g), _) => evict(&mut self.global, g),
                (None, Some(s)) => evict(&mut self.scoped, s),
                (None, None) => break,
            }
        }
    }

    /// Number of live + expired entries currently held.
    pub fn len(&self) -> usize {
        self.global.len() + self.scoped.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty() && self.scoped.is_empty()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops every entry (used at day boundaries in long experiments to
    /// model resolver restarts and bound memory).
    pub fn clear(&mut self) {
        self.global.clear();
        self.scoped.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::new(s).unwrap()
    }

    #[test]
    fn hit_before_expiry_miss_after() {
        let mut c = DnsCache::new();
        let n = name("a.cdn.example");
        let ip = Ipv4Addr::new(203, 0, 113, 1);
        c.put(n.clone(), None, ip, 60, 1000.0);
        assert_eq!(c.get(&n, None, 1059.0), Some(ip));
        assert_eq!(c.get(&n, None, 1060.0), None);
        // Expired entry is evicted.
        assert!(c.is_empty());
    }

    #[test]
    fn zero_ttl_answers_are_never_served() {
        // §2: DNS redirection keeps control via small TTLs; the limit case
        // is TTL 0 — an answer usable once but never cacheable. A 0-TTL
        // put must not produce a hit at any later time, including the very
        // same instant it was stored.
        let mut c = DnsCache::new();
        let n = name("a.cdn.example");
        c.put(n.clone(), None, Ipv4Addr::new(203, 0, 113, 1), 0, 100.0);
        assert_eq!(c.get(&n, None, 100.0), None);
        assert_eq!(c.get(&n, None, 100.001), None);
        assert!(c.is_empty(), "the expired 0-TTL entry must be dropped");
    }

    #[test]
    fn zero_ttl_put_does_not_displace_live_entries() {
        let mut c = DnsCache::with_capacity(2);
        c.put(
            name("live.cdn.example"),
            None,
            Ipv4Addr::new(1, 1, 1, 1),
            1000,
            0.0,
        );
        // Fill to capacity with 0-TTL churn; the live entry must survive.
        for i in 0..5u8 {
            c.put(
                name(&format!("burst{i}.cdn.example")),
                None,
                Ipv4Addr::new(10, 0, 0, i),
                0,
                1.0,
            );
        }
        assert_eq!(
            c.get(&name("live.cdn.example"), None, 2.0),
            Some(Ipv4Addr::new(1, 1, 1, 1))
        );
    }

    #[test]
    fn ecs_scoped_entries_do_not_leak_across_subnets() {
        let mut c = DnsCache::new();
        let n = name("a.cdn.example");
        let p1 = Prefix24::containing(Ipv4Addr::new(1, 1, 1, 1));
        let p2 = Prefix24::containing(Ipv4Addr::new(2, 2, 2, 2));
        c.put(n.clone(), Some(p1), Ipv4Addr::new(10, 0, 0, 1), 300, 0.0);
        assert_eq!(c.get(&n, Some(p1), 1.0), Some(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(c.get(&n, Some(p2), 1.0), None);
        assert_eq!(c.get(&n, None, 1.0), None);
    }

    #[test]
    fn put_overwrites() {
        let mut c = DnsCache::new();
        let n = name("a.cdn.example");
        c.put(n.clone(), None, Ipv4Addr::new(10, 0, 0, 1), 300, 0.0);
        c.put(n.clone(), None, Ipv4Addr::new(10, 0, 0, 2), 300, 5.0);
        assert_eq!(c.get(&n, None, 6.0), Some(Ipv4Addr::new(10, 0, 0, 2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = DnsCache::new();
        let n = name("a.cdn.example");
        assert_eq!(c.get(&n, None, 0.0), None);
        c.put(n.clone(), None, Ipv4Addr::new(10, 0, 0, 1), 300, 0.0);
        c.get(&n, None, 1.0);
        c.get(&n, None, 2.0);
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut c = DnsCache::with_capacity(3);
        for i in 0..10u8 {
            let n = name(&format!("h{i}.cdn.example"));
            c.put(n, None, Ipv4Addr::new(10, 0, 0, i), 300, f64::from(i));
        }
        assert!(c.len() <= 3, "cache grew to {}", c.len());
        // The most recent entry survives.
        assert_eq!(
            c.get(&name("h9.cdn.example"), None, 9.5),
            Some(Ipv4Addr::new(10, 0, 0, 9))
        );
    }

    #[test]
    fn overwrite_at_capacity_preserves_other_live_entries() {
        // Regression: overwriting an existing key at capacity used to run
        // eviction anyway. The soonest-expiring victim could be the very
        // key being overwritten, leaving the cache under capacity, after
        // which the next insert evicted an unrelated live entry.
        let mut c = DnsCache::with_capacity(3);
        c.put(
            name("a.cdn.example"),
            None,
            Ipv4Addr::new(1, 1, 1, 1),
            1000,
            0.0,
        );
        c.put(
            name("b.cdn.example"),
            None,
            Ipv4Addr::new(2, 2, 2, 2),
            10, // soonest-expiring but live: the eviction victim pre-fix
            0.0,
        );
        c.put(
            name("c.cdn.example"),
            None,
            Ipv4Addr::new(3, 3, 3, 3),
            1000,
            0.0,
        );
        // At capacity. Refresh `a` — a pure overwrite.
        c.put(
            name("a.cdn.example"),
            None,
            Ipv4Addr::new(1, 1, 1, 9),
            1000,
            1.0,
        );
        assert_eq!(c.len(), 3);
        // All three entries are live and intact.
        assert_eq!(
            c.get(&name("a.cdn.example"), None, 2.0),
            Some(Ipv4Addr::new(1, 1, 1, 9))
        );
        assert_eq!(
            c.get(&name("b.cdn.example"), None, 2.0),
            Some(Ipv4Addr::new(2, 2, 2, 2))
        );
        assert_eq!(
            c.get(&name("c.cdn.example"), None, 2.0),
            Some(Ipv4Addr::new(3, 3, 3, 3))
        );
    }

    #[test]
    fn eviction_prefers_expired_entries() {
        let mut c = DnsCache::with_capacity(2);
        c.put(
            name("old.cdn.example"),
            None,
            Ipv4Addr::new(1, 1, 1, 1),
            10,
            0.0,
        );
        c.put(
            name("live.cdn.example"),
            None,
            Ipv4Addr::new(2, 2, 2, 2),
            1000,
            0.0,
        );
        // At t=100 `old` is expired; inserting a third entry must keep `live`.
        c.put(
            name("new.cdn.example"),
            None,
            Ipv4Addr::new(3, 3, 3, 3),
            1000,
            100.0,
        );
        assert_eq!(
            c.get(&name("live.cdn.example"), None, 101.0),
            Some(Ipv4Addr::new(2, 2, 2, 2))
        );
        assert_eq!(
            c.get(&name("new.cdn.example"), None, 101.0),
            Some(Ipv4Addr::new(3, 3, 3, 3))
        );
    }

    #[test]
    fn one_name_held_resolver_wide_and_for_two_subnets() {
        let n = name("a.cdn.example");
        let p1 = Prefix24::containing(Ipv4Addr::new(1, 1, 1, 1));
        let p2 = Prefix24::containing(Ipv4Addr::new(2, 2, 2, 2));
        let p3 = Prefix24::containing(Ipv4Addr::new(3, 3, 3, 3));
        let ip = |last| Ipv4Addr::new(10, 0, 0, last);
        let mut c = DnsCache::with_capacity(3);
        c.put(n.clone(), None, ip(0), 300, 0.0);
        c.put(n.clone(), Some(p1), ip(1), 100, 0.0);
        c.put(n.clone(), Some(p2), ip(2), 200, 0.0);
        assert_eq!(c.len(), 3);
        // Each scope hits only itself.
        assert_eq!(c.get(&n, None, 1.0), Some(ip(0)));
        assert_eq!(c.get(&n, Some(p1), 1.0), Some(ip(1)));
        assert_eq!(c.get(&n, Some(p2), 1.0), Some(ip(2)));
        assert_eq!(c.get(&n, Some(p3), 1.0), None);
        assert_eq!(c.stats(), (3, 1));
        // Overwriting a held key at capacity evicts nothing, in either map.
        c.put(n.clone(), Some(p1), ip(11), 100, 1.0);
        c.put(n.clone(), None, ip(10), 300, 1.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&n, None, 2.0), Some(ip(10)));
        assert_eq!(c.get(&n, Some(p1), 2.0), Some(ip(11)));
        assert_eq!(c.get(&n, Some(p2), 2.0), Some(ip(2)));
        // Expiry of one scope leaves the others.
        assert_eq!(c.get(&n, Some(p1), 150.0), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&n, None, 150.0), Some(ip(10)));
        assert_eq!(c.get(&n, Some(p2), 150.0), Some(ip(2)));

        // Eviction at capacity takes the soonest-expiring live entry,
        // whichever map holds it: a subnet's here ...
        let mut c = DnsCache::with_capacity(3);
        c.put(n.clone(), None, ip(0), 300, 0.0);
        c.put(n.clone(), Some(p1), ip(1), 100, 0.0);
        c.put(n.clone(), Some(p2), ip(2), 200, 0.0);
        c.put(name("b.cdn.example"), None, ip(3), 300, 1.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&n, Some(p1), 2.0), None);
        assert_eq!(c.get(&n, Some(p2), 2.0), Some(ip(2)));
        assert_eq!(c.get(&n, None, 2.0), Some(ip(0)));
        // ... and the resolver-wide one here, for a subnet's sake.
        let mut c = DnsCache::with_capacity(3);
        c.put(n.clone(), None, ip(0), 50, 0.0);
        c.put(n.clone(), Some(p1), ip(1), 100, 0.0);
        c.put(n.clone(), Some(p2), ip(2), 200, 0.0);
        c.put(n.clone(), Some(p3), ip(3), 300, 1.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&n, None, 2.0), None);
        assert_eq!(c.get(&n, Some(p1), 2.0), Some(ip(1)));
        assert_eq!(c.get(&n, Some(p3), 2.0), Some(ip(3)));
    }

    /// Entries tied at the soonest expiry leave in key order, whatever
    /// each cache's hash seed: the least name first, then, among one
    /// name's subnet answers, the least subnet, and a resolver-wide
    /// answer before any subnet's.
    #[test]
    fn tied_evictions_follow_key_order_in_every_cache() {
        let ip = |i: u8| Ipv4Addr::new(10, 0, 0, i);
        let p = |i: u8| Prefix24::containing(Ipv4Addr::new(i, 0, 0, 1));
        let mut kept = std::collections::BTreeSet::new();
        // Each cache map is seeded afresh, so 32 caches see many orders.
        for _ in 0..32 {
            let mut c = DnsCache::with_capacity(2);
            for n in ["b.cdn.example", "a.cdn.example", "c.cdn.example"] {
                c.put(name(n), None, ip(1), 60, 0.0);
            }
            let held: Vec<bool> = ["a", "b", "c"]
                .iter()
                .map(|n| c.get(&name(&format!("{n}.cdn.example")), None, 1.0) == Some(ip(1)))
                .collect();
            kept.insert(held);

            let mut c = DnsCache::with_capacity(2);
            let n = name("a.cdn.example");
            c.put(n.clone(), Some(p(3)), ip(3), 60, 0.0);
            c.put(n.clone(), Some(p(1)), ip(1), 60, 0.0);
            c.put(n.clone(), None, ip(0), 60, 0.0);
            // The least subnet made room for the resolver-wide answer; tied
            // with the subnets' answers, that one made room for the third.
            c.put(n.clone(), Some(p(2)), ip(2), 60, 0.0);
            assert_eq!(c.get(&n, None, 1.0), None);
            assert_eq!(c.get(&n, Some(p(1)), 1.0), None);
            assert_eq!(c.get(&n, Some(p(2)), 1.0), Some(ip(2)));
            assert_eq!(c.get(&n, Some(p(3)), 1.0), Some(ip(3)));
        }
        assert_eq!(
            kept.into_iter().collect::<Vec<_>>(),
            [vec![false, true, true]]
        );
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c = DnsCache::new();
        for i in 0..1000u32 {
            let n = name(&format!("h{i}.cdn.example"));
            c.put(n, None, Ipv4Addr::new(10, 0, 0, 1), 300, 0.0);
        }
        assert_eq!(c.len(), 1000);
    }

    #[test]
    fn clear_empties() {
        let mut c = DnsCache::new();
        c.put(
            name("a.cdn.example"),
            None,
            Ipv4Addr::new(1, 1, 1, 1),
            10,
            0.0,
        );
        c.clear();
        assert!(c.is_empty());
    }
}
