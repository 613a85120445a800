//! Hot-reloadable prediction-table store.
//!
//! The §6 predictor retrains once per prediction interval (a day in the
//! paper); the serving plane must pick the new table up without dropping
//! queries. [`CompiledTable`] freezes one trained
//! [`PredictionTable`] into an immutable, cache-friendly lookup structure
//! (a binary longest-prefix-match trie for ECS groups, a sorted array for
//! LDNS groups — no hashing, no locking on the read path), and
//! [`TableStore`] swaps whole tables atomically under a brief write lock.
//! A UDP worker clones the `Arc` once per batch (TCP once per message), so
//! a swap never blocks a lookup in flight, a batch is answered from one
//! generation, and an old table stays alive until the last batch holding
//! it completes.
//!
//! [`CompiledTable::answer`] is contractually the answer the source
//! table's own [`PredictionTable::match_query`] implies — the loopback
//! equivalence tests pin `(addr, ttl_s, ecs_scope)` for a full simulated
//! day of queries, and a property test at every ECS source length.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

use anycast_beacon::Target;
use anycast_core::prediction::{GroupKey, Grouping, PredictionTable};
use anycast_dns::ecs::EcsOption;
use anycast_dns::{DnsAnswer, LdnsId};
use anycast_netsim::{CdnAddressing, Prefix};
use anycast_obs::counter;

use crate::template::AnswerRr;

/// A compiled binary longest-prefix-match trie over IPv4 prefixes: one
/// node per bit of depth, values at the depths where entries live.
///
/// This is the serving-plane shape of a routing-aware ECS table: a query
/// subnet matches the most specific entry covering it, and the matched
/// depth *is* the RFC 7871 scope the answer advertises. Lookup cost is
/// bounded by the query's own SOURCE PREFIX-LENGTH — entries deeper than
/// what the query disclosed are never matched.
///
/// Generic over the stored value (`Copy`): the serving table stores
/// template indices, tests and tools store addresses directly.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V = Ipv4Addr> {
    nodes: Vec<TrieNode<V>>,
    entries: usize,
}

#[derive(Debug, Clone, Copy)]
struct TrieNode<V> {
    /// Child node indexes for bit 0 / bit 1; 0 means "no child" (the root
    /// is never anyone's child).
    children: [u32; 2],
    value: Option<V>,
}

impl<V: Copy> TrieNode<V> {
    const EMPTY: TrieNode<V> = TrieNode {
        children: [0, 0],
        value: None,
    };
}

impl<V: Copy> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> PrefixTrie<V> {
        PrefixTrie {
            nodes: vec![TrieNode::EMPTY],
            entries: 0,
        }
    }

    /// Number of entries (prefixes with a value).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether the trie holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Inserts `prefix → value`, replacing any existing value at exactly
    /// that prefix.
    pub fn insert(&mut self, prefix: Prefix, value: V) {
        let bits = prefix.raw();
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = usize::from((bits >> (31 - depth)) & 1 == 1);
            let child = self.nodes[node].children[bit];
            node = if child == 0 {
                self.nodes.push(TrieNode::EMPTY);
                let idx = self.nodes.len() - 1;
                self.nodes[node].children[bit] = idx as u32;
                idx
            } else {
                child as usize
            };
        }
        if self.nodes[node].value.is_none() {
            self.entries += 1;
        }
        self.nodes[node].value = Some(value);
    }

    /// Longest-prefix match for `addr`, considering only entries no more
    /// specific than `max_len` bits (the query's SOURCE PREFIX-LENGTH).
    /// Returns the value and the matched entry's prefix length.
    pub fn lookup(&self, addr: Ipv4Addr, max_len: u8) -> Option<(V, u8)> {
        let bits = u32::from(addr);
        let max_len = max_len.min(32);
        let mut node = 0usize;
        let mut best = None;
        let mut depth = 0u8;
        loop {
            if let Some(v) = self.nodes[node].value {
                best = Some((v, depth));
            }
            if depth >= max_len {
                return best;
            }
            let bit = usize::from((bits >> (31 - depth)) & 1 == 1);
            let child = self.nodes[node].children[bit];
            if child == 0 {
                return best;
            }
            node = child as usize;
            depth += 1;
        }
    }
}

impl<V: Copy> Default for PrefixTrie<V> {
    fn default() -> Self {
        PrefixTrie::new()
    }
}

/// One trained table compiled for serving: immutable, cache-friendly.
///
/// Answers are interned as pre-encoded [`AnswerRr`] templates at compile
/// time — one 16-byte baked record per distinct answer address, with
/// index 0 reserved for the anycast-VIP miss/valve answer — so the UDP
/// fast path patches table bytes straight into its send buffer without
/// constructing a [`DnsAnswer`] or running the encoder.
#[derive(Debug, Clone)]
pub struct CompiledTable {
    grouping: Grouping,
    /// ECS groups, longest-prefix-matchable (variable-length prefixes:
    /// aggregation defaults plus their exceptions). Values index
    /// `templates`.
    by_prefix: PrefixTrie<u32>,
    /// LDNS groups: `(resolver id, template index)`, sorted by id.
    by_ldns: Vec<(u32, u32)>,
    /// Interned pre-encoded answers; `templates[0]` is the anycast VIP.
    templates: Vec<AnswerRr>,
    addressing: CdnAddressing,
    ttl_s: u32,
    generation: u64,
}

impl CompiledTable {
    /// Compiles a trained table. `generation` is an operator-chosen
    /// monotonic tag (e.g. the training day) surfaced for observability.
    pub fn compile(
        table: &PredictionTable,
        grouping: Grouping,
        addressing: CdnAddressing,
        ttl_s: u32,
        generation: u64,
    ) -> CompiledTable {
        CompiledTable::compile_with_overrides(
            table,
            &std::collections::BTreeMap::new(),
            grouping,
            addressing,
            ttl_s,
            generation,
        )
    }

    /// Compiles a trained table with per-group assignment overrides — the
    /// control plane's rewrite path. Groups present in `overrides` serve
    /// the overridden target instead of the table's own choice; all other
    /// groups compile exactly as [`CompiledTable::compile`] would.
    /// Overrides for groups the table does not know are ignored (a group
    /// without training evidence is never steered).
    pub fn compile_with_overrides(
        table: &PredictionTable,
        overrides: &std::collections::BTreeMap<GroupKey, Target>,
        grouping: Grouping,
        addressing: CdnAddressing,
        ttl_s: u32,
        generation: u64,
    ) -> CompiledTable {
        // Intern one baked template per distinct answer address; index 0
        // is always the anycast VIP so misses and the overload valve can
        // share it.
        let mut templates = vec![AnswerRr::new(addressing.anycast_ip(), ttl_s)];
        let mut interned: HashMap<Ipv4Addr, u32> = HashMap::new();
        interned.insert(addressing.anycast_ip(), 0);
        let mut ecs_entries: Vec<(Prefix, u32)> = Vec::new();
        let mut by_ldns = Vec::new();
        for (key, choice) in table.iter() {
            let target = overrides.get(&key).copied().unwrap_or(choice.target);
            let addr = match target {
                Target::Anycast => addressing.anycast_ip(),
                Target::Unicast(site) => addressing.site_ip(site),
            };
            let idx = *interned.entry(addr).or_insert_with(|| {
                templates.push(AnswerRr::new(addr, ttl_s));
                (templates.len() - 1) as u32
            });
            match key {
                GroupKey::Ecs(p) => ecs_entries.push((p, idx)),
                GroupKey::Ldns(l) => by_ldns.push((l.0, idx)),
            }
        }
        ecs_entries.sort_unstable_by_key(|&(p, _)| p.key());
        let mut by_prefix = PrefixTrie::new();
        for (p, idx) in ecs_entries {
            by_prefix.insert(p, idx);
        }
        by_ldns.sort_unstable_by_key(|&(k, _)| k);
        CompiledTable {
            grouping,
            by_prefix,
            by_ldns,
            templates,
            addressing,
            ttl_s,
            generation,
        }
    }

    /// An empty table that answers the anycast VIP for everyone — the
    /// cold-start state before the first training run lands.
    pub fn empty(grouping: Grouping, addressing: CdnAddressing, ttl_s: u32) -> CompiledTable {
        CompiledTable {
            grouping,
            by_prefix: PrefixTrie::new(),
            by_ldns: Vec::new(),
            templates: vec![AnswerRr::new(addressing.anycast_ip(), ttl_s)],
            addressing,
            ttl_s,
            generation: 0,
        }
    }

    /// Test scaffolding: this table plus one `key → site` entry, without
    /// training a `PredictionTable` first.
    #[cfg(test)]
    pub(crate) fn with_entry(mut self, key: GroupKey, site: anycast_netsim::SiteId) -> Self {
        let rr = AnswerRr::new(self.addressing.site_ip(site), self.ttl_s);
        self.templates.push(rr);
        let idx = (self.templates.len() - 1) as u32;
        match key {
            GroupKey::Ecs(p) => self.by_prefix.insert(p, idx),
            GroupKey::Ldns(l) => {
                self.by_ldns.push((l.0, idx));
                self.by_ldns.sort_unstable_by_key(|&(k, _)| k);
            }
        }
        self
    }

    /// This table's generation tag.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of redirectable groups (trie entries plus LDNS entries).
    pub fn len(&self) -> usize {
        self.by_prefix.entries() + self.by_ldns.len()
    }

    /// Whether the table holds no groups at all.
    pub fn is_empty(&self) -> bool {
        self.by_prefix.is_empty() && self.by_ldns.is_empty()
    }

    /// The answer TTL this table serves.
    pub fn ttl_s(&self) -> u32 {
        self.ttl_s
    }

    /// The addressing plan (for the degraded-path VIP).
    pub fn addressing(&self) -> &CdnAddressing {
        &self.addressing
    }

    /// The fast-path lookup: the baked answer template for a query from
    /// `ldns` carrying `ecs`, plus the ECS scope to advertise. Misses
    /// resolve to `templates[0]`, the anycast VIP. No allocation.
    pub fn answer_rr(&self, ldns: LdnsId, ecs: Option<&EcsOption>) -> (&AnswerRr, u8) {
        let (idx, matched_len) = match self.grouping {
            Grouping::Ecs => {
                match ecs.and_then(|e| self.by_prefix.lookup(e.prefix.network(), e.prefix.len())) {
                    Some((idx, len)) => (idx, Some(len)),
                    None => (0, None),
                }
            }
            Grouping::Ldns => (
                self.by_ldns
                    .binary_search_by_key(&ldns.0, |&(k, _)| k)
                    .ok()
                    .map(|i| self.by_ldns[i].1)
                    .unwrap_or(0),
                None,
            ),
        };
        (
            &self.templates[idx as usize],
            self.grouping.answer_scope(matched_len),
        )
    }

    /// The baked valve answer: the anycast VIP at this table's TTL.
    pub fn valve_rr(&self) -> &AnswerRr {
        &self.templates[0]
    }

    /// Decides the answer for a query from `ldns` carrying `ecs`.
    ///
    /// Mirrors [`PredictionTable::match_query`] exactly: longest-prefix
    /// match for ECS tables (bounded by the query's disclosed prefix
    /// length), exact match for LDNS tables, anycast VIP on a miss. The ECS scope is the
    /// matched entry's prefix length — and 0 on a miss: the VIP fallback
    /// was derived from no subnet, so advertising the query's /24 there
    /// (the old behavior) fragmented resolver caches into per-/24 entries
    /// that all held the same generic answer.
    pub fn answer(&self, ldns: LdnsId, ecs: Option<&EcsOption>) -> DnsAnswer {
        let (rr, scope) = self.answer_rr(ldns, ecs);
        DnsAnswer::scoped(rr.addr(), self.ttl_s, scope)
    }
}

/// Atomically swappable holder of the live [`CompiledTable`].
///
/// Readers take the read lock just long enough to clone an `Arc`;
/// [`TableStore::swap`] installs a new table under the write lock. Hand
/// the server one `Arc<TableStore>` and keep a second handle to swap
/// tables while it runs.
#[derive(Debug)]
pub struct TableStore {
    current: RwLock<Arc<CompiledTable>>,
}

impl TableStore {
    /// Creates the store with an initial table.
    pub fn new(initial: CompiledTable) -> TableStore {
        TableStore {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// The live table (cheap `Arc` clone).
    pub fn load(&self) -> Arc<CompiledTable> {
        self.current.read().expect("table lock poisoned").clone()
    }

    /// Atomically replaces the live table, returning the old one.
    pub fn swap(&self, next: CompiledTable) -> Arc<CompiledTable> {
        counter!("serve_table_swaps_total").inc();
        let next = Arc::new(next);
        let mut slot = self.current.write().expect("table lock poisoned");
        std::mem::replace(&mut *slot, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_netsim::{Day, Prefix24, SiteId};

    fn plan() -> CdnAddressing {
        CdnAddressing::standard(8)
    }

    fn ecs(n: u8) -> EcsOption {
        EcsOption::for_prefix(Prefix24::containing(Ipv4Addr::new(10, 0, n, 1)))
    }

    #[test]
    fn empty_table_answers_anycast() {
        let t = CompiledTable::empty(Grouping::Ecs, plan(), 60);
        assert!(t.is_empty());
        // A miss is derived from no subnet: scope 0, never the query's 24.
        let a = t.answer(LdnsId(0), Some(&ecs(1)));
        assert!(plan().is_anycast(a.addr));
        assert_eq!((a.ttl_s, a.ecs_scope), (60, 0));
        let b = t.answer(LdnsId(0), None);
        assert_eq!(b.ecs_scope, 0);
    }

    #[test]
    fn trie_longest_match_and_source_len_bound() {
        let mut trie = PrefixTrie::new();
        let a8 = Ipv4Addr::new(192, 0, 2, 8);
        let a16 = Ipv4Addr::new(192, 0, 2, 16);
        let a24 = Ipv4Addr::new(192, 0, 2, 24);
        trie.insert(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8), a8);
        trie.insert(Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16), a16);
        trie.insert(Prefix::new(Ipv4Addr::new(10, 1, 2, 0), 24), a24);
        assert_eq!(trie.entries(), 3);
        // Longest match wins at full depth.
        let q = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(trie.lookup(q, 32), Some((a24, 24)));
        // Bounding by the query's source prefix length hides deeper
        // entries: a /16 query can only see the /8 and /16.
        assert_eq!(trie.lookup(q, 16), Some((a16, 16)));
        assert_eq!(trie.lookup(q, 12), Some((a8, 8)));
        assert_eq!(trie.lookup(q, 0), None);
        // Siblings don't leak.
        assert_eq!(trie.lookup(Ipv4Addr::new(10, 9, 0, 1), 32), Some((a8, 8)));
        assert_eq!(trie.lookup(Ipv4Addr::new(11, 0, 0, 1), 32), None);
        // Re-inserting replaces, not duplicates.
        trie.insert(Prefix::new(Ipv4Addr::new(10, 1, 2, 0), 24), a8);
        assert_eq!(trie.entries(), 3);
        assert_eq!(trie.lookup(q, 24), Some((a8, 24)));
    }

    #[test]
    fn compiled_ecs_table_scopes_answers_by_matched_prefix() {
        use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot, Target};
        use anycast_core::prediction::{AggregationConfig, Predictor, PredictorConfig, TrainSpec};

        // Two adjacent /24s agreeing on site 2: aggregation compiles them
        // into one short default entry.
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        for n in [1u8, 2] {
            for (target, rtt) in [(Target::Anycast, 90.0), (Target::Unicast(SiteId(2)), 40.0)] {
                for _ in 0..25 {
                    ds.extend([BeaconMeasurement {
                        measurement_id: match target {
                            Target::Anycast => Slot::Anycast.id_for(exec),
                            Target::Unicast(_) => Slot::GeoClosest.id_for(exec),
                        },
                        slot: Slot::Anycast,
                        prefix: Prefix24::containing(Ipv4Addr::new(10, 0, n, 1)),
                        ldns: LdnsId(0),
                        ecs: None,
                        target,
                        served_site: SiteId(2),
                        rtt_ms: rtt,
                        failed: false,
                        day: Day(0),
                        time_s: 0.0,
                    }]);
                    exec += 1;
                }
            }
        }
        let spec = TrainSpec {
            days: vec![Day(0)],
            agg: Some(AggregationConfig::default()),
        };
        let table = Predictor::new(PredictorConfig::default()).train(&ds, spec);
        let compiled = CompiledTable::compile(&table, Grouping::Ecs, plan(), 60, 1);
        assert_eq!(compiled.len(), 1, "two agreeing /24s share one entry");
        // A /24 query under the aggregate: redirected, scoped to the
        // aggregate's length (not 24).
        let a = compiled.answer(LdnsId(0), Some(&ecs(1)));
        assert_eq!(plan().site_for_ip(a.addr), Some(SiteId(2)));
        assert!(a.ecs_scope < 24 && a.ecs_scope >= 8);
        // A coarser query still covered by the aggregate gets the same
        // answer — the whole point of routing-aware scopes.
        let coarse = EcsOption::for_subnet(Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 16));
        let b = compiled.answer(LdnsId(0), Some(&coarse));
        assert_eq!(plan().site_for_ip(b.addr), Some(SiteId(2)));
        assert_eq!(b.ecs_scope, a.ecs_scope);
        // Outside the aggregate: miss, scope 0.
        let far = EcsOption::for_subnet(Prefix::new(Ipv4Addr::new(99, 0, 0, 0), 24));
        let c = compiled.answer(LdnsId(0), Some(&far));
        assert!(plan().is_anycast(c.addr));
        assert_eq!(c.ecs_scope, 0);
    }

    #[test]
    fn overrides_rewrite_known_groups_and_ignore_unknown_ones() {
        use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot, Target};
        use anycast_core::prediction::{Predictor, PredictorConfig};

        // Train a tiny LDNS-keyed table where resolvers 0 and 1 both
        // prefer unicast site 0 over anycast.
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        for ldns in [LdnsId(0), LdnsId(1)] {
            for (target, rtt) in [(Target::Anycast, 90.0), (Target::Unicast(SiteId(0)), 40.0)] {
                for _ in 0..25 {
                    ds.extend([BeaconMeasurement {
                        measurement_id: match target {
                            Target::Anycast => Slot::Anycast.id_for(exec),
                            Target::Unicast(_) => Slot::GeoClosest.id_for(exec),
                        },
                        slot: Slot::Anycast,
                        prefix: Prefix24::containing(Ipv4Addr::new(10, 0, ldns.0 as u8, 1)),
                        ldns,
                        ecs: None,
                        target,
                        served_site: SiteId(0),
                        rtt_ms: rtt,
                        failed: false,
                        day: Day(0),
                        time_s: 0.0,
                    }]);
                    exec += 1;
                }
            }
        }
        let cfg = PredictorConfig {
            grouping: Grouping::Ldns,
            ..PredictorConfig::default()
        };
        let table = Predictor::new(cfg).train(&ds, Day(0));

        let mut overrides = std::collections::BTreeMap::new();
        // Steer resolver 0 somewhere else; resolver 99 has no training
        // evidence, so its override must be dropped on the floor.
        overrides.insert(GroupKey::Ldns(LdnsId(0)), Target::Unicast(SiteId(3)));
        overrides.insert(GroupKey::Ldns(LdnsId(99)), Target::Unicast(SiteId(5)));
        let rewritten = CompiledTable::compile_with_overrides(
            &table,
            &overrides,
            Grouping::Ldns,
            plan(),
            60,
            2,
        );
        let baseline = CompiledTable::compile(&table, Grouping::Ldns, plan(), 60, 2);

        assert_eq!(
            rewritten.len(),
            baseline.len(),
            "overrides never add groups"
        );
        let site_of =
            |t: &CompiledTable, id: u32| plan().site_for_ip(t.answer(LdnsId(id), None).addr);
        assert_eq!(site_of(&rewritten, 0), Some(SiteId(3)), "override applied");
        assert_eq!(
            site_of(&rewritten, 1),
            site_of(&baseline, 1),
            "untouched group unchanged"
        );
        // Unknown group: both tables miss and fall back to the VIP.
        assert!(plan().is_anycast(rewritten.answer(LdnsId(99), None).addr));
        // An empty override map is the identity.
        let id = CompiledTable::compile_with_overrides(
            &table,
            &std::collections::BTreeMap::new(),
            Grouping::Ldns,
            plan(),
            60,
            2,
        );
        for ldns in [0u32, 1, 99] {
            assert_eq!(
                id.answer(LdnsId(ldns), None).addr,
                baseline.answer(LdnsId(ldns), None).addr
            );
        }
    }

    #[test]
    fn swap_changes_answers_without_restart() {
        let store = TableStore::new(CompiledTable::empty(Grouping::Ldns, plan(), 60));
        assert!(plan().is_anycast(store.load().answer(LdnsId(7), None).addr));
        let mut t = CompiledTable::empty(Grouping::Ldns, plan(), 60)
            .with_entry(GroupKey::Ldns(LdnsId(7)), SiteId(3));
        t.generation = 1;
        let old = store.swap(t);
        assert_eq!(old.generation(), 0);
        let a = store.load().answer(LdnsId(7), None);
        assert_eq!(plan().site_for_ip(a.addr), Some(SiteId(3)));
        assert_eq!(store.load().generation(), 1);
    }
}
