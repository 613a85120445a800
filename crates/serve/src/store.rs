//! Hot-reloadable prediction-table store.
//!
//! The §6 predictor retrains once per prediction interval (a day in the
//! paper); the serving plane must pick the new table up without dropping
//! queries. [`CompiledTable`] freezes one trained [`PredictionTable`] for
//! serving: each group's answer is interned as a pre-encoded template,
//! and the groups sit in a [`GroupIndex`], the trained table's own index
//! (a few hash probes per query, no locking on the read path).
//! [`TableStore`] swaps whole tables atomically under a brief write lock.
//! A UDP worker clones the `Arc` once per batch (TCP once per message), so
//! a swap never blocks a lookup in flight, a batch is answered from one
//! generation, and an old table stays alive until the last batch holding
//! it completes.
//!
//! A query finds its group by [`GroupIndex::match_query`], the rule
//! [`PredictionTable::match_query`] answers by, so [`CompiledTable::answer`]
//! is the answer the source table implies by construction. The loopback
//! equivalence tests pin `(addr, ttl_s, ecs_scope)` for a full simulated
//! day of queries on the wire, and a property test at every ECS source
//! length.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::{Arc, RwLock};

use anycast_beacon::Target;
use anycast_core::prediction::{GroupIndex, GroupKey, Grouping, PredictionTable};
use anycast_dns::ecs::EcsOption;
use anycast_dns::{DnsAnswer, LdnsId};
use anycast_netsim::CdnAddressing;
use anycast_obs::counter;

use crate::template::AnswerRr;

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
    /// Each group's index into `templates`: ECS groups of any prefix
    /// length (aggregation defaults plus their exceptions) and LDNS groups.
    groups: GroupIndex<u32>,
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
            &BTreeMap::new(),
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
        overrides: &BTreeMap<GroupKey, Target>,
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
        let groups = table
            .iter()
            .map(|(key, choice)| {
                let target = overrides.get(&key).copied().unwrap_or(choice.target);
                let addr = match target {
                    Target::Anycast => addressing.anycast_ip(),
                    Target::Unicast(site) => addressing.site_ip(site),
                };
                let idx = *interned.entry(addr).or_insert_with(|| {
                    templates.push(AnswerRr::new(addr, ttl_s));
                    (templates.len() - 1) as u32
                });
                (key, idx)
            })
            .collect();
        CompiledTable {
            grouping,
            groups,
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
            groups: GroupIndex::default(),
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
        let rows = self.groups.iter().map(|(k, &v)| (k, v));
        self.groups = rows.chain([(key, idx)]).collect();
        self
    }

    /// This table's generation tag.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of redirectable groups (ECS and LDNS entries).
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the table holds no groups at all.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
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
        let matched = self
            .groups
            .match_query(self.grouping, ldns, ecs.map(|e| e.prefix));
        let (idx, matched_len) = match matched {
            Some((GroupKey::Ecs(p), &idx)) => (idx, Some(p.len())),
            Some((GroupKey::Ldns(_), &idx)) => (idx, None),
            None => (0, None),
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

    /// Decides the answer for a query from `ldns` carrying `ecs`: the
    /// template [`CompiledTable::answer_rr`] picks. The ECS scope is the
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
    use anycast_netsim::{Day, Prefix, Prefix24, SiteId};

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
