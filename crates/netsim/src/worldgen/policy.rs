//! Valley-free route selection and catchment computation at scale.
//!
//! Instead of the per-client distance ranking of [`crate::bgp`], generated
//! worlds route by Gao-Rexford policy: every AS prefers routes learned from
//! a **customer** over a **peer** over a **provider** (local preference),
//! then shortest AS path, then a deterministic lowest-next-hop tie-break —
//! latency is never consulted, exactly like real BGP. Export rules make
//! the selected forest valley-free: customer-learned routes go to
//! everyone, peer/provider-learned routes go only to customers.
//!
//! One **catchment table** answers "where does every AS's traffic enter
//! the CDN" for one announcement configuration. It is computed by a
//! three-phase multi-source relaxation over the policy graph:
//!
//! 1. customer routes climb provider edges from the CDN's transit sessions;
//! 2. peer routes take one lateral step from customer-routed ASes (plus
//!    the CDN's own peering sessions);
//! 3. provider routes descend customer edges from every routed AS.
//!
//! Each phase is a lexicographic-minimum fixpoint over `(path_len,
//! next_hop)`. Phases 1 and 3 reach it from a **worklist in path-length
//! order**: every node being recomputed first pulls the best candidate its
//! already-routed neighbors offer, then nodes are finalized level by level
//! and push `path_len + 1` to the neighbors that learn from them. A node
//! is visited once per length it ever holds, so a pass costs the nodes it
//! recomputes plus their edges — O(V+E) from scratch, the size of the
//! dirty subtree for an event.
//!
//! A from-scratch table is compact: one 8-byte [`RouteEntry`] per AS. Full
//! AS paths are not materialized — they are shared structurally through
//! the `next_hop` forest and reconstructed on demand by
//! [`CatchmentTable::path`]. Only two tables are computed from scratch:
//! the steady one and the **unicast base**, in which just the sessions
//! established at every border are live. Every other table shares one of
//! them and holds only the entries that differ: an **event table**
//! (session and border flaps) is the steady table minus what an event
//! takes away, a few dozen entries of 75 000; a **unicast table** is
//! the unicast base plus what one border's own sessions add, the few
//! thousand ASes below their owners.
//!
//! [`PolicyWorld`] memoizes the steady table and the per-site unicast
//! tables for the life of the world (every day that shares the
//! announcement set shares them). Event tables are cheap enough that
//! nobody caches them globally — each day's
//! [`RouteSnapshot`](crate::RouteSnapshot) computes its own once.
//!
//! A table holds each AS's rank-0 route. The churn law's runner-up
//! ([`super::dynamics::selection_rank`]) keeps the AS path and moves only
//! the ingress, so it is read at lookup ([`PolicyWorld::ingress_at`]) and
//! needs no table of its own.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, OnceLock};

use anycast_geo::{MetroId, WorldAtlas};
use anycast_obs::counter;

use crate::ids::BorderId;
use crate::sim::Day;
use crate::stream::{run_workers, FastMap};
use crate::topology::CdnNetwork;

use super::dynamics::{DynEvent, EventWindow, RouteDynamics};
use super::graph::{CdnRelation, CdnSession, Csr, PolicyGraph, NO_SESSION};

#[cfg(test)]
mod oracle;

/// Route class codes, ordered by BGP local preference (lower = preferred).
pub mod route_class {
    /// Learned from a customer (exported to everyone).
    pub const CUSTOMER: u8 = 0;
    /// Learned from a peer (exported only to customers).
    pub const PEER: u8 = 1;
    /// Learned from a provider (exported only to customers).
    pub const PROVIDER: u8 = 2;
    /// No route.
    pub const NONE: u8 = u8::MAX;
}

/// `next_hop` sentinel: the route hands directly to the CDN.
pub const CDN_NEXT: u32 = u32::MAX;

/// One AS's selected route towards the anycast (or a unicast) prefix:
/// 8 bytes, so a 75k-AS table is ~600 kB and fits in L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Next AS on the path, or [`CDN_NEXT`] when this AS hands off to the
    /// CDN itself.
    pub next_hop: u32,
    /// CDN border router where the traffic ultimately ingresses (raw
    /// [`BorderId`]), `u16::MAX` when unrouted.
    pub ingress: u16,
    /// Route class ([`route_class`]).
    pub class: u8,
    /// AS-path length (hops to the CDN; 1 = directly adjacent).
    pub path_len: u8,
}

impl RouteEntry {
    const NONE: RouteEntry = RouteEntry {
        next_hop: CDN_NEXT,
        ingress: u16::MAX,
        class: route_class::NONE,
        path_len: u8::MAX,
    };

    /// A route of `class` over `next_hop` at `path_len`; the ingress is
    /// resolved after the three phases.
    fn via(next_hop: u32, class: u8, path_len: u8) -> RouteEntry {
        RouteEntry {
            next_hop,
            ingress: u16::MAX,
            class,
            path_len,
        }
    }

    /// Whether a route exists.
    pub fn is_routed(&self) -> bool {
        self.class != route_class::NONE
    }
}

/// The routing environment a table is computed under: which announcements
/// and sessions are live. The empty environment is the steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteEnv {
    /// Borders that have withdrawn the announcement (site outages and
    /// border flaps), sorted ascending.
    pub withdrawn: Vec<BorderId>,
    /// Session indexes that are down (session flaps), sorted ascending.
    pub dead_sessions: Vec<u32>,
    /// Restrict the announcement to exactly one border: the unicast
    /// per-site prefix, announced only at the site's colocated border.
    pub only_border: Option<BorderId>,
}

impl RouteEnv {
    /// Whether this is the steady anycast environment.
    pub fn is_steady(&self) -> bool {
        self.withdrawn.is_empty() && self.dead_sessions.is_empty() && self.only_border.is_none()
    }

    /// Stable key: equal environments hash equal. The steady environment
    /// is key 0 and pure unicast environments set bit 63 — the two kinds
    /// [`PolicyWorld`] memoizes; event environments are odd hashes with
    /// bit 63 clear and are never memoized.
    pub fn key(&self) -> u64 {
        if self.is_steady() {
            return 0;
        }
        if let Some(b) = self.only_border {
            if self.withdrawn.is_empty() && self.dead_sessions.is_empty() {
                return (1u64 << 63) | u64::from(b.0);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset
        let mut eat = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        eat(0xA1);
        for b in &self.withdrawn {
            eat(u64::from(b.0) + 1);
        }
        eat(0xA2);
        for s in &self.dead_sessions {
            eat(u64::from(*s) + 1);
        }
        if let Some(b) = self.only_border {
            eat(0xA4);
            eat(u64::from(b.0) + 1);
        }
        (h & !(1u64 << 63)) | 1 // odd, bit 63 clear: an event key
    }

    fn session_dead(&self, s: u32) -> bool {
        self.dead_sessions.binary_search(&s).is_ok()
    }

    /// The one border that announces, if exactly one does.
    fn sole_live_border(&self) -> Option<BorderId> {
        self.only_border.filter(|&b| self.border_live(b))
    }

    fn border_live(&self, b: BorderId) -> bool {
        if let Some(only) = self.only_border {
            if b != only {
                return false;
            }
        }
        self.withdrawn.binary_search(&b).is_err()
    }
}

/// One route per AS, computed from scratch, plus what the tables derived
/// from it reuse.
#[derive(Debug)]
struct DenseTable {
    entries: Vec<RouteEntry>,
    /// The routing tree, inverted: `children.neighbors(u)` = nodes whose
    /// `next_hop` is `u`. Built by the first event recompute against this
    /// table.
    children: OnceLock<Csr>,
    /// A [`Subtree::slot`] array with every node clean, handed from one
    /// derivation to the next so that marking a subtree dirty costs the
    /// subtree, not a pass over every AS. Empty until the first derivation
    /// and while one has it; a concurrent one allocates its own.
    slots: Mutex<Vec<u32>>,
}

impl DenseTable {
    fn new(entries: Vec<RouteEntry>) -> DenseTable {
        DenseTable {
            entries,
            children: OnceLock::new(),
            slots: Mutex::new(Vec::new()),
        }
    }

    fn children(&self) -> &Csr {
        self.children.get_or_init(|| {
            Csr::from_parents(self.entries.len(), |v| {
                let e = self.entries[v as usize];
                (e.is_routed() && e.next_hop != CDN_NEXT).then_some(e.next_hop)
            })
        })
    }

    fn memory_bytes(&self) -> usize {
        let slots = self.slots.lock().expect("slot scratch poisoned");
        self.entries.len() * std::mem::size_of::<RouteEntry>()
            + self.children.get().map_or(0, Csr::memory_bytes)
            + slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// `e` as a table announced only at `sole_ingress` holds it: under a
/// single-border announcement every route ingresses at that border.
fn pinned(e: RouteEntry, sole_ingress: Option<BorderId>) -> RouteEntry {
    match sole_ingress {
        Some(b) if e.is_routed() => RouteEntry { ingress: b.0, ..e },
        _ => e,
    }
}

/// One computed catchment table: the selected route per AS.
///
/// A from-scratch table owns one dense entry per AS. A table held as
/// differences from a shared base — an event table over the steady table,
/// a unicast table over the unicast base — shares the base's dense entries
/// and holds only the entries that differ; every accessor answers from the
/// differences first, then the base.
#[derive(Debug, Clone)]
pub struct CatchmentTable {
    dense: Arc<DenseTable>,
    /// `(node, entry)` where this table differs from `dense` (as
    /// `sole_ingress` reads it), ascending by node. Empty for a
    /// from-scratch table.
    overrides: Vec<(u32, RouteEntry)>,
    /// On a unicast table, the one border that announces: every routed
    /// entry ingresses there, so the base's ingresses are read as it.
    sole_ingress: Option<BorderId>,
}

impl PartialEq for CatchmentTable {
    /// Two tables are equal when they route every AS the same way,
    /// whichever form they are held in.
    fn eq(&self, other: &CatchmentTable) -> bool {
        self.entries() == other.entries()
    }
}

impl CatchmentTable {
    /// The stored entry of `node`, routed or not.
    fn raw(&self, node: u32) -> RouteEntry {
        match self.overrides.binary_search_by_key(&node, |o| o.0) {
            Ok(i) => self.overrides[i].1,
            Err(_) => pinned(self.dense.entries[node as usize], self.sole_ingress),
        }
    }

    /// Whether this table owns `dense` rather than sharing it as a base.
    fn is_from_scratch(&self) -> bool {
        self.overrides.is_empty() && self.sole_ingress.is_none()
    }

    /// The route entry of `node`, if routed.
    pub fn entry(&self, node: u32) -> Option<RouteEntry> {
        let e = self.raw(node);
        e.is_routed().then_some(e)
    }

    /// The ingress border of `node`'s selected route.
    pub fn ingress(&self, node: u32) -> Option<BorderId> {
        self.entry(node).map(|e| BorderId(e.ingress))
    }

    /// Reconstructs the AS path of `node` (itself first, CDN-adjacent AS
    /// last) by chasing shared next-hop links, each read from the
    /// differences first.
    pub fn path(&self, node: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = node;
        loop {
            let e = self.raw(cur);
            if !e.is_routed() {
                break;
            }
            out.push(cur);
            match e.next_hop {
                CDN_NEXT => break,
                next => cur = next,
            }
        }
        out
    }

    /// Number of routed ASes: the base's, corrected by the differences.
    pub fn routed_count(&self) -> usize {
        let routed = |e: &RouteEntry| usize::from(e.is_routed());
        let base: usize = self.dense.entries.iter().map(routed).sum();
        let gained: usize = self.overrides.iter().map(|(_, e)| routed(e)).sum();
        let lost: usize = self
            .overrides
            .iter()
            .map(|&(v, _)| routed(&self.dense.entries[v as usize]))
            .sum();
        base + gained - lost
    }

    /// Bytes this table holds: its dense entries (plus the child index
    /// and slot scratch that derivations from it have built) for a
    /// from-scratch table, only its differences (12 B each) for a table
    /// held as differences from a shared base — the base is counted once,
    /// by whoever owns it.
    pub fn memory_bytes(&self) -> usize {
        if self.is_from_scratch() {
            self.dense.memory_bytes()
        } else {
            std::mem::size_of_val(&self.overrides[..])
        }
    }

    /// One entry per AS: borrowed from a from-scratch table, materialised
    /// for a table held as differences from a shared base (tests/benches).
    pub fn entries(&self) -> Cow<'_, [RouteEntry]> {
        if self.is_from_scratch() {
            return Cow::Borrowed(&self.dense.entries);
        }
        let pin = |&e: &RouteEntry| pinned(e, self.sole_ingress);
        let mut all: Vec<RouteEntry> = self.dense.entries.iter().map(pin).collect();
        for &(v, e) in &self.overrides {
            all[v as usize] = e;
        }
        Cow::Owned(all)
    }

    /// `(node, entry)` for every AS this table routes differently from the
    /// shared base it was derived from (the single ingress border of a
    /// unicast table aside), ascending by node. Empty when from scratch.
    pub fn overrides(&self) -> &[(u32, RouteEntry)] {
        &self.overrides
    }
}

/// The entries one relaxation works on. Every node is either *dirty* —
/// reset to unrouted and being recomputed — or a fixed boundary condition.
trait WorkSet {
    fn get(&self, v: u32) -> RouteEntry;
    /// Stores the entry of a dirty node.
    fn set(&mut self, v: u32, e: RouteEntry);
    fn is_dirty(&self, v: u32) -> bool;
    fn dirty_len(&self) -> usize;
    /// The `i`-th dirty node, `i < dirty_len()`.
    fn dirty_node(&self, i: usize) -> u32;
}

/// From scratch: every node is dirty.
struct WholeGraph(Vec<RouteEntry>);

impl WorkSet for WholeGraph {
    fn get(&self, v: u32) -> RouteEntry {
        self.0[v as usize]
    }
    fn set(&mut self, v: u32, e: RouteEntry) {
        self.0[v as usize] = e;
    }
    fn is_dirty(&self, _: u32) -> bool {
        true
    }
    fn dirty_len(&self) -> usize {
        self.0.len()
    }
    fn dirty_node(&self, i: usize) -> u32 {
        i as u32
    }
}

/// Incremental: a dirty subtree laid over a borrowed base that is never
/// copied.
struct Subtree<'a> {
    base: &'a Arc<DenseTable>,
    /// Clean entries are read as [`pinned`] to this border.
    sole_ingress: Option<BorderId>,
    /// Per node: its index into `nodes`/`vals`, or [`Subtree::CLEAN`].
    slot: Vec<u32>,
    nodes: Vec<u32>,
    vals: Vec<RouteEntry>,
}

impl<'a> Subtree<'a> {
    const CLEAN: u32 = u32::MAX;

    /// Nothing dirty yet, over the base's slot scratch if nobody has it.
    fn over(base: &'a Arc<DenseTable>, sole_ingress: Option<BorderId>) -> Subtree<'a> {
        let mut slot = std::mem::take(&mut *base.slots.lock().expect("slot scratch poisoned"));
        if slot.len() != base.entries.len() {
            slot = vec![Self::CLEAN; base.entries.len()];
        }
        Subtree {
            base,
            sole_ingress,
            slot,
            nodes: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The base's entry of `v`, as this table reads it.
    fn clean(&self, v: u32) -> RouteEntry {
        pinned(self.base.entries[v as usize], self.sole_ingress)
    }

    /// Marks `v` dirty (idempotent): its entry restarts unrouted.
    fn mark(&mut self, v: u32) {
        if self.slot[v as usize] == Self::CLEAN {
            self.slot[v as usize] = self.nodes.len() as u32;
            self.nodes.push(v);
            self.vals.push(RouteEntry::NONE);
        }
    }

    /// Marks everything reachable from a dirty node over `edges`.
    fn close_over(&mut self, edges: &Csr) {
        let mut head = 0;
        while head < self.nodes.len() {
            for &u in edges.neighbors(self.nodes[head]) {
                self.mark(u);
            }
            head += 1;
        }
    }

    /// Puts the dirty nodes in ascending order before any is relaxed, so
    /// the phases walk the per-node arrays forward and the overrides come
    /// out sorted. The order nodes are relaxed in cannot change the
    /// fixpoint they reach.
    fn sort(&mut self) {
        self.nodes.sort_unstable();
        for (i, &v) in self.nodes.iter().enumerate() {
            self.slot[v as usize] = i as u32;
        }
    }

    /// The relaxed subtree as a table: the base shared, the dirty entries
    /// that ended up different from it kept. Hands the slot array back to
    /// the base, every node clean again, for the next subtree.
    fn into_table(mut self) -> CatchmentTable {
        debug_assert!(self.nodes.is_sorted(), "a subtree is relaxed sorted");
        let overrides: Vec<(u32, RouteEntry)> = self
            .nodes
            .iter()
            .zip(&self.vals)
            .filter(|&(&v, e)| self.clean(v) != *e)
            .map(|(&v, &e)| (v, e))
            .collect();
        for &v in &self.nodes {
            self.slot[v as usize] = Self::CLEAN;
        }
        *self.base.slots.lock().expect("slot scratch poisoned") = self.slot;
        CatchmentTable {
            dense: Arc::clone(self.base),
            overrides,
            sole_ingress: self.sole_ingress,
        }
    }
}

impl WorkSet for Subtree<'_> {
    fn get(&self, v: u32) -> RouteEntry {
        match self.slot[v as usize] {
            Self::CLEAN => self.clean(v),
            s => self.vals[s as usize],
        }
    }
    fn set(&mut self, v: u32, e: RouteEntry) {
        self.vals[self.slot[v as usize] as usize] = e;
    }
    fn is_dirty(&self, v: u32) -> bool {
        self.slot[v as usize] != Self::CLEAN
    }
    fn dirty_len(&self) -> usize {
        self.nodes.len()
    }
    fn dirty_node(&self, i: usize) -> u32 {
        self.nodes[i]
    }
}

/// Nodes queued by path length, drained shortest first. AS paths are a
/// handful of hops, so this is a few small vectors.
#[derive(Default)]
struct Levels {
    by_len: Vec<Vec<u32>>,
}

impl Levels {
    fn push(&mut self, path_len: u8, v: u32) {
        let l = usize::from(path_len);
        if self.by_len.len() <= l {
            self.by_len.resize_with(l + 1, Vec::new);
        }
        self.by_len[l].push(v);
    }

    /// Calls `visit(path_len, node, self)` for every queued node in
    /// ascending length order, including nodes `visit` queues at longer
    /// lengths on the way. Leaves the queue empty.
    fn drain(&mut self, mut visit: impl FnMut(u8, u32, &mut Levels)) {
        let mut l = 0;
        while l < self.by_len.len() {
            for v in std::mem::take(&mut self.by_len[l]) {
                visit(l as u8, v, self);
            }
            l += 1;
        }
        self.by_len.clear();
    }
}

/// The best route of `class` a node can learn from `upstream`, the
/// neighbors that export to it: lowest `(path_len, next_hop)` among those
/// whose current route satisfies `exports`.
fn best_via(
    w: &impl WorkSet,
    upstream: &[u32],
    class: u8,
    exports: impl Fn(&RouteEntry) -> bool,
) -> RouteEntry {
    let mut best = RouteEntry::NONE;
    for &u in upstream {
        let ue = w.get(u);
        if !exports(&ue) {
            continue;
        }
        let cand_len = ue.path_len.saturating_add(1);
        if !best.is_routed() || (cand_len, u) < (best.path_len, best.next_hop) {
            best = RouteEntry::via(u, class, cand_len);
        }
    }
    best
}

/// Finalizes the queued nodes of one route `class` in path-length order,
/// pushing `path_len + 1` over `learners` (the neighbors that learn this
/// class from a node) into dirty nodes that hold no route yet or a worse
/// one of the same class. A node whose length improved after it was
/// queued is skipped at its stale length — it was queued again at the
/// better one.
fn relax(w: &mut impl WorkSet, levels: &mut Levels, class: u8, learners: &Csr) {
    levels.drain(|len, v, levels| {
        if w.get(v).path_len != len {
            return;
        }
        let cand_len = len.saturating_add(1);
        for &u in learners.neighbors(v) {
            if !w.is_dirty(u) {
                continue;
            }
            let ue = w.get(u);
            let better = !ue.is_routed()
                || (ue.class == class && (cand_len, v) < (ue.path_len, ue.next_hop));
            if better {
                w.set(u, RouteEntry::via(v, class, cand_len));
                if ue.path_len != cand_len {
                    levels.push(cand_len, u);
                }
            }
        }
    });
}

/// Whether `sess` is established at every one of `n_borders` borders, and
/// so is live under every single-border announcement alike.
fn at_every_border(sess: &CdnSession, n_borders: usize) -> bool {
    (0..n_borders as u16).all(|b| sess.borders.contains(&BorderId(b)))
}

/// The policy-routed world: graph + dynamics + memoized catchment tables.
///
/// Shared read-only (behind `Arc`) by every clone of the owning
/// [`crate::Internet`]; the table cache is a mutex because computing a
/// table is rare and serving one is an `Arc` clone.
#[derive(Debug)]
pub struct PolicyWorld {
    /// The AS graph.
    pub graph: PolicyGraph,
    dynamics: RouteDynamics,
    atlas: WorldAtlas,
    /// The metro of each CDN border router, by [`BorderId`].
    border_metro: Vec<MetroId>,
    /// By [`BorderId`]: the sessions that list the border but not every
    /// border, ascending — what a unicast announcement there brings up
    /// over the unicast base.
    partial_sessions: Vec<Vec<u32>>,
    /// The steady table and the unicast tables, by [`RouteEnv::key`]. Each
    /// cell is filled by exactly one caller; concurrent callers of the
    /// same key wait for it rather than compute it again.
    tables: Mutex<FastMap<u64, TableCell>>,
    /// What every unicast table shares ([`PolicyWorld::unicast_base`]),
    /// filled by the first unicast derivation while concurrent ones wait.
    unicast_base: OnceLock<CatchmentTable>,
    day_events: Mutex<FastMap<u32, Arc<Vec<EventWindow>>>>,
}

type TableCell = Arc<OnceLock<Arc<CatchmentTable>>>;

impl PolicyWorld {
    /// Builds the world over `cdn`'s border routers.
    pub fn new(
        graph: PolicyGraph,
        dynamics: RouteDynamics,
        atlas: &WorldAtlas,
        cdn: &CdnNetwork,
    ) -> PolicyWorld {
        let border_metro: Vec<MetroId> = cdn.borders.iter().map(|b| b.metro).collect();
        let mut partial_sessions = vec![Vec::new(); border_metro.len()];
        for (s, sess) in graph.sessions.iter().enumerate() {
            if !at_every_border(sess, border_metro.len()) {
                for &b in &sess.borders {
                    partial_sessions[b.0 as usize].push(s as u32);
                }
            }
        }
        PolicyWorld {
            graph,
            dynamics,
            atlas: atlas.clone(),
            border_metro,
            partial_sessions,
            tables: Mutex::new(FastMap::default()),
            unicast_base: OnceLock::new(),
            day_events: Mutex::new(FastMap::default()),
        }
    }

    /// The hot-potato ingress of session `s` as seen from `for_metro` at
    /// egress-selection `rank`: the nearest live border (ties by id) at
    /// rank 0, the runner-up at any higher rank — the nearest again when it
    /// is the only live one. `None` when no border of the session is live.
    fn session_ingress(
        &self,
        s: u32,
        for_metro: MetroId,
        env: &RouteEnv,
        rank: usize,
    ) -> Option<BorderId> {
        let sess = &self.graph.sessions[s as usize];
        let from = self.atlas.metro_km_from(for_metro);
        let km = |b: BorderId| from[self.border_metro[b.0 as usize].0 as usize];
        let mut best: Option<BorderId> = None;
        let mut second: Option<BorderId> = None;
        for &b in &sess.borders {
            if !env.border_live(b) {
                continue;
            }
            match best {
                None => best = Some(b),
                Some(cur) => {
                    let closer = km(b).total_cmp(&km(cur)).then(b.0.cmp(&cur.0)).is_lt();
                    if closer {
                        second = best;
                        best = Some(b);
                    } else {
                        let better_second = match second {
                            None => true,
                            Some(sec) => km(b).total_cmp(&km(sec)).then(b.0.cmp(&sec.0)).is_lt(),
                        };
                        if better_second {
                            second = Some(b);
                        }
                    }
                }
            }
        }
        if rank > 0 {
            second.or(best)
        } else {
            best
        }
    }

    /// The ingress of `node`'s route in `table`, computed under `env`, at
    /// egress-selection `rank` ([`super::dynamics::selection_rank`]): the
    /// table's own ingress at rank 0. At rank 1 the AS path stays and only
    /// the hand-off moves, to the runner-up live border of the session the
    /// path ends on, seen from the metro the hot-potato rule used: the
    /// CDN-adjacent AS's own if `node` is that AS, else that of the path's
    /// AS one hop before it. `None` when `node` is unrouted.
    pub fn ingress_at(
        &self,
        table: &CatchmentTable,
        env: &RouteEnv,
        node: u32,
        rank: usize,
    ) -> Option<BorderId> {
        let e = table.entry(node)?;
        if rank == 0 {
            return Some(BorderId(e.ingress));
        }
        let (mut adjacent, mut below, mut next) = (node, node, e.next_hop);
        for _ in 1..e.path_len {
            if next == CDN_NEXT {
                break;
            }
            (below, adjacent) = (adjacent, next);
            next = table.raw(adjacent).next_hop;
        }
        let g = &self.graph;
        self.session_ingress(
            g.session_of[adjacent as usize],
            g.home_metro[below as usize],
            env,
            rank,
        )
    }

    /// Whether session `s` can carry the prefix under `env`.
    fn session_live(&self, s: u32, env: &RouteEnv) -> bool {
        if env.session_dead(s) {
            return false;
        }
        self.graph.sessions[s as usize]
            .borders
            .iter()
            .any(|&b| env.border_live(b))
    }

    /// Whether `v` holds a live CDN session of `relation` under `env`: it
    /// learns the prefix from the CDN itself, at path length 1.
    fn learns_directly(&self, v: u32, relation: CdnRelation, env: &RouteEnv) -> bool {
        let s = self.graph.session_of[v as usize];
        s != NO_SESSION
            && self.graph.sessions[s as usize].relation == relation
            && self.session_live(s, env)
    }

    /// The steady anycast catchment table (announcement set = every
    /// border, all sessions up). Computed once, shared by every day —
    /// the cache-hit counter proves the cross-day reuse.
    pub fn steady_table(&self) -> Arc<CatchmentTable> {
        self.table_for(&RouteEnv::default())
    }

    /// The catchment table of the unicast prefix announced only at
    /// `border` (§3.1: only the routers closest to the front-end announce
    /// it): the differences from the shared unicast base. Shared by every
    /// day.
    pub fn unicast_table(&self, border: BorderId) -> Arc<CatchmentTable> {
        self.table_for(&Self::unicast_env(border))
    }

    fn unicast_env(border: BorderId) -> RouteEnv {
        RouteEnv {
            only_border: Some(border),
            ..RouteEnv::default()
        }
    }

    /// The table for an arbitrary environment. The steady environment is
    /// computed from scratch and each pure unicast environment derived from
    /// the unicast base, exactly once, and memoized for the life of the
    /// world. Any other environment is an event perturbation: recomputed
    /// incrementally from the steady table (dirty subtree only) on every
    /// call and never memoized — a caller that asks more than once per
    /// environment keeps the `Arc`, as each day's
    /// [`RouteSnapshot`](crate::RouteSnapshot) does.
    pub fn table_for(&self, env: &RouteEnv) -> Arc<CatchmentTable> {
        let key = env.key();
        let memoized = key == 0 || key >> 63 == 1;
        if !memoized {
            counter!("netsim_catchment_cache_misses_total").inc();
            counter!("netsim_catchment_incremental_recomputes_total").inc();
            return Arc::new(self.recompute_incremental(&self.steady_table(), env));
        }
        let cell = {
            let mut tables = self.tables.lock().expect("table cache poisoned");
            Arc::clone(tables.entry(key).or_default())
        };
        // Filled outside the map lock, so distinct tables compute in
        // parallel while a second caller of this one waits for the first.
        let mut computed = false;
        let table = cell.get_or_init(|| {
            computed = true;
            Arc::new(match env.only_border {
                Some(border) => self.derive_unicast(border),
                None => self.compute_scratch(env),
            })
        });
        if computed {
            counter!("netsim_catchment_cache_misses_total").inc();
        } else {
            counter!("netsim_catchment_cache_hits_total").inc();
        }
        Arc::clone(table)
    }

    /// Computes the steady table and the unicast tables of `borders` that
    /// are not memoized yet on up to `workers` threads, the calling one
    /// among them: first the two full passes (the steady table and the
    /// unicast base, side by side), then the unicast tables, striped so
    /// that large and small cones mix on every thread. Tables already held
    /// cost a map probe.
    pub fn warm_tables(&self, borders: &[BorderId], workers: usize) {
        let mut cones: Vec<BorderId> = borders.to_vec();
        cones.sort_unstable();
        cones.dedup();
        let steady_held = {
            let tables = self.tables.lock().expect("table cache poisoned");
            let held = |env: &RouteEnv| tables.get(&env.key()).is_some_and(|c| c.get().is_some());
            cones.retain(|&b| !held(&Self::unicast_env(b)));
            held(&RouteEnv::default())
        };
        if steady_held && cones.is_empty() {
            return;
        }
        // Job `i` of `n` on up to `workers` threads, thread `t` taking
        // `t, t + threads, …`.
        let dealt = |n: usize, job: &(dyn Fn(usize) + Sync)| {
            let threads = workers.clamp(1, n.max(1));
            run_workers(vec![(); threads], |t, ()| {
                (t..n).step_by(threads).for_each(job);
            })
            .unwrap_or_else(|e| panic!("warming catchment tables failed: {e}"));
        };
        dealt(2, &|pass| {
            if pass == 0 && !steady_held {
                self.steady_table();
            }
            if pass == 1 && !cones.is_empty() {
                self.unicast_base();
            }
        });
        dealt(cones.len(), &|i| {
            self.unicast_table(cones[i]);
        });
    }

    /// Computes a table from scratch: the three valley-free phases over
    /// the whole graph.
    pub fn compute_scratch(&self, env: &RouteEnv) -> CatchmentTable {
        let mut w = WholeGraph(vec![RouteEntry::NONE; self.graph.n as usize]);
        self.run_phases(&mut w, env);
        CatchmentTable {
            dense: Arc::new(DenseTable::new(w.0)),
            overrides: Vec::new(),
            sole_ingress: None,
        }
    }

    /// What all unicast tables share: the from-scratch table of the
    /// environment in which only the sessions established at every border
    /// are live. Its ingresses are hot-potato over all borders; a unicast
    /// table reads them [`pinned`] to its own.
    fn unicast_base(&self) -> &CatchmentTable {
        self.unicast_base.get_or_init(|| {
            let sessions = self.graph.sessions.iter().enumerate();
            let n_borders = self.border_metro.len();
            self.compute_scratch(&RouteEnv {
                dead_sessions: sessions
                    .filter(|(_, sess)| !at_every_border(sess, n_borders))
                    .map(|(s, _)| s as u32)
                    .collect(),
                ..RouteEnv::default()
            })
        })
    }

    /// The unicast table of `border` as what one border adds to the
    /// unicast base: the sessions that list `border` but not every border
    /// come up, and only what can learn from their owners is re-relaxed —
    /// a peering owner's customer cone; for a transit owner, whose customer
    /// route climbs and crosses, first the providers above it and their
    /// peers. Everyone else is offered exactly the base's candidates, so
    /// keeps the base's route, read with `border` as its ingress.
    fn derive_unicast(&self, border: BorderId) -> CatchmentTable {
        let g = &self.graph;
        let mut w = Subtree::over(&self.unicast_base().dense, Some(border));
        let comes_up = self.partial_sessions[usize::from(border.0)].iter();
        let (transit, peering): (Vec<&CdnSession>, Vec<&CdnSession>) = comes_up
            .map(|&s| &g.sessions[s as usize])
            .partition(|s| s.relation == CdnRelation::Transit);
        transit.iter().for_each(|s| w.mark(s.node));
        w.close_over(&g.providers);
        for i in 0..w.nodes.len() {
            for &p in g.peers.neighbors(w.nodes[i]) {
                w.mark(p);
            }
        }
        peering.iter().for_each(|s| w.mark(s.node));
        w.close_over(&g.customers);
        w.sort();
        self.run_phases(&mut w, &Self::unicast_env(border));
        w.into_table()
    }

    /// Recomputes only the subtree invalidated by `env` relative to the
    /// from-scratch `base` table (the steady table, for every caller in
    /// the workspace). Every node whose base route crosses an affected
    /// session/border (plus the affected session owners themselves) is
    /// re-relaxed; everyone else keeps their entry, which remains optimal
    /// because withdrawing announcements only removes candidates. The
    /// result shares `base`'s entries and holds the differences.
    ///
    /// # Panics
    /// If `base` is itself held as differences from another table (an
    /// event table or a unicast table).
    pub fn recompute_incremental(&self, base: &CatchmentTable, env: &RouteEnv) -> CatchmentTable {
        assert!(
            base.is_from_scratch(),
            "the base of an incremental recompute must be a from-scratch table"
        );
        let sessions = &self.graph.sessions;
        let mut w = Subtree::over(&base.dense, None);
        // Directly affected: owners of dead sessions and of sessions at a
        // withdrawn border.
        if env.withdrawn.is_empty() && env.only_border.is_none() {
            // Every border is live, so the dead list names the affected
            // sessions.
            for &s in &env.dead_sessions {
                w.mark(sessions[s as usize].node);
            }
        } else {
            for (s, sess) in sessions.iter().enumerate() {
                if env.session_dead(s as u32) || sess.borders.iter().any(|&b| !env.border_live(b)) {
                    w.mark(sess.node);
                }
            }
        }
        // Close over routing-tree descendants: children via base next_hop.
        w.close_over(base.dense.children());
        w.sort();
        self.run_phases(&mut w, env);
        w.into_table()
    }

    /// The three-phase valley-free relaxation over the dirty nodes of
    /// `w`, which all start unrouted; clean nodes act as fixed boundary
    /// conditions. Each phase's fixpoint is unique (the provider graph is
    /// a DAG and every route is the lexicographic minimum its neighbors
    /// offer), so reaching it from a worklist gives exactly the entries a
    /// sweep-until-stable would — and running scratch and incremental
    /// through this one routine keeps them exactly equivalent.
    fn run_phases(&self, w: &mut impl WorkSet, env: &RouteEnv) {
        use route_class::{CUSTOMER, PEER, PROVIDER};
        let g = &self.graph;
        let mut levels = Levels::default();
        counter!("netsim_catchment_nodes_relaxed_total").add(w.dirty_len() as u64);

        // Phase 1 — customer routes (learned from a customer, traffic
        // flows strictly downhill). Seeds: live transit sessions, where
        // the CDN itself is the customer, and dirty nodes with a clean
        // customer-routed customer. Relaxed up provider edges.
        for i in 0..w.dirty_len() {
            let v = w.dirty_node(i);
            let e = if self.learns_directly(v, CdnRelation::Transit, env) {
                RouteEntry::via(CDN_NEXT, CUSTOMER, 1)
            } else {
                best_via(w, g.customers.neighbors(v), CUSTOMER, |c| {
                    c.class == CUSTOMER
                })
            };
            if e.is_routed() {
                w.set(v, e);
                levels.push(e.path_len, v);
            }
        }
        relax(w, &mut levels, CUSTOMER, &g.providers);

        // Phase 2 — peer routes: one lateral step. Candidates: the node's
        // own peering session (length 1, so it always wins), or a peer
        // holding a customer route. Single pass (peer routes are never
        // re-exported to peers).
        for i in 0..w.dirty_len() {
            let v = w.dirty_node(i);
            if w.get(v).class == CUSTOMER {
                continue;
            }
            let e = if self.learns_directly(v, CdnRelation::Peer, env) {
                RouteEntry::via(CDN_NEXT, PEER, 1)
            } else {
                best_via(w, g.peers.neighbors(v), PEER, |p| p.class == CUSTOMER)
            };
            if e.is_routed() {
                w.set(v, e);
            }
        }

        // Phase 3 — provider routes: any routed provider exports to its
        // customers. Only fills nodes with no customer/peer route (lowest
        // preference); relaxed down customer edges.
        for i in 0..w.dirty_len() {
            let v = w.dirty_node(i);
            if w.get(v).is_routed() {
                continue;
            }
            let e = best_via(w, g.providers.neighbors(v), PROVIDER, RouteEntry::is_routed);
            if e.is_routed() {
                w.set(v, e);
                levels.push(e.path_len, v);
            }
        }
        relax(w, &mut levels, PROVIDER, &g.customers);

        // Ingress resolution. When one border alone announces, every live
        // session lists it, so every route enters there. So does a clean
        // next hop's: a unicast table reads it pinned to that border, and
        // an event table keeps it clean only if it crosses no other.
        if let Some(b) = env.sole_live_border() {
            for i in 0..w.dirty_len() {
                let v = w.dirty_node(i);
                let e = w.get(v);
                if e.is_routed() {
                    w.set(v, RouteEntry { ingress: b.0, ..e });
                }
            }
            return;
        }
        // Otherwise by ascending path length (a parent's length is
        // always exactly one less than its children's, so parents resolve
        // first). Hot-potato: the CDN-adjacent AS hands off at its
        // session's nearest live border — chosen per *downstream neighbor*
        // metro for its direct children (traffic from different customers
        // enters the adjacent AS at different points), inherited further
        // down.
        for i in 0..w.dirty_len() {
            let v = w.dirty_node(i);
            let e = w.get(v);
            if e.is_routed() {
                levels.push(e.path_len, v);
            }
        }
        levels.drain(|_, v, _| {
            let e = w.get(v);
            let ingress = match e.next_hop {
                CDN_NEXT => {
                    self.session_ingress(g.session_of[v as usize], g.home_metro[v as usize], env, 0)
                }
                next => {
                    let ne = w.get(next);
                    if ne.next_hop == CDN_NEXT {
                        self.session_ingress(
                            g.session_of[next as usize],
                            g.home_metro[v as usize],
                            env,
                            0,
                        )
                    } else {
                        (ne.ingress != u16::MAX).then_some(BorderId(ne.ingress))
                    }
                }
            };
            w.set(
                v,
                match ingress {
                    Some(b) => RouteEntry { ingress: b.0, ..e },
                    None => RouteEntry::NONE,
                },
            );
        });
    }

    /// All event windows scheduled on `day`, memoized.
    pub fn events_on(&self, day: Day) -> Arc<Vec<EventWindow>> {
        {
            let cache = self.day_events.lock().expect("event cache poisoned");
            if let Some(e) = cache.get(&day.0) {
                return Arc::clone(e);
            }
        }
        let events = Arc::new(
            self.dynamics
                .events_on(&self.graph, self.border_metro.len(), day),
        );
        let mut cache = self.day_events.lock().expect("event cache poisoned");
        if cache.len() > 4096 {
            cache.clear();
        }
        Arc::clone(cache.entry(day.0).or_insert(events))
    }

    /// The environment in force at `(day, time_s)`: scheduled dynamics
    /// active at that instant plus externally-withdrawn borders (site
    /// outages).
    pub fn env_at(&self, day: Day, time_s: f64, outage_withdrawn: &[BorderId]) -> RouteEnv {
        let mut env = RouteEnv {
            withdrawn: outage_withdrawn.to_vec(),
            ..RouteEnv::default()
        };
        for w in self.events_on(day).iter() {
            if !w.contains(time_s) {
                continue;
            }
            match w.event {
                DynEvent::SessionDown(s) => env.dead_sessions.push(s),
                DynEvent::BorderDown(b) => env.withdrawn.push(b),
            }
        }
        env.withdrawn.sort_unstable();
        env.withdrawn.dedup();
        env.dead_sessions.sort_unstable();
        env
    }

    /// Whether any dynamics are configured.
    pub fn dynamics_enabled(&self) -> bool {
        self.dynamics.enabled()
    }

    /// Bytes held by graph + all memoized tables: the steady table (with
    /// its child index once an event has built it) and the unicast base
    /// dense, each unicast table as its differences. Distances are read from
    /// the process-wide [`WorldAtlas::metro_km`] table, which no world owns.
    pub fn memory_bytes(&self) -> usize {
        let tables = self.tables.lock().expect("table cache poisoned");
        self.graph.memory_bytes()
            + self.unicast_base.get().map_or(0, |t| t.memory_bytes())
            + tables
                .values()
                .filter_map(|cell| cell.get())
                .map(|t| t.memory_bytes())
                .sum::<usize>()
    }
}
