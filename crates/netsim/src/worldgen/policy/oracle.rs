//! The parent implementation of the catchment relaxation, kept verbatim
//! as the reference the worklist kernel is tested against: a
//! sweep-`0..n`-until-nothing-changes fixpoint per phase over a full copy
//! of the table, with the dirty subtree found through one `Vec` of
//! children per node. Slow (every sweep touches every node) and obviously
//! right, which is what a reference is for.

use super::*;

impl PolicyWorld {
    /// From scratch through the sweep kernel: every node dirty.
    pub(super) fn oracle_compute_scratch(&self, env: &RouteEnv) -> Vec<RouteEntry> {
        let n = self.graph.n as usize;
        let mut entries = vec![RouteEntry::NONE; n];
        let dirty = vec![true; n];
        self.oracle_run_phases(&mut entries, &dirty, env);
        entries
    }

    /// Recomputes only the subtree invalidated by `env` relative to the
    /// steady `base` table. Every node whose steady route crosses an
    /// affected session/border (plus the affected session owners
    /// themselves) is re-relaxed; everyone else keeps their entry, which
    /// remains optimal because withdrawing announcements only removes
    /// candidates.
    pub(super) fn oracle_recompute_incremental(
        &self,
        base: &[RouteEntry],
        env: &RouteEnv,
    ) -> Vec<RouteEntry> {
        let n = self.graph.n as usize;
        // Directly affected: owners of dead sessions and of sessions at a
        // withdrawn border.
        let mut dirty = vec![false; n];
        let mut queue: Vec<u32> = Vec::new();
        for (s, sess) in self.graph.sessions.iter().enumerate() {
            let s = s as u32;
            let affected = env.session_dead(s) || sess.borders.iter().any(|&b| !env.border_live(b));
            if affected && !dirty[sess.node as usize] {
                dirty[sess.node as usize] = true;
                queue.push(sess.node);
            }
        }
        // Close over routing-tree descendants: children via base next_hop.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, e) in base.iter().enumerate() {
            if e.is_routed() && e.next_hop != CDN_NEXT {
                children[e.next_hop as usize].push(v as u32);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &c in &children[u as usize] {
                if !dirty[c as usize] {
                    dirty[c as usize] = true;
                    queue.push(c);
                }
            }
        }
        let mut entries = base.to_vec();
        for (v, d) in dirty.iter().enumerate() {
            if *d {
                entries[v] = RouteEntry::NONE;
            }
        }
        self.oracle_run_phases(&mut entries, &dirty, env);
        entries
    }

    /// The three-phase valley-free relaxation, restricted to `dirty`
    /// nodes; clean nodes act as fixed boundary conditions. Each phase is
    /// a lexicographic-minimum fixpoint over `(path_len, next_hop)`, which
    /// on the provider DAG equals the level-synchronous BFS result — and
    /// running scratch and incremental through this one routine keeps them
    /// exactly equivalent.
    fn oracle_run_phases(&self, entries: &mut [RouteEntry], dirty: &[bool], env: &RouteEnv) {
        let g = &self.graph;
        let n = g.n as usize;

        // Phase 1 — customer routes (learned from a customer, traffic
        // flows strictly downhill). Seeds: live transit sessions, where
        // the CDN itself is the customer.
        for v in 0..n {
            if !dirty[v] {
                continue;
            }
            let s = g.session_of[v];
            if s != NO_SESSION
                && g.sessions[s as usize].relation == CdnRelation::Transit
                && self.session_live(s, env)
            {
                entries[v] = RouteEntry {
                    next_hop: CDN_NEXT,
                    ingress: u16::MAX, // resolved in the ingress pass
                    class: route_class::CUSTOMER,
                    path_len: 1,
                };
            }
        }
        // Relax customer routes up provider edges to fixpoint.
        loop {
            let mut changed = false;
            for v in 0..n {
                if !dirty[v] {
                    continue;
                }
                let mut best = entries[v];
                for &c in g.customers.neighbors(v as u32) {
                    let ce = entries[c as usize];
                    if ce.class != route_class::CUSTOMER {
                        continue;
                    }
                    let cand_len = ce.path_len.saturating_add(1);
                    let better = best.class != route_class::CUSTOMER
                        || (cand_len, c) < (best.path_len, best.next_hop);
                    // Own transit session (len 1) always wins; never
                    // displace it.
                    if better && !(best.class == route_class::CUSTOMER && best.next_hop == CDN_NEXT)
                    {
                        best = RouteEntry {
                            next_hop: c,
                            ingress: u16::MAX,
                            class: route_class::CUSTOMER,
                            path_len: cand_len,
                        };
                    }
                }
                if best != entries[v] {
                    entries[v] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 2 — peer routes: one lateral step. Candidates: the node's
        // own peering session, or a peer holding a customer route. Single
        // pass (peer routes are never re-exported to peers).
        for v in 0..n {
            if !dirty[v] || entries[v].class == route_class::CUSTOMER {
                continue;
            }
            let mut best = RouteEntry::NONE;
            let s = g.session_of[v];
            if s != NO_SESSION
                && g.sessions[s as usize].relation == CdnRelation::Peer
                && self.session_live(s, env)
            {
                best = RouteEntry {
                    next_hop: CDN_NEXT,
                    ingress: u16::MAX,
                    class: route_class::PEER,
                    path_len: 1,
                };
            }
            for &w in g.peers.neighbors(v as u32) {
                let we = entries[w as usize];
                if we.class != route_class::CUSTOMER {
                    continue;
                }
                let cand_len = we.path_len.saturating_add(1);
                if best.class != route_class::PEER || (cand_len, w) < (best.path_len, best.next_hop)
                {
                    best = RouteEntry {
                        next_hop: w,
                        ingress: u16::MAX,
                        class: route_class::PEER,
                        path_len: cand_len,
                    };
                }
            }
            if best.is_routed() {
                entries[v] = best;
            }
        }

        // Phase 3 — provider routes: any routed provider exports to its
        // customers; relax down customer edges to fixpoint. Only fills
        // nodes with no customer/peer route (lowest preference).
        loop {
            let mut changed = false;
            for v in 0..n {
                if !dirty[v] || entries[v].class != route_class::NONE {
                    continue;
                }
                let mut best = RouteEntry::NONE;
                for &p in g.providers.neighbors(v as u32) {
                    let pe = entries[p as usize];
                    if !pe.is_routed() {
                        continue;
                    }
                    let cand_len = pe.path_len.saturating_add(1);
                    if best.class != route_class::PROVIDER
                        || (cand_len, p) < (best.path_len, best.next_hop)
                    {
                        best = RouteEntry {
                            next_hop: p,
                            ingress: u16::MAX,
                            class: route_class::PROVIDER,
                            path_len: cand_len,
                        };
                    }
                }
                if best.is_routed() {
                    entries[v] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Provider-route lengths can shorten as the fixpoint spreads;
        // re-relax until stable (the loop above already iterates, but a
        // filled node is skipped — run an improvement sweep).
        loop {
            let mut changed = false;
            for v in 0..n {
                if !dirty[v] || entries[v].class != route_class::PROVIDER {
                    continue;
                }
                let mut best = entries[v];
                for &p in g.providers.neighbors(v as u32) {
                    let pe = entries[p as usize];
                    if !pe.is_routed() {
                        continue;
                    }
                    let cand_len = pe.path_len.saturating_add(1);
                    if (cand_len, p) < (best.path_len, best.next_hop) {
                        best = RouteEntry {
                            next_hop: p,
                            ingress: u16::MAX,
                            class: route_class::PROVIDER,
                            path_len: cand_len,
                        };
                    }
                }
                if best != entries[v] {
                    entries[v] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Ingress resolution, ascending path length (a parent's length is
        // always exactly one less than its children's, so parents resolve
        // first). Hot-potato: the CDN-adjacent AS hands off at its
        // session's nearest live border — chosen per *downstream neighbor*
        // metro for its direct children (traffic from different customers
        // enters the adjacent AS at different points), inherited further
        // down.
        let mut order: Vec<u32> = (0..g.n).filter(|&v| dirty[v as usize]).collect();
        order.sort_by_key(|&v| (entries[v as usize].path_len, v));
        for v in order {
            let e = entries[v as usize];
            if !e.is_routed() {
                continue;
            }
            let ingress = match e.next_hop {
                CDN_NEXT => {
                    self.session_ingress(g.session_of[v as usize], g.home_metro[v as usize], env, 0)
                }
                next => {
                    let ne = entries[next as usize];
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
            match ingress {
                Some(b) => entries[v as usize].ingress = b.0,
                None => entries[v as usize] = RouteEntry::NONE,
            }
        }
    }
}

mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::worldgen::{self, WorldGenConfig};
    use proptest::prelude::*;

    fn world(n_ases: usize, seed: u64) -> PolicyWorld {
        let cfg = NetConfig {
            worldgen: Some(WorldGenConfig::with_ases(n_ases)),
            ..NetConfig::small()
        };
        worldgen::build(&cfg, seed).1
    }

    /// A deterministic pseudo-random disturbance: several overlapping
    /// session flaps, borders withdrawn as a border flap
    /// or a site outage would (any border, not only a flapped session's),
    /// and now and then the announcement pinned to one border.
    fn arbitrary_env(pw: &PolicyWorld, env_seed: u64) -> RouteEnv {
        let mix = |k: u64| {
            let mut z = env_seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let n_sessions = pw.graph.sessions.len() as u64;
        let mut env = RouteEnv::default();
        for i in 0..(mix(1) % 6) {
            env.dead_sessions.push((mix(100 + i) % n_sessions) as u32);
        }
        if mix(3) % 3 == 0 {
            for i in 0..=(mix(4) % 3) {
                env.withdrawn.push(BorderId(
                    (mix(300 + i) % pw.border_metro.len() as u64) as u16,
                ));
            }
        }
        if mix(5) % 8 == 0 {
            env.only_border = Some(BorderId((mix(400) % pw.border_metro.len() as u64) as u16));
        }
        env.dead_sessions.sort_unstable();
        env.dead_sessions.dedup();
        env.withdrawn.sort_unstable();
        env.withdrawn.dedup();
        env
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn worklist_kernel_equals_the_sweep_oracle(
            scale_pick in 0usize..3,
            seed in 0u64..4,
            env_seed in any::<u64>(),
        ) {
            let pw = world([1_000, 1_500, 10_000][scale_pick], seed);
            let env = arbitrary_env(&pw, env_seed);

            // From scratch: worklist ≡ sweep, steady and disturbed.
            let steady = pw.compute_scratch(&RouteEnv::default());
            prop_assert_eq!(
                &steady.entries()[..],
                &pw.oracle_compute_scratch(&RouteEnv::default())[..]
            );
            let scratch = pw.compute_scratch(&env);
            prop_assert_eq!(&scratch.entries()[..], &pw.oracle_compute_scratch(&env)[..]);

            // Incremental: worklist over the lazily indexed subtree ≡ sweep
            // over per-node child vectors ≡ from scratch.
            let event = pw.recompute_incremental(&steady, &env);
            let materialised = event.entries();
            prop_assert_eq!(
                &materialised[..],
                &pw.oracle_recompute_incremental(&steady.entries(), &env)[..]
            );
            prop_assert_eq!(&materialised[..], &scratch.entries()[..]);
            prop_assert!(event == scratch);
            // The base hands its slot scratch from one recompute to the
            // next; a second environment over it must not see the first.
            let other = arbitrary_env(&pw, env_seed.rotate_left(17) ^ 0x5EED);
            prop_assert!(pw.recompute_incremental(&steady, &other) == pw.compute_scratch(&other));
            let again = pw.recompute_incremental(&steady, &env);
            prop_assert_eq!(again.overrides(), event.overrides());

            // The override form answers exactly as the materialised table.
            let differing: Vec<(u32, RouteEntry)> = (0..pw.graph.n)
                .filter(|&v| steady.raw(v) != materialised[v as usize])
                .map(|v| (v, materialised[v as usize]))
                .collect();
            prop_assert_eq!(event.overrides(), &differing[..]);
            prop_assert_eq!(event.routed_count(), scratch.routed_count());
            for v in 0..pw.graph.n {
                prop_assert_eq!(event.entry(v), scratch.entry(v));
                prop_assert_eq!(event.path(v), scratch.path(v));
            }
        }
    }

    #[test]
    fn an_event_table_holds_what_it_changes() {
        let pw = world(10_000, 3);
        let steady = pw.steady_table();
        let flapped = pw
            .graph
            .sessions
            .iter()
            .position(|s| s.relation == CdnRelation::Peer && s.borders.len() == 1)
            .expect("some single-border peer") as u32;
        let env = RouteEnv {
            dead_sessions: vec![flapped],
            ..RouteEnv::default()
        };
        let before = steady.memory_bytes();
        let event = pw.recompute_incremental(&steady, &env);
        assert!(
            !event.overrides().is_empty(),
            "a dead session moves its owner"
        );
        assert!(event.overrides().len() < 100);
        assert_eq!(event.memory_bytes(), 12 * event.overrides().len());
        // The base now carries its child index, built by that first
        // recompute and counted from then on.
        assert!(steady.memory_bytes() > before);
        assert_eq!(event.entries()[..], pw.compute_scratch(&env).entries()[..]);
        // The world memoizes the steady table and nothing about the event.
        assert!(*pw.table_for(&env) == event);
        let tables = pw.tables.lock().unwrap();
        assert_eq!(tables.values().filter(|c| c.get().is_some()).count(), 1);
    }
}
