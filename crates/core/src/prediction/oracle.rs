//! Reference oracle for the training kernel: the grouping code
//! `train_window` and `train_aggregated` ran before they shared
//! `Predictor::grouped_scores`, kept verbatim for the equivalence tests
//! in the parent module — a vector of samples per `(group, target)`,
//! nested maps per /24, and a fresh copy-and-sort [`percentile`] at every
//! read. Two edits. It tallies into a [`GroupTally`] where it used to
//! bump the `prediction_groups_*_total` counters in place, so a test can
//! compare counts without racing the process-wide registry. And its
//! `percentile` is a local copy-and-sort: `anycast_analysis::percentile`
//! is the selection read the production kernel scores with, and an oracle
//! that shared it would compare that read with itself.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use anycast_analysis::quantile::percentile_sorted;
use anycast_beacon::{BeaconDataset, Target};
use anycast_netsim::{Day, Prefix};
use anycast_pipeline::ecs_record_with_failures;

use super::{
    choose, target_order, AggregationConfig, GroupKey, GroupTally, PredictionTable, Predictor,
    LOCALITY_BLOCK_LEN,
};

/// `anycast_analysis::percentile` as it was: sort a copy, read the sorted
/// slice. Same `None` cases.
fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !p.is_finite() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Some(percentile_sorted(&sorted, p))
}

impl Predictor {
    /// `train_window` as it was: one `Vec<f64>` per pair, scored by copy.
    pub(super) fn oracle_window(
        &self,
        data: &BeaconDataset,
        days: &[Day],
    ) -> (PredictionTable, GroupTally) {
        let mut tally = GroupTally::default();
        let mut grouped: HashMap<(GroupKey, Target), Vec<f64>> = HashMap::new();
        for &day in days {
            for m in data.day(day) {
                let (key, target, rtt) = self.record(m);
                grouped.entry((key, target)).or_default().push(rtt);
            }
        }
        let min = self.cfg.min_samples;
        let p = self.cfg.metric.p();
        let table = choose(grouped.into_iter().filter_map(|((key, target), samples)| {
            if samples.len() < min {
                tally.discarded += 1;
                return None;
            }
            tally.trained += 1;
            percentile(&samples, p).map(|score| (key, target, score))
        }));
        (table, tally)
    }

    /// `train_aggregated` (ECS grouping) as it was: nested maps of sample
    /// vectors, re-scored at every read.
    pub(super) fn oracle_aggregated(
        &self,
        data: &BeaconDataset,
        day: Day,
        agg: &AggregationConfig,
    ) -> (PredictionTable, GroupTally) {
        let mut by_leaf: BTreeMap<u32, BTreeMap<Target, Vec<f64>>> = BTreeMap::new();
        for m in data.day(day) {
            let (p, t, rtt) = ecs_record_with_failures(m);
            by_leaf
                .entry(Prefix::from(p).raw())
                .or_default()
                .entry(t)
                .or_default()
                .push(rtt);
        }
        let leaves: Vec<(u32, BTreeMap<Target, Vec<f64>>)> = by_leaf.into_iter().collect();
        let universe: BTreeSet<Target> = leaves
            .iter()
            .flat_map(|(_, stats)| stats.keys().copied())
            .collect();
        let metric_p = self.cfg.metric.p();
        // Locality-scoped evidence transfer: the median per-leaf score of
        // each target across the leaf's allocation block. /24s of one
        // announced block share an access network and a metro, so a
        // front-end measured by a /24's block siblings is evidence about
        // the /24 itself — the premise the whole aggregation rests on.
        let mut block_samples: HashMap<u32, BTreeMap<Target, Vec<f64>>> = HashMap::new();
        let block_mask = u32::MAX << (32 - LOCALITY_BLOCK_LEN);
        for (net, stats) in &leaves {
            let per_block = block_samples.entry(net & block_mask).or_default();
            for (t, samples) in stats {
                if let Some(s) = percentile(samples, metric_p) {
                    per_block.entry(*t).or_default().push(s);
                }
            }
        }
        let block_scores: HashMap<u32, BTreeMap<Target, f64>> = block_samples
            .into_iter()
            .map(|(block, by_target)| {
                let medians = by_target
                    .into_iter()
                    .filter_map(|(t, scores)| percentile(&scores, 50.0).map(|m| (t, m)))
                    .collect();
                (block, medians)
            })
            .collect();
        let mut ctx = AggContext {
            metric_p,
            min_samples: self.cfg.min_samples,
            regret_bound_ms: agg.regret_bound_ms,
            min_prefix_len: agg.min_prefix_len.min(24),
            universe,
            block_scores,
            excls: HashMap::new(),
            rows: Vec::new(),
            tally: GroupTally::default(),
        };
        build_exclusions(&leaves, 0, 0, &mut ctx);
        emit_subtree(&leaves, 0, 0, 0, None, &mut ctx);
        (choose(ctx.rows.into_iter()), ctx.tally)
    }
}

/// Shared state of one [`Predictor::train_aggregated`] trie walk.
struct AggContext {
    metric_p: f64,
    min_samples: usize,
    regret_bound_ms: f64,
    min_prefix_len: u8,
    /// Every target measured anywhere on the training day — the universe
    /// the ORTC exclusion sets live in.
    universe: BTreeSet<Target>,
    /// Per-[`LOCALITY_BLOCK_LEN`]-block median of per-leaf metric scores,
    /// for vouching for targets a leaf never measured itself.
    block_scores: HashMap<u32, BTreeMap<Target, f64>>,
    /// Phase-1 output: each trie node's excluded targets, keyed by
    /// `(depth, index of the node's first leaf)`. Nodes at one depth
    /// cover disjoint leaf ranges, so the pair is a unique node identity.
    excls: HashMap<(u8, usize), BTreeSet<Target>>,
    /// Emitted `(group, target, score)` rows, fed to [`choose`] at the end
    /// so aggregates and exceptions get exactly the ranking, tie-break,
    /// and gain computation every other training path gets.
    rows: Vec<(GroupKey, Target, f64)>,
    tally: GroupTally,
}

impl AggContext {
    /// Scores an internal node's targets for use as a *default*: the
    /// median of the target's per-leaf metric scores. When `strict`, a
    /// target is eligible only if it was measured in a majority of the
    /// node's leaves and carries ≥ `min_samples` samples pooled.
    ///
    /// Robustness is the point. A default is served to every covered /24
    /// that has no say of its own, so it must be good for the *typical*
    /// leaf. Scoring the naively pooled sample set instead would let one
    /// dense, lucky cluster of samples elect a front-end that is terrible
    /// for every other leaf under the node — exactly the failure the
    /// regret bound exists to prevent.
    fn pooled_scores(
        &self,
        leaves: &[(u32, BTreeMap<Target, Vec<f64>>)],
        strict: bool,
    ) -> Vec<(Target, f64)> {
        let mut leaf_scores: BTreeMap<Target, Vec<f64>> = BTreeMap::new();
        let mut counts: BTreeMap<Target, usize> = BTreeMap::new();
        for (_, stats) in leaves {
            for (t, samples) in stats {
                if let Some(s) = percentile(samples, self.metric_p) {
                    leaf_scores.entry(*t).or_default().push(s);
                }
                *counts.entry(*t).or_default() += samples.len();
            }
        }
        let quorum = if strict { leaves.len().div_ceil(2) } else { 1 };
        let min_samples = if strict { self.min_samples } else { 1 };
        leaf_scores
            .into_iter()
            .filter(|(t, per_leaf)| counts[t] >= min_samples && per_leaf.len() >= quorum)
            .filter_map(|(t, per_leaf)| percentile(&per_leaf, 50.0).map(|v| (t, v)))
            .collect()
    }

    /// The default an emitting node serves, with the ranking rows to
    /// record for it: the best-scored target the node's exclusion set
    /// allows, robust (majority-quorum) scores first, any-leaf scores as
    /// the fallback. `None` when nothing feasible was measured under the
    /// node — the node then defers to its children entirely.
    fn node_choice(
        &self,
        leaves: &[(u32, BTreeMap<Target, Vec<f64>>)],
        excl: &BTreeSet<Target>,
    ) -> Option<(Target, Vec<(Target, f64)>)> {
        for strict in [true, false] {
            let scored: Vec<(Target, f64)> = self
                .pooled_scores(leaves, strict)
                .into_iter()
                .filter(|(t, _)| !excl.contains(t))
                .collect();
            if let Some((best, _)) = best_scored(&scored) {
                return Some((best, scored));
            }
        }
        None
    }

    /// Whether the allocation block around the /24 at `net` vouches for
    /// serving it `t` despite the leaf itself never measuring `t`: the
    /// block's sibling /24s measured `t` within the regret bound of the
    /// leaf's own best (`best_all`).
    fn block_vouches(&self, net: u32, t: Target, best_all: f64) -> bool {
        let block = net & (u32::MAX << (32 - LOCALITY_BLOCK_LEN));
        self.block_scores
            .get(&block)
            .and_then(|m| m.get(&t))
            .is_some_and(|&s| s - best_all <= self.regret_bound_ms)
    }
}

/// The best-scored target among `scored`, under the global tie-break.
fn best_scored(scored: &[(Target, f64)]) -> Option<(Target, f64)> {
    scored.iter().copied().min_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then_with(|| target_order(a.0).cmp(&target_order(b.0)))
    })
}

/// Phase 1 (bottom-up): the exclusion set of the trie node at `len`
/// whose leaf slice starts at `start` — the targets that are *not* an
/// acceptable default for some /24 below it. Mirrors ORTC's next-hop-set
/// merge, complemented: where ORTC intersects candidate sets, exclusions
/// union; where children's candidates are disjoint (exclusions cover the
/// whole universe) the node defers and keeps only the shared exclusions.
fn build_exclusions(
    leaves: &[(u32, BTreeMap<Target, Vec<f64>>)],
    start: usize,
    len: u8,
    ctx: &mut AggContext,
) -> BTreeSet<Target> {
    let excl = if leaves.len() == 1 || len == 24 {
        leaf_exclusions(leaves[0].0, &leaves[0].1, ctx)
    } else {
        let bit = 1u32 << (31 - len);
        let split = leaves.partition_point(|(n, _)| n & bit == 0);
        if split == 0 || split == leaves.len() {
            build_exclusions(leaves, start, len + 1, ctx)
        } else {
            let a = build_exclusions(&leaves[..split], start, len + 1, ctx);
            let b = build_exclusions(&leaves[split..], start + split, len + 1, ctx);
            let union: BTreeSet<Target> = a.union(&b).copied().collect();
            if union.len() < ctx.universe.len() {
                union
            } else {
                a.intersection(&b).copied().collect()
            }
        }
    };
    ctx.excls.insert((len, start), excl.clone());
    excl
}

/// A /24's exclusion set: the targets its own samples rule out as a
/// default. A target is *acceptable* when the leaf measured it within
/// the regret bound of the best of everything measured at the leaf, or
/// when it is anycast (the evidence-free safe harbor); anything else is
/// excluded unless the leaf's allocation block *vouches* for it — its
/// routing siblings' median score lands within the bound of the leaf's
/// own best. The vouch cuts both ways by design: it admits front-ends
/// the leaf never reached, and it overrides a thin, noisy measurement
/// that dissents from the block consensus — while a genuine dissenter,
/// whose own best truly beats the block's median by more than the bound,
/// keeps its veto. Exactly the damage check [`emit_leaf`] applies, so
/// phase 1's feasibility and phase 2's cover/exception decisions cannot
/// disagree. A leaf too sparse for a choice of its own excludes nothing:
/// it will borrow any default.
fn leaf_exclusions(
    net: u32,
    stats: &BTreeMap<Target, Vec<f64>>,
    ctx: &AggContext,
) -> BTreeSet<Target> {
    let own = stats
        .iter()
        .filter(|(_, samples)| samples.len() >= ctx.min_samples)
        .filter_map(|(t, samples)| percentile(samples, ctx.metric_p).map(|s| (*t, s)));
    let Some((own_target, _)) = best_scored(&own.collect::<Vec<_>>()) else {
        return BTreeSet::new();
    };
    let all: BTreeMap<Target, f64> = stats
        .iter()
        .filter_map(|(t, s)| percentile(s, ctx.metric_p).map(|v| (*t, v)))
        .collect();
    let best_all = all.values().copied().fold(f64::INFINITY, f64::min);
    ctx.universe
        .iter()
        .filter(|&&t| {
            let acceptable = match all.get(&t) {
                Some(&s) => s - best_all <= ctx.regret_bound_ms,
                None => t == Target::Anycast,
            };
            t != own_target && !acceptable && !ctx.block_vouches(net, t, best_all)
        })
        .copied()
        .collect()
}

/// Phase 2 (top-down): recursive emission over the trie node `(net, len)`
/// covering the leaf slice starting at `start` (sorted by /24 network
/// address). `inherited` is the choice of the nearest ancestor that
/// emitted an aggregate entry; a node emits only when that choice is in
/// its exclusion set (or no ancestor emitted), which is what makes the
/// resulting table ORTC-minimal for the phase-1 feasibility sets.
fn emit_subtree(
    leaves: &[(u32, BTreeMap<Target, Vec<f64>>)],
    start: usize,
    net: u32,
    len: u8,
    inherited: Option<Target>,
    ctx: &mut AggContext,
) {
    if leaves.is_empty() {
        return;
    }
    if len == 24 {
        emit_leaf(leaves[0].0, &leaves[0].1, inherited, ctx);
        return;
    }
    let mut inherited = inherited;
    // Aggregating a single leaf would only claim unmeasured address space
    // around it without saving an entry, so defaults need ≥ 2 leaves.
    if len >= ctx.min_prefix_len && leaves.len() > 1 {
        let excl = &ctx.excls[&(len, start)];
        let infeasible = inherited.is_none_or(|h| excl.contains(&h));
        if infeasible {
            if let Some((best, scored)) = ctx.node_choice(leaves, excl) {
                let key = GroupKey::Ecs(Prefix::from_raw(net, len));
                ctx.rows
                    .extend(scored.into_iter().map(|(t, s)| (key, t, s)));
                inherited = Some(best);
            }
        }
    }
    let bit = 1u32 << (31 - len);
    let split = leaves.partition_point(|(n, _)| n & bit == 0);
    emit_subtree(&leaves[..split], start, net, len + 1, inherited, ctx);
    emit_subtree(
        &leaves[split..],
        start + split,
        net | bit,
        len + 1,
        inherited,
        ctx,
    );
}

/// Leaf (/24) emission: exactly [`Predictor::train`]'s per-group behavior
/// when uncovered, cover/exception/borrow logic under an aggregate.
fn emit_leaf(
    net: u32,
    stats: &BTreeMap<Target, Vec<f64>>,
    inherited: Option<Target>,
    ctx: &mut AggContext,
) {
    let key = GroupKey::Ecs(Prefix::from_raw(net, 24));
    let mut eligible: Vec<(Target, f64)> = Vec::new();
    for (t, samples) in stats {
        if samples.len() < ctx.min_samples {
            if inherited.is_none() {
                ctx.tally.discarded += 1;
            }
            continue;
        }
        if inherited.is_none() {
            ctx.tally.trained += 1;
        }
        if let Some(s) = percentile(samples, ctx.metric_p) {
            eligible.push((*t, s));
        }
    }
    let own = best_scored(&eligible);
    match (inherited, own) {
        // No covering aggregate: behave exactly like plain training.
        (None, Some(_)) => ctx.rows.extend(eligible.iter().map(|&(t, s)| (key, t, s))),
        (None, None) => {}
        // Covered but too sparse for a choice of its own: borrow the
        // aggregate's — don't emit, don't fall back to anycast.
        (Some(_), None) => ctx.tally.borrowed += 1,
        (Some(h), Some((own_target, _))) => {
            if own_target == h {
                return; // agrees with the aggregate — covered
            }
            // Regret of serving `h` here, over *all* of the leaf's samples
            // (no eligibility filter: this is a damage check, not a
            // choice), with the allocation block's vouch overriding both
            // gaps and thin dissent — mirror of [`leaf_exclusions`].
            let all: Vec<(Target, f64)> = stats
                .iter()
                .filter_map(|(t, s)| percentile(s, ctx.metric_p).map(|v| (*t, v)))
                .collect();
            let best_all = all.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
            let acceptable = match all.iter().find(|(t, _)| *t == h) {
                Some(&(_, h_score)) => h_score - best_all <= ctx.regret_bound_ms,
                None => h == Target::Anycast,
            };
            let damaging = !acceptable && !ctx.block_vouches(net, h, best_all);
            if damaging {
                // Disagrees beyond the bound: longer-prefix exception.
                ctx.rows.extend(eligible.iter().map(|&(t, s)| (key, t, s)));
            }
        }
    }
}
