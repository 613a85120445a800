//! The §6 history-based prediction scheme.
//!
//! "We evaluate (in emulation based on our real user measurements) a
//! prediction scheme that maps from a client group (clients of an LDNS or
//! clients within an ECS prefix) to its predicted best front-end. It
//! updates its mapping every prediction interval, set to one day in our
//! experiment. The scheme chooses to map a client group to the lowest
//! latency front-end across the measurements for that group, picking either
//! the anycast address or one of the unicast front-ends. … For a given
//! client group, we select among the front-ends with 20+ measurements from
//! the clients."
//!
//! The prediction **metric** is the 25th percentile (or median) of the
//! group's latency distribution to each target: "analysis of client data
//! showed that higher percentiles of latency distributions are very noisy
//! … The 25th percentile and median have lower coefficient of variation."

use anycast_analysis::{from_order_key, order_key, percentile, percentile_mut, percentile_of_keys};
use anycast_beacon::{BeaconDataset, BeaconMeasurement, Target, FETCH_TIMEOUT_MS};
use anycast_dns::LdnsId;
use anycast_netsim::stream::{run_workers, FastMap};
use anycast_netsim::{Day, Prefix, SiteId};

/// The granularity clients are grouped at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Grouping {
    /// Per client /24, via the EDNS client-subnet option.
    Ecs,
    /// Per recursive resolver — classic DNS redirection granularity.
    Ldns,
}

impl Grouping {
    /// The ECS scope prefix length an answer keyed at this granularity
    /// advertises (RFC 7871 §7.2.1: scope reflects how the *answer* was
    /// derived, not what the query asked).
    ///
    /// * [`Grouping::Ecs`] answers derived from a table group advertise the
    ///   matched group's prefix length (`matched_len`). A table **miss** —
    ///   the anycast-VIP fallback — is derived from no subnet at all, so it
    ///   advertises scope 0 and one cache entry covers every client of the
    ///   resolver.
    /// * [`Grouping::Ldns`] answers depend only on which resolver asked,
    ///   so they advertise scope 0 even when the query carried ECS — the
    ///   answer is cacheable for *all* clients of that resolver, per §6's
    ///   LDNS/ECS distinction.
    pub fn answer_scope(self, matched_len: Option<u8>) -> u8 {
        match self {
            Grouping::Ecs => matched_len.unwrap_or(0),
            Grouping::Ldns => 0,
        }
    }
}

/// A client group's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupKey {
    /// An ECS subnet group: a /24 from plain training, or a shorter
    /// aggregate produced by the aggregation pass ([`TrainSpec::agg`]).
    Ecs(Prefix),
    /// An LDNS group.
    Ldns(LdnsId),
}

// The ECS variant's prefix length leaves a niche the tag folds into.
const _: () = assert!(size_of::<GroupKey>() == 8);

/// The latency statistic used to score a candidate front-end.
///
/// ```
/// use anycast_core::Metric;
///
/// let samples = [10.0, 20.0, 30.0, 40.0, 400.0]; // spiky tail
/// assert_eq!(Metric::P25.score(&samples), Some(20.0));
/// assert!(Metric::P95.score(&samples).unwrap() > 300.0); // noise-dominated
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// 25th percentile — the paper's headline choice.
    P25,
    /// Median — evaluated by the paper, "very similar performance".
    Median,
    /// 75th percentile — included for the noise ablation the paper argues
    /// from.
    P75,
    /// 95th percentile — ditto.
    P95,
}

impl Metric {
    /// The percentile value.
    pub fn p(&self) -> f64 {
        match self {
            Metric::P25 => 25.0,
            Metric::Median => 50.0,
            Metric::P75 => 75.0,
            Metric::P95 => 95.0,
        }
    }

    /// Applies the metric to a latency sample.
    pub fn score(&self, samples: &[f64]) -> Option<f64> {
        percentile(samples, self.p())
    }
}

/// Predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Client grouping granularity.
    pub grouping: Grouping,
    /// Scoring metric.
    pub metric: Metric,
    /// Minimum measurements a `(group, target)` pair needs to be considered
    /// (paper: 20).
    pub min_samples: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            grouping: Grouping::Ecs,
            metric: Metric::P25,
            min_samples: 20,
        }
    }
}

/// A group's trained choice: the target to serve and the gain the metric
/// expects over anycast (`None` when anycast itself lacked enough samples
/// to be scored).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Choice {
    /// The target to serve this group.
    pub target: Target,
    /// Expected improvement over anycast under the training metric, ms
    /// (0 when the choice *is* anycast).
    pub gain_ms: Option<f64>,
}

/// One scored candidate in a group's ranking: a target and its latency
/// score under the training metric (lower is better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedCandidate {
    /// The candidate target.
    pub target: Target,
    /// The group's latency score for this target, ms.
    pub score_ms: f64,
}

/// The per-group choice table produced by one training pass — what the
/// authoritative server would serve during the next prediction interval.
///
/// Besides each group's winning [`Choice`], the table retains the **full
/// ranking** of eligible candidates ([`PredictionTable::ranked`], best
/// first). Rank 0 is by construction the served choice, so consumers that
/// only read `predict`/`choice` see exactly the single-best behavior;
/// the load-management control plane uses the deeper ranks as principled
/// spill targets when a front-end saturates.
#[derive(Debug, Clone, Default)]
pub struct PredictionTable {
    /// Each group's choice and where its ranking lies in `ranked`.
    choices: GroupIndex<Entry>,
    /// Every group's ranking, best first, one group after another.
    ranked: Vec<RankedCandidate>,
}

/// One group's row of a [`PredictionTable`]: its choice and the run of
/// `PredictionTable::ranked` that holds its ranking.
#[derive(Debug, Clone, Copy)]
struct Entry {
    choice: Choice,
    ranked_start: u32,
    ranked_len: u32,
}

/// Client groups keyed for lookup: one value per [`GroupKey`], and the
/// rule that finds the group a query belongs to.
///
/// The trained [`PredictionTable`] keeps its rows here, and the serving
/// plane's compiled table keeps its answer templates here, so a query
/// served on the wire finds the group the table was trained for by
/// construction. Iteration follows the map the index was built from.
#[derive(Debug, Clone)]
pub struct GroupIndex<V> {
    rows: FastMap<GroupKey, V>,
    /// Distinct prefix lengths among the ECS keys, longest first — the
    /// probe order of the longest-prefix match.
    ecs_lens: Vec<u8>,
}

impl<V> Default for GroupIndex<V> {
    fn default() -> Self {
        GroupIndex::from(FastMap::default())
    }
}

impl<V> From<FastMap<GroupKey, V>> for GroupIndex<V> {
    /// Indexes `rows` as they are: the map moves in, so its iteration
    /// order is the index's.
    fn from(rows: FastMap<GroupKey, V>) -> Self {
        let mut ecs_lens: Vec<u8> = rows
            .keys()
            .filter_map(|k| match k {
                GroupKey::Ecs(p) => Some(p.len()),
                GroupKey::Ldns(_) => None,
            })
            .collect();
        ecs_lens.sort_unstable_by(|a, b| b.cmp(a));
        ecs_lens.dedup();
        GroupIndex { rows, ecs_lens }
    }
}

impl<V> FromIterator<(GroupKey, V)> for GroupIndex<V> {
    /// A later row for a key replaces an earlier one.
    fn from_iter<I: IntoIterator<Item = (GroupKey, V)>>(rows: I) -> Self {
        GroupIndex::from(rows.into_iter().collect::<FastMap<_, _>>())
    }
}

impl<V> GroupIndex<V> {
    /// The group a query from `ldns` carrying the ECS subnet `ecs`
    /// matches, with its value; `None` sends the query to anycast.
    ///
    /// * [`Grouping::Ecs`] is longest-prefix match: the most specific ECS
    ///   entry covering `ecs`, never one longer than the query's own
    ///   SOURCE PREFIX-LENGTH (an answer must not claim a scope more
    ///   specific than the query disclosed). A query without ECS matches
    ///   nothing, and an LDNS entry never answers.
    /// * [`Grouping::Ldns`] matches the resolver's own entry and ignores
    ///   `ecs`.
    ///
    /// The answer's RFC 7871 scope follows from the key
    /// ([`Grouping::answer_scope`]): an ECS key advertises its prefix
    /// length, an LDNS key or a miss advertises 0.
    pub fn match_query(
        &self,
        grouping: Grouping,
        ldns: LdnsId,
        ecs: Option<Prefix>,
    ) -> Option<(GroupKey, &V)> {
        let found = |key| self.get(key).map(|v| (key, v));
        match grouping {
            Grouping::Ecs => {
                let p = ecs?;
                let mut covering = self.ecs_lens.iter().filter(|&&len| len <= p.len());
                covering.find_map(|&len| found(GroupKey::Ecs(p.truncate(len))))
            }
            Grouping::Ldns => found(GroupKey::Ldns(ldns)),
        }
    }

    /// The value of exactly `key`.
    pub fn get(&self, key: GroupKey) -> Option<&V> {
        self.rows.get(&key)
    }

    /// Iterates over every `(group, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (GroupKey, &V)> {
        self.rows.iter().map(|(k, v)| (*k, v))
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the index holds no group.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl PredictionTable {
    /// Appends one group's ranking (best first) to `ranked` and returns
    /// the group's table row: rank 0 as the served choice, with its
    /// expected gain over the ranking's anycast score.
    fn entry(
        ranked: &mut Vec<RankedCandidate>,
        ranking: impl Iterator<Item = RankedCandidate>,
    ) -> Entry {
        let start = ranked.len();
        ranked.extend(ranking);
        let ranking = &ranked[start..];
        let best = ranking[0];
        let gain_ms = match best.target {
            Target::Anycast => Some(0.0),
            Target::Unicast(_) => ranking
                .iter()
                .find(|c| c.target == Target::Anycast)
                .map(|anycast| anycast.score_ms - best.score_ms),
        };
        let row = |n: usize| u32::try_from(n).expect("fewer than 2^32 ranked candidates");
        Entry {
            choice: Choice {
                target: best.target,
                gain_ms,
            },
            ranked_start: row(start),
            ranked_len: row(ranking.len()),
        }
    }

    /// The run of `ranked` an entry addresses.
    fn ranking(&self, entry: &Entry) -> &[RankedCandidate] {
        &self.ranked[entry.ranked_start as usize..][..entry.ranked_len as usize]
    }

    /// The predicted best target for a group, if the group had enough data.
    pub fn predict(&self, key: GroupKey) -> Option<Target> {
        self.choice(key).map(|c| c.target)
    }

    /// The group a query from `ldns` carrying the ECS subnet `ecs` matches,
    /// with that group's choice; `None` sends the query to anycast. The
    /// rule is [`GroupIndex::match_query`]: the evaluation, the control
    /// plane's demand model and the served compiled table all answer by it.
    pub fn match_query(
        &self,
        grouping: Grouping,
        ldns: LdnsId,
        ecs: Option<Prefix>,
    ) -> Option<(GroupKey, &Choice)> {
        let (key, entry) = self.choices.match_query(grouping, ldns, ecs)?;
        Some((key, &entry.choice))
    }

    /// The full choice (target + expected gain) for a group.
    pub fn choice(&self, key: GroupKey) -> Option<&Choice> {
        self.choices.get(key).map(|entry| &entry.choice)
    }

    /// Restricts the table to groups whose expected gain over anycast is at
    /// least `min_gain_ms` — the §6 hybrid: "use DNS-based redirection for
    /// a small subset of poor performing clients, while leaving others to
    /// anycast". Groups with unknown gain are dropped (no evidence, no
    /// redirect).
    pub fn hybrid_filter(&self, min_gain_ms: f64) -> PredictionTable {
        let mut choices = FastMap::default();
        let mut ranked = Vec::new();
        for (key, entry) in self.choices.iter() {
            let c = &entry.choice;
            if matches!(c.target, Target::Unicast(_)) && c.gain_ms.is_some_and(|g| g >= min_gain_ms)
            {
                // Same ranking, so the same choice and gain.
                let ranking = self.ranking(entry).iter().copied();
                choices.insert(key, Self::entry(&mut ranked, ranking));
            }
        }
        PredictionTable {
            choices: choices.into(),
            ranked,
        }
    }

    /// Number of groups with a prediction.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether no group has a prediction.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Groups predicted to do better on a *unicast* front-end (the clients
    /// DNS redirection would actually move; everyone else stays on
    /// anycast).
    pub fn redirected_groups(&self) -> impl Iterator<Item = (GroupKey, &Choice)> {
        self.choices
            .iter()
            .filter(|(_, entry)| !matches!(entry.choice.target, Target::Anycast))
            .map(|(k, entry)| (k, &entry.choice))
    }

    /// Iterates over every `(group, choice)`.
    pub fn iter(&self) -> impl Iterator<Item = (GroupKey, Choice)> + '_ {
        self.choices.iter().map(|(k, entry)| (k, entry.choice))
    }

    /// The group's full candidate ranking, best first (empty for groups
    /// without a prediction). Rank 0 is always the target
    /// [`PredictionTable::predict`] serves; deeper ranks are the next-best
    /// eligible front-ends, in score order with the same tie-break.
    pub fn ranked(&self, key: GroupKey) -> &[RankedCandidate] {
        self.choices
            .get(key)
            .map_or(&[], |entry| self.ranking(entry))
    }
}

/// Configuration for the routing-aware prefix-aggregation training pass
/// ([`TrainSpec::agg`]).
///
/// Real ECS tables cannot afford one entry per /24: the paper's dataset
/// alone spans hundreds of thousands of client /24s, most of which the §6
/// scheme leaves on anycast anyway. Aggregation exploits that: a short
/// *default* prefix carries the choice most of its /24s agree on, and only
/// the /24s whose own measurements disagree — by more than
/// `regret_bound_ms` under the training metric — get longer-prefix
/// *exception* entries, ORTC-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregationConfig {
    /// Maximum latency regret, in ms, a covered /24 may suffer from being
    /// served its aggregate's choice instead of its own best: if the /24's
    /// measurements score the aggregate's target worse than its own best
    /// target by more than this bound, the /24 keeps a specific entry.
    /// `0.0` means any measurable disagreement forces an exception.
    pub regret_bound_ms: f64,
    /// Shortest aggregate prefix length the pass may emit (values above 24
    /// are clamped to 24). `24` disables aggregation entirely.
    pub min_prefix_len: u8,
}

impl Default for AggregationConfig {
    /// 7.5 ms regret at up to /8 aggregates. Single-digit-millisecond
    /// regret sits below typical day-over-day drift of a /24's P25
    /// estimate, and the `ablation-table-compression` sweep places this
    /// bound where compression reaches ~10× before next-day Figure 9
    /// quality begins to degrade.
    fn default() -> Self {
        AggregationConfig {
            regret_bound_ms: 7.5,
            min_prefix_len: 8,
        }
    }
}

impl AggregationConfig {
    /// Disables aggregation: with no aggregates allowed shorter than /24
    /// the pass degenerates to per-/24 training, and the resulting table is
    /// byte-identical to the one trained without aggregation.
    pub fn disabled() -> Self {
        AggregationConfig {
            regret_bound_ms: 0.0,
            min_prefix_len: 24,
        }
    }
}

/// A worker count, as the benchmark's adapter passes it to
/// [`Predictor::train_sketched`] (which ignores it) and to the
/// pipeline's `sketch_day` (whose result does not depend on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker count (≥ 1).
    pub workers: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { workers: 2 }
    }
}

/// What [`Predictor::train`] trains a table from: a window of days and,
/// optionally, the aggregation pass over it. A [`Day`] converts to the
/// paper's scheme: that one day, one entry per group.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSpec {
    /// The window's days. Each group's measurements pool across them, in
    /// the order named (a day named twice pools twice). The paper used a
    /// one-day interval only because "our sampling rate was limited due
    /// to engineering issues" (§6, footnote 2); longer windows trade
    /// staleness for sample count — the `ablation-training-window` sweep
    /// quantifies that trade.
    pub days: Vec<Day>,
    /// The routing-aware aggregation pass: variable-length prefix groups
    /// instead of one entry per /24. `None` trains one entry per group.
    ///
    /// The pass is ORTC-style (optimal routing table construction:
    /// defaults plus exceptions) over the binary trie of the window's
    /// measured /24s, in two phases:
    ///
    /// 1. **Bottom-up feasibility.** Each /24 *excludes* the targets its
    ///    own samples show to be more than `regret_bound_ms` worse than
    ///    its best — every other target is an acceptable default for it.
    ///    Exclusion sets merge up the trie exactly as ORTC merges next-hop
    ///    sets: where the children can agree on a shared default (their
    ///    exclusions don't cover the whole target universe) the node
    ///    excludes the union; where they can't, the node defers and
    ///    excludes only the intersection.
    /// 2. **Top-down emission.** A node at depth ≥ `min_prefix_len` emits
    ///    an aggregate entry only when the choice inherited from the
    ///    nearest emitting ancestor is infeasible for it (or when there is
    ///    no ancestor); the emitted choice is the *robustly* best feasible
    ///    target — lowest median of per-leaf metric scores, preferring
    ///    targets measured in a majority of the node's leaves, so a
    ///    default is good for the typical covered /24 rather than a lucky
    ///    cluster. A /24 whose inherited default is within the regret
    ///    bound of its own best (over *all* its samples — a damage check,
    ///    not a choice) is covered and emits nothing; one that disagrees
    ///    beyond the bound keeps a longer-prefix exception entry with its
    ///    own ranking. A /24 with too little data for any choice of its
    ///    own *borrows* its aggregate's (counted by
    ///    `prediction_groups_borrowed_total`) — sparse groups inherit
    ///    evidence from their covering prefix instead of falling back to
    ///    anycast.
    ///
    /// Both phases read each leaf's `{n, score}` per target from the one
    /// grouping pass, never samples. Queries match the result through
    /// [`PredictionTable::match_query`]; the matched prefix length is the
    /// ECS answer scope. With [`AggregationConfig::disabled`] the table is
    /// byte-identical to the one `None` trains. Only [`Grouping::Ecs`]
    /// aggregates: an LDNS-grouped predictor has no prefixes to aggregate
    /// and ignores the pass.
    pub agg: Option<AggregationConfig>,
}

impl From<Day> for TrainSpec {
    fn from(day: Day) -> TrainSpec {
        TrainSpec {
            days: vec![day],
            agg: None,
        }
    }
}

/// The history-based predictor.
#[derive(Debug, Clone, Copy)]
pub struct Predictor {
    cfg: PredictorConfig,
}

impl Predictor {
    /// Creates a predictor.
    pub fn new(cfg: PredictorConfig) -> Predictor {
        Predictor { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// One measurement as a `(group, target, rtt)` training record under
    /// the configured grouping: its client's /24 (ECS) or its client's
    /// LDNS ("assigning each front-end measurement made by a client to the
    /// client's LDNS", §6).
    ///
    /// A *failed* fetch (every attempt timed out against a dead or
    /// converging front-end) carries no RTT and is scored at the fetch
    /// timeout: dropped silently, it would make a flaky front-end look as
    /// good as its successful fetches, and the predictor would redirect
    /// clients to a site that times out on them. Worlds without failures
    /// never take the branch.
    fn record(&self, m: &BeaconMeasurement) -> (GroupKey, Target, f64) {
        let key = match self.cfg.grouping {
            Grouping::Ecs => GroupKey::Ecs(m.prefix.into()),
            Grouping::Ldns => GroupKey::Ldns(m.ldns),
        };
        let rtt = if m.failed { FETCH_TIMEOUT_MS } else { m.rtt_ms };
        (key, m.target, rtt)
    }

    /// Trains a prediction table: groups the window's clients, scores
    /// each `(group, target)` pair once under the configured metric, keeps
    /// the pairs with `min_samples` measurements or more, and serves each
    /// group its lowest-scored target.
    ///
    /// `spec` names the window's days (a [`Day`] alone is the paper's
    /// one-day prediction interval) and, optionally, the routing-aware
    /// aggregation pass over its /24s ([`TrainSpec::agg`]). Every path
    /// starts from one grouping pass that scores every pair of the window
    /// over all its samples; the "20+ measurements" filter, the selection
    /// and the aggregation walk then read scores, never samples.
    pub fn train(&self, data: &BeaconDataset, spec: impl Into<TrainSpec>) -> PredictionTable {
        let spec = spec.into();
        let (table, tally) = self.select(self.grouped_scores(data, &spec.days), spec.agg);
        tally.publish();
        table
    }

    /// The table [`train`](Predictor::train) selects from its window's
    /// scored pairs, with its tally before it reaches the obs counters.
    fn select(
        &self,
        pairs: Vec<PairScore>,
        agg: Option<AggregationConfig>,
    ) -> (PredictionTable, GroupTally) {
        match agg {
            Some(agg) if self.cfg.grouping == Grouping::Ecs => self.aggregated_table(pairs, &agg),
            _ => self.window_table(pairs),
        }
    }

    /// Window training from the window's scored pairs: the pairs over the
    /// "20+ measurements" bar, ranked per group.
    fn window_table(&self, pairs: Vec<PairScore>) -> (PredictionTable, GroupTally) {
        let min = self.cfg.min_samples as u64;
        let mut tally = GroupTally::default();
        let table = choose(pairs.into_iter().filter_map(|pair| {
            if !tally.admit(pair.n as u64, min) {
                return None;
            }
            let (key, target) = (pair.pair.group(), pair.pair.target());
            pair.score.map(|score| (key, target, score))
        }));
        (table, tally)
    }

    /// The grouping kernel under every [`train`](Predictor::train): every
    /// `(group, target)` pair of the window with its exact sample count
    /// and its score under the configured metric over all its samples.
    /// Pairs come back in first-seen order.
    ///
    /// The window is the days' row slices in the order `days` names them
    /// (a day named twice pools twice); [`scores_in_ranges`] scans it as
    /// one contiguous range per core the host offers, up to one range per
    /// [`MIN_ROWS_PER_RANGE`] rows — a campaign day stays on the calling
    /// thread. The pairs depend neither on the range count nor on the
    /// order the window stores its rows in.
    fn grouped_scores(&self, data: &BeaconDataset, days: &[Day]) -> Vec<PairScore> {
        let window: Vec<&[BeaconMeasurement]> =
            days.iter().flat_map(|&day| data.day_slices(day)).collect();
        let rows: usize = window.iter().map(|slice| slice.len()).sum();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let ranges = cores.min(rows / MIN_ROWS_PER_RANGE);
        let span = chunk_span(rows);
        scores_in_ranges(&window, ranges, span, self.cfg.metric.p(), |m| {
            let (key, target, rtt) = self.record(m);
            (PairKey::new(key, target), rtt)
        })
    }

    /// [`train`](Predictor::train) over `days`, without aggregation, under
    /// the name `benchmark/src/adapter.rs` calls; kept only for that
    /// caller. `eps` and `shard` are ignored.
    pub fn train_sketched(
        &self,
        data: &BeaconDataset,
        days: &[Day],
        _eps: f64,
        _shard: ShardConfig,
    ) -> PredictionTable {
        self.train(
            data,
            TrainSpec {
                days: days.to_vec(),
                agg: None,
            },
        )
    }

    /// [`train`](Predictor::train) on `day` with aggregation `agg`, under
    /// the name `benchmark/src/adapter.rs` calls; kept only for that
    /// caller.
    pub fn train_aggregated(
        &self,
        data: &BeaconDataset,
        day: Day,
        agg: &AggregationConfig,
    ) -> PredictionTable {
        self.train(
            data,
            TrainSpec {
                days: vec![day],
                agg: Some(*agg),
            },
        )
    }

    /// The aggregation pass under [`Grouping::Ecs`] from its window's
    /// scored pairs; see [`TrainSpec::agg`].
    fn aggregated_table(
        &self,
        mut pairs: Vec<PairScore>,
        agg: &AggregationConfig,
    ) -> (PredictionTable, GroupTally) {
        // ECS grouping keys every row by its /24, so word order is
        // `(network, target)` order: a /24's pairs lie together, and so
        // do the /24s of an allocation block.
        sort_by_group(
            &mut pairs,
            |pair| pair.pair.0 >> PairKey::CODE_BITS,
            |pair| pair.pair,
        );
        let universe = Universe::of(&pairs);
        let mut scratch = TargetScratch::new(universe.len());
        // Locality-scoped evidence transfer: the median per-leaf score of
        // each target across the leaf's allocation block. /24s of one
        // announced block share an access network and a metro, so a
        // front-end measured by a /24's block siblings is evidence about
        // the /24 itself — the premise the whole aggregation rests on.
        let mut block_medians: Vec<(usize, f64)> = Vec::new();
        let mut leaves: Vec<Leaf<'_>> = Vec::new();
        let block_of = |pair: &PairScore| locality_block(pair.pair.net());
        for block in pairs.chunk_by(|a, b| block_of(a) == block_of(b)) {
            scratch.reset();
            for pair in block {
                scratch.scores[universe.dense(pair.pair)].extend(pair.score);
            }
            let first = block_medians.len();
            for (t, scores) in scratch.scores.iter_mut().enumerate() {
                if let Some(median) = percentile_mut(scores, 50.0) {
                    block_medians.push((t, median));
                }
            }
            let vouches = (first, block_medians.len());
            let per_leaf = block.chunk_by(|a, b| a.pair.group() == b.pair.group());
            leaves.extend(per_leaf.map(|stats| Leaf {
                net: stats[0].pair.net(),
                stats,
                vouches,
            }));
        }
        let excls = TargetSets::new((2 * leaves.len()).saturating_sub(1), universe.len());
        let mut walk = AggContext {
            min_samples: self.cfg.min_samples,
            regret_bound_ms: agg.regret_bound_ms,
            min_prefix_len: agg.min_prefix_len.min(24),
            universe,
            leaves: &leaves,
            block_medians,
            excls,
            scratch,
            rows: Vec::new(),
            tally: GroupTally::default(),
        };
        if !leaves.is_empty() {
            walk.build_exclusions(0, leaves.len());
            walk.emit_subtree(0, leaves.len(), 0, None);
        }
        (choose(walk.rows.into_iter()), walk.tally)
    }
}

/// Rows a range of the grouping kernel holds before another range is
/// worth a thread.
const MIN_ROWS_PER_RANGE: usize = 1 << 16;

/// Chunks of pairs the grouping kernel cuts a window's samples into: a
/// scoring thread holds one chunk's samples at a time.
const CHUNKS_PER_WINDOW: usize = 8;

/// Samples a chunk holds at least, so a small window is not swept more
/// often than its chunk buffers save.
const MIN_CHUNK_SAMPLES: usize = 1 << 16;

/// The samples a chunk of the grouping kernel holds at least, for a window
/// of `rows` rows.
fn chunk_span(rows: usize) -> usize {
    rows.div_ceil(CHUNKS_PER_WINDOW).max(MIN_CHUNK_SAMPLES)
}

/// A pair's rows in one range — how many, and the window row of the last —
/// and the score of its first run of rows in a row, while that run is
/// every row it holds. Merged in range order, the pair's rows in the
/// window.
struct Seen {
    n: u32,
    last: u32,
    /// The first run's score, or [`Seen::SWEPT`]'s bits: the pair recurs,
    /// or its first run has not ended, or held a NaN. (A score that is a
    /// NaN with those very bits is swept too, and comes out the same.)
    score: f64,
}

impl Seen {
    /// A NaN no arithmetic produces: the mark of a pair the sweep scores.
    const SWEPT: u64 = u64::MAX;

    fn new() -> Seen {
        Seen {
            n: 0,
            last: 0,
            score: f64::from_bits(Self::SWEPT),
        }
    }

    /// Ends a run of `len` rows up to window row `last`. The pair's first
    /// run is scored from its samples, the [`order_key`]s in `run`, at `p`;
    /// a later one marks the pair for the sweep.
    fn end_run(&mut self, len: u32, last: u32, run: &mut Vec<u64>, p: f64) {
        let score = match self.n {
            0 => percentile_of_keys(run, p),
            _ => None,
        };
        self.score = score.unwrap_or(f64::from_bits(Self::SWEPT));
        (self.n, self.last) = (self.n + len, last);
        run.clear();
    }

    /// Adds the pair's rows in a later range: its first run is not every
    /// row it holds, so the sweep scores it.
    fn add(&mut self, later: &Seen) {
        (self.n, self.last) = (self.n + later.n, later.last);
        self.score = f64::from_bits(Self::SWEPT);
    }

    /// The first run's score, if that run is every row the pair holds.
    fn whole_run_score(&self) -> Option<f64> {
        (self.score.to_bits() != Self::SWEPT).then_some(self.score)
    }
}

/// What one range of a window found.
struct RangeGroups {
    /// Its distinct pairs, first seen first.
    keys: Vec<PairKey>,
    /// Each pair's rows in the range, beside `keys`.
    seen: Vec<Seen>,
    /// Each pair's first row, beside `keys`.
    firsts: Vec<u32>,
    /// Range 0's index of `keys` (with each pair's first row), which the
    /// merge starts from; empty for the other ranges.
    ids: FastMap<PairKey, (u32, u32)>,
}

/// Range rows a rank checkpoint of [`Runs`] stands for.
const RANK_STEP: usize = 1 << 12;

/// A range's rows as runs of consecutive rows of one pair: a bit a row,
/// set where a run starts (bit `r % 64` of word `r / 64` for range row
/// `r`), the pair's range-local id a run, and the runs that start before
/// each multiple of [`RANK_STEP`] rows, up to the last run's start.
struct Runs {
    starts: Vec<u64>,
    ids: Vec<u32>,
    ranks: Vec<u32>,
}

impl Runs {
    /// Starts a run of pair `id` at range row `row` of `rows`, after every
    /// earlier one. The ids grow by doubling, but never past one a row.
    fn push(&mut self, row: usize, id: u32, rows: usize) {
        while self.ranks.len() <= row / RANK_STEP {
            self.ranks.push(self.ids.len() as u32);
        }
        self.starts[row / 64] |= 1 << (row % 64);
        let held = self.ids.len();
        if held == self.ids.capacity() {
            self.ids.reserve_exact(held.max(64).min(rows - held));
        }
        self.ids.push(id);
    }

    /// The runs over range rows `rows`, cut to them, in row order: each
    /// as its pair's id and its row count.
    fn within(&self, rows: std::ops::Range<usize>) -> impl Iterator<Item = (u32, usize)> + '_ {
        // The run holding the first row: the runs that start up to it.
        let (step, word) = (rows.start / RANK_STEP, rows.start / 64);
        let part = self.starts[word] & u64::MAX >> (63 - rows.start % 64);
        let whole = self.starts[step * (RANK_STEP / 64)..word]
            .iter()
            .chain([&part]);
        let mut run = self.ranks.get(step).map_or(self.ids.len(), |&before| {
            before as usize + whole.map(|bits| bits.count_ones() as usize).sum::<usize>()
        }) - 1;
        let mut start = rows.start;
        std::iter::from_fn(move || {
            let end = self
                .next_start(start + 1)
                .map_or(rows.end, |at| at.min(rows.end));
            let found = (start < rows.end).then(|| (self.ids[run], end - start));
            (run, start) = (run + 1, end);
            found
        })
    }

    /// The first range row from `row` on where a run starts, if any.
    fn next_start(&self, row: usize) -> Option<usize> {
        let mut word = row / 64;
        let mut bits = self.starts.get(word)? & u64::MAX << (row % 64);
        while bits == 0 {
            word += 1;
            bits = *self.starts.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

/// The slices of `window` that hold its rows `rows`, cut to them.
fn slices_in<'a>(
    window: &'a [&'a [BeaconMeasurement]],
    rows: std::ops::Range<usize>,
) -> impl Iterator<Item = &'a [BeaconMeasurement]> {
    let mut at = 0;
    let cut = window.iter().map(move |slice| {
        let (first, end) = (at, at + slice.len());
        at = end;
        let within = |row: usize| row.clamp(first, end) - first;
        &slice[within(rows.start)..within(rows.end)]
    });
    cut.filter(|rows| !rows.is_empty())
}

/// The dense id of a range's or a window's `nth` distinct pair.
fn pair_id(nth: usize) -> u32 {
    u32::try_from(nth).expect("fewer than 2^32 (group, target) pairs")
}

/// [`Predictor::grouped_scores`] over `window`'s rows cut into `ranges`
/// contiguous, balanced ranges (made at least one, none empty), `record`
/// giving a row's pair and latency, `p` the percentile to score at and
/// `span` the samples a chunk of the sweep holds at least ([`chunk_span`]).
///
/// No vector per pair and no sample arena the size of the window. Each
/// range, on a thread of its own (range 0 on the caller's), reads its rows
/// once. It packs each row's pair into a [`PairKey`] word and maps the word
/// to a range-local dense id through a one-multiply hash once a run of
/// consecutive rows of one pair, keeping each run's id ([`Runs`]) and each
/// pair's count, first row and last row. A pair's first run in the range
/// is scored where it ends, from one reused buffer. The key lists merge in
/// range order, which is first-seen order over the window; a pair whose
/// rows in the window are that one run keeps its score. So a day stored by
/// client, each pair's rows together, is read once.
///
/// The pairs that recur after other rows, or straddle a range seam, are
/// scored by a sweep over the runs. It cuts them, in window order, into
/// chunks that hold `span` samples or more (a heavier pair is a chunk of
/// its own), or whose rows the next pair's all follow. A chunk reads only
/// the runs from its first pair's first row (no earlier row holds any of
/// its pairs) to the last row of any of its pairs. The chunks are dealt to
/// `ranges` threads that each reuse one sample buffer: a thread copies the
/// rows of the runs of a chunk's pairs into it and scores each pair there
/// by selection on [`order_key`]s ([`percentile_of_keys`]). A day in time
/// order, where every pair recurs, is swept whole.
///
/// So the pass holds a bit a row and a `u32` id a run (a little over 4 B a
/// row in time order, where nearly every row is a run), a few words a pair
/// and a sample buffer a sweeping thread. No block it frees is window-sized
/// (a range's run ids grow to at most 4 B a row; on the pinned day the
/// largest are per-pair lists of a few MB), and glibc lets every arena keep
/// free heap up to twice the largest block of at most 32 MB it unmapped.
///
/// # Panics
/// If a range panicked (`record` did), once every range has been joined.
fn scores_in_ranges(
    window: &[&[BeaconMeasurement]],
    ranges: usize,
    span: usize,
    p: f64,
    record: impl Fn(&BeaconMeasurement) -> (PairKey, f64) + Sync,
) -> Vec<PairScore> {
    let rows: usize = window.iter().map(|slice| slice.len()).sum();
    if rows == 0 {
        return Vec::new();
    }
    // A pair's first and last rows are kept as `u32`s.
    assert!(u32::try_from(rows).is_ok(), "fewer than 2^32 rows a window");
    // ⌈rows/R⌉ rows a range: at most R ranges and none of them empty.
    let per_range = rows.div_ceil(ranges.clamp(1, rows));
    let spans = (0..rows)
        .step_by(per_range)
        .map(|first| first..rows.min(first + per_range));
    let found = run_workers(spans.collect(), |range, span| {
        let starts = vec![0; span.len().div_ceil(64)];
        let (ids, ranks) = (Vec::new(), Vec::new());
        let mut runs = Runs { starts, ids, ranks };
        // Each pair's id and first row, by key.
        let mut local: FastMap<PairKey, (u32, u32)> = FastMap::default();
        let mut seen: Vec<Seen> = Vec::new();
        // The run being read: its pair, that pair's id and its rows so
        // far, and whether it is the pair's first run, whose samples `run`
        // holds.
        let (mut at, mut id, mut len, mut first_run) = (None, 0, 0, false);
        let mut run: Vec<u64> = Vec::new();
        let mut row = span.start as u32;
        for rows in slices_in(window, span.clone()) {
            for m in rows {
                let (pair, rtt) = record(m);
                if at != Some(pair) {
                    if at.is_some() {
                        seen[id as usize].end_run(len, row - 1, &mut run, p);
                    }
                    let next = pair_id(seen.len());
                    (id, _) = *local.entry(pair).or_insert((next, row));
                    if id == next {
                        seen.push(Seen::new());
                    }
                    (at, len) = (Some(pair), 0);
                    first_run = seen[id as usize].n == 0;
                    runs.push(row as usize - span.start, id, span.len());
                }
                if first_run {
                    run.push(order_key(rtt));
                }
                len += 1;
                row += 1;
            }
        }
        seen[id as usize].end_run(len, row - 1, &mut run, p);
        // The keys and first rows in id order: first seen first.
        let mut keys = vec![PairKey(0); seen.len()];
        let mut firsts = vec![0; seen.len()];
        for (&pair, &(id, first)) in &local {
            (keys[id as usize], firsts[id as usize]) = (pair, first);
        }
        if range != 0 {
            local = FastMap::default();
        }
        let groups = RangeGroups {
            keys,
            seen,
            firsts,
            ids: local,
        };
        (runs, groups)
    })
    .unwrap_or_else(|e| panic!("exact training failed: {e}"));
    let (runs, mut groups): (Vec<Runs>, Vec<_>) = found.into_iter().unzip();

    // Merge in range order. Ranges are consecutive rows, so first seen in
    // the earliest range is first seen in the window: range 0's ids, keys
    // and rows stand, and each later range adds the pairs new to it behind
    // them. Room for every range's pairs in the lists (the window's, and
    // the few that two ranges share counted twice), and in the index for
    // those of every range but the last, which no later range looks up.
    let mut later_groups = groups.split_off(1);
    let last_range = later_groups.pop();
    let later: usize = later_groups.iter().map(|g| g.keys.len()).sum();
    let RangeGroups {
        mut keys,
        mut seen,
        mut firsts,
        mut ids,
    } = groups.pop().expect("range 0");
    let last_keys = last_range.as_ref().map_or(0, |g| g.keys.len());
    ids.reserve(later);
    keys.reserve(later + last_keys);
    seen.reserve(later + last_keys);
    firsts.reserve(later + last_keys);
    // Each later range's ids as window ids.
    let mut to_window: Vec<Vec<u32>> = Vec::with_capacity(later_groups.len() + 1);
    let indexed = later_groups.into_iter().map(|group| (group, true));
    for (group, index) in indexed.chain(last_range.map(|group| (group, false))) {
        let range = group.keys.into_iter().zip(group.seen).zip(group.firsts);
        let range_ids = range.map(|((pair, rows), first)| {
            if let Some(&(at, _)) = ids.get(&pair) {
                seen[at as usize].add(&rows);
                return at;
            }
            keys.push(pair);
            seen.push(rows);
            firsts.push(first);
            let at = pair_id(keys.len() - 1);
            if index {
                ids.insert(pair, (at, first));
            }
            at
        });
        to_window.push(range_ids.collect());
    }
    // A pair keeps its first run's score when that run is every row it
    // holds in the window; the sweep scores the others, in window order.
    let swept: Vec<u32> = (0..seen.len())
        .filter(|&id| seen[id].whole_run_score().is_none())
        .map(pair_id)
        .collect();
    // Chunk starts: each chunk is the shortest run of swept pairs from its
    // start that holds `span` samples, or whose rows the next pair's all
    // follow, or what is left.
    let mut los = Vec::new();
    let (mut held, mut end) = (0, 0);
    for (nth, &id) in swept.iter().enumerate() {
        let rows = &seen[id as usize];
        if nth == 0 || held >= span || firsts[id as usize] > end {
            los.push(nth);
            (held, end) = (0, 0);
        }
        held += rows.n as usize;
        end = end.max(rows.last);
    }
    // The window rows a chunk sweeps: from its first pair's first row —
    // pairs being in first-seen order, no earlier row holds any of its
    // pairs — to the last row of any of its pairs.
    let spans: Vec<std::ops::Range<usize>> = (los.iter().enumerate())
        .map(|(c, &lo)| {
            let chunk = &swept[lo..los.get(c + 1).copied().unwrap_or(swept.len())];
            let last = chunk.iter().map(|&id| seen[id as usize].last).max();
            firsts[chunk[0] as usize] as usize..last.expect("a pair a chunk") as usize + 1
        })
        .collect();
    drop((ids, firsts));
    let mut pairs: Vec<PairScore> = keys
        .into_iter()
        .zip(&seen)
        .map(|(pair, rows)| PairScore {
            pair,
            n: rows.n as usize,
            score: rows.whole_run_score(),
        })
        .collect();
    drop(seen);
    if swept.is_empty() {
        return pairs;
    }
    let mut sweep_id = vec![u32::MAX; pairs.len()];
    for (nth, &id) in swept.iter().enumerate() {
        sweep_id[id as usize] = pair_id(nth);
    }
    // Each range's ids as sweep ids: range 0's ids are window ids.
    for ids in &mut to_window {
        ids.iter_mut().for_each(|id| *id = sweep_id[*id as usize]);
    }
    let to_sweep: Vec<&[u32]> = std::iter::once(&sweep_id)
        .chain(&to_window)
        .map(Vec::as_slice)
        .collect();

    let n_of = |sweep: usize| pairs[swept[sweep] as usize].n;
    let mut scores: Vec<Option<f64>> = vec![None; swept.len()];
    let workers = runs.len().min(los.len());
    // A chunk: its first sweep id, the window rows that can hold its
    // pairs' samples, and where its scores go, one a sweep id from there.
    let mut dealt: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
    let mut rest = &mut scores[..];
    for (c, (&lo, rows)) in los.iter().zip(spans).enumerate() {
        let hi = los.get(c + 1).copied().unwrap_or(swept.len());
        let (scores, left) = std::mem::take(&mut rest).split_at_mut(hi - lo);
        dealt[c % workers].push((lo, rows, scores));
        rest = left;
    }
    run_workers(dealt, |_, chunks| {
        let held = chunks
            .iter()
            .map(|(lo, _, scores)| (*lo..).take(scores.len()).map(n_of).sum());
        let mut samples = vec![0u64; held.max().unwrap_or(0)];
        let mut ends: Vec<usize> = Vec::new();
        for (lo, rows, scores) in chunks {
            // `ends[k]` starts as sweep id `lo + k`'s offset and, once the
            // sweep has written its last sample, is the end of its run.
            ends.clear();
            let sweeps = (lo..).take(scores.len());
            ends.extend(sweeps.scan(0, |at, sweep| {
                Some(std::mem::replace(at, *at + n_of(sweep)))
            }));
            for range in rows.start / per_range..rows.end.div_ceil(per_range) {
                let first = range * per_range;
                let local = rows.start.max(first) - first..rows.end.min(first + per_range) - first;
                let mut at = slices_in(window, first + local.start..rows.end).flatten();
                for (id, len) in runs[range].within(local) {
                    // Runs of pairs scored already, or of other chunks,
                    // fall outside `ends`.
                    let sweep = to_sweep[range][id as usize] as usize;
                    let Some(end) = ends.get_mut(sweep.wrapping_sub(lo)) else {
                        at.nth(len - 1);
                        continue;
                    };
                    for m in at.by_ref().take(len) {
                        samples[*end] = order_key(record(m).1);
                        *end += 1;
                    }
                }
            }
            let mut start = 0;
            for (score, &end) in scores.iter_mut().zip(&ends) {
                *score = percentile_of_keys(&mut samples[start..end], p);
                start = end;
            }
        }
    })
    .unwrap_or_else(|e| panic!("exact training failed: {e}"));
    for (&id, score) in swept.iter().zip(scores) {
        pairs[id as usize].score = score;
    }
    pairs
}

/// A `(group, target)` pair packed into one word: what the grouping
/// kernel hashes and compares once per row, in place of an enum tuple.
///
/// From the low end: 17 bits of target code ([`target_order`]: 0 is
/// anycast, `1 + id` a unicast site), 6 bits of ECS prefix length, 32 bits
/// of network address or resolver id, and a plane bit set for LDNS groups.
/// The packing is injective — equal words are equal pairs — and within the
/// ECS plane words order as `(network, length, target)`, the order
/// [`Predictor::aggregated_table`] walks its /24s in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct PairKey(u64);

impl PairKey {
    const CODE_BITS: u32 = 17;
    const LEN_BITS: u32 = 6;
    const ID_SHIFT: u32 = Self::CODE_BITS + Self::LEN_BITS;
    const LDNS_PLANE: u64 = 1 << (Self::ID_SHIFT + 32);

    fn new(key: GroupKey, target: Target) -> PairKey {
        let group = match key {
            GroupKey::Ecs(p) => {
                u64::from(p.raw()) << Self::ID_SHIFT | u64::from(p.len()) << Self::CODE_BITS
            }
            GroupKey::Ldns(l) => Self::LDNS_PLANE | u64::from(l.0) << Self::ID_SHIFT,
        };
        PairKey(group | u64::from(target_order(target)))
    }

    /// The network address of an ECS group (the resolver id of an LDNS
    /// group).
    fn net(self) -> u32 {
        (self.0 >> Self::ID_SHIFT) as u32
    }

    /// The target's code, [`target_order`].
    fn code(self) -> usize {
        (self.0 & ((1 << Self::CODE_BITS) - 1)) as usize
    }

    fn group(self) -> GroupKey {
        if self.0 & Self::LDNS_PLANE != 0 {
            GroupKey::Ldns(LdnsId(self.net()))
        } else {
            let len = (self.0 >> Self::CODE_BITS) & ((1 << Self::LEN_BITS) - 1);
            GroupKey::Ecs(Prefix::from_raw(self.net(), len as u8))
        }
    }

    fn target(self) -> Target {
        target_of_code(self.code())
    }
}

/// One `(group, target)` pair of a training window, as
/// [`Predictor::grouped_scores`] scores it.
#[derive(Debug, Clone, Copy)]
struct PairScore {
    pair: PairKey,
    /// Samples the pair holds (exact: the "20+ measurements" filter and
    /// the aggregate quorum read it).
    n: usize,
    /// The training metric over those samples; `None` when one of them is
    /// NaN, as `anycast_analysis::percentile` answers.
    score: Option<f64>,
}

/// What one training pass did with its `(group, target)` pairs. Passes
/// tally locally and add to the `prediction_groups_*_total` obs counters
/// once, so the hot loops touch no shared state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct GroupTally {
    trained: u64,
    discarded: u64,
    borrowed: u64,
}

impl GroupTally {
    /// The §6 "20+ measurements" filter: whether a pair holding `n`
    /// samples may be scored, tallied either way.
    fn admit(&mut self, n: u64, min_samples: u64) -> bool {
        let admitted = n >= min_samples;
        if admitted {
            self.trained += 1;
        } else {
            self.discarded += 1;
        }
        admitted
    }

    /// Adds the tally to the obs counters. A count of zero leaves its
    /// counter untouched (and unregistered), as a pass that never
    /// incremented it would.
    fn publish(self) {
        if self.trained > 0 {
            anycast_obs::counter!("prediction_groups_trained_total").add(self.trained);
        }
        if self.discarded > 0 {
            anycast_obs::counter!("prediction_groups_discarded_total").add(self.discarded);
        }
        if self.borrowed > 0 {
            anycast_obs::counter!("prediction_groups_borrowed_total").add(self.borrowed);
        }
    }
}

/// The prefix length of an *allocation block* for evidence-transfer
/// purposes: /24s within one /21 are treated as routing siblings whose
/// measurements speak for each other. Access networks announce contiguous
/// blocks, so this is the scale at which "my neighbor reached that
/// front-end fine" is evidence rather than a guess — transferring
/// evidence across wider spans is exactly the failure mode the per-leaf
/// exclusion sets exist to prevent.
const LOCALITY_BLOCK_LEN: u8 = 21;

/// The allocation block (network address) around the /24 at `net`.
fn locality_block(net: u32) -> u32 {
    net & (u32::MAX << (32 - LOCALITY_BLOCK_LEN))
}

/// One measured /24 of an aggregation trie walk ([`TrainSpec::agg`]): its
/// network address, its per-target `{n, score}` — a run of the sorted
/// kernel output — and the run of `AggContext::block_medians` that holds
/// its allocation block's vouches.
#[derive(Debug, Clone, Copy)]
struct Leaf<'a> {
    net: u32,
    stats: &'a [PairScore],
    vouches: (usize, usize),
}

impl Leaf<'_> {
    /// Every target the leaf measured, with its score.
    fn scored(&self) -> impl Iterator<Item = (PairKey, f64)> + '_ {
        self.stats
            .iter()
            .filter_map(|pair| pair.score.map(|s| (pair.pair, s)))
    }

    /// The `(target, score)` rows plain training would rank for the leaf:
    /// the targets it measured `min_samples` times or more.
    fn eligible(&self, min_samples: usize) -> impl Iterator<Item = (Target, f64)> + '_ {
        let eligible = self.stats.iter().filter(move |pair| pair.n >= min_samples);
        eligible.filter_map(|pair| pair.score.map(|s| (pair.pair.target(), s)))
    }

    /// The leaf's *own* best: the target plain training would serve it.
    fn own_best(&self, min_samples: usize) -> Option<(Target, f64)> {
        best_scored(self.eligible(min_samples))
    }
}

/// The targets measured anywhere on the training day — the universe the
/// ORTC exclusion sets live in — indexed densely in `Target` order, so a
/// set of targets is a bitset ([`TargetSets`]).
struct Universe {
    /// The targets, ascending; a target's position is its dense index.
    targets: Vec<Target>,
    /// Dense index by target code ([`target_order`]); `None` for a code
    /// no row of the day carried.
    index: Vec<Option<u32>>,
}

impl Universe {
    fn of(pairs: &[PairScore]) -> Universe {
        let mut index: Vec<Option<u32>> = Vec::new();
        for pair in pairs {
            let code = pair.pair.code();
            if code >= index.len() {
                index.resize(code + 1, None);
            }
            index[code] = Some(0);
        }
        let mut targets = Vec::new();
        for (code, slot) in index.iter_mut().enumerate() {
            if slot.is_some() {
                *slot = Some(targets.len() as u32);
                targets.push(target_of_code(code));
            }
        }
        Universe { targets, index }
    }

    fn len(&self) -> usize {
        self.targets.len()
    }

    /// The dense index of `target`, if the day measured it.
    fn index_of(&self, target: Target) -> Option<usize> {
        let slot = self.index.get(target_order(target) as usize);
        slot.copied().flatten().map(|i| i as usize)
    }

    /// The dense index of a pair of the day.
    fn dense(&self, pair: PairKey) -> usize {
        self.index[pair.code()].expect("the universe holds every pair's target") as usize
    }
}

/// Sets of dense target indices, a bitset of `words` words each, all in
/// one flat allocation and addressed by slot.
struct TargetSets {
    words: usize,
    bits: Vec<u64>,
}

impl TargetSets {
    /// `sets` empty sets over a universe of `targets`.
    fn new(sets: usize, targets: usize) -> TargetSets {
        let words = targets.div_ceil(64);
        TargetSets {
            words,
            bits: vec![0; sets * words],
        }
    }

    fn set(&self, slot: usize) -> &[u64] {
        &self.bits[slot * self.words..][..self.words]
    }

    fn set_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.bits[slot * self.words..][..self.words]
    }

    fn contains(&self, slot: usize, t: usize) -> bool {
        self.set(slot)[t / 64] >> (t % 64) & 1 == 1
    }
}

/// Per-target accumulators indexed densely, reused from one trie node (or
/// allocation block) to the next so the walk allocates nothing per node.
struct TargetScratch {
    /// Samples pooled per target.
    pooled: Vec<usize>,
    /// Per-leaf metric scores per target.
    scores: Vec<Vec<f64>>,
}

impl TargetScratch {
    fn new(targets: usize) -> TargetScratch {
        TargetScratch {
            pooled: vec![0; targets],
            scores: vec![Vec::new(); targets],
        }
    }

    fn reset(&mut self) {
        self.pooled.fill(0);
        self.scores.iter_mut().for_each(Vec::clear);
    }
}

/// Shared state of one aggregation trie walk ([`TrainSpec::agg`]).
///
/// The trie is never built: it is the binary trie over `leaves`, which
/// are sorted by network address, walked path-compressed. A range of two
/// or more leaves is one trie node at every prefix length from the one it
/// was entered at down to the first bit its first and last /24 differ in
/// — the same leaves, so the same exclusion set, at each — and splits
/// there. Each boundary between adjacent leaves is the split of exactly
/// one such range, which gives every range a slot of its own in `excls`.
struct AggContext<'a> {
    min_samples: usize,
    regret_bound_ms: f64,
    min_prefix_len: u8,
    universe: Universe,
    /// The day's measured /24s, ascending.
    leaves: &'a [Leaf<'a>],
    /// Per-[`LOCALITY_BLOCK_LEN`]-block median of per-leaf metric scores
    /// as `(dense target, median)`, one block's run after another — for
    /// vouching for targets a leaf never measured itself.
    block_medians: Vec<(usize, f64)>,
    /// Phase-1 output: every exclusion set. Leaf `i`'s set is slot `i`;
    /// the set of the range that splits before leaf `mid` is slot
    /// `leaves.len() + mid - 1`.
    excls: TargetSets,
    scratch: TargetScratch,
    /// Emitted `(group, target, score)` rows, fed to [`choose`] at the end
    /// so aggregates and exceptions get exactly the ranking, tie-break,
    /// and gain computation every other training path gets.
    rows: Vec<(GroupKey, Target, f64)>,
    /// Pairs trained, discarded and borrowed by
    /// [`emit_leaf`](AggContext::emit_leaf).
    tally: GroupTally,
}

impl AggContext<'_> {
    /// Where the range `leaves[start..end]` (two leaves or more) splits:
    /// the length of the prefix all of it shares, and the index of the
    /// first leaf with the next bit set. Sorted, the range's first and
    /// last /24 bound every leaf between, so they alone fix that length.
    fn split(&self, start: usize, end: usize) -> (u8, usize) {
        let leaves = &self.leaves[start..end];
        let shared = (leaves[0].net ^ leaves[leaves.len() - 1].net).leading_zeros();
        let bit = 1u32 << (31 - shared);
        let mid = start + leaves.partition_point(|leaf| leaf.net & bit == 0);
        (shared as u8, mid)
    }

    /// The slot in `excls` of the range that splits before leaf `mid`.
    fn range_slot(&self, mid: usize) -> usize {
        self.leaves.len() + mid - 1
    }

    /// Whether the exclusion set in `slot` holds `target`.
    fn excludes(&self, slot: usize, target: Target) -> bool {
        self.universe
            .index_of(target)
            .is_some_and(|t| self.excls.contains(slot, t))
    }

    /// Phase 1 (bottom-up): fills the exclusion set of `leaves[start..end]`
    /// — the targets that are *not* an acceptable default for some /24 in
    /// it — and of every range below, and returns its slot. Mirrors ORTC's
    /// next-hop-set merge, complemented: where ORTC intersects candidate
    /// sets, exclusions union; where children's candidates are disjoint
    /// (exclusions cover the whole universe) the range defers and keeps
    /// only the shared exclusions.
    fn build_exclusions(&mut self, start: usize, end: usize) -> usize {
        if end - start == 1 {
            self.leaf_exclusions(start);
            return start;
        }
        let (_, mid) = self.split(start, end);
        let a = self.build_exclusions(start, mid);
        let b = self.build_exclusions(mid, end);
        let slot = self.range_slot(mid);
        let words = self.excls.set(a).iter().zip(self.excls.set(b));
        let union_len: u32 = words.map(|(x, y)| (x | y).count_ones()).sum();
        let can_agree = (union_len as usize) < self.universe.len();
        for w in 0..self.excls.words {
            let (x, y) = (self.excls.set(a)[w], self.excls.set(b)[w]);
            self.excls.set_mut(slot)[w] = if can_agree { x | y } else { x & y };
        }
        slot
    }

    /// Fills leaf `i`'s exclusion set: the targets its own measurements
    /// rule out as a default. Serving the leaf a target does it no damage
    /// when the leaf measured the target within the regret bound of the
    /// best of *everything* it measured (no eligibility filter: this is a
    /// damage check, not a choice), or when the target is anycast and the
    /// leaf has no score for it (the evidence-free safe harbor), or when
    /// the allocation block *vouches* — its routing siblings' median score
    /// for the target lands within the bound of the leaf's best. The set
    /// is every other target of the day, bar the leaf's own best.
    ///
    /// The block vouch cuts both ways by design: it admits front-ends the
    /// leaf never reached, and it overrides a thin, noisy measurement that
    /// dissents from the block consensus — while a genuine dissenter,
    /// whose own best truly beats the block's median by more than the
    /// bound, keeps its veto. [`emit_leaf`](AggContext::emit_leaf) reads
    /// this same set, so phase 1's feasibility and phase 2's
    /// cover/exception decisions cannot disagree. A leaf too sparse for a
    /// choice of its own excludes nothing: it will borrow any default.
    fn leaf_exclusions(&mut self, i: usize) {
        let leaf = self.leaves[i];
        let Some((own_target, _)) = leaf.own_best(self.min_samples) else {
            return;
        };
        let best_all = leaf.scored().map(|(_, s)| s).fold(f64::INFINITY, f64::min);
        let bound = self.regret_bound_ms;
        let within_bound = |s: f64| s - best_all <= bound;
        let universe = &self.universe;
        let set = self.excls.set_mut(i);
        for (w, word) in set.iter_mut().enumerate() {
            *word = u64::MAX >> (64 - (universe.len() - w * 64).min(64));
        }
        let mut clear = |t: usize| set[t / 64] &= !(1 << (t % 64));
        let mut anycast_scored = false;
        for (pair, s) in leaf.scored() {
            let target = pair.target();
            anycast_scored |= target == Target::Anycast;
            if target == own_target || within_bound(s) {
                clear(universe.dense(pair));
            }
        }
        if let (false, Some(anycast)) = (anycast_scored, universe.index_of(Target::Anycast)) {
            clear(anycast);
        }
        let (first, end) = leaf.vouches;
        for &(t, median) in &self.block_medians[first..end] {
            if within_bound(median) {
                clear(t);
            }
        }
    }

    /// The default an emitting range serves under `key`: the best-scored
    /// target its exclusion set (in `slot`) allows, robust
    /// (majority-quorum) scores first, any-leaf scores as the fallback.
    /// The feasible targets' `(key, target, score)` ranking rows are
    /// recorded with it. `None`, and nothing recorded, when nothing
    /// feasible was measured under the range — it then defers to its
    /// children entirely.
    ///
    /// A target's score for use as a *default* is the median of its
    /// per-leaf metric scores; the robust pass admits it only if it was
    /// measured in a majority of the range's leaves and carries
    /// ≥ `min_samples` samples pooled. Robustness is the point. A default
    /// is served to every covered /24 that has no say of its own, so it
    /// must be good for the *typical* leaf. Scoring the naively pooled
    /// sample set instead would let one dense, lucky cluster of samples
    /// elect a front-end that is terrible for every other leaf under the
    /// range — exactly the failure the regret bound exists to prevent.
    fn node_choice(
        &mut self,
        start: usize,
        end: usize,
        slot: usize,
        key: GroupKey,
    ) -> Option<Target> {
        self.scratch.reset();
        for pair in self.leaves[start..end].iter().flat_map(|leaf| leaf.stats) {
            let t = self.universe.dense(pair.pair);
            self.scratch.pooled[t] += pair.n;
            self.scratch.scores[t].extend(pair.score);
        }
        for (min_samples, quorum) in [(self.min_samples, (end - start).div_ceil(2)), (1, 1)] {
            let first_row = self.rows.len();
            for (t, per_leaf) in self.scratch.scores.iter_mut().enumerate() {
                let excluded = self.excls.contains(slot, t);
                if excluded || self.scratch.pooled[t] < min_samples || per_leaf.len() < quorum {
                    continue;
                }
                if let Some(median) = percentile_mut(per_leaf, 50.0) {
                    self.rows.push((key, self.universe.targets[t], median));
                }
            }
            let scored = self.rows[first_row..].iter().map(|&(_, t, s)| (t, s));
            if let Some((best, _)) = best_scored(scored) {
                return Some(best);
            }
        }
        None
    }

    /// Phase 2 (top-down): recursive emission over the range
    /// `leaves[start..end]`, entered at prefix length `len`. `inherited`
    /// is the choice of the nearest ancestor that emitted an aggregate
    /// entry; a range emits only when that choice is in its exclusion set
    /// (or no ancestor emitted), which is what makes the resulting table
    /// ORTC-minimal for the phase-1 feasibility sets.
    fn emit_subtree(&mut self, start: usize, end: usize, len: u8, inherited: Option<Target>) {
        if end - start == 1 {
            self.emit_leaf(start, inherited);
            return;
        }
        let (shared, mid) = self.split(start, end);
        let mut inherited = inherited;
        // Of the prefixes from `len` to `shared` bits the range is the
        // node of, the shortest the configuration allows is the one to
        // emit at: what it decides holds for every longer one, as they
        // cover the same leaves. (A single leaf never emits a default: it
        // would only claim unmeasured address space around it without
        // saving an entry.)
        let at = len.max(self.min_prefix_len);
        if at <= shared {
            let slot = self.range_slot(mid);
            if inherited.is_none_or(|h| self.excludes(slot, h)) {
                let key = GroupKey::Ecs(Prefix::from_raw(self.leaves[start].net, at));
                if let Some(best) = self.node_choice(start, end, slot, key) {
                    inherited = Some(best);
                }
            }
        }
        self.emit_subtree(start, mid, shared + 1, inherited);
        self.emit_subtree(mid, end, shared + 1, inherited);
    }

    /// Leaf (/24) emission: exactly the per-group behavior of training
    /// without aggregation when uncovered, cover/exception/borrow logic under an
    /// aggregate.
    fn emit_leaf(&mut self, i: usize, inherited: Option<Target>) {
        let leaf = self.leaves[i];
        let min = self.min_samples;
        let own_rows = match (inherited, leaf.own_best(min)) {
            // No covering aggregate: behave exactly like plain training.
            (None, own) => {
                for pair in leaf.stats {
                    self.tally.admit(pair.n as u64, min as u64);
                }
                own.is_some()
            }
            // Covered but too sparse for a choice of its own: borrow the
            // aggregate's — don't emit, don't fall back to anycast.
            (Some(_), None) => {
                self.tally.borrowed += 1;
                false
            }
            // Agrees with the aggregate, or disagrees within the bound:
            // covered. Beyond the bound — the aggregate's choice is in
            // the leaf's exclusion set — a longer-prefix exception.
            (Some(h), Some(_)) => self.excludes(i, h),
        };
        if own_rows {
            let key = GroupKey::Ecs(Prefix::from_raw(leaf.net, 24));
            self.rows
                .extend(leaf.eligible(min).map(|(t, s)| (key, t, s)));
        }
    }
}

/// The best-scored target among `scored`, under the global tie-break.
fn best_scored(scored: impl IntoIterator<Item = (Target, f64)>) -> Option<(Target, f64)> {
    scored.into_iter().min_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then_with(|| target_order(a.0).cmp(&target_order(b.0)))
    })
}

/// Shared selection pass: given `(group, target, score)` rows (already
/// filtered for eligibility), ranks each group's targets by score and
/// picks the argmin as the served choice, computing the expected gain
/// over anycast. Every trainer ends here — window training with its
/// pairs' scores, the aggregated pass with its walk's rows — so no two
/// break ties differently.
///
/// One sort of the rows by `(group, score, target_order)` puts every
/// group's ranking in place, best first; the rankings are then copied,
/// group after group, into the table's one flat vector. The rows sort as
/// integers: the group's [`PairKey`] word, the score's [`order_key`] and
/// the target's code, which order as the group, `total_cmp` and
/// [`target_order`] do. The ranking is total — a unique order per target —
/// so rank 0 is exactly the single-best target, and the deeper ranks
/// extend it without changing any served answer.
fn choose(scores: impl Iterator<Item = (GroupKey, Target, f64)>) -> PredictionTable {
    let mut rows: Vec<(u64, u64, u32)> = scores
        .map(|(key, target, score)| {
            let group = PairKey::new(key, Target::Anycast).0;
            (group, order_key(score), target_order(target))
        })
        .collect();
    sort_by_group(&mut rows, |row| row.0, |&row| row);
    let mut choices = FastMap::default();
    choices.reserve(rows.chunk_by(|a, b| a.0 == b.0).count());
    let mut ranked = Vec::with_capacity(rows.len());
    for group in rows.chunk_by(|a, b| a.0 == b.0) {
        let ranking = group.iter().map(|&(_, score, code)| RankedCandidate {
            target: target_of_code(code as usize),
            score_ms: from_order_key(score),
        });
        let entry = PredictionTable::entry(&mut ranked, ranking);
        choices.insert(PairKey(group[0].0).group(), entry);
    }
    PredictionTable {
        choices: choices.into(),
        ranked,
    }
}

/// Sorts `rows` by `key`, whose order begins with the group word `group`
/// reads off a row. Rows often come grouped already, groups ascending — a
/// day stored by client, the aggregation walk's rows — and then only each
/// group's few rows need ordering.
fn sort_by_group<T, K: Ord>(
    rows: &mut [T],
    group: impl Fn(&T) -> u64,
    key: impl Fn(&T) -> K + Copy,
) {
    if rows.is_sorted_by_key(&group) {
        rows.chunk_by_mut(|a, b| group(a) == group(b))
            .for_each(|run| run.sort_unstable_by_key(key));
    } else {
        rows.sort_unstable_by_key(key);
    }
}

/// Deterministic tie-break: anycast wins ties (don't redirect without
/// evidence), then lower site id.
fn target_order(t: Target) -> u32 {
    match t {
        Target::Anycast => 0,
        Target::Unicast(s) => 1 + u32::from(s.0),
    }
}

/// The target `target_order` numbers `code`.
fn target_of_code(code: usize) -> Target {
    match code.checked_sub(1) {
        None => Target::Anycast,
        Some(site) => Target::Unicast(SiteId(site as u16)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_beacon::{BeaconMeasurement, Slot};
    use anycast_netsim::stream::mix64;
    use anycast_netsim::{Prefix24, SiteId};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    /// Every sample of a window, one column per `(group, target)` pair.
    type Columns = BTreeMap<(GroupKey, Target), Vec<f64>>;

    /// The window's rows as `predictor` groups them, one column a pair.
    fn columns(predictor: &Predictor, ds: &BeaconDataset, days: &[Day]) -> Columns {
        let mut columns = Columns::new();
        for m in days.iter().flat_map(|&day| ds.day(day)) {
            let (key, target, rtt) = predictor.record(m);
            columns.entry((key, target)).or_default().push(rtt);
        }
        columns
    }

    /// The §6 scheme by brute force: each column with `min_samples`
    /// samples or more scored with [`percentile`], and each group's
    /// candidates ranked by `(score, target_order)`, the argmin served.
    fn train_from_stats(predictor: &Predictor, columns: &Columns) -> PredictionTable {
        let cfg = predictor.config();
        let mut by_group: BTreeMap<GroupKey, Vec<RankedCandidate>> = BTreeMap::new();
        for (&(key, target), column) in columns {
            if column.len() < cfg.min_samples {
                continue;
            }
            if let Some(score_ms) = percentile(column, cfg.metric.p()) {
                let candidate = RankedCandidate { target, score_ms };
                by_group.entry(key).or_default().push(candidate);
            }
        }
        let (mut choices, mut ranked) = (FastMap::default(), Vec::new());
        for (key, mut ranking) in by_group {
            ranking.sort_by(|a, b| {
                a.score_ms
                    .total_cmp(&b.score_ms)
                    .then_with(|| target_order(a.target).cmp(&target_order(b.target)))
            });
            let entry = PredictionTable::entry(&mut ranked, ranking.into_iter());
            choices.insert(key, entry);
        }
        PredictionTable {
            choices: choices.into(),
            ranked,
        }
    }

    /// The tally window training owes `columns`.
    fn tally_of(predictor: &Predictor, columns: &Columns) -> GroupTally {
        let min = predictor.config().min_samples;
        let trained = columns.values().filter(|c| c.len() >= min).count() as u64;
        GroupTally {
            trained,
            discarded: columns.len() as u64 - trained,
            borrowed: 0,
        }
    }

    /// One day's training with aggregation `agg`.
    fn aggregated_on(day: Day, agg: AggregationConfig) -> TrainSpec {
        TrainSpec {
            days: vec![day],
            agg: Some(agg),
        }
    }

    fn prefix(n: u8) -> Prefix24 {
        Prefix24::containing(Ipv4Addr::new(11, 0, n, 1))
    }

    /// The ECS group of [`prefix`]`(n)`.
    fn ecs_key(n: u8) -> GroupKey {
        GroupKey::Ecs(prefix(n).into())
    }

    fn site(id: u16) -> Target {
        Target::Unicast(SiteId(id))
    }

    /// The ECS entry a query for `p` matches: its prefix and choice.
    fn ecs_match(table: &PredictionTable, p: Prefix) -> Option<(Prefix, Choice)> {
        match table.match_query(Grouping::Ecs, LdnsId(0), Some(p))? {
            (GroupKey::Ecs(matched), choice) => Some((matched, *choice)),
            (GroupKey::Ldns(_), _) => unreachable!("an ECS match is keyed by its prefix"),
        }
    }

    /// Builds `n` measurements of `rtt` for (prefix, ldns, target) on day 0.
    fn rows(
        exec_base: u64,
        p: Prefix24,
        ldns: u32,
        target: Target,
        rtt: f64,
        n: usize,
    ) -> Vec<BeaconMeasurement> {
        (0..n)
            .map(|i| {
                let slot = match target {
                    Target::Anycast => Slot::Anycast,
                    Target::Unicast(_) => Slot::GeoClosest,
                };
                BeaconMeasurement {
                    measurement_id: slot.id_for(exec_base + i as u64),
                    slot,
                    prefix: p,
                    ldns: LdnsId(ldns),
                    ecs: None,
                    target,
                    served_site: match target {
                        Target::Anycast => SiteId(0),
                        Target::Unicast(s) => s,
                    },
                    rtt_ms: rtt,
                    failed: false,
                    day: Day(0),
                    time_s: 0.0,
                }
            })
            .collect()
    }

    #[test]
    fn failures_count_against_a_flaky_target() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 80.0, 25));
        // Site 3 is fast when it answers — but times out more often than
        // it answers. Scored on successes alone it would win at 30 ms; the
        // failure penalty must make reliability part of the score.
        ds.extend(rows(100, prefix(1), 0, site(3), 30.0, 25));
        // Failed fetches: `rtt_ms` carries the burnt timeout time, which
        // training must replace with its penalty.
        let mut failed = rows(200, prefix(1), 0, site(3), 6000.0, 30);
        failed.iter_mut().for_each(|m| m.failed = true);
        ds.extend(failed);
        let cfg = PredictorConfig {
            metric: Metric::Median,
            ..Default::default()
        };
        let table = Predictor::new(cfg).train(&ds, Day(0));
        assert_eq!(
            table.predict(ecs_key(1)),
            Some(Target::Anycast),
            "a mostly-failing front-end must not be chosen"
        );
    }

    #[test]
    fn beacon_adapters_project_the_right_fields() {
        let m = BeaconMeasurement {
            measurement_id: Slot::Anycast.id_for(7),
            slot: Slot::Anycast,
            prefix: Prefix24::containing(Ipv4Addr::new(11, 2, 3, 4)),
            ldns: LdnsId(9),
            ecs: None,
            target: Target::Anycast,
            served_site: SiteId(1),
            rtt_ms: 42.0,
            failed: false,
            day: Day(3),
            time_s: 1.0,
        };
        let ecs = Predictor::new(PredictorConfig::default());
        let ldns = Predictor::new(PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        });
        assert_eq!(
            ecs.record(&m),
            (GroupKey::Ecs(m.prefix.into()), Target::Anycast, 42.0)
        );
        assert_eq!(
            ldns.record(&m),
            (GroupKey::Ldns(LdnsId(9)), Target::Anycast, 42.0)
        );
        let failed = BeaconMeasurement { failed: true, ..m };
        assert_eq!(ecs.record(&failed).2, FETCH_TIMEOUT_MS);
        assert_eq!(ldns.record(&failed).2, FETCH_TIMEOUT_MS);
    }

    #[test]
    fn picks_the_lowest_latency_target() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 80.0, 25));
        ds.extend(rows(100, prefix(1), 0, site(3), 50.0, 25));
        ds.extend(rows(200, prefix(1), 0, site(4), 65.0, 25));
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        assert_eq!(table.predict(ecs_key(1)), Some(site(3)));
    }

    #[test]
    fn anycast_kept_when_it_wins() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 40.0, 25));
        ds.extend(rows(100, prefix(1), 0, site(3), 50.0, 25));
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        assert_eq!(table.predict(ecs_key(1)), Some(Target::Anycast));
        assert_eq!(table.redirected_groups().count(), 0);
    }

    #[test]
    fn min_samples_filter_applies_per_target() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 80.0, 25));
        // Better target, but only 5 samples: must be ignored.
        ds.extend(rows(100, prefix(1), 0, site(3), 10.0, 5));
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        assert_eq!(table.predict(ecs_key(1)), Some(Target::Anycast));
    }

    #[test]
    fn group_without_enough_data_has_no_prediction() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 80.0, 3));
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        assert_eq!(table.predict(ecs_key(1)), None);
        assert!(table.is_empty());
    }

    #[test]
    fn ldns_grouping_pools_prefixes() {
        let mut ds = BeaconDataset::new();
        // Two prefixes behind one LDNS, each contributing 15 anycast
        // samples: individually below min_samples, pooled above it.
        ds.extend(rows(0, prefix(1), 7, Target::Anycast, 80.0, 15));
        ds.extend(rows(100, prefix(2), 7, Target::Anycast, 80.0, 15));
        ds.extend(rows(200, prefix(1), 7, site(2), 30.0, 15));
        ds.extend(rows(300, prefix(2), 7, site(2), 30.0, 15));
        let cfg = PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        };
        let table = Predictor::new(cfg).train(&ds, Day(0));
        assert_eq!(table.predict(GroupKey::Ldns(LdnsId(7))), Some(site(2)));
        // ECS grouping on the same data: no group qualifies.
        let ecs_table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        assert!(ecs_table.is_empty());
    }

    #[test]
    fn metric_changes_the_decision() {
        // Target A: excellent p25, terrible tail. Target B: flat 55 ms.
        let mut ds = BeaconDataset::new();
        let mut a_samples = rows(0, prefix(1), 0, site(1), 20.0, 13);
        a_samples.extend(rows(50, prefix(1), 0, site(1), 200.0, 12));
        ds.extend(a_samples);
        ds.extend(rows(100, prefix(1), 0, site(2), 55.0, 25));
        ds.extend(rows(200, prefix(1), 0, Target::Anycast, 300.0, 25));
        let p25 = Predictor::new(PredictorConfig {
            metric: Metric::P25,
            ..Default::default()
        });
        let p95 = Predictor::new(PredictorConfig {
            metric: Metric::P95,
            ..Default::default()
        });
        assert_eq!(p25.train(&ds, Day(0)).predict(ecs_key(1)), Some(site(1)));
        assert_eq!(p95.train(&ds, Day(0)).predict(ecs_key(1)), Some(site(2)));
    }

    #[test]
    fn training_only_sees_the_given_day() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 80.0, 25));
        let mut tomorrow = rows(100, prefix(1), 0, site(3), 10.0, 25);
        for m in &mut tomorrow {
            m.day = Day(1);
        }
        ds.extend(tomorrow);
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        // Day-1 data must not leak into day-0 training.
        assert_eq!(table.predict(ecs_key(1)), Some(Target::Anycast));
    }

    #[test]
    fn tie_prefers_anycast() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 50.0, 25));
        ds.extend(rows(100, prefix(1), 0, site(3), 50.0, 25));
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        assert_eq!(table.predict(ecs_key(1)), Some(Target::Anycast));
    }

    /// A dataset with clearly separated per-target latency levels, varied
    /// enough that each pair's percentile reads a real distribution.
    fn separated_dataset() -> BeaconDataset {
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        for g in 0..12u8 {
            // Jittered but well-separated levels: anycast ~80, site 3
            // ~50+g, site 4 ~65. Jitter is deterministic in (g, i).
            for (target, base) in [
                (Target::Anycast, 80.0),
                (site(3), 50.0 + f64::from(g)),
                (site(4), 65.0),
            ] {
                for i in 0..30usize {
                    let jitter = ((i * 7 + usize::from(g) * 3) % 11) as f64 - 5.0;
                    let (p, ldns) = (prefix(g), u32::from(g));
                    ds.extend(rows(exec, p, ldns, target, base + jitter, 1));
                    exec += 1;
                }
            }
        }
        ds
    }

    #[test]
    fn rank_zero_is_the_served_choice_and_ranks_are_sorted() {
        let ds = separated_dataset();
        for grouping in [Grouping::Ecs, Grouping::Ldns] {
            let table = Predictor::new(PredictorConfig {
                grouping,
                ..Default::default()
            })
            .train(&ds, Day(0));
            assert!(!table.is_empty());
            let ranked_rows: usize = table.iter().map(|(key, _)| table.ranked(key).len()).sum();
            assert_eq!(
                ranked_rows,
                table.ranked.len(),
                "every ranked row is a choice's"
            );
            for (key, _) in table.iter() {
                let cands = table.ranked(key);
                assert!(!cands.is_empty(), "every choice has a ranking");
                assert_eq!(
                    table.predict(key),
                    Some(cands[0].target),
                    "rank 0 must be what the table serves"
                );
                for w in cands.windows(2) {
                    assert!(
                        w[0].score_ms < w[1].score_ms
                            || (w[0].score_ms == w[1].score_ms
                                && target_order(w[0].target) < target_order(w[1].target)),
                        "ranking must be strictly ordered by (score, tie-break)"
                    );
                }
            }
        }
    }

    /// Pins k=1 equivalence: the ranked selection must pick exactly the
    /// target the pre-ranking argmin loop picked — including on exact
    /// score ties — and compute the same gain.
    #[test]
    fn rank_zero_matches_the_legacy_argmin_rule() {
        // Groups with assorted tie patterns.
        let rows: &[(u8, Target, f64)] = &[
            // Group 1: plain win for site 2.
            (1, Target::Anycast, 80.0),
            (1, site(2), 50.0),
            (1, site(5), 60.0),
            // Group 2: exact three-way tie — anycast must win.
            (2, Target::Anycast, 40.0),
            (2, site(1), 40.0),
            (2, site(3), 40.0),
            // Group 3: unicast tie — lower site id must win.
            (3, site(7), 30.0),
            (3, site(4), 30.0),
            (3, Target::Anycast, 90.0),
            // Group 4: no anycast measurement at all.
            (4, site(6), 20.0),
            (4, site(8), 25.0),
        ];
        let table = choose(rows.iter().map(|&(g, t, s)| (ecs_key(g), t, s)));
        // Legacy rule, recomputed independently: strict lexicographic min
        // over (score, target_order).
        let mut legacy: BTreeMap<GroupKey, (Target, f64)> = BTreeMap::new();
        let mut anycast: BTreeMap<GroupKey, f64> = BTreeMap::new();
        for &(g, t, s) in rows {
            let key = ecs_key(g);
            if t == Target::Anycast {
                anycast.insert(key, s);
            }
            match legacy.get(&key) {
                Some(&(pt, ps)) if ps < s || (ps == s && target_order(pt) <= target_order(t)) => {}
                _ => {
                    legacy.insert(key, (t, s));
                }
            }
        }
        assert_eq!(table.len(), legacy.len());
        for (key, &(t, s)) in &legacy {
            let c = table.choice(*key).expect("group trained");
            assert_eq!(c.target, t, "{key:?}");
            let want_gain = match t {
                Target::Anycast => Some(0.0),
                Target::Unicast(_) => anycast.get(key).map(|a| a - s),
            };
            assert_eq!(c.gain_ms, want_gain, "{key:?}");
        }
    }

    #[test]
    fn hybrid_filter_keeps_rankings_for_surviving_groups() {
        let ds = separated_dataset();
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        let filtered = table.hybrid_filter(5.0);
        for (key, _) in filtered.iter() {
            assert!(
                !filtered.ranked(key).is_empty(),
                "surviving group keeps its ranking"
            );
            assert_eq!(filtered.ranked(key), table.ranked(key));
        }
        // Dropped groups lose theirs.
        let dropped = table
            .iter()
            .map(|(k, _)| k)
            .find(|k| filtered.choice(*k).is_none());
        if let Some(k) = dropped {
            assert!(filtered.ranked(k).is_empty());
        }
    }

    #[test]
    fn train_from_stats_applies_the_min_samples_filter() {
        let mut stats = Columns::new();
        let key = ecs_key(1);
        stats.insert((key, Target::Anycast), vec![80.0; 25]);
        // Faster, but too few samples to be eligible.
        stats.insert((key, site(3)), vec![10.0; 5]);
        let predictor = Predictor::new(PredictorConfig::default());
        let table = train_from_stats(&predictor, &stats);
        assert_eq!(table.predict(key), Some(Target::Anycast));
        // The rows those columns expand to train to the same answer.
        let mut ds = BeaconDataset::new();
        for (i, (&(_, target), column)) in stats.iter().enumerate() {
            let exec = 100 * i as u64;
            ds.extend(rows(exec, prefix(1), 0, target, column[0], column.len()));
        }
        assert_eq!(columns(&predictor, &ds, &[Day(0)]), stats);
        let trained = predictor.train(&ds, Day(0));
        assert_eq!(canonical(&trained), canonical(&table));
    }

    #[test]
    fn disabled_aggregation_is_byte_identical_to_plain_training() {
        let ds = separated_dataset();
        let predictor = Predictor::new(PredictorConfig::default());
        let plain = predictor.train(&ds, Day(0));
        let agg = predictor.train(&ds, aggregated_on(Day(0), AggregationConfig::disabled()));
        assert_eq!(canonical(&agg), canonical(&plain));
    }

    #[test]
    fn aggregation_merges_agreeing_leaves_into_one_aggregate() {
        // All 12 leaves of separated_dataset() prefer site 3: the whole
        // table collapses to a single /8 default entry.
        let ds = separated_dataset();
        let predictor = Predictor::new(PredictorConfig::default());
        let plain = predictor.train(&ds, Day(0));
        let agg = predictor.train(&ds, aggregated_on(Day(0), AggregationConfig::default()));
        assert_eq!(agg.len(), 1, "12 agreeing /24s compress to one entry");
        for g in 0..12u8 {
            let (matched, choice) =
                ecs_match(&agg, prefix(g).into()).expect("every measured /24 is covered");
            assert_eq!(matched.len(), 8);
            assert_eq!(Some(choice.target), plain.predict(ecs_key(g)));
        }
        // Unmeasured space outside the aggregate still misses.
        assert!(ecs_match(&agg, Prefix::new(Ipv4Addr::new(99, 0, 0, 0), 24)).is_none());
    }

    /// Five leaves prefer site 3; one strongly prefers site 4.
    fn exception_dataset() -> BeaconDataset {
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        for g in 0..6u8 {
            let (s3, s4) = if g == 5 { (100.0, 20.0) } else { (50.0, 70.0) };
            for (target, rtt) in [(Target::Anycast, 80.0), (site(3), s3), (site(4), s4)] {
                ds.extend(rows(exec, prefix(g), u32::from(g), target, rtt, 25));
                exec += 25;
            }
        }
        ds
    }

    #[test]
    fn aggregation_keeps_exceptions_for_disagreeing_leaves() {
        let ds = exception_dataset();
        let predictor = Predictor::new(PredictorConfig::default());
        let plain = predictor.train(&ds, Day(0));
        let agg = predictor.train(&ds, aggregated_on(Day(0), AggregationConfig::default()));
        assert!(
            agg.len() < plain.len(),
            "aggregation must shrink the table ({} vs {})",
            agg.len(),
            plain.len()
        );
        // Compression must not change any measured leaf's served target.
        for g in 0..6u8 {
            let (matched, choice) = ecs_match(&agg, prefix(g).into()).expect("covered");
            assert_eq!(
                Some(choice.target),
                plain.predict(ecs_key(g)),
                "leaf {g} (matched {matched})"
            );
        }
        // The dissenting leaf is served by a more specific entry than the
        // default aggregate.
        let (matched, choice) = ecs_match(&agg, prefix(5).into()).unwrap();
        assert_eq!(choice.target, site(4));
        assert!(matched.len() > 8, "exception is longer than the default");
    }

    /// [`separated_dataset`] plus a leaf too sparse for a choice of its own.
    fn borrow_dataset() -> BeaconDataset {
        let mut ds = separated_dataset();
        // Leaf 20 has 5 anycast samples: below min_samples, so plain
        // training discards it entirely.
        ds.extend(rows(10_000, prefix(20), 20, Target::Anycast, 80.0, 5));
        ds
    }

    #[test]
    fn sparse_leaves_borrow_their_aggregate() {
        let ds = borrow_dataset();
        let predictor = Predictor::new(PredictorConfig::default());
        let plain = predictor.train(&ds, Day(0));
        assert_eq!(plain.predict(ecs_key(20)), None);
        let agg = predictor.train(&ds, aggregated_on(Day(0), AggregationConfig::default()));
        assert_eq!(
            agg.choice(ecs_key(20)),
            None,
            "the sparse leaf gets no entry of its own"
        );
        let (matched, choice) =
            ecs_match(&agg, prefix(20).into()).expect("borrows the covering aggregate");
        assert_eq!(matched.len(), 8);
        assert_eq!(choice.target, site(3));
    }

    #[test]
    fn lpm_lookup_prefers_longest_match_and_respects_source_len() {
        let key8 = GroupKey::Ecs(Prefix::new(Ipv4Addr::new(11, 0, 0, 0), 8));
        let table =
            choose([(key8, Target::Anycast, 40.0), (ecs_key(5), site(2), 30.0)].into_iter());
        // /24 query under the exception: longest match wins.
        let (m, c) = ecs_match(&table, prefix(5).into()).unwrap();
        assert_eq!((m.len(), c.target), (24, site(2)));
        // /24 query elsewhere under the default.
        let (m, c) = ecs_match(&table, prefix(9).into()).unwrap();
        assert_eq!((m.len(), c.target), (8, Target::Anycast));
        // A /16 query must never match the /24 entry (scope would exceed
        // the disclosed source prefix) — it falls back to the /8.
        let (m, _) = ecs_match(&table, Prefix::new(Ipv4Addr::new(11, 0, 5, 0), 16)).unwrap();
        assert_eq!(m.len(), 8);
        // Outside the default entirely: miss.
        assert!(ecs_match(&table, Prefix::new(Ipv4Addr::new(12, 0, 0, 0), 24)).is_none());
    }

    #[test]
    fn group_index_longest_match_and_source_len_bound() {
        let net = |b, c, len| GroupKey::Ecs(Prefix::new(Ipv4Addr::new(10, b, c, 0), len));
        let mut rows = vec![
            (net(0, 0, 8), "a8"),
            (net(1, 0, 16), "a16"),
            (net(1, 2, 24), "a24"),
        ];
        let index: GroupIndex<&str> = rows.iter().copied().collect();
        assert_eq!(index.len(), 3);
        // The matched row's value and prefix length.
        fn lookup(
            index: &GroupIndex<&'static str>,
            addr: Ipv4Addr,
            len: u8,
        ) -> Option<(&'static str, u8)> {
            let query = Some(Prefix::new(addr, len));
            match index.match_query(Grouping::Ecs, LdnsId(0), query)? {
                (GroupKey::Ecs(p), &v) => Some((v, p.len())),
                (GroupKey::Ldns(_), _) => unreachable!("an ECS match is keyed by its prefix"),
            }
        }
        // Longest match wins at full depth.
        let q = Ipv4Addr::new(10, 1, 2, 3);
        assert_eq!(lookup(&index, q, 32), Some(("a24", 24)));
        // Bounding by the query's source prefix length hides deeper
        // entries: a /16 query can only see the /8 and /16.
        assert_eq!(lookup(&index, q, 16), Some(("a16", 16)));
        assert_eq!(lookup(&index, q, 12), Some(("a8", 8)));
        assert_eq!(lookup(&index, q, 0), None);
        // Siblings don't leak.
        assert_eq!(
            lookup(&index, Ipv4Addr::new(10, 9, 0, 1), 32),
            Some(("a8", 8))
        );
        assert_eq!(lookup(&index, Ipv4Addr::new(11, 0, 0, 1), 32), None);
        // A repeated key replaces the earlier row, not duplicates it.
        rows.push((net(1, 2, 24), "a8"));
        let index: GroupIndex<&str> = rows.into_iter().collect();
        assert_eq!(index.len(), 3);
        assert_eq!(lookup(&index, q, 24), Some(("a8", 24)));
    }

    /// What `table` serves a query from `ldns` carrying `ecs`: the
    /// matched group's target (`None`: anycast) and the RFC 7871 scope
    /// its key implies.
    fn served(
        table: &PredictionTable,
        grouping: Grouping,
        ldns: u32,
        ecs: Option<Prefix>,
    ) -> (Option<Target>, u8) {
        let matched = table.match_query(grouping, LdnsId(ldns), ecs);
        let len = match matched {
            Some((GroupKey::Ecs(p), _)) => Some(p.len()),
            _ => None,
        };
        (matched.map(|(_, c)| c.target), grouping.answer_scope(len))
    }

    /// separated_dataset() grouped by resolver: resolver g, like /24 g,
    /// goes to site 3.
    fn ldns_table() -> PredictionTable {
        let cfg = PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        };
        Predictor::new(cfg).train(&separated_dataset(), Day(0))
    }

    #[test]
    fn prediction_policy_ecs_uses_subnet() {
        // separated_dataset() sends /24 g, behind resolver g, to site 3.
        let table = Predictor::new(PredictorConfig::default()).train(&separated_dataset(), Day(0));
        let ecs = |p: Option<Prefix24>| served(&table, Grouping::Ecs, 1, p.map(Prefix::from));
        assert_eq!(ecs(Some(prefix(1))), (Some(site(3)), 24));
        // An unknown subnet gets anycast, derived from no subnet: scope
        // 0, not the query's /24.
        assert_eq!(ecs(Some(prefix(99))), (None, 0));
        // An ECS table cannot place a query without ECS, even from the
        // resolver the group was measured behind.
        assert_eq!(ecs(None), (None, 0));
    }

    #[test]
    fn prediction_policy_ldns_grouping_ignores_ecs() {
        let table = ldns_table();
        let site3 = (GroupKey::Ldns(LdnsId(1)), site(3));
        // The resolver's own entry whatever subnet the query discloses;
        // a resolver the table never saw gets anycast.
        for ecs in [None, Some(prefix(1).into()), Some(prefix(99).into())] {
            let matched = table.match_query(Grouping::Ldns, LdnsId(1), ecs);
            assert_eq!(matched.map(|(k, c)| (k, c.target)), Some(site3));
            assert!(table.match_query(Grouping::Ldns, LdnsId(99), ecs).is_none());
        }
    }

    #[test]
    fn ldns_keyed_answers_to_ecs_queries_advertise_scope_zero() {
        // An answer computed per resolver does not depend on the client
        // subnet: scope 0 even when the query carries ECS, so one cache
        // entry serves every client of the resolver.
        let table = ldns_table();
        let site3 = Some(site(3));
        for ecs in [None, Some(prefix(1).into()), Some(prefix(99).into())] {
            assert_eq!(served(&table, Grouping::Ldns, 1, ecs), (site3, 0));
            assert_eq!(served(&table, Grouping::Ldns, 99, ecs), (None, 0));
        }
    }

    #[test]
    fn the_matched_aggregate_length_is_the_scope() {
        // separated_dataset() aggregates to one /8 default entry. A /24
        // under it advertises the /8, and so does every coarser query
        // it still covers; a query coarser than the aggregate cannot
        // see it.
        let agg = Predictor::new(PredictorConfig::default()).train(
            &separated_dataset(),
            aggregated_on(Day(0), AggregationConfig::default()),
        );
        let at = |len| {
            let query = Prefix::from(prefix(3)).truncate(len);
            served(&agg, Grouping::Ecs, 0, Some(query))
        };
        let site3 = Some(site(3));
        let scoped = [(site3, 8), (site3, 8), (site3, 8), (None, 0)];
        assert_eq!([24, 16, 8, 4].map(at), scoped);
    }

    #[test]
    fn hybrid_threshold_gates_redirection() {
        // Site 3 beats anycast by about 30 − g ms in group g: every
        // group gains, a strict subset gains 25 ms, nobody a second.
        let table = Predictor::new(PredictorConfig::default()).train(&separated_dataset(), Day(0));
        let at = |t: &PredictionTable, g: u8| served(t, Grouping::Ecs, 0, Some(prefix(g).into()));
        for (min_gain_ms, redirects) in [(0.0, 12..=12), (25.0, 1..=11), (1_000.0, 0..=0)] {
            let hybrid = table.hybrid_filter(min_gain_ms);
            // A surviving group keeps its target; a dropped one gets
            // anycast.
            let survivors = (0..12u8).filter(|&g| at(&hybrid, g).0.is_some());
            assert!(survivors.clone().all(|g| at(&hybrid, g) == at(&table, g)));
            assert_eq!(survivors.clone().count(), hybrid.len());
            assert!(redirects.contains(&hybrid.len()), "{min_gain_ms} ms");
        }
    }

    /// A table in comparable form: per group the served target, the gain
    /// bits, and the full ranking with score bits.
    type Canonical = BTreeMap<GroupKey, (Target, Option<u64>, Vec<(Target, u64)>)>;

    fn canonical(table: &PredictionTable) -> Canonical {
        let out: Canonical = table
            .iter()
            .map(|(key, choice)| {
                let ranking = table.ranked(key).iter();
                let ranking = ranking.map(|c| (c.target, c.score_ms.to_bits())).collect();
                let gain = choice.gain_ms.map(f64::to_bits);
                (key, (choice.target, gain, ranking))
            })
            .collect();
        let ranked_rows: usize = out.values().map(|(_, _, ranking)| ranking.len()).sum();
        assert_eq!(
            ranked_rows,
            table.ranked.len(),
            "every ranked row is a key's"
        );
        out
    }

    /// Leaves of one /21 whose siblings' measurements must speak for two
    /// of them, and one leaf of the next /21 nobody can vouch for.
    fn block_vouch_dataset() -> BeaconDataset {
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        let mut add = |ds: &mut BeaconDataset, g: u8, target: Target, base: f64, n: usize| {
            for i in 0..n {
                let jitter = ((i * 5 + usize::from(g)) % 7) as f64 - 3.0;
                let (p, ldns) = (prefix(g), u32::from(g));
                ds.extend(rows(exec, p, ldns, target, base + jitter, 1));
                exec += 1;
            }
        };
        let (site3, site4) = (site(3), site(4));
        for g in 0..6u8 {
            add(&mut ds, g, Target::Anycast, 80.0, 25);
            add(&mut ds, g, site3, 50.0, 25);
        }
        // Never reached site 3: the block vouches for it.
        add(&mut ds, 6, Target::Anycast, 80.0, 25);
        add(&mut ds, 6, site4, 55.0, 25);
        // Five slow samples of site 3 against the block's fifty-odd ms: a
        // thin dissent the block overrides.
        add(&mut ds, 7, Target::Anycast, 80.0, 25);
        add(&mut ds, 7, site4, 46.0, 25);
        add(&mut ds, 7, site3, 95.0, 5);
        // 11.0.9.0/24 sits in the next /21: no sibling measured site 3.
        add(&mut ds, 9, Target::Anycast, 80.0, 25);
        add(&mut ds, 9, site4, 55.0, 25);
        ds
    }

    /// A seeded three-day campaign over 2,000 /24s in some 375 allocation
    /// blocks of two /8s: one to four targets a leaf, 1–120 samples a pair,
    /// block-wide preferences with per-leaf dissent, failed fetches,
    /// resolvers shared across leaves, and sub-/24 ECS sources on a fifth
    /// of the rows. With `with_nan`, one pair carries a NaN latency.
    fn mixed_days(seed: u64, with_nan: bool) -> BeaconDataset {
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        for leaf in 0..2_000u32 {
            let h = mix64(seed ^ (u64::from(leaf) << 20));
            // Two of every three /24s of 11.0.0.0/13 and 12.0.0.0/13.
            let net = ((11 + leaf / 1_000) << 24) | ((leaf % 1_000 * 3 / 2) << 8);
            let block = u64::from(locality_block(net));
            let p = Prefix24::from_raw(net);
            let block_site = (mix64(seed ^ block) % 6) as u16;
            for t in 0..(1 + h % 4) {
                let ht = mix64(h ^ t);
                let target = match t {
                    0 => Target::Anycast,
                    // Most leaves measure their block's site; some dissent.
                    1 if !ht.is_multiple_of(5) => Target::Unicast(SiteId(block_site)),
                    _ => Target::Unicast(SiteId((ht % 6) as u16)),
                };
                let base = match target {
                    Target::Anycast => 80.0,
                    Target::Unicast(s) if s.0 == block_site => 45.0 + (ht % 9) as f64,
                    Target::Unicast(_) => 40.0 + (ht % 60) as f64,
                };
                for i in 0..(1 + (ht >> 8) % 120) {
                    let hi = mix64(ht ^ (i << 32));
                    let mut m = rows(exec, p, leaf % 97, target, 0.0, 1).remove(0);
                    m.rtt_ms = base + (hi % 2_000) as f64 / 100.0;
                    m.failed = hi.is_multiple_of(41);
                    m.day = Day((hi >> 12) as u32 % 3);
                    if hi.is_multiple_of(5) {
                        m.ecs = Some(Prefix::from_raw(net | 0x80, 25));
                    }
                    ds.extend([m]);
                    exec += 1;
                }
            }
        }
        if with_nan {
            let mut m = ds.measurements()[0];
            m.rtt_ms = f64::NAN;
            m.failed = false;
            ds.extend([m]);
        }
        ds
    }

    /// Forty-eight /24s of three /8s over a universe of `sites` unicast
    /// sites and anycast — more targets than one 64-bit word holds, and at
    /// 130 sites more than two. Every site is measured somewhere. Each /16
    /// has a home site its leaves prefer by far, so the leaves of a /16
    /// can agree on a default (their exclusion sets union) while the two
    /// /16s of a /8 cannot (the union is the whole universe: the /8 keeps
    /// the intersection). Around that: a per-/16 neighbor site within the
    /// regret bound that only some leaves reach, leaves without an anycast
    /// measurement, one dissenter a /8, and one leaf a /16 too sparse for
    /// a choice of its own.
    fn wide_universe_dataset(sites: u16) -> BeaconDataset {
        let mut ds = BeaconDataset::new();
        let mut exec = 0u64;
        let mut add = |ds: &mut BeaconDataset, net: u32, target: Target, base: f64, n: usize| {
            for i in 0..n {
                let jitter = ((i * 5 + (net >> 8) as usize) % 7) as f64 - 3.0;
                let p = Prefix24::from_raw(net);
                ds.extend(rows(exec, p, net >> 16, target, base + jitter, 1));
                exec += 1;
            }
        };
        // Sites 0–5 are the homes, 6–11 their neighbors; the rest take
        // turns as the far-away sites a leaf also measured.
        let mut far = (12..sites).cycle();
        let mut leaf = 0usize;
        for (a, slash8) in [11u32, 12, 13].into_iter().enumerate() {
            for slash16 in [1u32, 2] {
                let home = (a * 2) as u16 + slash16 as u16 - 1;
                let home_ms = 44.0 + f64::from(home);
                for third in [0u32, 1, 2, 3, 8, 9, 10, 11] {
                    let net = slash8 << 24 | slash16 << 16 | third << 8;
                    leaf += 1;
                    if third == 11 {
                        add(&mut ds, net, Target::Anycast, 80.0, 5);
                        continue;
                    }
                    if !leaf.is_multiple_of(5) {
                        add(&mut ds, net, Target::Anycast, 80.0, 25);
                    }
                    add(&mut ds, net, site(home), home_ms, 25);
                    if leaf.is_multiple_of(3) {
                        add(&mut ds, net, site(6 + home), home_ms + 3.0, 22);
                    }
                    // One leaf a /8 finds a far-away site the fastest.
                    let dissents = slash16 == 2 && third == 9;
                    add(
                        &mut ds,
                        net,
                        site(far.next().unwrap()),
                        if dissents { 20.0 } else { 100.0 },
                        25,
                    );
                    for _ in 0..2 {
                        add(&mut ds, net, site(far.next().unwrap()), 120.0, 5);
                    }
                }
            }
        }
        let measured: std::collections::BTreeSet<Target> =
            ds.measurements().iter().map(|m| m.target).collect();
        assert_eq!(
            measured.len(),
            usize::from(sites) + 1,
            "every target measured"
        );
        ds
    }

    #[test]
    fn pair_key_is_injective_orders_like_the_pair_and_round_trips() {
        let mut groups: Vec<GroupKey> = Vec::new();
        for len in 0..=32u8 {
            // The top address bit set, alone and with every other.
            groups.push(GroupKey::Ecs(Prefix::from_raw(1 << 31, len)));
            groups.push(GroupKey::Ecs(Prefix::from_raw(u32::MAX, len)));
        }
        groups.push(GroupKey::Ecs(Prefix::from_raw(0, 24)));
        for id in [0, 1, 1 << 31, u32::MAX] {
            groups.push(GroupKey::Ldns(LdnsId(id)));
        }
        groups.sort_unstable();
        groups.dedup();
        let targets = [
            Target::Anycast,
            site(0),
            site(1),
            Target::Unicast(SiteId(u16::MAX)),
        ];
        let mut pairs: Vec<(GroupKey, Target)> = Vec::new();
        for &group in &groups {
            pairs.extend(targets.map(|target| (group, target)));
        }
        let mut by_word = pairs.clone();
        by_word.sort_unstable_by_key(|&(group, target)| PairKey::new(group, target));
        pairs.sort_unstable();
        // Distinct pairs pack to distinct words (a collision would leave two
        // neighbors equal under one order and not the other), and words
        // order as the pairs do — ECS before LDNS, then network, length,
        // target — which is what lets the aggregation walk sort by word.
        assert_eq!(by_word, pairs);
        for w in pairs.windows(2) {
            let (a, b) = (PairKey::new(w[0].0, w[0].1), PairKey::new(w[1].0, w[1].1));
            assert!(a < b, "{:?} and {:?} pack to {a:?} and {b:?}", w[0], w[1]);
        }
        for (group, target) in pairs {
            let word = PairKey::new(group, target);
            assert_eq!((word.group(), word.target()), (group, target));
        }
    }

    #[test]
    fn window_kernel_equals_the_per_pair_vector_oracle() {
        let mixed = mixed_days(2015, true);
        let cases: [(&str, &BeaconDataset); 4] = [
            ("exception", &exception_dataset()),
            ("borrow", &borrow_dataset()),
            ("block-vouch", &block_vouch_dataset()),
            ("mixed", &mixed),
        ];
        for (name, ds) in cases {
            for grouping in [Grouping::Ecs, Grouping::Ldns] {
                for metric in [Metric::P25, Metric::Median, Metric::P95] {
                    let predictor = Predictor::new(PredictorConfig {
                        grouping,
                        metric,
                        ..Default::default()
                    });
                    for days in [&[Day(0)][..], &[Day(2), Day(0), Day(1)][..]] {
                        let what = format!("{name} {grouping:?} {metric:?} {days:?}");
                        let pairs = predictor.grouped_scores(ds, days);
                        let (got, got_tally) = predictor.select(pairs, None);
                        let columns = columns(&predictor, ds, days);
                        let want = train_from_stats(&predictor, &columns);
                        assert_eq!(canonical(&got), canonical(&want), "{what}");
                        assert_eq!(got_tally, tally_of(&predictor, &columns), "{what}");
                    }
                }
            }
        }
        // The mixed days exercise what they claim to.
        let predictor = Predictor::new(PredictorConfig::default());
        let (table, tally) = predictor.select(predictor.grouped_scores(&mixed, &[Day(0)]), None);
        assert!(table.len() > 200 && tally.discarded > 1_000, "{tally:?}");
    }

    /// Folds every field of `table`'s canonical form, then `tally`, into
    /// `d`.
    fn fold_trained(d: u64, table: &PredictionTable, tally: GroupTally) -> u64 {
        let mut words = Vec::new();
        for (key, (target, gain, ranking)) in canonical(table) {
            let key = match key {
                GroupKey::Ecs(p) => p.key(),
                GroupKey::Ldns(l) => 1 << 63 | u64::from(l.0),
            };
            let target = u64::from(target_order(target));
            words.extend([key, target, u64::from(gain.is_some())]);
            words.extend([gain.unwrap_or(0), ranking.len() as u64]);
            for (t, score) in ranking {
                words.extend([u64::from(target_order(t)), score]);
            }
        }
        words.extend([tally.trained, tally.discarded, tally.borrowed]);
        words.into_iter().fold(d, |d, w| mix64(d ^ w))
    }

    /// Checks that aggregation does `table`'s measured /24s no damage: each
    /// with a choice of its own is served that choice, a target it
    /// measured within the regret bound of the best of everything it
    /// measured, anycast when it has no anycast score, or a target its
    /// allocation block vouches for — the median of the block's per-/24
    /// scores within the bound of the /24's best. Returns the /24s checked.
    fn assert_no_damage(
        predictor: &Predictor,
        ds: &BeaconDataset,
        spec: &TrainSpec,
        table: &PredictionTable,
        what: &str,
    ) -> usize {
        let bound = spec.agg.expect("an aggregated table").regret_bound_ms;
        let columns = columns(predictor, ds, &spec.days);
        let plain = train_from_stats(predictor, &columns);
        let mut leaves: BTreeMap<Prefix, BTreeMap<Target, f64>> = BTreeMap::new();
        let mut blocks: BTreeMap<(u32, Target), Vec<f64>> = BTreeMap::new();
        for (&(key, target), column) in &columns {
            let (GroupKey::Ecs(p), Some(score)) =
                (key, percentile(column, predictor.cfg.metric.p()))
            else {
                continue;
            };
            leaves.entry(p).or_default().insert(target, score);
            let block = blocks.entry((locality_block(p.raw()), target));
            block.or_default().push(score);
        }
        let mut checked = 0;
        for (&p, scores) in &leaves {
            let Some(own) = plain.predict(GroupKey::Ecs(p)) else {
                continue;
            };
            let best_all = scores.values().copied().fold(f64::INFINITY, f64::min);
            let within = |s: f64| s - best_all <= bound;
            let (matched, choice) = table
                .match_query(Grouping::Ecs, LdnsId(0), Some(p))
                .unwrap_or_else(|| panic!("{what}: {p} has a choice and no entry"));
            let served = choice.target;
            let vouched = blocks
                .get(&(locality_block(p.raw()), served))
                .and_then(|scores| percentile(scores, 50.0));
            let harmless = served == own
                || scores.get(&served).is_some_and(|&s| within(s))
                || (served == Target::Anycast && !scores.contains_key(&Target::Anycast))
                || vouched.is_some_and(within);
            assert!(
                harmless,
                "{what}: {p} served {served:?} by {matched:?}, own {own:?}, {scores:?}"
            );
            checked += 1;
        }
        checked
    }

    /// The digest [`fold_trained`] reads off every table and tally of
    /// `aggregated_walk_over_scores_equals_the_walk_over_samples`'s grid,
    /// recorded from the trainer as it stood when it still kept a copy of
    /// the walk over samples, which agreed.
    const AGGREGATED_DIGEST: u64 = 0x20fe_dfae_dc0a_1ca1;

    #[test]
    fn aggregated_walk_over_scores_equals_the_walk_over_samples() {
        let mixed = mixed_days(7, true);
        let cases: [(&str, &BeaconDataset); 7] = [
            ("separated", &separated_dataset()),
            ("exception", &exception_dataset()),
            ("borrow", &borrow_dataset()),
            ("block-vouch", &block_vouch_dataset()),
            ("mixed", &mixed),
            ("two-word universe", &wide_universe_dataset(70)),
            ("three-word universe", &wide_universe_dataset(130)),
        ];
        let configs = [
            AggregationConfig::default(),
            AggregationConfig::disabled(),
            AggregationConfig {
                regret_bound_ms: 0.0,
                min_prefix_len: 16,
            },
            AggregationConfig {
                regret_bound_ms: 30.0,
                min_prefix_len: 8,
            },
            AggregationConfig {
                min_prefix_len: 0,
                ..AggregationConfig::default()
            },
        ];
        let mut digest = 0;
        let mut seen = GroupTally::default();
        let mut checked = 0;
        for (name, ds) in cases {
            for metric in [Metric::P25, Metric::Median] {
                for min_samples in [20, 1] {
                    let predictor = Predictor::new(PredictorConfig {
                        metric,
                        min_samples,
                        ..Default::default()
                    });
                    for (i, &agg) in configs.iter().enumerate() {
                        let what = format!("{name} {metric:?} {min_samples} {agg:?}");
                        let spec = aggregated_on(Day(0), agg);
                        let pairs = predictor.grouped_scores(ds, &spec.days);
                        let (table, tally) = predictor.select(pairs, spec.agg);
                        checked += assert_no_damage(&predictor, ds, &spec, &table, &what);
                        // The digest's grid: the first four configurations
                        // at the paper's sample floor.
                        if min_samples == 20 && i < 4 {
                            digest = fold_trained(digest, &table, tally);
                            seen.trained += tally.trained;
                            seen.discarded += tally.discarded;
                            seen.borrowed += tally.borrowed;
                        }
                    }
                }
            }
        }
        assert_eq!(digest, AGGREGATED_DIGEST, "{digest:#018x}");
        assert!(
            seen.trained > 0 && seen.discarded > 0 && seen.borrowed > 0,
            "every counter exercised: {seen:?}"
        );
        // A two-day window aggregates as one day does.
        let predictor = Predictor::new(PredictorConfig::default());
        let spec = TrainSpec {
            days: vec![Day(0), Day(1)],
            agg: Some(AggregationConfig::default()),
        };
        let table = predictor.train(&mixed, spec.clone());
        checked += assert_no_damage(&predictor, &mixed, &spec, &table, "two days");
        assert!(checked > 10_000, "{checked} /24s checked");
        // The block's vouch decides what the dataset says it does. Leaves
        // 0–5 never measured site 4 yet accept it on their siblings' word;
        // leaf 9, with no sibling to speak for site 3, vetoes it — so the
        // one default everything rides is site 4.
        let table = Predictor::new(PredictorConfig::default()).train(
            &block_vouch_dataset(),
            aggregated_on(Day(0), AggregationConfig::default()),
        );
        assert_eq!(table.len(), 1);
        for g in [0u8, 5, 6, 7, 9] {
            let (matched, choice) = ecs_match(&table, prefix(g).into()).expect("covered");
            assert_eq!((matched.len(), choice.target), (8, site(4)));
        }
        // So do the wide universe's merges. The leaves of 11.1.0.0/16 agree
        // on their home, site 0, and those of 11.2.0.0/16 on site 1, and
        // each /16 vetoes the other's: 11/8 keeps only the exclusions they
        // share, which leaves it the one target nobody vetoes — the
        // dissenter's far-away site, vouched for across its block — and
        // each home is carved out of the /8 as a nested aggregate.
        let table = Predictor::new(PredictorConfig::default()).train(
            &wide_universe_dataset(130),
            aggregated_on(Day(0), AggregationConfig::default()),
        );
        let served = |a: u8, b: u8, c: u8| {
            let (matched, choice) =
                ecs_match(&table, Prefix::new(Ipv4Addr::new(a, b, c, 0), 24)).expect("covered");
            (matched.len(), choice.target)
        };
        assert_eq!(served(11, 1, 2), (15, site(0)));
        assert_eq!(served(11, 2, 2), (21, site(1)));
        let (len, far) = served(11, 2, 9);
        assert_eq!(len, 8);
        assert!(matches!(far, Target::Unicast(SiteId(12..))), "{far:?}");
        assert_eq!(served(11, 2, 11), (len, far), "the sparse leaf borrows");
        assert_eq!(table.len(), 3 * 3);
    }

    #[test]
    fn ldns_grouping_falls_back_to_plain_training_when_aggregating() {
        let ds = mixed_days(3, false);
        let predictor = Predictor::new(PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        });
        let plain = predictor.train(&ds, Day(1));
        let agg = predictor.train(&ds, aggregated_on(Day(1), AggregationConfig::default()));
        assert!(!plain.is_empty());
        assert_eq!(canonical(&agg), canonical(&plain));
    }

    #[test]
    fn sketched_training_is_window_training() {
        // Failed fetches, and pairs of 1–120 samples: most p25 ranks fall
        // between two samples, where a nearest-rank pick and the
        // interpolated percentile differ.
        let ds = mixed_days(11, false);
        for grouping in [Grouping::Ecs, Grouping::Ldns] {
            let predictor = Predictor::new(PredictorConfig {
                grouping,
                ..Default::default()
            });
            let windows: [&[Day]; 3] = [&[Day(0)], &[Day(2), Day(0), Day(1)], &[Day(1), Day(1)]];
            for days in windows {
                let spec = TrainSpec {
                    days: days.to_vec(),
                    agg: None,
                };
                let want = predictor.train(&ds, spec);
                assert!(!want.is_empty());
                // The arguments the wrapper ignores, at both ends.
                for (eps, workers) in [(0.005, 1), (0.2, 3)] {
                    let got = predictor.train_sketched(&ds, days, eps, ShardConfig { workers });
                    let at = format!("{grouping:?} {days:?} eps {eps} workers {workers}");
                    assert_eq!(canonical(&got), canonical(&want), "{at}");
                }
            }
        }
    }

    /// The production kernel over `days` of `ds` at a pinned range count
    /// and chunk span, pairs in comparable form: the word, `n` and the
    /// score's bits.
    fn kernel(
        predictor: &Predictor,
        ds: &BeaconDataset,
        days: &[Day],
        ranges: usize,
        span: usize,
    ) -> Vec<(PairKey, usize, Option<u64>)> {
        let pairs = kernel_pairs(predictor, ds, days, ranges, span);
        let comparable = |pair: &PairScore| (pair.pair, pair.n, pair.score.map(f64::to_bits));
        pairs.iter().map(comparable).collect()
    }

    fn kernel_pairs(
        predictor: &Predictor,
        ds: &BeaconDataset,
        days: &[Day],
        ranges: usize,
        span: usize,
    ) -> Vec<PairScore> {
        let window: Vec<&[BeaconMeasurement]> =
            days.iter().flat_map(|&day| ds.day_slices(day)).collect();
        scores_in_ranges(&window, ranges, span, predictor.cfg.metric.p(), |m| {
            let (key, target, rtt) = predictor.record(m);
            (PairKey::new(key, target), rtt)
        })
    }

    /// The span [`chunk_span`] gives every window these tests build (none
    /// holds `CHUNKS_PER_WINDOW` times this many rows).
    const SPAN: usize = MIN_CHUNK_SAMPLES;

    #[test]
    fn range_count_never_shows_in_the_pairs_or_the_tables() {
        for (seed, with_nan) in [(22, true), (1, false)] {
            // Interleaved days: every slice of a window is a few rows long.
            let ds = mixed_days(seed, with_nan);
            for grouping in [Grouping::Ecs, Grouping::Ldns] {
                let predictor = Predictor::new(PredictorConfig {
                    grouping,
                    ..Default::default()
                });
                let windows = [
                    &[Day(0)][..],
                    &[Day(2), Day(0), Day(1)][..],
                    // Named twice, a day pools twice.
                    &[Day(1), Day(1)][..],
                ];
                for days in windows {
                    let one = kernel(&predictor, &ds, days, 1, SPAN);
                    let rows: usize = one.iter().map(|&(_, n, _)| n).sum();
                    assert_eq!(rows, days.iter().map(|&d| ds.day(d).count()).sum::<usize>());
                    if days.len() == 3 {
                        assert_eq!(one.iter().any(|(.., score)| score.is_none()), with_nan);
                    }
                    for ranges in [0, 2, 3, 7] {
                        let what = format!("seed {seed} {grouping:?} {days:?} at {ranges}");
                        assert_eq!(kernel(&predictor, &ds, days, ranges, SPAN), one, "{what}");
                    }
                    // Equal pairs make equal tables, aggregated (one ECS
                    // day: the walk is slow in a debug build) or not.
                    let (default, disabled) =
                        (AggregationConfig::default(), AggregationConfig::disabled());
                    let aggs = match (days, grouping) {
                        ([_], Grouping::Ecs) => &[None, Some(default), Some(disabled)][..],
                        _ => &[None][..],
                    };
                    for &agg in aggs {
                        let table_at = |ranges| {
                            let pairs = kernel_pairs(&predictor, &ds, days, ranges, SPAN);
                            let (table, tally) = predictor.select(pairs, agg);
                            (canonical(&table), tally)
                        };
                        let one = table_at(1);
                        let spec = TrainSpec {
                            days: days.to_vec(),
                            agg,
                        };
                        assert_eq!(one.0, canonical(&predictor.train(&ds, spec)));
                        for ranges in [3, 7] {
                            assert_eq!(table_at(ranges), one, "{agg:?} at {ranges}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_seam_inside_one_pairs_rows_splits_nothing() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 80.0, 3));
        // Ten rows of one pair in a row, 10..=100 ms: of thirteen rows in
        // two ranges the seam falls after the seventh, inside them.
        for i in 1..=10u32 {
            let (exec, rtt) = (u64::from(i) * 10, f64::from(i) * 10.0);
            ds.extend(rows(exec, prefix(1), 0, site(3), rtt, 1));
        }
        let predictor = Predictor::new(PredictorConfig::default());
        let want = vec![
            (
                PairKey::new(ecs_key(1), Target::Anycast),
                3,
                Some(80f64.to_bits()),
            ),
            (
                PairKey::new(ecs_key(1), site(3)),
                10,
                Some(32.5f64.to_bits()),
            ),
        ];
        // Asked for more ranges than rows: a row a range, none empty. A
        // span of 1 or 2 makes the ten-row pair a chunk heavier than its
        // span; at 5 the chunk seam falls inside its rows and the chunk
        // takes the whole pair; at 18 one chunk holds everything.
        for ranges in [1, 2, 13 + 5] {
            for span in [1, 2, 5, 13 + 5] {
                let got = kernel(&predictor, &ds, &[Day(0)], ranges, span);
                assert_eq!(got, want, "{ranges} ranges, span {span}");
            }
        }
        // A NaN on the far side of the seam still unscores the whole pair.
        let mut nan = ds.measurements()[12];
        nan.rtt_ms = f64::NAN;
        ds.extend([nan]);
        for ranges in [1, 2, 14 + 5] {
            for span in [1, 2, 5, 14 + 5] {
                let got = kernel(&predictor, &ds, &[Day(0)], ranges, span);
                assert_eq!(
                    (got[0], got[1].1, got[1].2),
                    (want[0], 11, None),
                    "{ranges} ranges, span {span}"
                );
            }
        }
    }

    #[test]
    fn chunk_span_never_shows_in_the_pairs() {
        let ds = mixed_days(2015, true);
        // The NaN row joins its day at the end, beside the day's first
        // row: that pair's rows run from the window's first row to its
        // last, across every chunk seam.
        let day = ds.measurements()[0].day;
        let rows = ds.day(day).count();
        // An LDNS pair's rows spread over the whole day, so a chunk a pair
        // would sweep the day once a pair: its spans cut a few chunks.
        for (grouping, spans) in [
            (Grouping::Ecs, [1, 2, 7, rows + 5]),
            (Grouping::Ldns, [1_000, rows / 3, rows / 2, rows + 5]),
        ] {
            let predictor = Predictor::new(PredictorConfig {
                grouping,
                ..Default::default()
            });
            let whole = kernel(&predictor, &ds, &[day], 1, rows + 5);
            assert!(whole.iter().any(|(.., score)| score.is_none()));
            for span in spans {
                for ranges in [1, 2, 3, 7] {
                    let got = kernel(&predictor, &ds, &[day], ranges, span);
                    assert_eq!(got, whole, "{grouping:?} span {span} at {ranges}");
                }
            }
        }
    }

    /// The same rows in the layouts a window arrives in, as `(name,
    /// rows)`: 40 /24s with one to three targets and 1–30 samples a pair
    /// on day 0, a 200-row pair, a pair whose rows alternate between days
    /// 0 and 1, and a pair with a NaN row.
    fn layouts() -> Vec<(&'static str, Vec<BeaconMeasurement>)> {
        let mut pairs: Vec<Vec<BeaconMeasurement>> = Vec::new();
        let mut exec = 0;
        for g in 0..40u8 {
            let h = mix64(u64::from(g));
            for t in 0..1 + h % 3 {
                let target = if t == 0 {
                    Target::Anycast
                } else {
                    site(t as u16)
                };
                let n = match (g, t) {
                    (20, 0) => 200,
                    _ => 1 + mix64(h ^ t) % 30,
                };
                let pair = (0..n).map(|i| {
                    let hi = mix64(h ^ t << 32 ^ i << 40);
                    let rtt = 20.0 + (hi % 5_000) as f64 / 100.0;
                    let mut m =
                        rows(exec + i, prefix(g), u32::from(g % 5), target, rtt, 1).remove(0);
                    m.day = Day(u32::from(g == 7) * (i % 2) as u32);
                    m.time_s = (hi >> 24) as f64 / (1u64 << 40) as f64 * 86_400.0;
                    m
                });
                pairs.push(pair.collect());
                exec += n;
            }
        }
        pairs[5][1].rtt_ms = f64::NAN;
        let client: Vec<BeaconMeasurement> = pairs.concat();
        let mut time = client.clone();
        time.sort_by(|a, b| { a.time_s }.total_cmp(&{ b.time_s }));
        // Each pair's second half after every pair's first.
        let (firsts, seconds): (Vec<_>, Vec<_>) = pairs
            .iter()
            .map(|pair| pair.split_at(pair.len() / 2))
            .unzip();
        let gap = [firsts.concat(), seconds.concat()].concat();
        // The 200-row pair across the middle row, where two ranges meet.
        let heavy = pairs
            .iter()
            .position(|pair| pair.len() == 200)
            .expect("a heavy pair");
        let mut seam: Vec<BeaconMeasurement> = pairs
            .iter()
            .enumerate()
            .filter(|&(nth, _)| nth != heavy)
            .flat_map(|(_, pair)| pair.iter().copied())
            .collect();
        let at = client.len() / 2 - 100;
        seam.splice(at..at, pairs[heavy].iter().copied());
        // The NaN row after every other row.
        let mut nan_last = client.clone();
        let nan = nan_last
            .iter()
            .position(|m| { m.rtt_ms }.is_nan())
            .expect("a NaN row");
        let row = nan_last.remove(nan);
        nan_last.push(row);
        vec![
            ("client order", client),
            ("time order", time),
            ("recurring after a gap", gap),
            ("a run across a range seam", seam),
            ("the NaN row last", nan_last),
        ]
    }

    #[test]
    fn neither_row_layout_nor_range_count_shows_in_the_pairs() {
        let predictor = Predictor::new(PredictorConfig::default());
        let days = [Day(0), Day(1)];
        let mut first_layout: Option<BTreeMap<PairKey, (usize, Option<u64>)>> = None;
        for (layout, rows) in layouts() {
            let mut ds = BeaconDataset::new();
            ds.extend(rows);
            let n = ds.len();
            let one = kernel(&predictor, &ds, &days, 1, 1);
            for ranges in [1, 2, 3, 7] {
                for span in [1, 2, 7, n + 5] {
                    let got = kernel(&predictor, &ds, &days, ranges, span);
                    assert_eq!(got, one, "{layout}: {ranges} ranges, span {span}");
                }
            }
            let by_pair: BTreeMap<_, _> = one
                .iter()
                .map(|&(pair, n, score)| (pair, (n, score)))
                .collect();
            assert_eq!(by_pair.len(), one.len(), "{layout}: each pair once");
            match &first_layout {
                Some(first) => assert_eq!(&by_pair, first, "{layout}"),
                None => {
                    // The pairs as the brute force reads them.
                    let columns = columns(&predictor, &ds, &days);
                    let want: BTreeMap<_, _> = columns
                        .iter()
                        .map(|(&(key, target), column)| {
                            let score = percentile(column, predictor.cfg.metric.p());
                            (
                                PairKey::new(key, target),
                                (column.len(), score.map(f64::to_bits)),
                            )
                        })
                        .collect();
                    assert_eq!(by_pair, want, "{layout}");
                    let unscored = by_pair.values().filter(|(_, score)| score.is_none());
                    assert_eq!(unscored.count(), 1, "the NaN row's pair");
                    first_layout = Some(by_pair);
                }
            }
        }
    }

    /// Asserts that the kernel's pairs over `days`, at ranges {1, 2, 3, 7}
    /// and each of `spans`, are the brute force's bit for bit.
    fn assert_brute_force(
        predictor: &Predictor,
        ds: &BeaconDataset,
        days: &[Day],
        spans: &[usize],
    ) {
        let want: BTreeMap<_, _> = columns(predictor, ds, days)
            .iter()
            .map(|(&(key, target), column)| {
                let score = percentile(column, predictor.cfg.metric.p());
                let pair = PairKey::new(key, target);
                (pair, (column.len(), score.map(f64::to_bits)))
            })
            .collect();
        for ranges in [1, 2, 3, 7] {
            for &span in spans {
                let got = kernel(predictor, ds, days, ranges, span);
                let by_pair: BTreeMap<_, _> = (got.iter())
                    .map(|&(pair, n, score)| (pair, (n, score)))
                    .collect();
                assert_eq!(by_pair.len(), got.len(), "each pair once");
                assert_eq!(by_pair, want, "{days:?}: {ranges} ranges, span {span}");
            }
        }
    }

    #[test]
    fn neither_recurring_resolvers_nor_seams_inside_a_run_show_in_the_pairs() {
        // The benchmark's day at a hundredth of its /24s, client by client:
        // /21 blocks of eight /24s, each against anycast and its block's
        // three unicast sites, and a block's resolver recurring every five
        // blocks. Under LDNS grouping every pair recurs, pairs are first
        // seen all through the day, and the chunks' spans overlap. Over
        // 2 * RANK_STEP rows, so chunks start past a rank checkpoint.
        let mut ds = BeaconDataset::new();
        let mut exec = 0;
        for block in 0..48u16 {
            for k in 0..8u16 {
                let g = block * 8 + k;
                let p = Prefix24::from_raw(0x0b00_0000 | u32::from(g) << 8);
                for t in 0..4 {
                    let target = match t {
                        0 => Target::Anycast,
                        _ => site((3 * block + t) % 29),
                    };
                    let h = mix64(u64::from(g) << 8 | u64::from(t));
                    for i in 0..3 + h % 6 {
                        let rtt = 20.0 + (mix64(h ^ i) % 5_000) as f64 / 100.0;
                        let ldns = u32::from(block % 5);
                        ds.extend(rows(exec, p, ldns, target, rtt, 1));
                        exec += 1;
                    }
                }
            }
        }
        let n = ds.len();
        assert!(n > 2 * RANK_STEP, "{n} rows");
        let ldns = Predictor::new(PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        });
        assert_brute_force(&ldns, &ds, &[Day(0)], &[1, 2, 7, 1_000, n + 5]);

        // One pair's run from row 70 to row 140 of a two-day window: day
        // 0's last 40 rows and day 1's first 30, so the run crosses the
        // slice seam at row 110, and a range seam at 2, 3 and 7 ranges
        // (rows 100, 134, and 87 and 116). A last row of it ends day 1, so
        // it is swept at one range too.
        let mut ds = BeaconDataset::new();
        let mut add = |day, g: u8, n| {
            let mut run = rows(exec, prefix(g), 0, Target::Anycast, 0.0, n);
            for (i, m) in run.iter_mut().enumerate() {
                (m.day, m.rtt_ms) = (Day(day), f64::from(g) + i as f64 * 0.25 + f64::from(day));
            }
            ds.extend(run);
            exec += n as u64;
        };
        (0..7).for_each(|g| add(0, g, 10));
        add(0, 99, 40);
        add(1, 99, 30);
        (10..69).for_each(|g| add(1, g, 1));
        add(1, 99, 1);
        assert_eq!(ds.len(), 200);
        let ecs = Predictor::new(PredictorConfig::default());
        assert_brute_force(&ecs, &ds, &[Day(0), Day(1)], &[1, 2, 7, 205]);
    }

    #[test]
    fn empty_windows_have_no_pairs_and_small_ones_no_threads() {
        let ds = mixed_days(5, false);
        let predictor = Predictor::new(PredictorConfig::default());
        // No day named, a day the dataset lacks, and both beside a real one.
        assert!(predictor.grouped_scores(&ds, &[]).is_empty());
        assert!(predictor.grouped_scores(&ds, &[Day(9)]).is_empty());
        assert!(predictor.train(&BeaconDataset::new(), Day(0)).is_empty());
        assert_eq!(
            kernel(&predictor, &ds, &[Day(9), Day(1), Day(8)], 3, SPAN),
            kernel(&predictor, &ds, &[Day(1)], 1, SPAN)
        );
        // One range runs where it was called; several do not.
        let window: Vec<&[BeaconMeasurement]> = ds.day_slices(Day(0)).collect();
        let caller = std::thread::current().id();
        let elsewhere = std::sync::atomic::AtomicUsize::new(0);
        let record = |m: &BeaconMeasurement| {
            if std::thread::current().id() != caller {
                elsewhere.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            (
                PairKey::new(GroupKey::Ecs(m.prefix.into()), m.target),
                m.rtt_ms,
            )
        };
        scores_in_ranges(&window, 1, SPAN, 25.0, record);
        assert_eq!(elsewhere.load(std::sync::atomic::Ordering::Relaxed), 0);
        scores_in_ranges(&window, 3, SPAN, 25.0, record);
        assert!(elsewhere.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }

    #[test]
    #[should_panic(expected = "exact training failed: shard worker 1 panicked: row 7")]
    fn a_panicking_range_is_one_panic_after_every_join() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows(0, prefix(1), 0, Target::Anycast, 80.0, 12));
        let window: Vec<&[BeaconMeasurement]> = ds.day_slices(Day(0)).collect();
        let seventh = ds.measurements()[7].measurement_id;
        scores_in_ranges(&window, 3, SPAN, 25.0, |m| {
            assert!(m.measurement_id != seventh, "row 7");
            (
                PairKey::new(GroupKey::Ecs(m.prefix.into()), m.target),
                m.rtt_ms,
            )
        });
    }
}
