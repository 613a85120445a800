//! Every call the benchmark makes into the program under test.
//!
//! No other module names a library item. A refactor that changes one of
//! the signatures used here is a benchmark change as well: it edits this
//! file and nothing else in `benchmark/`. `README.md` lists the functions
//! called; keep the two in step.
//!
//! The wrappers are deliberately thin. They pin the load-shaping fields
//! the issue fixes (`workers`, `batch`, the valve) and take the library's
//! defaults for everything else, so `anycast_obs` stays enabled and the
//! serve recorder stays on, as shipped.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Instant;

use anycast_analysis::affinity::{cumulative_switch_curve, ClientObservations};
use anycast_analysis::cdf::Ecdf;
use anycast_analysis::persistence::persistence_by_key;
use anycast_analysis::poor_paths::{daily_prevalence, poor_keys};
use anycast_analysis::quantile::percentile;
use anycast_beacon::{BeaconDataset, BeaconMeasurement, MeasurementPolicy, Slot, Target};
use anycast_control::{
    CapacityPlan, ControlConfig, ControlMode, Controller, DemandModel, LoopConfig,
};
use anycast_core::evaluation::evaluate_prediction;
use anycast_core::prediction::{
    AggregationConfig, GroupKey, Grouping, PredictionTable, Predictor, PredictorConfig,
};
use anycast_core::{Study, StudyConfig};
use anycast_dns::{AuthoritativeServer, DnsName, EcsOption, Ldns, LdnsId};
use anycast_geo::{GeoPoint, NearestIndex};
use anycast_netsim::worldgen::RouteEnv;
use anycast_netsim::{
    CdnAddressing, Day, Internet, NetConfig, Prefix, Prefix24, SiteId, WorldGenConfig,
};
use anycast_obs::Snapshot;
use anycast_pipeline::{route_subnet, sketch_day, QuantileSketch, ShardConfig};
use anycast_serve::client::WireClient;
use anycast_serve::message::{
    decode_query, decode_response, encode_query, encode_response, Edns, WireEcs, WireQuery,
};
use anycast_serve::mmsg::{batch_io, BatchIo, PacketArena};
use anycast_serve::replay::{ldns_source_addr, service_qname};
use anycast_serve::server::{DnsServer, LdnsDirectory, ServeConfig};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_serve::template::{write_response, QueryView};
use anycast_serve::wire::{CLASS_IN, TYPE_A};
use anycast_workload::{Scenario, ScenarioConfig};

pub use anycast_obs::json::{parse as json_parse, Value as Json};

use crate::synth::{DaySpec, Digest, PoolQuery, QueryKind, SynthRow};
use crate::wire::Reply;

/// Worker threads of a study day and of sharded ingestion: sized for the
/// two cores the load is pinned to.
pub const WORKERS: usize = 2;
/// Seed of the campaign worlds. A world's cost and size move with its seed
/// (the 75k-AS world's rows/s by ±15%, its RSS by ±10%), which would drown
/// the bounds; the run's seed drives the campaign over this one world.
pub const WORLD_SEED: u64 = 2015;
/// Rank-error bound of the sketched trainer.
const SKETCH_EPS: f64 = 0.01;
/// TTL the compiled tables answer with.
const TABLE_TTL_S: u32 = 60;
/// AAAA, the one question type the pinned traffic asks besides A.
const TYPE_AAAA: u16 = 28;

// ---------------------------------------------------------------- obs --

/// A point in the program's own metrics registry to measure from.
pub struct ObsMark(Snapshot);

/// What the program recorded since an [`ObsMark`].
pub struct ObsDelta(Snapshot);

/// Marks the global registry (`anycast_obs::global().snapshot()`).
pub fn obs_mark() -> ObsMark {
    ObsMark(anycast_obs::global().snapshot())
}

impl ObsMark {
    /// Everything recorded since the mark (`Snapshot::diff`).
    pub fn delta(&self) -> ObsDelta {
        ObsDelta(anycast_obs::global().snapshot().diff(&self.0))
    }
}

impl ObsDelta {
    /// A counter summed over its label sets.
    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter_sum(name)
    }

    /// `(spans completed, total ms)` of a stage, summed over workers.
    pub fn span(&self, stage: &str) -> (u64, f64) {
        self.0
            .spans
            .iter()
            .filter(|(k, _)| k.name == stage)
            .fold((0, 0.0), |(n, ms), (_, s)| (n + s.count, ms + s.total_ms()))
    }

    /// Total ms of a stage per worker label.
    pub fn span_by_worker_ms(&self, stage: &str) -> Vec<f64> {
        self.0
            .spans
            .iter()
            .filter(|(k, s)| k.name == stage && s.count > 0)
            .map(|(_, s)| s.total_ms())
            .collect()
    }

    /// Mean of a histogram's observations, 0 when it saw none.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let (n, sum) = self
            .0
            .histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .fold((0u64, 0.0), |(n, s), (_, h)| {
                (n + h.count(), s + h.sum_ms())
            });
        crate::layers::ratio(sum, n as f64)
    }
}

/// Turns the program's metric recording on or off (`anycast_obs::set_enabled`).
pub fn obs_set_enabled(on: bool) {
    anycast_obs::set_enabled(on);
}

/// Stable fingerprint of configuration strings (`anycast_obs::fingerprint`).
pub fn fingerprint(parts: &[&str]) -> String {
    anycast_obs::fingerprint(parts)
}

/// `n` each of the three recording primitives; returns ns per
/// `(span, counter increment, histogram observation)`.
pub fn obs_primitive_ns(n: u32) -> (f64, f64, f64) {
    let reg = anycast_obs::global();
    let span = reg.span("benchmark.probe", "main");
    let counter = reg.counter("benchmark_probe_total");
    let hist = reg.histogram("benchmark_probe_ms");
    let per = |t: Instant| t.elapsed().as_nanos() as f64 / f64::from(n);
    let t = Instant::now();
    for _ in 0..n {
        span.time(|| black_box(()));
    }
    let span_ns = per(t);
    let t = Instant::now();
    for _ in 0..n {
        counter.inc();
    }
    let counter_ns = per(t);
    let t = Instant::now();
    for i in 0..n {
        hist.observe(f64::from(i & 1023));
    }
    (span_ns, counter_ns, per(t))
}

// ----------------------------------------------------------- campaign --

/// Which Internet a campaign runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// The default distance-ranked world (`worldgen: None`).
    Legacy,
    /// The 75,000-AS policy-routed world with default flap rates.
    Policy75k,
}

fn net_config(world: World) -> NetConfig {
    match world {
        World::Legacy => NetConfig::default(),
        World::Policy75k => NetConfig {
            worldgen: Some(WorldGenConfig::with_ases(75_000)),
            ..NetConfig::default()
        },
    }
}

/// Wall ms of `Internet::new` alone for a world.
pub fn world_build_ms(world: World) -> f64 {
    let cfg = net_config(world);
    let t = Instant::now();
    let internet = Internet::new(cfg, WORLD_SEED).expect("pinned net config is valid");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    black_box(internet);
    ms
}

/// A beacon campaign at the paper's scale: 44 sites, 4,000 client /24s,
/// about 400k queries a day.
pub struct Campaign {
    study: Study,
}

/// One fold of a measurement row into a digest.
fn push_measurement(d: &mut Digest, m: &BeaconMeasurement) {
    d.push(m.measurement_id);
    d.push(m.prefix.key() ^ (u64::from(m.ldns.0) << 40));
    d.push(match m.target {
        Target::Anycast => u64::MAX,
        Target::Unicast(s) => u64::from(s.0),
    });
    d.push(u64::from(m.served_site.0) ^ (u64::from(m.failed) << 32));
    d.push(m.rtt_ms.to_bits());
    d.push(m.time_s.to_bits());
}

impl Campaign {
    /// `Scenario::build` then `Study::new`; returns the campaign and the
    /// ms `Scenario::build` took.
    ///
    /// The world — topology, population, resolvers, route dynamics — is
    /// built from [`WORLD_SEED`]; `seed` becomes `Scenario::seed`, which
    /// every campaign stream derives from: which clients fire beacons
    /// when, which candidates the policy picks, every latency draw.
    pub fn build(world: World, seed: u64, workers: usize) -> (Campaign, f64) {
        let cfg = ScenarioConfig {
            net: net_config(world),
            seed: WORLD_SEED,
            ..ScenarioConfig::default()
        };
        let t = Instant::now();
        let mut scenario = Scenario::build(cfg).expect("pinned scenario config is valid");
        let scenario_ms = t.elapsed().as_secs_f64() * 1e3;
        scenario.seed = seed;
        let study = Study::new(
            scenario,
            StudyConfig {
                workers,
                ..StudyConfig::default()
            },
        );
        (Campaign { study }, scenario_ms)
    }

    /// `Study::run_day`; returns the rows the day joined.
    pub fn run_day(&mut self, day: u32) -> usize {
        let before = self.study.dataset().len();
        self.study.run_day(Day(day));
        self.study.dataset().len() - before
    }

    /// Digest of every joined row of `day`, in dataset order.
    pub fn day_digest(&self, day: u32) -> u64 {
        let mut d = Digest::new();
        for m in self.study.dataset().day(Day(day)) {
            push_measurement(&mut d, m);
        }
        d.0
    }

    /// `n` `Internet::anycast_route_at` lookups over the client population.
    pub fn route_lookups(&self, day: u32, n: usize) -> usize {
        let s = self.study.scenario();
        let mut routed = 0;
        for i in 0..n {
            let c = &s.clients[i % s.clients.len()];
            let time_s = (i % 86_400) as f64;
            routed += usize::from(
                black_box(s.internet.anycast_route_at(&c.attachment, Day(day), time_s)).is_some(),
            );
        }
        routed
    }

    /// `n` `NearestIndex::k_nearest(.., 10)` queries from client locations
    /// over the site catalog.
    pub fn k_nearest_queries(&self, n: usize) -> usize {
        let s = self.study.scenario();
        let index = NearestIndex::new(s.internet.site_locations());
        let mut found = 0;
        for i in 0..n {
            let from = s.clients[i % s.clients.len()].attachment.location;
            found += black_box(index.k_nearest(&from, 10)).len();
        }
        found
    }

    /// `n` `Ldns::resolve` calls for unique names through an
    /// `AuthoritativeServer` running the beacon's measurement policy.
    /// Names are built before timing starts; returns the ns the calls took.
    pub fn resolves(&self, n: usize) -> u64 {
        let s = self.study.scenario();
        let cfg = self.study.config();
        let policy = MeasurementPolicy::new(
            s.internet.site_locations(),
            s.addressing,
            cfg.candidates,
            cfg.ttl_s,
            s.seed,
        );
        let mut auth = AuthoritativeServer::new(policy, false);
        let r = &s.ldns.resolvers[0];
        let mut ldns = Ldns::new(r.id, r.kind, r.location, r.supports_ecs);
        let zone = DnsName::new("probe.cdn.example").expect("static zone");
        let names: Vec<DnsName> = (0..n as u64)
            .map(|i| DnsName::measurement(i, &zone))
            .collect();
        let t = Instant::now();
        for (i, name) in names.iter().enumerate() {
            let c = &s.clients[i % s.clients.len()];
            black_box(ldns.resolve(name, c.prefix, r.location, &mut auth, Day(0), i as f64));
        }
        t.elapsed().as_nanos() as u64
    }

    /// The figure pass over the collected days: `Ecdf::from_weighted` of
    /// per-execution anycast penalties, `daily_prevalence` and
    /// `persistence_by_key` of the poor /24s, and `cumulative_switch_curve`
    /// of the anycast site each /24 was served from. Returns a count that
    /// depends on every output.
    pub fn figure_pass(&self, days: &[u32]) -> usize {
        let data = self.study.dataset();
        let volumes = self.study.volumes();
        let ecdf = Ecdf::from_weighted(data.executions().iter().filter_map(|e| {
            let w = volumes.get(&e.prefix).copied().unwrap_or(1) as f64;
            e.anycast_penalty_ms().map(|p| (p, w))
        }));
        let mut poor: Vec<(Prefix24, u32)> = Vec::new();
        let mut prevalent = 0;
        for &d in days {
            let perf = self.study.daily_prefix_perf(Day(d));
            prevalent += daily_prevalence(&perf).counts[0];
            poor.extend(poor_keys(&perf, 25.0).into_iter().map(|k| (k, d)));
        }
        let persistence = persistence_by_key(poor);
        let mut seen: BTreeMap<Prefix24, BTreeMap<u32, Vec<SiteId>>> = BTreeMap::new();
        for m in data.measurements() {
            if m.target == Target::Anycast && !m.failed {
                let sites = seen
                    .entry(m.prefix)
                    .or_default()
                    .entry(m.day.0)
                    .or_default();
                if !sites.contains(&m.served_site) {
                    sites.push(m.served_site);
                }
            }
        }
        let clients: Vec<ClientObservations<SiteId>> = seen
            .values()
            .map(|by_day| ClientObservations {
                daily_sites: by_day.iter().map(|(&d, s)| (d, s[0])).collect(),
                multi_site_days: by_day
                    .iter()
                    .filter(|(_, s)| s.len() > 1)
                    .map(|(&d, _)| d)
                    .collect(),
            })
            .collect();
        let curve = cumulative_switch_curve(&clients, days);
        ecdf.len() + prevalent + persistence.len() + curve.len()
    }

    /// The closed control loop in shed mode over a table trained
    /// (`Predictor::train`) on `day`: `DemandModel::build`, then one
    /// `Controller::step` per epoch against capacities set at 85% of each
    /// site's peak projected load. Returns `(total ms, mean step µs)`.
    pub fn control_loop(&self, day: u32) -> (f64, f64) {
        let t = Instant::now();
        let table =
            Predictor::new(PredictorConfig::default()).train(self.study.dataset(), Day(day));
        let s = self.study.scenario();
        let cfg = LoopConfig {
            day: Day(day + 1),
            control: ControlConfig {
                mode: ControlMode::Shed,
                ..ControlConfig::default()
            },
            ..LoopConfig::default()
        };
        let model = DemandModel::build(s, &table, cfg.grouping, cfg.day, cfg.epochs, cfg.query_cap);
        let mut peak: BTreeMap<SiteId, f64> = BTreeMap::new();
        for epoch in &model.epochs {
            for (site, load) in epoch.project(&table, &BTreeMap::new()) {
                let p = peak.entry(site).or_insert(0.0);
                *p = p.max(load);
            }
        }
        let mut caps = CapacityPlan::new();
        for (&site, &p) in &peak {
            caps.set(site, 0.85 * p.max(1.0));
        }
        let sites = s.internet.site_locations();
        let mut controller = Controller::new(cfg.control, caps, &sites);
        let steps = Instant::now();
        for demand in &model.epochs {
            black_box(controller.step(&table, demand, None));
        }
        let step_us = steps.elapsed().as_secs_f64() * 1e6 / model.epochs.len().max(1) as f64;
        (t.elapsed().as_secs_f64() * 1e3, step_us)
    }

    /// The policy world's numbers, `None` on the legacy world: ms of one
    /// `PolicyWorld::compute_scratch` of the steady environment, ms of
    /// each `recompute_incremental` for up to three event environments of
    /// each day, `PolicyWorld::memory_bytes` in MB, and mean event windows
    /// per day.
    pub fn policy_probe(&self, days: &[u32]) -> Option<PolicyProbe> {
        let pw = self.study.scenario().internet.policy_world()?;
        let t = Instant::now();
        let scratch = pw.compute_scratch(&RouteEnv::default());
        let full_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut incr_ms = Vec::new();
        let mut events = 0usize;
        for &d in days {
            let windows = pw.events_on(Day(d));
            events += windows.len();
            for w in windows.iter().take(3) {
                let env = pw.env_at(Day(d), (w.start_s + w.end_s) / 2.0, &[]);
                let t = Instant::now();
                black_box(pw.recompute_incremental(&scratch, &env));
                incr_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        Some(PolicyProbe {
            full_ms,
            incr_ms,
            table_mb: pw.memory_bytes() as f64 / (1024.0 * 1024.0),
            events_per_day: events as f64 / days.len().max(1) as f64,
        })
    }
}

/// See [`Campaign::policy_probe`].
pub struct PolicyProbe {
    /// One from-scratch catchment computation, ms.
    pub full_ms: f64,
    /// Incremental recomputations, ms each.
    pub incr_ms: Vec<f64>,
    /// Graph, distances and memoized tables, MB.
    pub table_mb: f64,
    /// Mean scheduled event windows per day.
    pub events_per_day: f64,
}

// ------------------------------------------------------------ retrain --

fn measurement(r: SynthRow) -> BeaconMeasurement {
    let prefix = Prefix24::from_raw(r.prefix);
    BeaconMeasurement {
        measurement_id: r.id,
        slot: Slot::Anycast,
        prefix,
        ldns: LdnsId(r.ldns),
        ecs: Some(prefix.into()),
        target: match r.unicast_site {
            None => Target::Anycast,
            Some(s) => Target::Unicast(SiteId(s)),
        },
        served_site: SiteId(r.served_site),
        rtt_ms: r.rtt_ms,
        failed: false,
        day: Day(0),
        time_s: r.time_s,
    }
}

/// One day of joined measurements, loaded into the program's dataset.
pub struct TrainingDay {
    data: BeaconDataset,
    addressing: CdnAddressing,
}

/// A trained table and the grouping it was trained at.
pub struct Table {
    table: PredictionTable,
    grouping: Grouping,
}

impl TrainingDay {
    /// Streams rows into `BeaconDataset::extend`.
    pub fn load(rows: impl Iterator<Item = SynthRow>, spec: &DaySpec) -> TrainingDay {
        let mut data = BeaconDataset::new();
        data.extend(rows.map(measurement));
        TrainingDay {
            data,
            addressing: CdnAddressing::standard(spec.n_sites),
        }
    }

    /// Rows loaded.
    pub fn rows(&self) -> usize {
        self.data.len()
    }

    fn predictor(grouping: Grouping) -> Predictor {
        Predictor::new(PredictorConfig {
            grouping,
            ..PredictorConfig::default()
        })
    }

    fn ecs(table: PredictionTable) -> Table {
        Table {
            table,
            grouping: Grouping::Ecs,
        }
    }

    /// `Predictor::train_sketched` at eps 0.01 over `workers` shards.
    pub fn train_sketched(&self, workers: usize) -> Table {
        let shard = ShardConfig {
            workers,
            ..ShardConfig::default()
        };
        Self::ecs(Self::predictor(Grouping::Ecs).train_sketched(
            &self.data,
            &[Day(0)],
            SKETCH_EPS,
            shard,
        ))
    }

    /// `Predictor::train_aggregated` with `AggregationConfig::default()`.
    pub fn train_aggregated(&self) -> Table {
        Self::ecs(Self::predictor(Grouping::Ecs).train_aggregated(
            &self.data,
            Day(0),
            &AggregationConfig::default(),
        ))
    }

    /// `Predictor::train_aggregated` with `AggregationConfig::disabled()`.
    pub fn train_unaggregated(&self) -> Table {
        Self::ecs(Self::predictor(Grouping::Ecs).train_aggregated(
            &self.data,
            Day(0),
            &AggregationConfig::disabled(),
        ))
    }

    /// `Predictor::train`, one entry per /24.
    pub fn train_exact(&self) -> Table {
        Self::ecs(Self::predictor(Grouping::Ecs).train(&self.data, Day(0)))
    }

    /// `Predictor::train` grouped by resolver.
    pub fn train_ldns(&self) -> Table {
        Table {
            table: Self::predictor(Grouping::Ldns).train(&self.data, Day(0)),
            grouping: Grouping::Ldns,
        }
    }

    /// `evaluate_prediction` of `table` on the day it was trained from;
    /// the lookup maps are built before timing. Returns the ms it took.
    pub fn evaluate(&self, table: &Table) -> f64 {
        let mut ldns_of: HashMap<Prefix24, LdnsId> = HashMap::new();
        let mut volumes: HashMap<Prefix24, u64> = HashMap::new();
        for m in self.data.measurements() {
            ldns_of.entry(m.prefix).or_insert(m.ldns);
            volumes.entry(m.prefix).or_insert(1);
        }
        let t = Instant::now();
        black_box(evaluate_prediction(
            &table.table,
            table.grouping,
            &self.data,
            Day(0),
            &ldns_of,
            &volumes,
        ));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// `sketch_day` alone over `workers` shards; returns sketches built.
    pub fn sketch_ingest(&self, workers: usize) -> usize {
        let shard = ShardConfig {
            workers,
            ..ShardConfig::default()
        };
        let records = self
            .data
            .day(Day(0))
            .map(|m| (Prefix::from(m.prefix), m.target, m.rtt_ms));
        sketch_day(records, SKETCH_EPS, shard, |p: &Prefix| route_subnet(*p)).len()
    }

    /// The first `n` latencies of the day, for the kernel probes.
    pub fn latencies(&self, n: usize) -> Vec<f64> {
        self.data
            .measurements()
            .iter()
            .take(n)
            .map(|m| m.rtt_ms)
            .collect()
    }
}

impl Table {
    /// Entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Digest of every `(group, target)` in key order.
    pub fn digest(&self) -> u64 {
        let mut rows: Vec<(GroupKey, Target)> =
            self.table.iter().map(|(k, c)| (k, c.target)).collect();
        rows.sort_unstable();
        let mut d = Digest::new();
        for (k, t) in rows {
            d.push(match k {
                GroupKey::Ecs(p) => p.key(),
                GroupKey::Ldns(l) => (1 << 63) | u64::from(l.0),
            });
            d.push(match t {
                Target::Anycast => u64::MAX,
                Target::Unicast(s) => u64::from(s.0),
            });
        }
        d.0
    }

    /// `CompiledTable::compile` at the pinned TTL.
    pub fn compile(&self, day: &TrainingDay, generation: u64) -> Compiled {
        Compiled(CompiledTable::compile(
            &self.table,
            self.grouping,
            day.addressing,
            TABLE_TTL_S,
            generation,
        ))
    }
}

/// A compiled, servable table.
#[derive(Clone)]
pub struct Compiled(CompiledTable);

impl Compiled {
    /// Redirectable groups.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The in-process reference answer (`CompiledTable::answer`) for a
    /// pool query sent by resolver `ldns`.
    pub fn expected(&self, q: &PoolQuery, ldns: u32) -> Reply {
        match q.kind {
            QueryKind::Aaaa => return Reply::Empty,
            QueryKind::TruncatedOpt => return Reply::FormErr,
            _ => {}
        }
        let ecs = ecs_of(q);
        let a = self.0.answer(LdnsId(ldns), ecs.as_ref());
        Reply::Answer {
            addr: u32::from(a.addr),
            ttl: a.ttl_s,
            scope: ecs.map(|_| a.ecs_scope),
        }
    }

    /// `n` `CompiledTable::answer_rr` lookups over the pool's clients.
    pub fn lookups(&self, pool: &[PoolQuery], ldns: u32, n: usize) -> u64 {
        let options: Vec<Option<EcsOption>> = pool.iter().take(4096).map(ecs_of).collect();
        let mut sum = 0u64;
        for i in 0..n {
            let (rr, scope) = self
                .0
                .answer_rr(LdnsId(ldns), options[i % options.len()].as_ref());
            sum += u64::from(u32::from(rr.addr())) + u64::from(scope);
        }
        black_box(sum)
    }

    /// `n` `template::write_response` patches of parsed pool queries.
    pub fn patches(&self, wires: &[Vec<u8>], n: usize) -> usize {
        let views: Vec<QueryView<'_>> = wires
            .iter()
            .take(1024)
            .filter_map(|w| QueryView::parse(w))
            .collect();
        if views.is_empty() {
            return 0;
        }
        let rr = self.0.valve_rr();
        let mut out = [0u8; 512];
        let mut written = 0;
        for i in 0..n {
            written += write_response(&mut out, &views[i % views.len()], rr, 24);
        }
        black_box(written)
    }
}

/// The hot-swappable holder a server reads its table from.
pub struct Store(Arc<TableStore>);

impl Store {
    /// `TableStore::new`.
    pub fn new(initial: Compiled) -> Store {
        Store(Arc::new(TableStore::new(initial.0)))
    }

    /// `TableStore::swap`; the replaced table is dropped here.
    pub fn swap(&self, next: Compiled) {
        drop(self.0.swap(next.0));
    }

    /// Generation of the table `TableStore::load` returns now.
    pub fn generation(&self) -> u64 {
        self.0.load().generation()
    }
}

// -------------------------------------------------------------- serve --

/// The ECS option a pool query carries, as the decoder will see it.
fn ecs_of(q: &PoolQuery) -> Option<EcsOption> {
    let len = match q.kind {
        QueryKind::EcsSlash24 | QueryKind::MixedCaseEcs | QueryKind::TruncatedOpt => 24,
        QueryKind::EcsCoarse(len) => len,
        QueryKind::PlainEdns | QueryKind::MixedCaseBare | QueryKind::Aaaa => return None,
    };
    Some(EcsOption::for_subnet(Prefix::new(
        Ipv4Addr::from(q.client),
        len,
    )))
}

/// Upper-cases every other letter of the question name in place.
fn mix_case(wire: &mut [u8]) {
    let mut at = 12;
    let mut flip = true;
    while wire[at] != 0 {
        let len = usize::from(wire[at]);
        for b in &mut wire[at + 1..at + 1 + len] {
            if b.is_ascii_lowercase() {
                if flip {
                    b.make_ascii_uppercase();
                }
                flip = !flip;
            }
        }
        at += 1 + len;
    }
}

/// Pre-encodes a pool with `encode_query` (transaction id 0; the
/// generator patches it per send).
pub fn encode_pool(pool: &[PoolQuery]) -> Vec<Vec<u8>> {
    let qname = service_qname();
    pool.iter()
        .map(|q| {
            let bare = q.kind == QueryKind::MixedCaseBare;
            let mut wire = encode_query(&WireQuery {
                id: 0,
                rd: bare,
                qname: qname.clone(),
                qtype: if q.kind == QueryKind::Aaaa {
                    TYPE_AAAA
                } else {
                    TYPE_A
                },
                qclass: CLASS_IN,
                edns: (!bare).then(|| Edns {
                    udp_payload: 1232,
                    ecs: ecs_of(q).as_ref().map(WireEcs::from_option),
                }),
            });
            match q.kind {
                QueryKind::MixedCaseEcs | QueryKind::MixedCaseBare => mix_case(&mut wire),
                QueryKind::TruncatedOpt => wire.truncate(wire.len() - 2),
                _ => {}
            }
            wire
        })
        .collect()
}

/// The library's full decoder (`decode_response`) reduced to a [`Reply`].
pub fn decode_reply(packet: &[u8]) -> Option<Reply> {
    if packet.len() == 12 && packet[3] & 0x0F == 1 {
        return Some(Reply::FormErr); // header-only FORMERR carries no question
    }
    let r = decode_response(packet).ok()?;
    Some(match (r.rcode, r.answer) {
        (0, Some((addr, ttl))) => Reply::Answer {
            addr: u32::from(addr),
            ttl,
            scope: r.ecs.map(|e| e.scope_prefix_len),
        },
        (0, None) => Reply::Empty,
        (1, _) => Reply::FormErr,
        _ => return None,
    })
}

/// `n` `QueryView::parse` calls over pool wires; returns views produced.
pub fn parses(wires: &[Vec<u8>], n: usize) -> usize {
    let mut ok = 0;
    for i in 0..n {
        ok += usize::from(black_box(QueryView::parse(&wires[i % wires.len()])).is_some());
    }
    ok
}

/// `n` `decode_query` calls over pool wires; returns queries decoded.
pub fn decodes(wires: &[Vec<u8>], n: usize) -> usize {
    let mut ok = 0;
    for i in 0..n {
        ok += usize::from(black_box(decode_query(&wires[i % wires.len()])).is_ok());
    }
    ok
}

/// `n` `encode_response` calls answering decoded pool queries; returns
/// bytes encoded.
pub fn encodes(wires: &[Vec<u8>], n: usize) -> usize {
    let queries: Vec<WireQuery> = wires
        .iter()
        .take(1024)
        .filter_map(|w| decode_query(w).ok())
        .collect();
    if queries.is_empty() {
        return 0;
    }
    let answer = anycast_dns::DnsAnswer::scoped(Ipv4Addr::new(198, 51, 100, 1), TABLE_TTL_S, 24);
    let mut bytes = 0;
    for i in 0..n {
        bytes += black_box(encode_response(
            &queries[i % queries.len()],
            Some(&answer),
            0,
            1232,
        ))
        .len();
    }
    bytes
}

/// The server's own counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Datagrams received.
    pub udp_queries: u64,
    /// Packets that failed to decode.
    pub decode_errors: u64,
    /// Answers given by the overload valve.
    pub degraded: u64,
    /// Responses truncated to the client's payload limit.
    pub truncated: u64,
    /// Answers patched from a template.
    pub template_hits: u64,
    /// Decodable queries that took the full encoder.
    pub template_misses: u64,
}

impl ServerCounters {
    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &ServerCounters) -> ServerCounters {
        ServerCounters {
            udp_queries: self.udp_queries - earlier.udp_queries,
            decode_errors: self.decode_errors - earlier.decode_errors,
            degraded: self.degraded - earlier.degraded,
            truncated: self.truncated - earlier.truncated,
            template_hits: self.template_hits - earlier.template_hits,
            template_misses: self.template_misses - earlier.template_misses,
        }
    }
}

/// A running `DnsServer` with exactly one worker.
pub struct Server(DnsServer);

impl Server {
    /// `DnsServer::spawn_tables` with `workers: 1, batch: 32`, the valve
    /// off (a closed loop keeps the socket full on purpose), and every
    /// resolver of the day in the directory. `recorder` is the library
    /// default (`true`) except in the obs-cost sub-runs.
    pub fn spawn(store: &Store, spec: &DaySpec, recorder: bool) -> std::io::Result<Server> {
        let mut cfg = ServeConfig::new(CdnAddressing::standard(spec.n_sites).anycast_ip());
        cfg.workers = 1;
        cfg.batch = 32;
        cfg.overload_watermark = usize::MAX;
        cfg.recorder = recorder;
        let mut directory = LdnsDirectory::new();
        for id in 0..spec.n_ldns {
            directory.insert(
                ldns_source_addr(LdnsId(id)),
                LdnsId(id),
                GeoPoint::new(0.0, 0.0),
            );
        }
        DnsServer::spawn_tables(cfg, Arc::clone(&store.0), directory).map(Server)
    }

    /// Loopback address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// `DnsServer::stats`, copied out.
    pub fn counters(&self) -> ServerCounters {
        use std::sync::atomic::Ordering::Relaxed;
        let s = self.0.stats();
        ServerCounters {
            udp_queries: s.udp_queries.load(Relaxed),
            decode_errors: s.decode_errors.load(Relaxed),
            degraded: s.degraded.load(Relaxed),
            truncated: s.truncated.load(Relaxed),
            template_hits: s.template_hits.load(Relaxed),
            template_misses: s.template_misses.load(Relaxed),
        }
    }

    /// One in-band `CHAOS TXT metrics.bind` scrape
    /// (`WireClient::scrape_metrics`); returns the ms it took.
    pub fn scrape_ms(&self) -> Option<f64> {
        let mut client = WireClient::bind(Ipv4Addr::LOCALHOST, self.addr()).ok()?;
        let t = Instant::now();
        black_box(client.scrape_metrics().ok()?);
        Some(t.elapsed().as_secs_f64() * 1e3)
    }

    /// `DnsServer::stop`: joins every server thread.
    pub fn stop(mut self) {
        self.0.stop();
    }
}

/// One generator socket: bound to a resolver's loopback address, moved in
/// batches with the library's `BatchIo` (`recvmmsg`/`sendmmsg`).
pub struct BatchSocket {
    sock: UdpSocket,
    io: Box<dyn BatchIo>,
    arena: PacketArena,
    server: SocketAddr,
}

impl BatchSocket {
    /// Binds `ldns_source_addr(ldns)`, non-blocking, with `batch` slots.
    pub fn bind(ldns: u32, server: SocketAddr, batch: usize) -> std::io::Result<BatchSocket> {
        let sock = UdpSocket::bind((ldns_source_addr(LdnsId(ldns)), 0))?;
        sock.set_nonblocking(true)?;
        Ok(BatchSocket {
            sock,
            io: batch_io(batch),
            arena: PacketArena::new(batch, 2048),
            server,
        })
    }

    /// Slots per batch.
    pub fn batch(&self) -> usize {
        self.arena.batch()
    }

    /// Stages `payload` in send slot `slot` (`PacketArena::set_outgoing`).
    pub fn stage(&mut self, slot: usize, payload: &[u8]) {
        self.arena.set_outgoing(slot, payload, self.server);
    }

    /// Sends slots `0..n` (`BatchIo::send_batch`). A full socket buffer
    /// is retried until the kernel takes the batch.
    pub fn send(&mut self, n: usize) -> std::io::Result<()> {
        loop {
            match self.io.send_batch(&self.sock, &mut self.arena, n) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                other => return other,
            }
        }
    }

    /// Receives what is queued, without blocking (`BatchIo::recv_batch`);
    /// 0 when the socket is quiet.
    pub fn recv(&mut self) -> std::io::Result<usize> {
        match self.io.recv_batch(&self.sock, &mut self.arena) {
            Ok(n) => Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(0)
            }
            Err(e) => Err(e),
        }
    }

    /// Received packet `i` of the last [`BatchSocket::recv`].
    pub fn packet(&self, i: usize) -> &[u8] {
        self.arena.packet(i)
    }
}

// ------------------------------------------------------ kernel probes --

/// `quantile::percentile(.., 25)` over `samples`, `n` times; returns the
/// last score.
pub fn percentiles(samples: &[f64], n: usize) -> f64 {
    let mut last = 0.0;
    for _ in 0..n {
        last = black_box(percentile(black_box(samples), 25.0)).unwrap_or(0.0);
    }
    last
}

/// `QuantileSketch::observe` of every sample into one sketch; returns the
/// tuples it kept.
pub fn sketch_observes(samples: &[f64]) -> usize {
    let mut s = QuantileSketch::new(SKETCH_EPS);
    for &v in samples {
        s.observe(v);
    }
    black_box(s.tuples_len())
}

/// Builds `parts` sketches of `samples.len() / parts` values each, then
/// times `QuantileSketch::merge` of all into one; returns merge ns.
pub fn sketch_merge_ns(samples: &[f64], parts: usize) -> u64 {
    let sketches: Vec<QuantileSketch> = samples
        .chunks((samples.len() / parts).max(1))
        .map(|c| {
            let mut s = QuantileSketch::new(SKETCH_EPS);
            c.iter().for_each(|&v| s.observe(v));
            s
        })
        .collect();
    let mut into = QuantileSketch::new(SKETCH_EPS);
    let t = Instant::now();
    for s in &sketches {
        into.merge(s);
    }
    let ns = t.elapsed().as_nanos() as u64;
    black_box(into.count());
    ns / sketches.len().max(1) as u64
}
