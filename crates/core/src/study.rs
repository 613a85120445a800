//! The full §3 measurement campaign, orchestrated.
//!
//! A [`Study`] drives beacons through a [`Scenario`] the way production
//! drove them through Bing: a small fraction of each client's queries carry
//! the beacon, each beacon makes its four measurements through the client's
//! real resolver against the CDN's authoritative servers, and at the end of
//! each day the backend joins client-side HTTP results with server-side DNS
//! logs into the growing [`BeaconDataset`]. The DNS log is an input to that
//! join and nothing else: a worker logs a block of beacons, joins the
//! block and empties the log, so no day-sized log ever exists.
//!
//! # The parallel deterministic engine
//!
//! Calder et al. joined ~1B beacon measurements per day; the campaign is
//! the hot path behind every figure. `run_day` is therefore built around
//! **splittable determinism** rather than one shared sequential RNG:
//!
//! 1. **Schedule.** Each client's beacon count and timestamps for the day
//!    are drawn from a private stream derived as
//!    `stream_rng(seed, [SCHEDULE_STREAM, day, client])` — no client's
//!    draws can perturb another's. (They are drawn on the calling thread:
//!    a client's draws cost less than a hand-off between threads.)
//! 2. **Order.** The scheduled beacons are sorted into one global event
//!    list by `(time, client, beacon)` and numbered; event *i* of `day`
//!    gets execution id `(day << 28) | i`, globally unique across the
//!    campaign without any shared counter.
//! 3. **Execute.** The event list is cut into one contiguous range per
//!    worker — worker *w* of *W* owns events `[w·⌈n/W⌉, (w+1)·⌈n/W⌉)` —
//!    and each worker runs its range start to finish
//!    ([`anycast_netsim::stream::run_workers`]: range 0 on the calling
//!    thread, so *W* threads are busy, never *W* + 1). Each beacon draws its noise
//!    from `stream_rng(seed, [BEACON_STREAM, day, client, beacon])` and
//!    routes against a shared read-only [`RouteSnapshot`] built once for
//!    the day, which holds the routes the day's beacons fetch: every
//!    client's anycast route and, for each client that fires, the unicast
//!    routes to the sites the policy answers its beacons with — known
//!    before any beacon runs, since an answer is a pure function of the
//!    measurement id and the resolver's believed location. A worker takes its
//!    range a block of 512 beacons at a time: the block's beacons
//!    append to one HTTP buffer and one authoritative log the worker
//!    owns, it joins the two onto the range's rows, and then empties
//!    both, and its resolver caches with them, for the next block. A
//!    row's warm-up query and its fetch happen inside one beacon and
//!    measurement ids are unique, so a row's DNS half is always in its
//!    own block, and the join walks the HTTP rows in order: the rows are
//!    those of a range joined whole. Nothing is handed between threads
//!    per beacon. Per-worker scratch state (authoritative server,
//!    resolver caches) is output-transparent: beacon hostnames are
//!    unique, so resolver caches only ever hit within a single execution.
//! 4. **Merge.** The caller appends the ranges' joined rows in range
//!    order. Ranges are consecutive runs of one sorted list, so the
//!    dataset is globally time-ordered and **bit-identical for any worker
//!    count** — the contract [`anycast_netsim::stream`] states for every
//!    fan-out, pinned end-to-end by the `study-worker-invariance` proptest.

use std::collections::HashMap;
use std::time::Instant;

use anycast_analysis::poor_paths::PrefixDayPerf;
use anycast_analysis::quantile::median;
use anycast_beacon::{
    join, run_beacon, BeaconClient, BeaconDataset, BeaconMeasurement, BeaconTally,
    MeasurementPolicy, Slot, Target,
};
use anycast_dns::{AuthoritativeServer, DnsName, Ldns, LdnsId};
use anycast_geo::GeoPoint;
use anycast_netsim::stream::run_workers;
use anycast_netsim::{stream_rng, ClientAttachment, Day, Prefix24, RouteSnapshot, SiteId};
use anycast_obs::{span, SpanSnapshot};
use anycast_workload::{ldns_assign, temporal, Scenario};

/// First key of every scheduling stream ("schedule").
const SCHEDULE_STREAM: u64 = 0x7363_6865_6475_6c65;
/// First key of every per-beacon noise stream ("beacon!").
const BEACON_STREAM: u64 = 0x62_6561_636f_6e21;
/// Bits of the execution id reserved for the within-day event index; the
/// day number occupies the bits above. 2^28 beacons/day is two orders of
/// magnitude past the Paper-scale world.
const EXEC_INDEX_BITS: u32 = 28;
/// Beacons a worker runs between joins. 512 beacons are 2,048 rows:
/// ~115 kB of HTTP rows, ~160 kB of log and a ~50 kB join map, which
/// stay in a core's L2 from the beacon that writes them to the join that
/// reads them.
const BLOCK_BEACONS: usize = 512;
/// Minimum samples for a per-day unicast median to count in the §5 daily
/// poor-path analysis.
const MIN_UNICAST_SAMPLES: usize = 6;

/// Campaign parameters.
///
/// **RNG stream identity.** Derived streams are keyed only by
/// `(scenario seed, day, client, beacon index)`, so a knob invalidates
/// pinned outputs exactly when it changes which streams exist or what is
/// asked of them:
///
/// * `beacon_rate` **affects stream identity** — it changes each client's
///   scheduled beacon count, hence the event list and every downstream id;
/// * `candidates` **affects stream identity** of the measurement policy's
///   answers (which unicast targets a beacon fetches);
/// * `ttl_s` and `workers` are **stream-neutral**: `workers` in particular
///   is provably output-neutral (the worker-invariance proptest pins it).
///
/// Every beacon reports through the beacon crate's browser timing model
/// (`anycast_beacon::timing`) and fetches with its fixed timeout and retry
/// count.
#[derive(Debug, Clone, Copy)]
pub struct StudyConfig {
    /// Fraction of queries that carry the beacon ("a small fraction of
    /// search response pages", §1). Affects RNG stream identity.
    pub beacon_rate: f64,
    /// Candidate-set size for the DNS measurement policy (§3.3's ten).
    /// Affects which targets are measured, hence stream contents.
    pub candidates: usize,
    /// Measurement answer TTL, seconds (longer than a beacon run).
    /// Stream-neutral.
    pub ttl_s: u32,
    /// Worker threads for `run_day` (≥ 1). Output bytes never depend on
    /// it. Defaults to the host's available parallelism.
    pub workers: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            beacon_rate: 0.04,
            candidates: 10,
            ttl_s: 300,
            workers: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// One scheduled beacon execution: client `client`'s beacon number
/// `beacon` of the day, firing at `time_s`.
#[derive(Debug, Clone, Copy)]
struct Event {
    time_s: f64,
    client: usize,
    beacon: u64,
}

/// What a worker hands back for its contiguous range of the day's events:
/// the rows it joined, and the tallies of the HTTP rows it dropped once
/// joined.
struct RangeOutput {
    joined: Vec<BeaconMeasurement>,
    http_rows: usize,
    failed_rows: usize,
}

/// A running measurement campaign.
#[derive(Debug)]
pub struct Study {
    scenario: Scenario,
    policy: MeasurementPolicy,
    dataset: BeaconDataset,
    zone: DnsName,
    cfg: StudyConfig,
    /// Client prefix → LDNS, fixed for the scenario (built once).
    ldns_of: HashMap<Prefix24, LdnsId>,
    /// Client index → LDNS (the hot-path form of `ldns_of`).
    client_ldns: Vec<LdnsId>,
    /// Resolver id → where the CDN's geolocation database believes the
    /// resolver is (pure per resolver, precomputed).
    believed: Vec<GeoPoint>,
    /// Client index → attachment: the population every day's route
    /// snapshot is built over and borrows.
    attachments: Vec<ClientAttachment>,
}

impl Study {
    /// Sets up the campaign over a scenario.
    pub fn new(scenario: Scenario, cfg: StudyConfig) -> Study {
        let ldns_of: HashMap<Prefix24, LdnsId> = scenario
            .clients
            .iter()
            .map(|c| (c.prefix, scenario.ldns.resolver_of(c.prefix)))
            .collect();
        let client_ldns: Vec<LdnsId> = scenario
            .clients
            .iter()
            .map(|c| ldns_of[&c.prefix])
            .collect();
        let believed: Vec<GeoPoint> = scenario
            .ldns
            .resolvers
            .iter()
            .map(|r| ldns_assign::believed_ldns_location(r, &scenario.geodb))
            .collect();
        // Every DNS query of the campaign comes from one of these
        // locations, so the policy ranks the site catalog once for each.
        let policy = MeasurementPolicy::new(
            scenario.internet.site_locations(),
            scenario.addressing,
            cfg.candidates,
            cfg.ttl_s,
            scenario.seed ^ 0x6265_6163_6f6e,
        )
        .with_known_resolvers(&believed);
        let attachments = scenario.clients.iter().map(|c| c.attachment).collect();
        Study {
            scenario,
            policy,
            dataset: BeaconDataset::new(),
            zone: DnsName::new("probe.cdn.example").expect("static zone is valid"),
            cfg,
            ldns_of,
            client_ldns,
            believed,
            attachments,
        }
    }

    /// The scenario under study.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The campaign configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.cfg
    }

    /// The joined measurements collected so far.
    pub fn dataset(&self) -> &BeaconDataset {
        &self.dataset
    }

    /// Runs one day of beacons: schedules each client's executions from
    /// its private derived stream, sorts them into one global timeline,
    /// and cuts it into one contiguous range per `cfg.workers` thread;
    /// each worker runs its range against a shared per-day route snapshot
    /// and performs the backend join of its own DNS and HTTP logs. The
    /// ranges' joined rows are appended to the dataset in range order — so
    /// they come out exactly as a sequential run would produce them, for
    /// any worker count.
    ///
    /// # Panics
    /// If a worker panics, with that worker's message.
    pub fn run_day(&mut self, day: Day) {
        self.run_day_in_blocks(day, BLOCK_BEACONS);
    }

    /// [`Study::run_day`] with its workers taking `block` beacons between
    /// joins and obs flushes instead of 512. Rows and every deterministic
    /// metric are the same at any length; this is the door through which
    /// `crates/core/tests/flush_boundaries.rs` checks that they are.
    #[doc(hidden)]
    pub fn run_day_in_blocks(&mut self, day: Day, block: usize) {
        let workers = self.cfg.workers.max(1);
        let events = span!("study.schedule").time(|| self.schedule(day));
        let routes = span!("study.snapshot_build").time(|| self.routes(day, &events, workers));

        // Phase 2: run the events, a contiguous range per worker.
        let execute_timer = span!("study.execute").start();
        // ⌈n/W⌉ events a range, so at most W ranges and none of them
        // empty: a day of fewer events than workers spawns fewer threads,
        // a day of none runs nothing.
        let per_range = events.len().div_ceil(workers).max(1);
        let outputs = run_workers(
            events.chunks(per_range).collect(),
            |worker, range: &[Event]| {
                self.run_range(&routes, worker, worker * per_range, range, block)
            },
        )
        .unwrap_or_else(|e| panic!("campaign day {} failed: {e}", day.0));
        drop(execute_timer);

        // Phase 3: day-end backend processing. Each range arrives joined;
        // consecutive ranges of a sorted list append into time order.
        let join_timer = span!("study.join").start();
        self.dataset
            .reserve(outputs.iter().map(|o| o.joined.len()).sum());
        let (mut http_rows, mut failed_rows) = (0, 0);
        for o in outputs {
            self.dataset.extend(o.joined);
            http_rows += o.http_rows;
            failed_rows += o.failed_rows;
        }
        drop(join_timer);

        // Per-day campaign counters: sums over the ranges of what each
        // tallied from its own rows, so the values are worker-count
        // invariant (the neutrality tests compare them directly).
        let day_label = day.0.to_string();
        let labels: &[(&str, &str)] = &[("day", &day_label)];
        let obs = anycast_obs::global();
        obs.counter_with("study_day_events_total", labels)
            .add(events.len() as u64);
        obs.counter_with("study_day_rows_total", labels)
            .add(http_rows as u64);
        obs.counter_with("study_day_failed_rows_total", labels)
            .add(failed_rows as u64);
    }

    /// Phase 1: the day's beacon executions in the order they run, one
    /// derived stream per client. The floor+Bernoulli count and the
    /// rejection-sampled timestamps all come from the client's own stream,
    /// so the schedule is computable per client in isolation — and cheaper
    /// computed on one thread: a client's draws take a fraction of a
    /// microsecond, less than handing them to another thread and back.
    fn schedule(&self, day: Day) -> Vec<Event> {
        let s = &self.scenario;
        let day_factor = temporal::day_volume_factor(day);
        let mut events: Vec<Event> = Vec::new();
        for (client, c) in s.clients.iter().enumerate() {
            let mut rng = stream_rng(s.seed, &[SCHEDULE_STREAM, u64::from(day.0), client as u64]);
            let expected = c.volume as f64 * self.cfg.beacon_rate * day_factor;
            let n = anycast_workload::scenario::sample_count(expected, &mut rng);
            events.extend((0..n).map(|beacon| Event {
                time_s: temporal::sample_query_time(c.attachment.location.lon_deg(), &mut rng),
                client,
                beacon,
            }));
        }
        // Total order: arrival time, then (client, beacon) as the
        // deterministic tiebreak for simultaneous arrivals.
        events.sort_unstable_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then(a.client.cmp(&b.client))
                .then(a.beacon.cmp(&b.beacon))
        });
        assert!(
            (events.len() as u64) < 1 << EXEC_INDEX_BITS,
            "day of {} events overflows the execution-id index space",
            events.len()
        );
        events
    }

    /// The day's route memo, built once and shared read-only. It holds
    /// what the day's beacons fetch and nothing else: for each client, the
    /// unicast sites its beacons' answers name ([`Study::fetched_rows`]),
    /// and no row for a client that does not fire.
    fn routes(&self, day: Day, events: &[Event], workers: usize) -> RouteSnapshot<'_> {
        let (starts, sites) = self.fetched_rows(day, events, workers);
        RouteSnapshot::build_rows(
            &self.scenario.internet,
            &self.attachments,
            day,
            workers,
            |client| &sites[starts[client]..starts[client + 1]],
        )
    }

    /// The distinct unicast sites each client's beacons fetch on `day`:
    /// client `c`'s are `sites[starts[c]..starts[c + 1]]`, in the order its
    /// events first name them. The policy's answer for a unicast slot is a
    /// pure function of the slot, the measurement id and the resolver's
    /// believed location, and an event's ids follow from its index in the
    /// sorted list, so the answers are known before any beacon runs. The
    /// picks are spread over up to `workers` threads, each a run of
    /// clients holding about an equal share of the events.
    fn fetched_rows(
        &self,
        day: Day,
        events: &[Event],
        workers: usize,
    ) -> (Vec<usize>, Vec<SiteId>) {
        let clients = self.scenario.clients.len();
        // Each client's events as indices into the day's list, ascending:
        // client `c`'s are `order[first[c]..first[c + 1]]`.
        let mut first = vec![0usize; clients + 1];
        for ev in events {
            first[ev.client + 1] += 1;
        }
        for c in 0..clients {
            first[c + 1] += first[c];
        }
        let mut next = first.clone();
        let mut order = vec![0u32; events.len()];
        for (i, ev) in events.iter().enumerate() {
            order[next[ev.client]] = i as u32;
            next[ev.client] += 1;
        }

        let mut cuts: Vec<usize> = (0..workers)
            .map(|k| first.partition_point(|&e| e < events.len() * k / workers))
            .collect();
        cuts.push(clients);
        cuts.dedup();
        let ranges = cuts.windows(2).map(|w| w[0]..w[1]).collect();
        let day_bits = u64::from(day.0) << EXEC_INDEX_BITS;
        let parts = run_workers(ranges, |_, range: std::ops::Range<usize>| {
            let mut lens = Vec::with_capacity(range.len());
            let mut sites: Vec<SiteId> = Vec::new();
            for c in range {
                let row = sites.len();
                let at = &self.believed[self.client_ldns[c].0 as usize];
                for &i in &order[first[c]..first[c + 1]] {
                    let execution = day_bits | u64::from(i);
                    for slot in [Slot::GeoClosest, Slot::Random1, Slot::Random2] {
                        let site = self.policy.select_site(slot, slot.id_for(execution), at);
                        if let Some(site) = site.filter(|s| !sites[row..].contains(s)) {
                            sites.push(site);
                        }
                    }
                }
                lens.push(sites.len() - row);
            }
            (lens, sites)
        })
        .unwrap_or_else(|e| panic!("picking day {}'s rows failed: {e}", day.0));

        let mut starts = Vec::with_capacity(clients + 1);
        starts.push(0);
        let mut sites = Vec::with_capacity(parts.iter().map(|(_, s)| s.len()).sum());
        for (lens, part) in parts {
            for len in lens {
                starts.push(starts[starts.len() - 1] + len);
            }
            sites.extend(part);
        }
        (starts, sites)
    }

    /// Runs `range` — the day's events `first..first + range.len()` — start
    /// to finish on the calling thread, `block` beacons at a time: each
    /// block is run, joined against the log of its own beacons, tallied,
    /// and forgotten. The authoritative server is a clone of the shared
    /// (pure, id-keyed) policy and resolver replicas are built lazily;
    /// both are output-transparent, because beacon hostnames are globally
    /// unique and a resolver cache can only hit within one execution —
    /// which is also why the rows do not depend on `block`.
    fn run_range(
        &self,
        routes: &RouteSnapshot<'_>,
        worker: usize,
        first: usize,
        range: &[Event],
        block: usize,
    ) -> RangeOutput {
        let s = &self.scenario;
        let day = routes.day();
        let mut auth = AuthoritativeServer::new(self.policy.clone(), false);
        let mut resolvers: HashMap<LdnsId, Ldns> = HashMap::new();
        // Wall time of this worker's beacon executions. Observability
        // only: spans never touch RNG streams or outputs. Like the
        // beacons' own tallies, the span is kept here and merged into the
        // registry once a block.
        let beacon_span = span!("study.beacon", &worker.to_string());
        let mut beacon_times = SpanSnapshot::default();
        let mut tally = BeaconTally::default();
        let mut http = Vec::with_capacity(range.len().min(block) * 4);
        let mut out = RangeOutput {
            joined: Vec::with_capacity(range.len() * 4),
            http_rows: 0,
            failed_rows: 0,
        };
        let mut index = first as u64;
        for beacons in range.chunks(block) {
            // Read once a block, as the registry's own span guard reads it
            // once a span: while obs is off no clock is read.
            let timed = anycast_obs::enabled();
            for ev in beacons {
                let start = timed.then(Instant::now);
                let c = &s.clients[ev.client];
                let ldns_id = self.client_ldns[ev.client];
                let ldns = resolvers.entry(ldns_id).or_insert_with(|| {
                    let r = s.ldns.resolver(ldns_id);
                    Ldns::new(r.id, r.kind, r.location, r.supports_ecs)
                        .with_ecs_prefix_len(r.ecs_prefix_len)
                });
                let beacon_client = BeaconClient {
                    prefix: c.prefix,
                    attachment: c.attachment,
                };
                let execution = (u64::from(day.0) << EXEC_INDEX_BITS) | index;
                index += 1;
                let mut rng = stream_rng(
                    s.seed,
                    &[BEACON_STREAM, u64::from(day.0), ev.client as u64, ev.beacon],
                );
                run_beacon(
                    &s.internet,
                    routes.client(ev.client),
                    &s.addressing,
                    &self.zone,
                    &beacon_client,
                    ldns,
                    self.believed[ldns_id.0 as usize],
                    &mut auth,
                    execution,
                    ev.time_s,
                    &mut rng,
                    &mut http,
                    &mut tally,
                );
                if let Some(start) = start {
                    beacon_times.record_since(start);
                }
            }
            tally.flush();
            beacon_span.merge(&beacon_times);
            beacon_times = SpanSnapshot::default();
            out.joined.extend(join(&http, auth.log(), &s.addressing));
            out.http_rows += http.len();
            out.failed_rows += http.iter().filter(|r| r.failed).count();
            http.clear();
            auth.clear_log();
            resolvers.values_mut().for_each(Ldns::clear_cache);
        }
        out
    }

    /// Runs a span of consecutive days. Each day derives its own streams,
    /// so days are independent too — running days 0..3 then 3..6 equals
    /// running 0..6.
    pub fn run_days(&mut self, start: Day, count: u32) {
        for day in start.span(count) {
            self.run_day(day);
        }
    }

    /// Client prefix → LDNS map (the DNS side of the §6 LDNS evaluation).
    /// Fixed for the scenario; built once at [`Study::new`].
    pub fn ldns_of(&self) -> &HashMap<Prefix24, LdnsId> {
        &self.ldns_of
    }

    /// Client prefix → daily query volume (the figure weighting).
    pub fn volumes(&self) -> HashMap<Prefix24, u64> {
        self.scenario
            .clients
            .iter()
            .map(|c| (c.prefix, c.volume))
            .collect()
    }

    /// §5's end-of-day analysis: for each /24 with anycast measurements on
    /// `day`, the median anycast latency and the best per-front-end unicast
    /// median (front-ends with fewer than `MIN_UNICAST_SAMPLES` samples are
    /// skipped).
    pub fn daily_prefix_perf(&self, day: Day) -> Vec<PrefixDayPerf<Prefix24>> {
        let by_target = self.dataset.by_prefix_target(day);
        let mut groups: Vec<(&(Prefix24, Target), &Vec<f64>)> = by_target.iter().collect();
        groups.sort_unstable_by_key(|&(key, _)| *key);
        let mut out = Vec::new();
        for of_prefix in groups.chunk_by(|a, b| a.0 .0 == b.0 .0) {
            // `Target::Anycast` sorts ahead of every unicast target.
            let (&(prefix, Target::Anycast), anycast_samples) = of_prefix[0] else {
                continue;
            };
            let Some(anycast_ms) = median(anycast_samples) else {
                continue;
            };
            let best_unicast = of_prefix[1..]
                .iter()
                .filter(|(_, v)| v.len() >= MIN_UNICAST_SAMPLES)
                .filter_map(|(_, v)| median(v))
                .fold(f64::INFINITY, f64::min);
            if best_unicast.is_finite() {
                out.push(PrefixDayPerf {
                    key: prefix,
                    anycast_ms,
                    best_unicast_ms: best_unicast,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study(seed: u64) -> Study {
        Study::new(Scenario::small(seed), StudyConfig::default())
    }

    #[test]
    fn one_day_produces_joined_measurements() {
        let mut study = small_study(1);
        study.run_day(Day(0));
        assert!(!study.dataset().is_empty(), "no measurements collected");
        // Every measurement joined an LDNS identity.
        for m in study.dataset().measurements() {
            assert!((m.ldns.0 as usize) < study.scenario().ldns.resolvers.len());
        }
        // All four slots appear.
        let slots: std::collections::HashSet<Slot> = study
            .dataset()
            .measurements()
            .iter()
            .map(|m| m.slot)
            .collect();
        assert_eq!(slots.len(), 4);
    }

    #[test]
    fn executions_have_anycast_and_unicast_sides() {
        let mut study = small_study(2);
        study.run_day(Day(0));
        let execs = study.dataset().executions();
        assert!(!execs.is_empty());
        let complete = execs
            .iter()
            .filter(|e| e.anycast.is_some() && e.unicast.len() == 3)
            .count();
        assert_eq!(complete, execs.len(), "incomplete executions found");
    }

    #[test]
    fn beacon_volume_tracks_rate() {
        let mut study = small_study(3);
        study.run_day(Day(0));
        let total_volume: u64 = study.scenario().clients.iter().map(|c| c.volume).sum();
        let expected_execs = total_volume as f64 * study.config().beacon_rate;
        let got = study.dataset().executions().len() as f64;
        assert!(
            (got - expected_execs).abs() < 0.25 * expected_execs,
            "{got} executions vs expected {expected_execs}"
        );
    }

    #[test]
    fn daily_perf_is_nonempty_and_sane() {
        let mut study = small_study(4);
        study.run_day(Day(0));
        let perf = study.daily_prefix_perf(Day(0));
        assert!(!perf.is_empty());
        for p in &perf {
            assert!(p.anycast_ms > 0.0 && p.best_unicast_ms > 0.0);
        }
        // Some prefixes should have room for improvement, but not most —
        // the paper's ~20% headline (generous band for a small world).
        let poor = perf.iter().filter(|p| p.improvement_ms() > 10.0).count();
        let frac = poor as f64 / perf.len() as f64;
        assert!(frac > 0.01 && frac < 0.6, "poor fraction {frac}");
    }

    #[test]
    fn measurements_arrive_in_time_order() {
        // The event-driven day must produce time-ordered logs, like a real
        // log pipeline.
        let mut study = small_study(8);
        study.run_day(Day(0));
        let times: Vec<f64> = study
            .dataset()
            .measurements()
            .iter()
            .map(|m| m.time_s)
            .collect();
        assert!(times.len() > 100);
        let sorted = times.windows(2).all(|w| w[0] <= w[1]);
        assert!(sorted, "day's measurements are not time-ordered");
    }

    #[test]
    fn multi_day_runs_accumulate() {
        let mut study = small_study(5);
        study.run_days(Day(0), 2);
        assert_eq!(study.dataset().days(), vec![Day(0), Day(1)]);
    }

    #[test]
    fn execution_ids_are_unique_across_days() {
        let mut study = small_study(9);
        study.run_days(Day(0), 2);
        let mut execs: Vec<u64> = study
            .dataset()
            .measurements()
            .iter()
            .map(|m| Slot::execution_of(m.measurement_id))
            .collect();
        execs.sort_unstable();
        execs.dedup();
        let grouped = study.dataset().executions().len();
        assert_eq!(execs.len(), grouped, "execution ids collide across days");
    }

    #[test]
    fn worker_count_does_not_change_outputs() {
        // The proptest pins this over many seeds/worker counts; this is
        // the fast always-on check.
        let run = |workers: usize| {
            let cfg = StudyConfig {
                workers,
                ..StudyConfig::default()
            };
            let mut study = Study::new(Scenario::small(11), cfg);
            study.run_day(Day(0));
            study
        };
        assert_eq!(
            run(1).dataset().measurements(),
            run(3).dataset().measurements(),
            "joined dataset differs across worker counts"
        );
    }

    #[test]
    fn block_length_does_not_change_a_range() {
        // One range from the middle of a day, on a quiet world and on one
        // whose front-ends fail (retried and failed fetches included), cut
        // at every beacon, at a length that divides nothing, at the
        // production length and not at all.
        for failures in [false, true] {
            let mut cfg = anycast_workload::ScenarioConfig::small(14);
            if failures {
                cfg.net.p_site_outage = 0.25;
                cfg.net.p_site_drain = 0.15;
            }
            let scenario = Scenario::build(cfg).expect("valid config");
            let study = Study::new(scenario, StudyConfig::default());
            let events = study.schedule(Day(0));
            let routes = study.routes(Day(0), &events, 1);
            let first = events.len() / 5;
            let range = &events[first..];
            assert!(range.len() > BLOCK_BEACONS, "{} events", range.len());
            let run = |block: usize| study.run_range(&routes, 0, first, range, block);
            let whole = run(usize::MAX);
            assert_eq!(whole.http_rows, 4 * range.len());
            assert_eq!(whole.joined.len(), whole.http_rows);
            assert_eq!(whole.failed_rows > 0, failures);
            for block in [1, 3, BLOCK_BEACONS] {
                let blocks = run(block);
                assert_eq!(blocks.joined, whole.joined, "block length {block}");
                assert_eq!(blocks.http_rows, whole.http_rows);
                assert_eq!(blocks.failed_rows, whole.failed_rows);
            }
        }
    }

    #[test]
    fn a_day_without_events_is_empty() {
        // No event, no range: nothing runs and nothing is joined.
        let cfg = StudyConfig {
            beacon_rate: 0.0,
            workers: 4,
            ..StudyConfig::default()
        };
        let mut study = Study::new(Scenario::small(12), cfg);
        study.run_day(Day(0));
        assert!(study.dataset().is_empty());
    }

    #[test]
    fn a_spawned_workers_panic_propagates() {
        // A day of a few dozen beacons over ten ranges. `believed` is cut
        // short so that range 0 (the caller's) still finds every resolver
        // it needs and a later range (a spawned worker's) indexes past the
        // end: the day must end in that panic, not in a partial dataset.
        let study = |workers: usize| {
            let cfg = StudyConfig {
                beacon_rate: 0.002,
                workers,
                ..StudyConfig::default()
            };
            Study::new(Scenario::small(13), cfg)
        };
        // A joined row's `ldns` is its log row's: the resolvers a range
        // asked are the resolvers of its rows.
        let mut whole = study(1);
        whole.run_day(Day(0));
        let rows = whole.dataset().measurements();
        let events = rows.len() / 4;
        let range0 = &rows[..4 * events.div_ceil(10)];
        let keep = 1 + range0.iter().map(|row| row.ldns.0).max().expect("events") as usize;
        assert!(
            rows.iter().any(|row| row.ldns.0 as usize >= keep),
            "no later range uses a resolver range 0 does not"
        );
        let mut poisoned = study(10);
        poisoned.believed.truncate(keep);
        let day = std::panic::AssertUnwindSafe(|| poisoned.run_day(Day(0)));
        assert!(std::panic::catch_unwind(day).is_err());
    }

    #[test]
    fn maps_cover_population() {
        let study = small_study(6);
        let ldns_of = study.ldns_of();
        let volumes = study.volumes();
        assert_eq!(ldns_of.len(), study.scenario().clients.len());
        assert_eq!(volumes.len(), study.scenario().clients.len());
    }
}
