//! Per-day route memoization: a read-only snapshot of routing decisions.
//!
//! Routing is deterministic per `(client, site, day)` — the stochastic part
//! of a measurement is only the RTT noise added by
//! [`Internet::sample_rtt`]. The campaign engine nevertheless used to
//! recompute BGP/IGP selection and path construction for every beacon
//! fetch, several times per beacon. A [`RouteSnapshot`] hoists that work to
//! once per `(client, site)` per day: build it when the day starts, share
//! it read-only across worker threads, and route each request with an
//! array lookup.
//!
//! The unicast side is held as per-client **rows**: for each client the
//! decisions of the sites its caller declared, back to back in one flat
//! array behind per-client offsets. A campaign day knows which sites its
//! beacons will fetch before it routes — the DNS policy's answers are a
//! pure function of the measurement id and the resolver — so it declares
//! exactly those for the clients that fire and nothing for the rest
//! ([`RouteSnapshot::build_rows`]); the availability sweeps declare every
//! site for every client ([`RouteSnapshot::build`]). A lookup finds the
//! site in the client's row, and a site outside the row is routed on the
//! spot through [`Internet::unicast_route`] — the same answer, paid for
//! at the lookup and counted in `netsim_route_memo_misses_total`, so a
//! caller whose rows do not cover its lookups sees it in
//! `netsim.route_memo_hit_ratio` rather than in wrong routes.
//!
//! The snapshot is therefore **transparent** whatever the rows: for every
//! `(client, site, time)` it returns exactly what
//! [`Internet::anycast_route_at`] / [`Internet::unicast_route_at`] would,
//! and moves the same failover counters.
//!
//! Lookups run on every fetch of every worker, so they write no shared
//! counter: each tallies its memo hits and misses, and its losses,
//! failover reroutes and unrouted answers, into the caller's
//! [`RouteTally`], a plain value the caller owns and
//! [flushes](RouteTally::flush) into the obs registry — a campaign worker
//! once per block of beacons. The site-down fallback tallies into the same
//! value.
//!
//! Anycast routing varies within a day only at the edges of scheduled
//! windows, so the snapshot cuts the day there into a sorted **timeline**
//! of segments and a lookup is a binary search. Egress churn cuts nothing:
//! a churn flip is in force for its whole day here, as in
//! [`Internet::anycast_route`], so it is already in the steady decision.
//!
//! * **steady** segments answer with the precomputed decision;
//! * segments under **route dynamics** (worldgen session and border flaps)
//!   are memoized too: each distinct environment of the day is computed
//!   once at build time, and since an event moves a sliver of ASes, the
//!   handful of clients it reroutes get their resolved decision stored
//!   beside the steady one — everyone else still gets steady;
//! * only segments inside a *site* down-window fall back to the full
//!   failover computation, which depends on the set of currently-down
//!   sites and the reconvergence clock. Worlds without failure injection
//!   never take the fallback.

use std::sync::Arc;

use anycast_obs::counter;

use crate::ids::{BorderId, SiteId};
use crate::internet::{Catchment, ClientAttachment, Internet, RouteDecision};
use crate::outage::OutageWindow;
use crate::sim::Day;
use crate::stream::run_workers;
use crate::worldgen::{PolicyWorld, RouteEnv};

/// What answers an anycast lookup inside one timeline segment.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Segment {
    /// No window is open: the steady decision.
    Steady,
    /// Route dynamics only: the steady decision unless the client is
    /// listed in `moved[.0]`.
    Dynamics(usize),
    /// Some site is down: ask the [`Internet`].
    SiteDown,
}

/// A client a dynamics environment routes differently from steady state,
/// with where it goes instead (`None`: its AS holds no route).
type Moved = (u32, Option<RouteDecision>);

/// The obs tallies of a run of snapshot lookups, kept by the caller and
/// added to the global counters by [`flush`](RouteTally::flush): lookups on
/// the hot path write no shared cache line. The sums are those per-lookup
/// counting would reach, published when the caller flushes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteTally {
    /// Lookups answered from the snapshot (`netsim_route_memo_hits_total`).
    pub memo_hits: u64,
    /// Lookups the snapshot could not answer from what it stores
    /// (`netsim_route_memo_misses_total`).
    pub memo_misses: u64,
    /// Anycast requests lost to a site that crashed before BGP reconverged
    /// (`netsim_reconvergence_losses_total`).
    pub reconvergence_losses: u64,
    /// Anycast answers that moved a client off its steady site
    /// (`netsim_failover_reroutes_total`).
    pub failover_reroutes: u64,
    /// Anycast answers of an AS that holds no route
    /// (`netsim_policy_unrouted_total`).
    pub policy_unrouted: u64,
}

impl RouteTally {
    /// Adds the tally to its obs counters and zeroes it. A count of zero
    /// leaves its counter untouched (and unregistered), as lookups that
    /// never incremented it would.
    pub fn flush(&mut self) {
        if self.memo_hits > 0 {
            counter!("netsim_route_memo_hits_total").add(self.memo_hits);
        }
        if self.memo_misses > 0 {
            counter!("netsim_route_memo_misses_total").add(self.memo_misses);
        }
        if self.reconvergence_losses > 0 {
            counter!("netsim_reconvergence_losses_total").add(self.reconvergence_losses);
        }
        if self.failover_reroutes > 0 {
            counter!("netsim_failover_reroutes_total").add(self.failover_reroutes);
        }
        if self.policy_unrouted > 0 {
            counter!("netsim_policy_unrouted_total").add(self.policy_unrouted);
        }
        *self = RouteTally::default();
    }
}

/// One day's routing table for a fixed client population: steady anycast
/// and the declared unicast decisions, plus the day's timeline of outage
/// and route-dynamics windows.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteSnapshot<'a> {
    day: Day,
    /// The population the snapshot was built over, borrowed from its
    /// builder: a campaign builds a snapshot a day over one population.
    attachments: &'a [ClientAttachment],
    /// Steady anycast decision per client.
    anycast: Vec<RouteDecision>,
    /// The clients' unicast rows, back to back.
    unicast: Vec<RouteDecision>,
    /// `unicast[row_starts[c]..row_starts[c + 1]]` is client `c`'s row:
    /// one decision per site declared for it, in declaration order.
    row_starts: Vec<usize>,
    /// This day's down-window per site (almost always all `None`).
    windows: Vec<Option<OutageWindow>>,
    timeline: DayTimeline,
}

/// The day cut at every window edge.
#[derive(Debug, Clone, PartialEq)]
struct DayTimeline {
    /// Segment start instants, ascending. `starts[0]` is −∞, so every
    /// instant falls in a segment; the rest are the distinct edges of the
    /// day's site windows and dynamics windows.
    starts: Vec<f64>,
    /// `segments[i]` covers `[starts[i], starts[i + 1])`.
    segments: Vec<Segment>,
    /// Per distinct dynamics environment of the day: the clients it
    /// moves, ascending by client. Always empty outside worldgen worlds.
    moved: Vec<Vec<Moved>>,
}

impl<'a> RouteSnapshot<'a> {
    /// Builds the snapshot sequentially, declaring every site for every
    /// client: [`RouteSnapshot::build_rows`] with full rows on one worker.
    pub fn build(
        internet: &Internet,
        clients: &'a [ClientAttachment],
        day: Day,
    ) -> RouteSnapshot<'a> {
        let sites: Vec<SiteId> = internet.topology().cdn.site_ids().collect();
        Self::build_rows(internet, clients, day, 1, |_| sites.as_slice())
    }

    /// Builds the snapshot with up to `workers` threads, holding for client
    /// `c` the unicast decisions of the sites `row_of(c)` declares (any
    /// sites, any order, possibly none; their total is added to
    /// `netsim_route_memo_unicast_decisions_total`). Rows only decide what a lookup
    /// finds stored; every lookup answers the same whatever they are.
    /// Per-client rows are pure functions of `(internet, client, day)`, so
    /// the result is identical for any worker count.
    pub fn build_rows<'r>(
        internet: &Internet,
        clients: &'a [ClientAttachment],
        day: Day,
        workers: usize,
        row_of: impl Fn(usize) -> &'r [SiteId] + Sync,
    ) -> RouteSnapshot<'a> {
        let cdn = &internet.topology().cdn;
        let windows: Vec<Option<OutageWindow>> = cdn
            .site_ids()
            .map(|s| internet.outages().window_on(s, day))
            .collect();
        for w in windows.iter().flatten() {
            let kind = match w.kind {
                crate::outage::OutageKind::Unplanned => "unplanned",
                crate::outage::OutageKind::Maintenance => "maintenance",
            };
            anycast_obs::global()
                .counter_with("netsim_outage_windows_total", &[("kind", kind)])
                .inc();
        }

        let workers = workers.max(1).min(clients.len().max(1));
        if let Some(pw) = internet.policy_world() {
            // The rows below read the steady table and one unicast table
            // per site; compute the missing ones up front, each once,
            // instead of having the row workers queue behind one another.
            let borders: Vec<BorderId> = cdn
                .site_ids()
                .map(|s| cdn.unicast_announcement_border(s))
                .collect();
            pw.warm_tables(&borders, workers);
        }

        let mut row_starts = Vec::with_capacity(clients.len() + 1);
        row_starts.push(0);
        for c in 0..clients.len() {
            row_starts.push(row_starts[c] + row_of(c).len());
        }
        let decisions = row_starts[clients.len()] as u64;
        if decisions > 0 {
            counter!("netsim_route_memo_unicast_decisions_total").add(decisions);
        }

        // Every slot below is overwritten: each worker fills its own
        // contiguous slice of the two flat arrays, so worker counts can
        // never reorder (or change) the pure per-client rows.
        let unset = RouteDecision {
            ingress: BorderId(0),
            site: SiteId(0),
            base_rtt_ms: 0.0,
            via_transit: None,
            handoff_metro: None,
        };
        let mut anycast = vec![unset; clients.len()];
        let mut unicast = vec![unset; row_starts[clients.len()]];
        // Fills the decisions of the clients from index `first` on.
        let fill = |first: usize,
                    part: &[ClientAttachment],
                    any: &mut [RouteDecision],
                    uni: &mut [RouteDecision]| {
            let mut uni = uni.iter_mut();
            for (i, (c, any)) in part.iter().zip(any).enumerate() {
                let access_km = internet.access_km(c);
                *any = internet.anycast_route_from(c, access_km, day);
                let row = row_of(first + i);
                assert_eq!(
                    row.len(),
                    row_starts[first + i + 1] - row_starts[first + i],
                    "client {}'s row changed length during the build",
                    first + i
                );
                for (&s, slot) in row.iter().zip(&mut uni) {
                    *slot = internet.unicast_route_from(c, access_km, s, day);
                }
            }
        };
        let chunk = clients.len().div_ceil(workers).max(1);
        let mut rest = unicast.as_mut_slice();
        let mut parts = Vec::with_capacity(workers);
        for (k, (part, any)) in clients
            .chunks(chunk)
            .zip(anycast.chunks_mut(chunk))
            .enumerate()
        {
            let first = k * chunk;
            let rows = row_starts[first + part.len()] - row_starts[first];
            let (uni, after) = std::mem::take(&mut rest).split_at_mut(rows);
            rest = after;
            parts.push((first, part, any, uni));
        }
        run_workers(parts, |_, (first, part, any, uni)| {
            fill(first, part, any, uni)
        })
        .unwrap_or_else(|e| panic!("route snapshot of day {} failed: {e}", day.0));
        let timeline = DayTimeline::cut(internet, clients, &anycast, day, &windows);
        RouteSnapshot {
            day,
            attachments: clients,
            anycast,
            unicast,
            row_starts,
            windows,
            timeline,
        }
    }

    /// The day this snapshot is valid for.
    pub fn day(&self) -> Day {
        self.day
    }

    /// Number of clients covered.
    pub fn len(&self) -> usize {
        self.anycast.len()
    }

    /// Whether the snapshot covers no clients.
    pub fn is_empty(&self) -> bool {
        self.anycast.is_empty()
    }

    /// The attachment snapshot row `client` was built from.
    pub fn attachment(&self, client: usize) -> &ClientAttachment {
        &self.attachments[client]
    }

    /// Steady anycast decision for `client` (ignores outages).
    pub fn steady_anycast(&self, client: usize) -> &RouteDecision {
        &self.anycast[client]
    }

    /// The stored decision for `(client, site)`, if the client's row
    /// declared the site.
    fn stored_unicast(&self, client: usize, site: SiteId) -> Option<&RouteDecision> {
        let row = &self.unicast[self.row_starts[client]..self.row_starts[client + 1]];
        // A decision names its site, so wherever `site` turns up in the
        // row is the answer: a row of every site in id order holds it at
        // its own index, any other row is a scan of a handful of entries.
        match row.get(site.0 as usize) {
            Some(d) if d.site == site => Some(d),
            _ => row.iter().find(|d| d.site == site),
        }
    }

    /// Memoized [`Internet::anycast_route_at`]: a stored decision —
    /// steady, or the one a route-dynamics event moved this client to — on
    /// the (overwhelmingly common) fast path, the full failover
    /// computation only while some site is actually down. The lookup's
    /// obs tallies go to `tally`.
    pub fn anycast_at(
        &self,
        internet: &Internet,
        client: usize,
        time_s: f64,
        tally: &mut RouteTally,
    ) -> Option<RouteDecision> {
        let steady = self.steady_anycast(client);
        let moved = match self.timeline.segment_at(time_s) {
            Segment::Steady => None,
            Segment::Dynamics(env) => {
                let moved = &self.timeline.moved[env];
                moved
                    .binary_search_by_key(&(client as u32), |m| m.0)
                    .ok()
                    .map(|i| moved[i].1)
            }
            Segment::SiteDown => {
                tally.memo_misses += 1;
                let client = &self.attachments[client];
                return internet.anycast_route_tallied(client, self.day, time_s, tally);
            }
        };
        tally.memo_hits += 1;
        // The same tallies `anycast_route_at` keeps for an event table.
        match moved {
            None => Some(*steady),
            Some(Some(d)) => {
                if d.site != steady.site {
                    tally.failover_reroutes += 1;
                }
                Some(d)
            }
            Some(None) => {
                tally.policy_unrouted += 1;
                None
            }
        }
    }

    /// Memoized [`Internet::unicast_route_at`]: `None` while `site`'s
    /// window contains `time_s`, the client's stored decision otherwise —
    /// or, for a site its row did not declare, the route computed on the
    /// spot and counted as a memo miss. The lookup's obs tallies go to
    /// `tally`.
    pub fn unicast_at(
        &self,
        internet: &Internet,
        client: usize,
        site: SiteId,
        time_s: f64,
        tally: &mut RouteTally,
    ) -> Option<RouteDecision> {
        let down = self.windows[site.0 as usize].is_some_and(|w| w.contains(time_s));
        if down {
            tally.memo_misses += 1;
            return None;
        }
        match self.stored_unicast(client, site) {
            Some(d) => {
                tally.memo_hits += 1;
                Some(*d)
            }
            None => {
                tally.memo_misses += 1;
                Some(internet.unicast_route(&self.attachments[client], site, self.day))
            }
        }
    }

    /// A per-client view, for callers that handle one client at a time.
    pub fn client(&self, idx: usize) -> ClientRoutes<'_> {
        ClientRoutes { snap: self, idx }
    }
}

impl DayTimeline {
    /// Cuts `day` at every edge of `windows` (the site down-windows) and
    /// of the policy world's dynamics windows. No edge lies strictly
    /// inside a segment, so the windows open at a segment's start are the
    /// windows open throughout it. `steady` is each client's steady
    /// decision.
    fn cut(
        internet: &Internet,
        clients: &[ClientAttachment],
        steady: &[RouteDecision],
        day: Day,
        windows: &[Option<OutageWindow>],
    ) -> DayTimeline {
        let policy = internet.policy_world().filter(|pw| pw.dynamics_enabled());
        let mut starts = vec![f64::NEG_INFINITY];
        for w in windows.iter().flatten() {
            starts.extend([w.start_s, w.end_s]);
        }
        if let Some(pw) = policy {
            for w in pw.events_on(day).iter() {
                starts.extend([w.start_s, w.end_s]);
            }
        }
        starts.sort_unstable_by(f64::total_cmp);
        starts.dedup();

        let mut envs: Vec<RouteEnv> = Vec::new();
        let segments = starts
            .iter()
            .map(|&start| {
                if windows.iter().flatten().any(|w| w.contains(start)) {
                    return Segment::SiteDown;
                }
                let Some(pw) = policy else {
                    return Segment::Steady;
                };
                let env = pw.env_at(day, start, &[]);
                if env.is_steady() {
                    return Segment::Steady;
                }
                let known = envs.iter().position(|e| *e == env);
                Segment::Dynamics(known.unwrap_or_else(|| {
                    envs.push(env);
                    envs.len() - 1
                }))
            })
            .collect();

        let moved = match policy {
            Some(pw) if !envs.is_empty() => moved_clients(internet, pw, clients, steady, day, envs),
            _ => Vec::new(),
        };
        DayTimeline {
            starts,
            segments,
            moved,
        }
    }

    /// The segment `time_s` falls in.
    fn segment_at(&self, time_s: f64) -> Segment {
        let after = self.starts.partition_point(|&start| start <= time_s);
        self.segments[after.saturating_sub(1)]
    }
}

/// For each environment, the clients it may route differently from their
/// `steady` decision, with their resolved decision: every client whose AS
/// the environment reroutes, and — where it withdraws a border — every
/// client on a churn flip day it moves, whose runner-up border may be the
/// withdrawn one while its AS keeps its route. Each environment's table is
/// computed here, once, and dropped once its clients are resolved.
fn moved_clients(
    internet: &Internet,
    pw: &PolicyWorld,
    clients: &[ClientAttachment],
    steady: &[RouteDecision],
    day: Day,
    envs: Vec<RouteEnv>,
) -> Vec<Vec<Moved>> {
    let mut by_as: Vec<(u32, u32)> = clients
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_id.0, i as u32))
        .collect();
    by_as.sort_unstable();
    let flipped: Vec<u32> = if envs.iter().any(|env| !env.withdrawn.is_empty()) {
        (0..clients.len() as u32)
            .filter(|&i| internet.rank(&clients[i as usize], day) > 0)
            .collect()
    } else {
        Vec::new()
    };
    envs.into_iter()
        .map(|env| {
            let table = pw.table_for(&env);
            let withdraws = !env.withdrawn.is_empty();
            let catchment = Catchment::Table {
                world: pw,
                env,
                table: Arc::clone(&table),
            };
            let route = |i: u32| {
                let c = &clients[i as usize];
                internet.anycast_under(&catchment, c, internet.access_km(c), day, &[])
            };
            let mut moved: Vec<Moved> = Vec::new();
            for &(node, _) in table.overrides() {
                let lo = by_as.partition_point(|&(a, _)| a < node);
                for &(_, i) in by_as[lo..].iter().take_while(|&&(a, _)| a == node) {
                    moved.push((i, route(i)));
                }
            }
            if withdraws {
                for &i in &flipped {
                    let d = route(i);
                    if d != Some(steady[i as usize]) {
                        moved.push((i, d));
                    }
                }
            }
            // A flipped client of a rerouted AS is listed twice, with one
            // decision.
            moved.sort_unstable_by_key(|m| m.0);
            moved.dedup_by_key(|m| m.0);
            moved
        })
        .collect()
}

/// A single client's slice of a [`RouteSnapshot`].
#[derive(Debug, Clone, Copy)]
pub struct ClientRoutes<'a> {
    snap: &'a RouteSnapshot<'a>,
    idx: usize,
}

impl<'a> ClientRoutes<'a> {
    /// The snapshot's day.
    pub fn day(&self) -> Day {
        self.snap.day
    }

    /// Steady anycast decision (ignores outages).
    pub fn steady_anycast(&self) -> &'a RouteDecision {
        self.snap.steady_anycast(self.idx)
    }

    /// Memoized [`Internet::anycast_route_at`] for this client.
    pub fn anycast_at(
        &self,
        internet: &Internet,
        time_s: f64,
        tally: &mut RouteTally,
    ) -> Option<RouteDecision> {
        self.snap.anycast_at(internet, self.idx, time_s, tally)
    }

    /// Memoized [`Internet::unicast_route_at`] for this client.
    pub fn unicast_at(
        &self,
        internet: &Internet,
        site: SiteId,
        time_s: f64,
        tally: &mut RouteTally,
    ) -> Option<RouteDecision> {
        self.snap
            .unicast_at(internet, self.idx, site, time_s, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::latency::AccessTech;

    fn clients(net: &Internet, n: usize) -> Vec<ClientAttachment> {
        (0..n)
            .map(|i| {
                let e = net.topology().eyeballs().cycle().nth(i).unwrap();
                ClientAttachment {
                    as_id: e.id,
                    metro: e.home_metro,
                    location: net
                        .topology()
                        .atlas
                        .metro(e.home_metro)
                        .location()
                        .destination((i as f64 * 31.0) % 360.0, 15.0),
                    access: AccessTech::sample((i as f64 * 0.21) % 1.0),
                }
            })
            .collect()
    }

    #[test]
    fn snapshot_matches_direct_routing_without_failures() {
        let net = Internet::new(NetConfig::small(), 9).unwrap();
        let cs = clients(&net, 12);
        let snap = RouteSnapshot::build(&net, &cs, Day(2));
        for (i, c) in cs.iter().enumerate() {
            assert_eq!(*snap.steady_anycast(i), net.anycast_route(c, Day(2)));
            for s in net.topology().cdn.site_ids() {
                assert_eq!(
                    snap.unicast_at(&net, i, s, 0.0, &mut RouteTally::default()),
                    Some(net.unicast_route(c, s, Day(2)))
                );
            }
            for t in [0.0, 40_000.0, 80_000.0] {
                assert_eq!(
                    snap.anycast_at(&net, i, t, &mut RouteTally::default()),
                    net.anycast_route_at(c, Day(2), t)
                );
            }
        }
    }

    #[test]
    fn snapshot_matches_direct_routing_under_failures() {
        let cfg = NetConfig {
            p_site_outage: 0.3,
            p_site_drain: 0.15,
            ..NetConfig::small()
        };
        let net = Internet::new(cfg, 11).unwrap();
        let cs = clients(&net, 8);
        for day in Day(0).span(6) {
            let snap = RouteSnapshot::build(&net, &cs, day);
            for (i, c) in cs.iter().enumerate() {
                for t in [0.0, 15_000.0, 43_200.0, 70_000.0, 86_000.0] {
                    assert_eq!(
                        snap.anycast_at(&net, i, t, &mut RouteTally::default()),
                        net.anycast_route_at(c, day, t),
                        "anycast divergence day {day:?} t {t}"
                    );
                    for s in net.topology().cdn.site_ids() {
                        assert_eq!(
                            snap.unicast_at(&net, i, s, t, &mut RouteTally::default()),
                            net.unicast_route_at(c, s, day, t),
                            "unicast divergence day {day:?} t {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let net = Internet::new(NetConfig::small(), 5).unwrap();
        let cs = clients(&net, 23);
        let sites: Vec<SiteId> = net.topology().cdn.site_ids().collect();
        let seq = RouteSnapshot::build(&net, &cs, Day(1));
        for workers in [2, 3, 8] {
            let par = RouteSnapshot::build_rows(&net, &cs, Day(1), workers, |_| sites.as_slice());
            assert_eq!(seq.anycast, par.anycast);
            assert_eq!(seq.unicast, par.unicast);
            assert_eq!(seq.windows, par.windows);
        }
    }

    #[test]
    fn dynamics_days_are_memoized_whole() {
        use crate::worldgen::WorldGenConfig;
        let cfg = NetConfig {
            worldgen: Some(WorldGenConfig {
                n_ases: 400,
                p_session_flap: 0.2,
                ..WorldGenConfig::default()
            }),
            ..NetConfig::small()
        };
        let net = Internet::new(cfg, 3).unwrap();
        let hosts: Vec<_> = net
            .topology()
            .eyeballs()
            .filter(|e| !e.pops.is_empty())
            .collect();
        let cs: Vec<ClientAttachment> = (0..hosts.len() * 2)
            .map(|i| {
                let e = hosts[i % hosts.len()];
                ClientAttachment {
                    as_id: e.id,
                    metro: e.pops[0],
                    location: net.topology().atlas.metro(e.pops[0]).location(),
                    access: AccessTech::sample((i as f64 * 0.21) % 1.0),
                }
            })
            .collect();
        let seq = RouteSnapshot::build(&net, &cs, Day(0));
        // No site ever goes down here, so no segment asks the Internet,
        // and with every hosting AS covered some flap moves some client.
        let tl = &seq.timeline;
        assert!(tl.starts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(tl.starts.len(), tl.segments.len());
        assert!(!tl.segments.contains(&Segment::SiteDown));
        assert!(tl
            .segments
            .iter()
            .any(|s| matches!(s, Segment::Dynamics(_))));
        assert!(tl.moved.iter().any(|m| !m.is_empty()));
        for moved in &tl.moved {
            assert!(moved.windows(2).all(|w| w[0].0 < w[1].0));
        }
        let sites: Vec<SiteId> = net.topology().cdn.site_ids().collect();
        let par = RouteSnapshot::build_rows(&net, &cs, Day(0), 3, |_| sites.as_slice());
        assert_eq!(seq.anycast, par.anycast);
        assert_eq!(seq.timeline, par.timeline);
    }
}
