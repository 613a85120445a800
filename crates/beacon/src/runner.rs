//! One beacon execution.
//!
//! The beacon's client-side sequence, per §3.2.2:
//!
//! 1. for each of the four test URLs, issue a **warm-up** DNS resolution so
//!    the timed fetch uses its answer without a lookup ("to remove the
//!    impact of DNS lookup from our measurements");
//! 2. fetch each URL from that address and time the download — primitive
//!    timings first, substituted by Resource Timing values on compliant
//!    browsers;
//! 3. report `(measurement id, reported latency)` rows to the backend.
//!
//! The warm-up is each test URL's one resolution: it is what lands in the
//! authoritative DNS log, and its unique hostname is the join key.
//!
//! A beacon writes no shared counter: its obs tallies (executions, fetch
//! attempts, retries and failures, the reported-latency histogram, and
//! the route lookups') go to the caller's [`BeaconTally`], which the
//! caller flushes into the obs registry once per block of beacons.

use std::net::Ipv4Addr;

use anycast_geo::GeoPoint;
use anycast_netsim::{
    CdnAddressing, ClientAttachment, ClientRoutes, Day, Internet, Prefix24, RouteTally, SiteId,
};
use anycast_obs::{counter, histogram, HistogramSnapshot};
use rand::Rng;

use anycast_dns::{AuthoritativeServer, DnsName, Ldns};

use crate::policy::MeasurementPolicy;
use crate::slots::Slot;
use crate::timing;

/// A client-side HTTP result row: what the beacon uploads to the backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HttpResult {
    /// The measurement's globally unique id.
    pub measurement_id: u64,
    /// The client's /24 (the backend sees the reporting connection's IP).
    pub prefix: Prefix24,
    /// IP the test URL resolved to (anycast VIP or a unicast site address).
    pub fetched_ip: Ipv4Addr,
    /// The front-end that actually served the fetch (from the CDN's own
    /// HTTP logs; for unicast it equals the target, for anycast it is
    /// whichever site routing chose). For a failed fetch this is the site
    /// the client was *trying* to reach when every attempt timed out.
    pub served_site: SiteId,
    /// Latency the beacon reported, ms. For a failed fetch this is the
    /// total time burned across timed-out attempts, not an RTT.
    pub reported_ms: f64,
    /// Whether every fetch attempt timed out (front-end down or the
    /// client's route still converging around a withdrawal).
    pub failed: bool,
    /// How many fetch attempts were made (1 on first-try success).
    pub attempts: u32,
    /// Day of the execution.
    pub day: Day,
    /// Seconds within the day.
    pub time_s: f64,
}

/// Per-attempt fetch timeout, ms. Real beacon JavaScript bounds how long a
/// fetch waits, and how many times it retries, so a dead front-end costs
/// a few seconds, not a hung measurement — and so the failure is
/// *recorded* rather than lost. Training charges a failed measurement this
/// timeout as its latency.
pub const FETCH_TIMEOUT_MS: f64 = 3_000.0;
/// Total fetch attempts (first try + one retry).
const FETCH_ATTEMPTS: u32 = 2;

/// The client-side identity a beacon execution runs as.
#[derive(Debug, Clone, Copy)]
pub struct BeaconClient {
    /// The client's /24 prefix.
    pub prefix: Prefix24,
    /// Its network attachment.
    pub attachment: ClientAttachment,
}

/// The obs tallies of a run of beacon executions, kept by the caller and
/// added to the global metrics by [`flush`](BeaconTally::flush). The sums,
/// every histogram bucket and the histogram's sum are those per-beacon
/// recording would reach; they become visible when the caller flushes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BeaconTally {
    /// Executions run (`beacon_executions_total`).
    pub executions: u64,
    /// Fetch attempts, retries included (`beacon_fetch_attempts_total`).
    pub fetch_attempts: u64,
    /// Attempts after a fetch's first (`beacon_fetch_retries_total`).
    pub fetch_retries: u64,
    /// Fetches whose every attempt timed out
    /// (`beacon_fetch_failures_total`).
    pub fetch_failures: u64,
    /// Each fetch's reported latency (`beacon_reported_ms`).
    pub reported_ms: HistogramSnapshot,
    /// The fetches' route-snapshot lookups.
    pub routes: RouteTally,
}

impl BeaconTally {
    /// Adds the tally to its obs metrics and zeroes it. A count of zero
    /// leaves its metric untouched (and unregistered), as beacons that
    /// never recorded into it would.
    pub fn flush(&mut self) {
        if self.executions > 0 {
            counter!("beacon_executions_total").add(self.executions);
        }
        if self.fetch_attempts > 0 {
            counter!("beacon_fetch_attempts_total").add(self.fetch_attempts);
        }
        if self.fetch_retries > 0 {
            counter!("beacon_fetch_retries_total").add(self.fetch_retries);
        }
        if self.fetch_failures > 0 {
            counter!("beacon_fetch_failures_total").add(self.fetch_failures);
        }
        if self.reported_ms.count() > 0 {
            histogram!("beacon_reported_ms").merge(&self.reported_ms);
            self.reported_ms.clear();
        }
        self.routes.flush();
        self.executions = 0;
        self.fetch_attempts = 0;
        self.fetch_retries = 0;
        self.fetch_failures = 0;
    }
}

/// Runs one beacon execution and appends its four client-side result rows
/// to `results` — the caller's buffer, so a run of executions fills one
/// allocation instead of making one each.
///
/// `ldns_believed_location` is where the CDN's geolocation database places
/// the client's resolver — the location the server-side candidate selection
/// uses (§3.3).
///
/// `execution` is the caller-assigned execution counter (measurement ids
/// are `Slot::id_for(execution)`), and `routes` is the client's view of
/// the day's [route snapshot](anycast_netsim::RouteSnapshot) — both are
/// supplied by the campaign engine so executions can be computed out of
/// order and on any thread. The engine also derives `rng` per beacon, so
/// this function's draws never interleave with another execution's.
///
/// Each slot resolves once, at the warm-up; the fetch and its retries use
/// that answer. Fetches honor the failure schedule: an attempt against a
/// down (or still-converging) front-end times out after
/// [`FETCH_TIMEOUT_MS`], retries re-route at the later instant (to the same
/// address), and an execution whose every attempt times out
/// is reported as a *failed* row rather than silently dropped. In a world
/// with no scheduled failures the sequence — and every random draw — is
/// identical to the non-retrying path.
///
/// The execution's obs tallies go to `tally`.
#[allow(clippy::too_many_arguments)]
pub fn run_beacon(
    internet: &Internet,
    routes: ClientRoutes<'_>,
    addressing: &CdnAddressing,
    zone: &DnsName,
    client: &BeaconClient,
    ldns: &Ldns,
    ldns_believed_location: GeoPoint,
    auth: &mut AuthoritativeServer<MeasurementPolicy>,
    execution: u64,
    time_s: f64,
    rng: &mut impl Rng,
    results: &mut Vec<HttpResult>,
    tally: &mut BeaconTally,
) {
    let day = routes.day();
    tally.executions += 1;
    let compliant = timing::browser_is_compliant(rng);
    for slot in Slot::ALL {
        let id = slot.id_for(execution);
        let qname = DnsName::measurement(id, zone);
        // Warm-up: the name's one query, which the authoritative server
        // logs. The timed fetch downloads from the answered address.
        let addr = ldns.resolve(
            &qname,
            client.prefix,
            ldns_believed_location,
            auth,
            day,
            time_s,
        );
        let mut attempts = 0u32;
        let mut served: Option<(SiteId, f64)> = None;
        for attempt in 0..FETCH_ATTEMPTS {
            attempts = attempt + 1;
            // Each retry happens one timeout later; routing is re-resolved
            // at that instant, so anycast clients pick up the post-failover
            // catchment while unicast retries keep hitting the dead site.
            let t = time_s + 0.5 + f64::from(attempt) * FETCH_TIMEOUT_MS / 1000.0;
            let route = if addressing.is_anycast(addr) {
                routes.anycast_at(internet, t, &mut tally.routes)
            } else {
                let site = addressing
                    .site_for_ip(addr)
                    .expect("measurement answer must be a service address");
                routes.unicast_at(internet, site, t, &mut tally.routes)
            };
            if let Some(decision) = route {
                // Success path draws exactly the same randomness as the
                // failure-free runner: one RTT jitter sample, one timing
                // observation. Timed-out attempts draw none.
                let true_rtt = internet.sample_rtt(&decision, rng);
                served = Some((decision.site, timing::observe(true_rtt, compliant, rng)));
                break;
            }
        }
        tally.fetch_attempts += u64::from(attempts);
        tally.fetch_retries += u64::from(attempts - 1);
        let (served_site, reported_ms, failed) = match served {
            Some((site, ms)) => (site, ms, false),
            None => {
                tally.fetch_failures += 1;
                // Every attempt timed out. Attribute the failure to the
                // site the client was steered towards (the unicast target,
                // or anycast's steady-state catchment) and report the time
                // the beacon burned waiting.
                let site = if addressing.is_anycast(addr) {
                    routes.steady_anycast().site
                } else {
                    addressing
                        .site_for_ip(addr)
                        .expect("measurement answer must be a service address")
                };
                (site, f64::from(attempts) * FETCH_TIMEOUT_MS, true)
            }
        };
        tally.reported_ms.observe(reported_ms);
        results.push(HttpResult {
            measurement_id: id,
            prefix: client.prefix,
            fetched_ip: addr,
            served_site,
            reported_ms,
            failed,
            attempts,
            day,
            time_s,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_dns::{DnsQueryLog, LdnsId, ResolverKind};
    use anycast_netsim::{AccessTech, NetConfig, RouteSnapshot};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct World {
        internet: Internet,
        addressing: CdnAddressing,
        zone: DnsName,
    }

    fn world() -> World {
        let internet = Internet::new(NetConfig::small(), 9).unwrap();
        let n = internet.topology().cdn.sites.len() as u16;
        World {
            internet,
            addressing: CdnAddressing::standard(n),
            zone: DnsName::new("cdn.example").unwrap(),
        }
    }

    fn auth(w: &World) -> AuthoritativeServer<MeasurementPolicy> {
        let policy = MeasurementPolicy::new(w.internet.site_locations(), w.addressing, 10, 300, 1);
        AuthoritativeServer::new(policy, false)
    }

    fn client(w: &World) -> BeaconClient {
        let e = w.internet.topology().eyeballs().next().unwrap();
        let loc = w.internet.topology().atlas.metro(e.home_metro).location();
        BeaconClient {
            prefix: Prefix24::containing(Ipv4Addr::new(11, 0, 0, 1)),
            attachment: ClientAttachment {
                as_id: e.id,
                metro: e.home_metro,
                location: loc,
                access: AccessTech::Cable,
            },
        }
    }

    fn run_one(w: &World, seed: u64) -> (Vec<HttpResult>, AuthoritativeServer<MeasurementPolicy>) {
        let mut a = auth(w);
        let c = client(w);
        let ldns = Ldns::new(
            LdnsId(0),
            ResolverKind::IspLocal,
            c.attachment.location,
            false,
        );
        let snap = RouteSnapshot::build(&w.internet, std::slice::from_ref(&c.attachment), Day(0));
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut results = Vec::new();
        run_beacon(
            &w.internet,
            snap.client(0),
            &w.addressing,
            &w.zone,
            &c,
            &ldns,
            c.attachment.location,
            &mut a,
            0,
            100.0,
            &mut rng,
            &mut results,
            &mut BeaconTally::default(),
        );
        (results, a)
    }

    #[test]
    fn beacon_makes_four_measurements() {
        let w = world();
        let (results, _) = run_one(&w, 1);
        assert_eq!(results.len(), 4);
        let slots: Vec<Slot> = results
            .iter()
            .map(|r| Slot::from_id(r.measurement_id))
            .collect();
        assert_eq!(slots, Slot::ALL.to_vec());
    }

    #[test]
    fn first_slot_is_anycast_rest_are_unicast() {
        let w = world();
        let (results, _) = run_one(&w, 2);
        assert!(w.addressing.is_anycast(results[0].fetched_ip));
        for r in &results[1..] {
            let site = w
                .addressing
                .site_for_ip(r.fetched_ip)
                .expect("unicast address");
            assert_eq!(site, r.served_site, "unicast serves the targeted site");
        }
    }

    #[test]
    fn anycast_served_site_matches_routing() {
        let w = world();
        let (results, _) = run_one(&w, 3);
        let c = client(&w);
        let expected = w.internet.anycast_route(&c.attachment, Day(0)).site;
        assert_eq!(results[0].served_site, expected);
    }

    /// Each slot resolves once, at its warm-up, and its fetch uses the
    /// logged answer — retries included.
    #[test]
    fn warm_up_logs_each_name_once() {
        let w = world();
        let (rs, a) = run_one(&w, 4);
        assert_eq!(rs.len(), 4);
        assert_one_query_per_slot(&rs, a.log());
        // A retry re-routes, but keeps the address and makes no query.
        let mut retried = 0;
        mid_outage_executions(|_, _, rs, log| {
            assert_one_query_per_slot(rs, log);
            retried += rs.iter().filter(|r| r.attempts > 1).count();
        });
        assert!(retried > 0, "some fetch must retry mid-outage");
    }

    #[test]
    fn latencies_are_positive_and_plausible() {
        let w = world();
        let (results, _) = run_one(&w, 5);
        for r in &results {
            assert!(
                r.reported_ms > 0.0 && r.reported_ms < 2000.0,
                "{}",
                r.reported_ms
            );
        }
    }

    #[test]
    fn healthy_world_fetches_never_fail() {
        let w = world();
        let (results, _) = run_one(&w, 7);
        for r in &results {
            assert!(!r.failed);
            assert_eq!(r.attempts, 1);
        }
    }

    /// Midpoint of the first scheduled outage window (past reconvergence).
    fn first_outage(internet: &Internet, sites: u16) -> Option<(Day, f64)> {
        for day in 0..30u32 {
            for s in 0..sites {
                if let Some(win) = internet.outages().window_on(SiteId(s), Day(day)) {
                    return Some((Day(day), (win.start_s + win.end_s) / 2.0));
                }
            }
        }
        None
    }

    /// Runs four executions a minute apart for a client in each eyeball
    /// AS, from the middle of the first scheduled outage of a world whose
    /// sites fail often, and hands `check` each execution's rows and the
    /// authoritative log rows it left.
    fn mid_outage_executions(mut check: impl FnMut(&Internet, Day, &[HttpResult], &[DnsQueryLog])) {
        let cfg = NetConfig {
            p_site_outage: 0.4,
            ..NetConfig::small()
        };
        let internet = Internet::new(cfg, 11).unwrap();
        let n = internet.topology().cdn.sites.len() as u16;
        let addressing = CdnAddressing::standard(n);
        let zone = DnsName::new("cdn.example").unwrap();
        let (day, when) = first_outage(&internet, n).expect("outage scheduled at rate 0.4");
        let policy = MeasurementPolicy::new(internet.site_locations(), addressing, 10, 300, 1);
        let mut auth = AuthoritativeServer::new(policy, false);
        let mut execution = 0u64;
        let mut rng = SmallRng::seed_from_u64(11);
        for e in internet.topology().eyeballs() {
            let loc = internet.topology().atlas.metro(e.home_metro).location();
            let c = BeaconClient {
                prefix: Prefix24::containing(Ipv4Addr::new(11, 0, 0, 1)),
                attachment: ClientAttachment {
                    as_id: e.id,
                    metro: e.home_metro,
                    location: loc,
                    access: AccessTech::Cable,
                },
            };
            let snap = RouteSnapshot::build(&internet, std::slice::from_ref(&c.attachment), day);
            let ldns = Ldns::new(LdnsId(0), ResolverKind::IspLocal, loc, false);
            for i in 0..4u32 {
                execution += 1;
                let mut rs = Vec::new();
                run_beacon(
                    &internet,
                    snap.client(0),
                    &addressing,
                    &zone,
                    &c,
                    &ldns,
                    loc,
                    &mut auth,
                    execution,
                    when + f64::from(i) * 60.0,
                    &mut rng,
                    &mut rs,
                    &mut BeaconTally::default(),
                );
                check(&internet, day, &rs, auth.log());
                auth.clear_log();
            }
        }
    }

    #[test]
    fn fetches_against_down_front_ends_are_recorded_as_failures() {
        let mut saw_failure = false;
        mid_outage_executions(|internet, day, rs, _| {
            for r in rs {
                if r.failed {
                    saw_failure = true;
                    assert_eq!(r.attempts, FETCH_ATTEMPTS);
                    assert_eq!(
                        r.reported_ms,
                        f64::from(FETCH_ATTEMPTS) * FETCH_TIMEOUT_MS,
                        "failed rows report total timeout time"
                    );
                    assert!(
                        internet.outages().is_down(r.served_site, day, r.time_s),
                        "failure must be attributed to a down site"
                    );
                } else {
                    assert!(r.reported_ms < FETCH_TIMEOUT_MS);
                }
            }
        });
        assert!(
            saw_failure,
            "some fetch must target the down front-end mid-outage"
        );
    }

    /// An execution's log holds exactly one row per slot id, in slot
    /// order, and each slot's fetch used that row's answer.
    fn assert_one_query_per_slot(rs: &[HttpResult], log: &[DnsQueryLog]) {
        let logged: Vec<Option<u64>> = log.iter().map(DnsQueryLog::measurement_id).collect();
        let slots: Vec<Option<u64>> = rs.iter().map(|r| Some(r.measurement_id)).collect();
        assert_eq!(logged, slots, "one authoritative query per slot");
        for (r, l) in rs.iter().zip(log) {
            assert_eq!(r.fetched_ip, l.answer, "slot {}", r.measurement_id);
        }
    }

    #[test]
    fn executions_get_distinct_ids() {
        let w = world();
        let mut a = auth(&w);
        let c = client(&w);
        let ldns = Ldns::new(
            LdnsId(0),
            ResolverKind::IspLocal,
            c.attachment.location,
            false,
        );
        let snap = RouteSnapshot::build(&w.internet, std::slice::from_ref(&c.attachment), Day(0));
        let mut rng = SmallRng::seed_from_u64(6);
        let mut rs = Vec::new();
        let mut tally = BeaconTally::default();
        for i in 0..10u64 {
            run_beacon(
                &w.internet,
                snap.client(0),
                &w.addressing,
                &w.zone,
                &c,
                &ldns,
                c.attachment.location,
                &mut a,
                i,
                100.0 + i as f64 * 60.0,
                &mut rng,
                &mut rs,
                &mut tally,
            );
        }
        // Ten executions appended to the one buffer, every id distinct.
        let seen: std::collections::HashSet<u64> = rs.iter().map(|r| r.measurement_id).collect();
        assert_eq!((rs.len(), seen.len()), (40, 40));
        // The tally counted them, and flushing hands it over whole.
        assert_eq!((tally.executions, tally.fetch_attempts), (10, 40));
        assert_eq!(tally.reported_ms.count(), 40);
        assert_eq!(tally.routes.memo_hits, 40);
        tally.flush();
        assert_eq!(tally, BeaconTally::default());
    }
}
