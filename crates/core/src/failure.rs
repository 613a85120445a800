//! Graceful degradation under front-end failures: anycast failover vs DNS
//! redirection staleness.
//!
//! §2's core availability argument: "in the event of the failure of the
//! front-end, BGP fails over to the next best front-end" with no
//! client-visible action, whereas DNS redirection "can take a long time to
//! take effect" because "clients and client LDNS servers … cache DNS
//! records". This module makes both halves of that argument executable:
//!
//! * [`anycast_request`] — a client request over the anycast VIP at an
//!   instant, honoring the netsim's failure schedule: it fails only inside
//!   a dead site's BGP reconvergence window, after which routing has
//!   already failed the client over to the next-best live site;
//! * [`DnsRedirectionSim`] — a client request under classic DNS
//!   redirection: a health-checked authority always answers a *live*
//!   front-end, but the answer is cached for a TTL, and a site that dies
//!   mid-TTL takes its cached clients down with it until their answers
//!   expire.
//!
//! Both paths route through a per-day [`RouteSnapshot`] and are
//! deterministic — outcomes use the route's `base_rtt_ms`, no RNG — so the
//! bench experiments can sweep outage rate and TTL and get reproducible
//! availability numbers. Each request is one lookup, and flushes that
//! lookup's [`RouteTally`] before it returns.

use anycast_geo::{GeoPoint, NearestIndex};
use anycast_netsim::stream::FastMap;
use anycast_netsim::{Day, Internet, RouteSnapshot, RouteTally, SiteId};

/// Why a request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureReason {
    /// No live front-end was reachable at all (every site down, or the
    /// health-checked authority had nothing to answer).
    NoLiveRoute,
    /// The client's anycast catchment site died and BGP has not yet
    /// reconverged around the withdrawal — the §2 "one routing step" of
    /// loss anycast pays.
    Converging,
    /// The client's cached DNS answer points at a front-end that has gone
    /// down mid-TTL — the staleness window DNS redirection pays.
    StaleDnsAnswer,
}

/// The outcome of one simulated client request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestOutcome {
    /// The request was served.
    Served {
        /// Front-end that served it.
        site: SiteId,
        /// Deterministic round-trip time, ms.
        rtt_ms: f64,
    },
    /// The request was lost.
    Failed(FailureReason),
}

impl RequestOutcome {
    /// Whether the request was served.
    pub fn served(&self) -> bool {
        matches!(self, RequestOutcome::Served { .. })
    }

    /// The failure reason, if the request failed.
    pub fn reason(&self) -> Option<FailureReason> {
        match self {
            RequestOutcome::Served { .. } => None,
            RequestOutcome::Failed(r) => Some(*r),
        }
    }
}

/// One client request over the anycast VIP at `time_s` of the day
/// `routes` was built for. `client` indexes the snapshot's population.
///
/// Anycast clients take no action on failure: either routing has already
/// steered them to a live site (served), or their catchment's announcement
/// was just withdrawn and they blackhole until BGP reconverges
/// ([`FailureReason::Converging`]).
pub fn anycast_request(
    internet: &Internet,
    routes: &RouteSnapshot,
    client: usize,
    time_s: f64,
) -> RequestOutcome {
    let mut tally = RouteTally::default();
    let route = routes.anycast_at(internet, client, time_s, &mut tally);
    let converging = tally.reconvergence_losses > 0;
    tally.flush();
    match route {
        Some(d) => RequestOutcome::Served {
            site: d.site,
            rtt_ms: d.base_rtt_ms,
        },
        None if converging => RequestOutcome::Failed(FailureReason::Converging),
        None => RequestOutcome::Failed(FailureReason::NoLiveRoute),
    }
}

/// `n` evenly spaced request instants across a day, offset off the exact
/// boundaries (deterministic; shared by the failure experiments).
pub fn request_times(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 + 0.5) * 86_400.0 / n as f64)
        .collect()
}

/// Classic DNS redirection under failures.
///
/// The authority is health-checked: at resolution time it always answers
/// the unicast address of the *live* front-end nearest the client. The
/// answer is cached for `ttl_s` seconds (client + LDNS caches collapsed
/// into one, kept per client /24). A front-end that dies mid-TTL strands
/// its cached clients ([`FailureReason::StaleDnsAnswer`]) until their
/// entries expire and re-resolution steers them to a live site — exactly
/// the recovery lag §2 holds against DNS redirection.
#[derive(Debug)]
pub struct DnsRedirectionSim<'a> {
    internet: &'a Internet,
    /// The sites in id order, so distance ties go to the lower id.
    sites: NearestIndex<SiteId>,
    ttl_s: f64,
    /// Each client's cached answer and when it expires, by the client's
    /// index in the snapshots' population.
    cache: Vec<Option<(SiteId, f64)>>,
    /// Every site by distance from a client location (its coordinates'
    /// bits), nearest first, ties on site id: ranked once, read at every
    /// resolution from there.
    rankings: FastMap<(u64, u64), Box<[SiteId]>>,
}

impl<'a> DnsRedirectionSim<'a> {
    /// Creates the simulator with the given answer TTL (seconds).
    pub fn new(internet: &'a Internet, ttl_s: f64) -> DnsRedirectionSim<'a> {
        DnsRedirectionSim {
            internet,
            sites: NearestIndex::new(internet.site_locations()),
            ttl_s,
            cache: Vec::new(),
            rankings: FastMap::default(),
        }
    }

    /// The nearest front-end to `loc` that is up at `(day, time_s)` —
    /// what the health-checked authority answers. Ties break on site id.
    fn resolve(&mut self, loc: &GeoPoint, day: Day, time_s: f64) -> Option<SiteId> {
        let at = (loc.lat_deg().to_bits(), loc.lon_deg().to_bits());
        let sites = &self.sites;
        let ranking = self.rankings.entry(at).or_insert_with(|| {
            let by_km = sites.k_nearest(loc, sites.len());
            by_km.into_iter().map(|(s, _)| s).collect()
        });
        let outages = self.internet.outages();
        ranking
            .iter()
            .copied()
            .find(|&s| !outages.is_down(s, day, time_s))
    }

    /// The site the client uses at `(day, time_s)`: the cached answer if
    /// still within TTL, else a fresh health-checked resolution (which is
    /// cached). `None` when nothing is live to answer.
    fn answer_site(
        &mut self,
        client: usize,
        loc: &GeoPoint,
        day: Day,
        time_s: f64,
    ) -> Option<SiteId> {
        let now = f64::from(day.0) * 86_400.0 + time_s;
        if client >= self.cache.len() {
            self.cache.resize(client + 1, None);
        }
        let cached = self.cache[client]
            .filter(|&(_, expires)| expires > now)
            .map(|(site, _)| site);
        match cached {
            Some(site) => Some(site),
            None => {
                let site = self.resolve(loc, day, time_s)?;
                self.cache[client] = Some((site, now + self.ttl_s));
                Some(site)
            }
        }
    }

    /// One request from client `client` — an index into the population of
    /// `routes`, the same client in every snapshot — at `time_s` of the
    /// day `routes` was built for. Time must not go backwards across calls
    /// for a given client (cache expiry is absolute experiment time).
    pub fn request(
        &mut self,
        routes: &RouteSnapshot,
        client: usize,
        time_s: f64,
    ) -> RequestOutcome {
        let day = routes.day();
        let loc = routes.attachment(client).location;
        let Some(site) = self.answer_site(client, &loc, day, time_s) else {
            return RequestOutcome::Failed(FailureReason::NoLiveRoute);
        };
        let mut tally = RouteTally::default();
        let route = routes.unicast_at(self.internet, client, site, time_s, &mut tally);
        tally.flush();
        match route {
            Some(d) => RequestOutcome::Served {
                site,
                rtt_ms: d.base_rtt_ms,
            },
            // The answer was live when cached; the site died under it.
            None => RequestOutcome::Failed(FailureReason::StaleDnsAnswer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_netsim::{ClientAttachment, EyeballAs, NetConfig, OutageKind, OutageWindow};

    fn failure_world() -> Internet {
        let cfg = NetConfig {
            p_site_outage: 0.3,
            p_site_drain: 0.15,
            ..NetConfig::small()
        };
        Internet::new(cfg, 11).unwrap()
    }

    fn attachment(internet: &Internet, e: EyeballAs) -> ClientAttachment {
        ClientAttachment {
            as_id: e.id,
            metro: e.home_metro,
            location: internet.topology().atlas.metro(e.home_metro).location(),
            access: anycast_netsim::AccessTech::Cable,
        }
    }

    /// First unplanned outage whose window leaves room on both sides, with
    /// a client whose steady-state anycast catchment is the dying site.
    fn unplanned_outage_with_victim(
        internet: &Internet,
    ) -> Option<(SiteId, Day, OutageWindow, ClientAttachment)> {
        let n = internet.topology().cdn.sites.len() as u16;
        for day in 0..40u32 {
            for s in 0..n {
                let site = SiteId(s);
                let Some(win) = internet.outages().window_on(site, Day(day)) else {
                    continue;
                };
                if win.kind != OutageKind::Unplanned || win.start_s < 400.0 || win.end_s > 86_000.0
                {
                    continue;
                }
                for e in internet.topology().eyeballs() {
                    let c = attachment(internet, e);
                    if internet.anycast_route(&c, Day(day)).site == site {
                        return Some((site, Day(day), win, c));
                    }
                }
            }
        }
        None
    }

    #[test]
    fn failure_free_world_always_serves() {
        let internet = Internet::new(NetConfig::small(), 3).unwrap();
        let clients = [attachment(
            &internet,
            internet.topology().eyeballs().next().unwrap(),
        )];
        let routes = RouteSnapshot::build(&internet, &clients, Day(0));
        let mut dns = DnsRedirectionSim::new(&internet, 300.0);
        for &t in &request_times(8) {
            assert!(anycast_request(&internet, &routes, 0, t).served());
            assert!(dns.request(&routes, 0, t).served());
        }
    }

    #[test]
    fn anycast_fails_only_while_converging_then_recovers_in_one_step() {
        let internet = failure_world();
        let (site, day, win, c) =
            unplanned_outage_with_victim(&internet).expect("an unplanned outage with a victim");
        let clients = [c];
        let routes = RouteSnapshot::build(&internet, &clients, day);
        let reconv = anycast_netsim::outage::BGP_RECONVERGENCE_S;
        // Mid-convergence: the withdrawal is still propagating — blackhole.
        let during = anycast_request(&internet, &routes, 0, win.start_s + reconv * 0.5);
        assert_eq!(during.reason(), Some(FailureReason::Converging));
        // One routing step later: served by a different, live site.
        let after = anycast_request(&internet, &routes, 0, win.start_s + reconv + 1.0);
        match after {
            RequestOutcome::Served { site: s, .. } => {
                assert_ne!(s, site);
                assert!(!internet
                    .outages()
                    .is_down(s, day, win.start_s + reconv + 1.0));
            }
            RequestOutcome::Failed(r) => panic!("expected failover, got {r:?}"),
        }
        // Before the outage: served by the (then healthy) catchment site.
        let before = anycast_request(&internet, &routes, 0, win.start_s - 1.0);
        assert_eq!(
            before,
            RequestOutcome::Served {
                site,
                rtt_ms: match before {
                    RequestOutcome::Served { rtt_ms, .. } => rtt_ms,
                    _ => unreachable!(),
                }
            }
        );
    }

    /// A client whose nearest front-end (what the authority answers when
    /// everything is healthy) is the given site.
    fn client_nearest_to(internet: &Internet, site: SiteId) -> Option<ClientAttachment> {
        let sites = internet.site_locations();
        internet
            .topology()
            .eyeballs()
            .map(|e| attachment(internet, e))
            .find(|c| {
                sites
                    .iter()
                    .map(|&(s, loc)| (s, loc.haversine_km(&c.location)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                    .map(|(s, _)| s)
                    == Some(site)
            })
    }

    #[test]
    fn dns_clients_fail_until_ttl_expiry_then_re_resolve() {
        let internet = failure_world();
        let (site, day, win, _) =
            unplanned_outage_with_victim(&internet).expect("an unplanned outage");
        let c = client_nearest_to(&internet, site).expect("a client homed on the dying site");
        let clients = [c];
        let routes = RouteSnapshot::build(&internet, &clients, day);
        let ttl = 300.0;
        let mut dns = DnsRedirectionSim::new(&internet, ttl);
        // Resolved shortly before the outage: the healthy nearest site.
        let t0 = win.start_s - 10.0;
        assert_eq!(
            dns.request(&routes, 0, t0),
            RequestOutcome::Served {
                site,
                rtt_ms: internet.unicast_route(&clients[0], site, day).base_rtt_ms
            }
        );
        // Mid-outage, answer still cached: stale — and stays stale well
        // after anycast has already reconverged.
        let t1 = win.start_s + anycast_netsim::outage::BGP_RECONVERGENCE_S + 10.0;
        assert!(t1 - t0 < ttl, "probe must land inside the cached TTL");
        assert_eq!(
            dns.request(&routes, 0, t1).reason(),
            Some(FailureReason::StaleDnsAnswer)
        );
        // After expiry: re-resolution health-checks and picks a live site.
        let t2 = t0 + ttl + 1.0;
        assert!(
            t2 < win.end_s,
            "re-resolution probe still inside the outage"
        );
        match dns.request(&routes, 0, t2) {
            RequestOutcome::Served { site: s, .. } => assert_ne!(s, site),
            RequestOutcome::Failed(r) => panic!("expected re-resolved answer, got {r:?}"),
        }
    }

    #[test]
    fn resolution_answers_the_nearest_live_site() {
        // The authority's memoised ranking against a brute-force one: the
        // nearest site up at the instant, distance ties to the lower id.
        let internet = failure_world();
        let sites = internet.site_locations();
        let mut sim = DnsRedirectionSim::new(&internet, 300.0);
        for e in internet.topology().eyeballs().step_by(5) {
            let loc = attachment(&internet, e).location;
            for day in (0..4).map(Day) {
                for time_s in request_times(6) {
                    let up = |&&(s, _): &&(SiteId, GeoPoint)| {
                        !internet.outages().is_down(s, day, time_s)
                    };
                    let nearest = sites.iter().filter(up).min_by(|a, b| {
                        let (da, db) = (a.1.haversine_km(&loc), b.1.haversine_km(&loc));
                        da.total_cmp(&db).then(a.0.cmp(&b.0))
                    });
                    let want = nearest.map(|&(s, _)| s);
                    assert_eq!(
                        sim.resolve(&loc, day, time_s),
                        want,
                        "{loc:?} {day:?} {time_s}"
                    );
                }
            }
        }
    }

    #[test]
    fn request_times_are_in_range_and_sorted() {
        let times = request_times(48);
        assert_eq!(times.len(), 48);
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(times[0] > 0.0 && times[47] < 86_400.0);
    }
}
