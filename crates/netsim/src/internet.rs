//! The `Internet` facade: routing decisions and latency measurements.
//!
//! This is the surface the rest of the workspace programs against. Given a
//! client attachment and a day, it answers the two questions the paper's
//! beacon asks of the real Internet:
//!
//! * *where does anycast take this client today?* ([`Internet::anycast_route`])
//! * *what would the RTT be to a specific unicast front-end?*
//!   ([`Internet::unicast_route`] + [`Internet::sample_rtt`])
//!
//! Routing is deterministic per `(client, day)`; measured RTTs add explicit
//! RNG-driven noise on top of the route's base RTT.
//!
//! One engine value answers every egress decision; the rest of a route —
//! the churn law's rank, the IGP pick, site failures, the hops and their
//! RTT — is written once on top of it. The rank is read at lookup, the same
//! way for either engine ([`crate::worldgen::dynamics`]), and so is when a
//! client's anycast route moves within a day ([`Internet::anycast_day`]).

use std::sync::Arc;

use anycast_geo::{GeoPoint, MetroId};
use rand::Rng;

use crate::bgp::{self, EgressDecision};
use crate::config::NetConfig;
use crate::ids::{AsId, BorderId, SiteId};
use crate::igp;
use crate::latency::{AccessTech, LatencyModel};
use crate::outage::OutageModel;
use crate::path::{Hop, HopKind, RoutePath};
use crate::sim::Day;
use crate::snapshot::RouteTally;
use crate::stream::{splitmix64, to_unit};
use crate::topology::Topology;
use crate::worldgen::dynamics::{flip_s, selection_rank};
use crate::worldgen::{self, CatchmentTable, PolicyWorld, RouteEntry, RouteEnv, CDN_NEXT};

/// A client's network attachment: which AS it sits in, at which metro, at
/// which exact location, over which access technology. The workload crate
/// produces one of these per client /24 prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientAttachment {
    /// The client's (eyeball) AS.
    pub as_id: AsId,
    /// Attachment metro (the ISP PoP serving the client).
    pub metro: MetroId,
    /// The client's actual location (within tens of km of the metro).
    pub location: GeoPoint,
    /// Access technology.
    pub access: AccessTech,
}

/// A resolved route: where traffic ingresses, which front-end serves it, how
/// it was handed off, and the noise-free base RTT. A plain value — the
/// hop-by-hop path is a function of it and the client
/// ([`Internet::path_of`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    /// CDN border router where traffic enters.
    pub ingress: BorderId,
    /// Serving front-end site.
    pub site: SiteId,
    /// Deterministic RTT in ms (propagation + hops + last mile + stable
    /// congestion); add [`Internet::sample_rtt`] noise for a measurement.
    pub base_rtt_ms: f64,
    /// Transit provider used, if any.
    pub via_transit: Option<AsId>,
    /// Metro where the client's ISP hands traffic to the transit provider
    /// (`None` for direct peering).
    pub handoff_metro: Option<MetroId>,
}

/// Longest path the route builder lays: access, ISP, transit, peering, CDN
/// backbone, front-end.
const MAX_HOPS: usize = 6;

/// Additional stretch on the transit-carried leg of a route. Prefixes
/// announced from a single location (the measurement /24s, §3.1) reach
/// most of the Internet via transit, whose paths detour through provider
/// hubs; direct peering avoids this. The asymmetry makes the *unicast*
/// probe to a distant front-end genuinely slower than anycast for
/// well-served clients — which is why the paper's daily "any
/// improvement" classification fires rarely for most prefixes.
const TRANSIT_DETOUR_STRETCH: f64 = 1.45;

/// Per-day probability that a border router's ingress→front-end mapping is
/// remapped to its runner-up site for that day (internal maintenance and
/// load management — the FastRoute-style interventions the paper cites).
/// These are the *anycast-only* one-day events behind Figure 6's
/// short-lived poor paths: unicast probes, pinned to their own sites, are
/// unaffected.
pub const P_IGP_EPISODE: f64 = 0.02;

/// The simulated Internet: topology + routing engine + failures + latency
/// under one roof.
///
/// ```
/// use anycast_netsim::{AccessTech, ClientAttachment, Day, Internet, NetConfig};
///
/// let net = Internet::new(NetConfig::small(), 7).unwrap();
/// let eyeball = net.topology().eyeballs().next().unwrap();
/// let client = ClientAttachment {
///     as_id: eyeball.id,
///     metro: eyeball.home_metro,
///     location: net.topology().atlas.metro(eyeball.home_metro).location(),
///     access: AccessTech::Cable,
/// };
/// let route = net.anycast_route(&client, Day(0));
/// assert!(route.base_rtt_ms > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Internet {
    topo: Topology,
    engine: Engine,
    outages: OutageModel,
    latency: LatencyModel,
    /// The world seed, which the churn law hashes as it is.
    seed: u64,
    episode_seed: u64,
}

/// The routing engine: the one value that answers every egress decision.
#[derive(Debug, Clone)]
enum Engine {
    /// Distance-ranked BGP over the generated topology ([`bgp`]).
    Distance,
    /// The policy-routed AS graph of a worldgen world and its catchment
    /// engine. Clones share the memoized catchment tables.
    Policy(Arc<PolicyWorld>),
}

/// The anycast catchment in force at one instant: what an [`Engine`]
/// decides a client's anycast egress from.
pub(crate) enum Catchment<'a> {
    /// The distance engine: every border but the `withdrawn` ones ranked
    /// by distance.
    Ranked { withdrawn: &'a [BorderId] },
    /// The policy engine: the valley-free catchment table of the
    /// environment in force.
    Table {
        world: &'a PolicyWorld,
        env: RouteEnv,
        table: Arc<CatchmentTable>,
    },
}

impl Catchment<'_> {
    /// Where `client`'s anycast traffic enters the CDN at egress-selection
    /// `rank`; `None` when its AS holds no route.
    fn egress(
        &self,
        topo: &Topology,
        client: &ClientAttachment,
        rank: usize,
    ) -> Option<EgressDecision> {
        match self {
            Catchment::Ranked { withdrawn } => Some(bgp::select_anycast_ingress(
                topo,
                rank,
                client.as_id,
                client.metro,
                withdrawn,
            )),
            Catchment::Table { world, env, table } => {
                let entry = table.entry(client.as_id.0)?;
                let ingress = world.ingress_at(table, env, client.as_id.0, rank)?;
                Some(table_egress(world, entry, ingress))
            }
        }
    }
}

/// The egress over a policy route `entry` that enters the CDN at
/// `ingress`: for a multi-hop AS path, the first-hop provider and its home
/// metro as the hand-off.
fn table_egress(world: &PolicyWorld, entry: RouteEntry, ingress: BorderId) -> EgressDecision {
    let (via_transit, handoff_metro) = if entry.next_hop == CDN_NEXT {
        (None, None)
    } else {
        let v1 = entry.next_hop;
        (Some(AsId(v1)), Some(world.graph.home_metro[v1 as usize]))
    };
    EgressDecision {
        ingress,
        via_transit,
        handoff_metro,
    }
}

impl Engine {
    /// The steady catchment: every border announces, every session is up.
    fn steady(&self) -> Catchment<'_> {
        match self {
            Engine::Distance => Catchment::Ranked { withdrawn: &[] },
            Engine::Policy(world) => Catchment::Table {
                world,
                env: RouteEnv::default(),
                table: world.steady_table(),
            },
        }
    }

    /// The catchment at `(day, time_s)` with the borders in `withdrawn`
    /// withdrawn, or `None` when that is the steady one.
    fn at<'a>(&'a self, day: Day, time_s: f64, withdrawn: &'a [BorderId]) -> Option<Catchment<'a>> {
        match self {
            Engine::Distance => (!withdrawn.is_empty()).then_some(Catchment::Ranked { withdrawn }),
            Engine::Policy(world) => {
                let env = world.env_at(day, time_s, withdrawn);
                (!env.is_steady()).then(|| Catchment::Table {
                    world,
                    table: world.table_for(&env),
                    env,
                })
            }
        }
    }

    /// Where `client`'s traffic to the unicast prefix announced only at
    /// `announcement` enters the CDN at egress-selection `rank`.
    fn unicast_egress(
        &self,
        topo: &Topology,
        client: &ClientAttachment,
        rank: usize,
        announcement: BorderId,
    ) -> EgressDecision {
        match self {
            Engine::Distance => {
                bgp::select_unicast_ingress(topo, rank, client.as_id, client.metro, announcement)
            }
            // The unicast prefix is announced only at the site's colocated
            // border (§3.1), which leaves no runner-up for the rank to move
            // to; its catchment table is computed once and shared by every
            // day.
            Engine::Policy(world) => {
                let entry = world
                    .unicast_table(announcement)
                    .entry(client.as_id.0)
                    .expect("unicast policy catchment routes every client AS");
                table_egress(world, entry, BorderId(entry.ingress))
            }
        }
    }
}

/// A client's anycast routing over one day ([`Internet::anycast_day`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnycastDay {
    /// The day's route, [`Internet::anycast_route`]: in force from the
    /// switch on, or all day when there is none.
    pub route: RouteDecision,
    /// When anycast moves the client during the day: the second of the day
    /// it moves at, and the route it leaves.
    pub switch: Option<(f64, RouteDecision)>,
}

impl AnycastDay {
    /// The route in force at second `time_s` of the day.
    pub fn at(&self, time_s: f64) -> &RouteDecision {
        match &self.switch {
            Some((at_s, before)) if time_s < *at_s => before,
            _ => &self.route,
        }
    }
}

impl Internet {
    /// Generates a world from configuration and seed.
    ///
    /// # Errors
    /// Returns a description of the violated constraint if `cfg` is invalid.
    pub fn new(cfg: NetConfig, seed: u64) -> Result<Internet, String> {
        cfg.validate()?;
        let (topo, engine) = if cfg.worldgen.is_some() {
            let (topo, world) = worldgen::build(&cfg, seed);
            (topo, Engine::Policy(Arc::new(world)))
        } else {
            (Topology::generate(&cfg, seed), Engine::Distance)
        };
        Ok(Internet {
            topo,
            engine,
            outages: OutageModel::new(&cfg, seed),
            latency: LatencyModel::new(cfg, seed),
            seed,
            episode_seed: seed ^ 0x6970_6765_7069,
        })
    }

    /// The policy-routing engine, present only in worldgen worlds.
    pub fn policy_world(&self) -> Option<&Arc<PolicyWorld>> {
        match &self.engine {
            Engine::Policy(world) => Some(world),
            Engine::Distance => None,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetConfig {
        self.latency.config()
    }

    /// The failure schedule (exposed for availability analyses).
    pub fn outages(&self) -> &OutageModel {
        &self.outages
    }

    /// The front-end sites that are down at `(day, time_s)`. Empty in every
    /// world that does not configure failure injection.
    pub fn down_sites(&self, day: Day, time_s: f64) -> Vec<SiteId> {
        if !self.outages.enabled() {
            return Vec::new();
        }
        self.topo
            .cdn
            .site_ids()
            .filter(|&s| self.outages.is_down(s, day, time_s))
            .collect()
    }

    /// Front-end site locations as `(site, location)` pairs — the catalog
    /// the beacon's candidate selection indexes.
    pub fn site_locations(&self) -> Vec<(SiteId, GeoPoint)> {
        self.topo
            .cdn
            .site_ids()
            .map(|s| {
                (
                    s,
                    self.topo
                        .atlas
                        .metro(self.topo.cdn.site_metro(s))
                        .location(),
                )
            })
            .collect()
    }

    /// Where anycast routes `client` on `day`: the steady catchment, with
    /// any churn flip scheduled that day in force for the *whole* day.
    /// Only [`Internet::anycast_day`] honors the flip's instant.
    ///
    /// In worldgen worlds this is the steady valley-free catchment — one
    /// shared table lookup, its ingress moved to the runner-up border on a
    /// flip day.
    pub fn anycast_route(&self, client: &ClientAttachment, day: Day) -> RouteDecision {
        self.anycast_route_from(client, self.access_km(client), day)
    }

    /// Great-circle km of `client`'s access leg, its own location to the
    /// center of its attachment metro: the one leg of a route that is not
    /// between two metro centers. It depends on the client alone, so
    /// [`RouteSnapshot`](crate::RouteSnapshot) computes it once for all of
    /// a client's targets.
    pub(crate) fn access_km(&self, client: &ClientAttachment) -> f64 {
        client
            .location
            .haversine_km(&self.topo.atlas.metro(client.metro).location())
    }

    /// [`Internet::anycast_route`] for a client whose
    /// [`access_km`](Internet::access_km) is already known.
    pub(crate) fn anycast_route_from(
        &self,
        client: &ClientAttachment,
        access_km: f64,
        day: Day,
    ) -> RouteDecision {
        self.anycast_under(&self.engine.steady(), client, access_km, day, &[])
            .expect("the steady catchment routes every client AS")
    }

    /// Whether and when anycast moves `client` during `day`, and from which
    /// route: the passive log's and the flow model's view of the day. A
    /// churn flip moves the client at its instant from the rank-0 route to
    /// [`Internet::anycast_route`]'s, in either engine; there is no switch
    /// on any other day. A policy world's windowed route dynamics are
    /// [`Internet::anycast_route_at`]'s.
    pub fn anycast_day(&self, client: &ClientAttachment, day: Day) -> AnycastDay {
        let access_km = self.access_km(client);
        let route = self.anycast_route_from(client, access_km, day);
        let switch = flip_s(self.seed, client.as_id, client.metro, day).and_then(|at_s| {
            // An excursion starts from the preferred route: rank 0.
            let egress = self.engine.steady().egress(&self.topo, client, 0)?;
            let site = self.igp_site(egress.ingress, day, &[])?;
            let before = self.build_decision(client, access_km, egress, site, day);
            (before != route).then_some((at_s, before))
        });
        AnycastDay { route, switch }
    }

    /// The churn law's egress-selection rank of `client` on `day`.
    pub(crate) fn rank(&self, client: &ClientAttachment, day: Day) -> usize {
        selection_rank(self.seed, client.as_id, client.metro, day)
    }

    /// The route of `client` under `catchment` with the sites in `down` out
    /// of service; `None` when its AS holds no route or every site is down.
    /// Every anycast decision, direct or memoized, is this call.
    pub(crate) fn anycast_under(
        &self,
        catchment: &Catchment,
        client: &ClientAttachment,
        access_km: f64,
        day: Day,
        down: &[SiteId],
    ) -> Option<RouteDecision> {
        let egress = catchment.egress(&self.topo, client, self.rank(client, day))?;
        let site = self.igp_site(egress.ingress, day, down)?;
        Some(self.build_decision(client, access_km, egress, site, day))
    }

    /// The front-end the IGP picks from `ingress` on `day` with `down` out
    /// of service: the runner-up on a maintenance-episode day.
    fn igp_site(&self, ingress: BorderId, day: Day, down: &[SiteId]) -> Option<SiteId> {
        let rank = usize::from(self.igp_episode_on(ingress, day));
        igp::select_site(&self.topo, ingress, rank, down)
    }

    /// Where anycast routes `client` at the instant `(day, time_s)`, with
    /// the failure schedule and the route dynamics in force. Like
    /// [`Internet::anycast_route`], a churn flip is in force for its whole
    /// day here.
    ///
    /// Returns `None` when the request is lost:
    ///
    /// * the client's steady route lands on a site that just suffered an
    ///   *unplanned* outage and BGP has not yet reconverged
    ///   ([`crate::outage::BGP_RECONVERGENCE_S`]), so packets still follow
    ///   the withdrawn announcement into the dead site; or
    /// * every front-end is down at once, or (worldgen worlds) the
    ///   client's AS holds no route in the instant's catchment.
    ///
    /// Otherwise the dead sites' borders are treated as having withdrawn
    /// the anycast announcement and selection re-runs over the survivors —
    /// one routing step later the client is served by its next-best
    /// catchment (§2). Maintenance drains are pre-announced, so routing
    /// has already moved by the window start and no request is ever lost.
    /// In a world without failure injection or route dynamics this is
    /// exactly [`Internet::anycast_route`].
    pub fn anycast_route_at(
        &self,
        client: &ClientAttachment,
        day: Day,
        time_s: f64,
    ) -> Option<RouteDecision> {
        let mut tally = RouteTally::default();
        let decision = self.anycast_route_tallied(client, day, time_s, &mut tally);
        tally.flush();
        decision
    }

    /// [`Internet::anycast_route_at`], its losses, failover reroutes and
    /// unrouted answers counted into `tally`.
    pub(crate) fn anycast_route_tallied(
        &self,
        client: &ClientAttachment,
        day: Day,
        time_s: f64,
        tally: &mut RouteTally,
    ) -> Option<RouteDecision> {
        let down = self.down_sites(day, time_s);
        // The steady *site* settles both the loss check and the reroute
        // count.
        let steady = self
            .engine
            .steady()
            .egress(&self.topo, client, self.rank(client, day))
            .expect("the steady catchment routes every client AS");
        let steady_site = self
            .igp_site(steady.ingress, day, &[])
            .expect("a CDN has sites");
        if down.contains(&steady_site) && self.outages.converging(steady_site, day, time_s) {
            tally.reconvergence_losses += 1;
            return None;
        }
        let withdrawn: Vec<BorderId> = down
            .iter()
            .map(|&s| self.topo.cdn.unicast_announcement_border(s))
            .collect();
        let access_km = self.access_km(client);
        let Some(catchment) = self.engine.at(day, time_s, &withdrawn) else {
            return Some(self.build_decision(client, access_km, steady, steady_site, day));
        };
        let decision = self.anycast_under(&catchment, client, access_km, day, &down);
        match &decision {
            Some(d) if d.site != steady_site => tally.failover_reroutes += 1,
            // The distance engine routes every AS; it reaches `None` only
            // with every site down, which is a loss, not an unrouted AS.
            None if matches!(catchment, Catchment::Table { .. }) => tally.policy_unrouted += 1,
            _ => {}
        }
        decision
    }

    /// The unicast route to `site` at the instant `(day, time_s)`: `None`
    /// while the site is down (its unicast prefix points at a dead machine
    /// for the *whole* window — there is no alternative announcement to
    /// fail over to, which is the §2 asymmetry against DNS redirection).
    pub fn unicast_route_at(
        &self,
        client: &ClientAttachment,
        site: SiteId,
        day: Day,
        time_s: f64,
    ) -> Option<RouteDecision> {
        if self.outages.is_down(site, day, time_s) {
            return None;
        }
        Some(self.unicast_route(client, site, day))
    }

    /// Whether `border`'s ingress→front-end mapping is diverted to its
    /// runner-up site on `day` (internal maintenance episode). Anycast-only:
    /// unicast prefixes are pinned to their sites.
    pub fn igp_episode_on(&self, border: BorderId, day: Day) -> bool {
        let key = (u64::from(border.0) << 32) | u64::from(day.0);
        to_unit(splitmix64(
            self.episode_seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )) < P_IGP_EPISODE
    }

    /// The route to `site`'s **unicast** prefix for `client` on `day`.
    pub fn unicast_route(
        &self,
        client: &ClientAttachment,
        site: SiteId,
        day: Day,
    ) -> RouteDecision {
        self.unicast_route_from(client, self.access_km(client), site, day)
    }

    /// [`Internet::unicast_route`] for a client whose
    /// [`access_km`](Internet::access_km) is already known.
    pub(crate) fn unicast_route_from(
        &self,
        client: &ClientAttachment,
        access_km: f64,
        site: SiteId,
        day: Day,
    ) -> RouteDecision {
        let announcement = self.topo.cdn.unicast_announcement_border(site);
        let egress =
            self.engine
                .unicast_egress(&self.topo, client, self.rank(client, day), announcement);
        let mut decision = self.build_decision(client, access_km, egress, site, day);
        // Single-prefix routes are often not the ISP's engineered best path.
        decision.base_rtt_ms += self
            .latency
            .unicast_path_penalty_ms(client.as_id, announcement);
        decision
    }

    /// Samples one measured RTT over a resolved route: base RTT plus
    /// jitter/spike/server noise.
    pub fn sample_rtt<R: Rng + ?Sized>(&self, decision: &RouteDecision, rng: &mut R) -> f64 {
        decision.base_rtt_ms + self.latency.sample_extra_ms(rng)
    }

    /// Convenience: unicast route to `site` + one RTT sample.
    pub fn measure_unicast<R: Rng + ?Sized>(
        &self,
        client: &ClientAttachment,
        site: SiteId,
        day: Day,
        rng: &mut R,
    ) -> f64 {
        let d = self.unicast_route(client, site, day);
        self.sample_rtt(&d, rng)
    }

    /// Great-circle distance from `client` to `site`, in km — the Figure 2/4
    /// quantity.
    pub fn client_site_km(&self, client: &ClientAttachment, site: SiteId) -> f64 {
        let s = self
            .topo
            .atlas
            .metro(self.topo.cdn.site_metro(site))
            .location();
        client.location.haversine_km(&s)
    }

    /// The hop-by-hop path (traceroute equivalent) `decision` takes from
    /// `client`: the hops its base RTT was charged for, rebuilt on demand.
    pub fn path_of(&self, client: &ClientAttachment, decision: &RouteDecision) -> RoutePath {
        let (laid, n) = self.lay_hops(
            client.metro,
            decision.handoff_metro,
            decision.ingress,
            decision.site,
        );
        let access = Hop {
            kind: HopKind::ClientAccess,
            metro: client.metro,
            location: client.location,
        };
        let at_center = |&(kind, metro): &(HopKind, MetroId)| Hop {
            kind,
            metro,
            location: self.topo.atlas.metro(metro).location(),
        };
        RoutePath::new(
            std::iter::once(access)
                .chain(laid[..n].iter().map(at_center))
                .collect(),
        )
    }

    /// Lays the hops of a route from `client_metro` that follow the
    /// client's own access hop, in order: each sits at the center of its
    /// metro. The first `.1` entries of `.0` are the path.
    fn lay_hops(
        &self,
        client_metro: MetroId,
        handoff_metro: Option<MetroId>,
        ingress: BorderId,
        site: SiteId,
    ) -> ([(HopKind, MetroId); MAX_HOPS - 1], usize) {
        // ISP backbone hop at the attachment metro center (distinct from the
        // client's own location).
        let mut hops = [(HopKind::IspBackbone, client_metro); MAX_HOPS - 1];
        let mut n = 1;
        let mut push = |kind: HopKind, metro: MetroId| {
            hops[n] = (kind, metro);
            n += 1;
        };
        if let Some(handoff) = handoff_metro.filter(|&h| h != client_metro) {
            push(HopKind::TransitBackbone, handoff);
        }
        let ingress_metro = self.topo.cdn.border_metro(ingress);
        push(HopKind::Peering, ingress_metro);
        let site_metro = self.topo.cdn.site_metro(site);
        if site_metro != ingress_metro {
            push(HopKind::CdnBackbone, site_metro);
        }
        push(HopKind::FrontEnd, site_metro);
        (hops, n)
    }

    /// The deterministic RTT of a route of `client`'s that is `path_km`
    /// long and enters at `ingress` on `day`, before any unicast path
    /// penalty.
    fn base_rtt_over(
        &self,
        path_km: f64,
        client: &ClientAttachment,
        handoff_metro: Option<MetroId>,
        ingress: BorderId,
        day: Day,
    ) -> f64 {
        // Transit-carried legs detour through provider hubs: charge the
        // extra stretch on the handoff→ingress leg.
        let extra_km = match handoff_metro {
            Some(handoff) => {
                let ingress_metro = self.topo.cdn.border_metro(ingress);
                let leg = self.topo.atlas.metro_km(handoff, ingress_metro);
                (TRANSIT_DETOUR_STRETCH - 1.0) * leg
            }
            None => 0.0,
        };
        self.latency
            .base_rtt_ms(path_km, client.access, client.as_id, ingress, day, extra_km)
    }

    fn build_decision(
        &self,
        client: &ClientAttachment,
        access_km: f64,
        egress: EgressDecision,
        site: SiteId,
        day: Day,
    ) -> RouteDecision {
        let (laid, n) = self.lay_hops(client.metro, egress.handoff_metro, egress.ingress, site);
        // The access leg, then each leg between two metro centers in hop
        // order: the additions `RoutePath::total_km` makes over the path
        // `path_of` rebuilds, so the two agree to the bit.
        let path_km: f64 = std::iter::once(access_km)
            .chain(
                laid[..n]
                    .windows(2)
                    .map(|w| self.topo.atlas.metro_km(w[0].1, w[1].1)),
            )
            .sum();
        RouteDecision {
            ingress: egress.ingress,
            site,
            base_rtt_ms: self.base_rtt_over(
                path_km,
                client,
                egress.handoff_metro,
                egress.ingress,
                day,
            ),
            via_transit: egress.via_transit,
            handoff_metro: egress.handoff_metro,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn world() -> Internet {
        Internet::new(NetConfig::small(), 42).unwrap()
    }

    fn client_at(net: &Internet, as_idx: usize) -> ClientAttachment {
        let e = net.topology().eyeballs().cycle().nth(as_idx).unwrap();
        let metro = e.home_metro;
        let loc = net
            .topology()
            .atlas
            .metro(metro)
            .location()
            .destination(45.0, 20.0);
        ClientAttachment {
            as_id: e.id,
            metro,
            location: loc,
            access: AccessTech::Cable,
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = NetConfig {
            p_site_drain: 2.0,
            ..NetConfig::small()
        };
        assert!(Internet::new(cfg, 1).is_err());
    }

    #[test]
    fn anycast_route_is_deterministic_per_day() {
        let net = world();
        let c = client_at(&net, 3);
        let a = net.anycast_route(&c, Day(2));
        let b = net.anycast_route(&c, Day(2));
        assert_eq!(a, b);
    }

    #[test]
    fn route_decision_is_a_small_plain_value() {
        // The campaign holds one decision per (client, target) per day.
        fn assert_copy<T: Copy>() {}
        assert_copy::<RouteDecision>();
        const _: () = assert!(std::mem::size_of::<RouteDecision>() <= 32);
    }

    #[test]
    fn path_starts_at_client_and_ends_at_site() {
        let net = world();
        for i in 0..10 {
            let c = client_at(&net, i);
            let d = net.anycast_route(&c, Day(0));
            let path = net.path_of(&c, &d);
            let hops = path.hops();
            assert_eq!(hops.first().unwrap().kind, HopKind::ClientAccess);
            assert_eq!(hops.last().unwrap().kind, HopKind::FrontEnd);
            assert_eq!(
                hops.last().unwrap().metro,
                net.topology().cdn.site_metro(d.site)
            );
        }
    }

    /// `day`'s probe instants: a steady grid plus the middle of every
    /// dynamics window and site down-window.
    fn probe_times(net: &Internet, day: Day) -> Vec<f64> {
        let mut times: Vec<f64> = (0..6).map(|k| f64::from(k) * 14_400.0 + 900.0).collect();
        if let Some(pw) = net.policy_world() {
            times.extend(
                pw.events_on(day)
                    .iter()
                    .map(|w| (w.start_s + w.end_s) / 2.0),
            );
        }
        for site in net.topology().cdn.site_ids() {
            if let Some(w) = net.outages().window_on(site, day) {
                times.push((w.start_s + w.end_s) / 2.0);
            }
        }
        times
    }

    #[test]
    fn path_of_rebuilds_the_hops_the_base_rtt_was_charged_for() {
        use crate::worldgen::WorldGenConfig;
        let failures = NetConfig {
            p_site_outage: 0.2,
            p_site_drain: 0.1,
            ..NetConfig::default()
        };
        let policy = NetConfig {
            worldgen: Some(WorldGenConfig {
                n_ases: 1000,
                p_session_flap: 0.2,
                p_border_flap: 0.1,
            }),
            ..failures.clone()
        };
        for cfg in [failures, policy] {
            let net = Internet::new(cfg, 17).unwrap();
            let hosts: Vec<crate::topology::EyeballAs> = net
                .topology()
                .eyeballs()
                .filter(|e| !e.pops.is_empty())
                .collect();
            let mut rerouted = 0;
            for (i, e) in hosts.iter().enumerate().take(40) {
                let metro = e.pops[i % e.pops.len()];
                let c = ClientAttachment {
                    as_id: e.id,
                    metro,
                    location: net
                        .topology()
                        .atlas
                        .metro(metro)
                        .location()
                        .destination(i as f64 * 41.0, 20.0),
                    access: AccessTech::sample((i as f64 * 0.173) % 1.0),
                };
                let day = Day(i as u32 % 3);
                let check = |d: &RouteDecision, unicast_penalty_ms: f64| {
                    let path = net.path_of(&c, d);
                    let hops = path.hops();
                    assert!(hops.len() <= MAX_HOPS);
                    assert_eq!(hops[0].kind, HopKind::ClientAccess);
                    assert_eq!(hops[0].location, c.location);
                    let last = hops.last().unwrap();
                    assert_eq!(last.kind, HopKind::FrontEnd);
                    assert_eq!(last.metro, net.topology().cdn.site_metro(d.site));
                    let rtt =
                        net.base_rtt_over(path.total_km(), &c, d.handoff_metro, d.ingress, day)
                            + unicast_penalty_ms;
                    assert_eq!(rtt.to_bits(), d.base_rtt_ms.to_bits());
                };
                let steady = net.anycast_route(&c, day);
                check(&steady, 0.0);
                for t in probe_times(&net, day) {
                    if let Some(d) = net.anycast_route_at(&c, day, t) {
                        rerouted += usize::from(d != steady);
                        check(&d, 0.0);
                    }
                }
                for site in net.topology().cdn.site_ids() {
                    let announcement = net.topology().cdn.unicast_announcement_border(site);
                    let penalty = net.latency.unicast_path_penalty_ms(c.as_id, announcement);
                    check(&net.unicast_route(&c, site, day), penalty);
                }
            }
            assert!(rerouted > 0, "no outage or dynamics instant moved a route");
        }
    }

    #[test]
    fn base_rtt_is_positive_and_reflects_path() {
        let net = world();
        for i in 0..20 {
            let c = client_at(&net, i);
            let d = net.anycast_route(&c, Day(0));
            assert!(d.base_rtt_ms > 0.0);
            // RTT must at least cover two-way propagation on the path.
            let min_prop =
                2.0 * net.path_of(&c, &d).total_km() * crate::latency::FIBER_PATH_STRETCH
                    / crate::latency::FIBER_KM_PER_MS;
            assert!(d.base_rtt_ms >= min_prop);
        }
    }

    #[test]
    fn sampled_rtt_exceeds_base() {
        let net = world();
        let c = client_at(&net, 1);
        let d = net.anycast_route(&c, Day(0));
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(net.sample_rtt(&d, &mut rng) > d.base_rtt_ms);
        }
    }

    #[test]
    fn unicast_route_serves_requested_site() {
        let net = world();
        let c = client_at(&net, 5);
        for site in net.topology().cdn.site_ids() {
            let d = net.unicast_route(&c, site, Day(0));
            assert_eq!(d.site, site);
        }
    }

    #[test]
    fn unicast_ingress_is_near_the_front_end() {
        // §3.1: unicast traffic ingresses near the front-end. The ingress
        // border must be much closer to the site than the client is (for
        // remote clients).
        let net = world();
        let c = client_at(&net, 7);
        for site in net.topology().cdn.site_ids() {
            let d = net.unicast_route(&c, site, Day(0));
            let site_loc = net
                .topology()
                .atlas
                .metro(net.topology().cdn.site_metro(site))
                .location();
            let ingress_loc = net
                .topology()
                .atlas
                .metro(net.topology().cdn.border_metro(d.ingress))
                .location();
            let ingress_to_site = ingress_loc.haversine_km(&site_loc);
            let client_to_site = c.location.haversine_km(&site_loc);
            if client_to_site > 3000.0 {
                assert!(
                    ingress_to_site < client_to_site,
                    "ingress {ingress_to_site} km vs client {client_to_site} km"
                );
            }
        }
    }

    #[test]
    fn anycast_prefers_nearby_sites_in_idealized_world() {
        // The pathology-free clients — no remote peering, no fixed egress,
        // no inflated IGP, no flip or IGP episode that day — should land
        // mostly on a front-end no farther than ~2x their nearest.
        let cfg = NetConfig {
            n_eyeball: 60,
            ..NetConfig::default()
        };
        let net = Internet::new(cfg, 7).unwrap();
        let topo = net.topology();
        let sites = net.site_locations();
        let mut optimal = 0;
        let mut total = 0;
        for (i, e) in topo.eyeballs().enumerate() {
            let c = client_at(&net, i);
            let d = net.anycast_route(&c, Day(0));
            let inflated = topo.cdn.igp_multiplier[d.ingress.0 as usize]
                .iter()
                .any(|&m| m != 1.0);
            if e.peering_borders.len() == 1
                || !matches!(e.egress_policy, crate::bgp::EgressPolicy::HotPotato)
                || inflated
                || net.anycast_day(&c, Day(0)).switch.is_some()
                || net.igp_episode_on(d.ingress, Day(0))
            {
                continue;
            }
            let nearest = sites
                .iter()
                .map(|(_, loc)| loc.haversine_km(&c.location))
                .fold(f64::INFINITY, f64::min);
            let chosen = net.client_site_km(&c, d.site);
            total += 1;
            if chosen <= nearest.max(50.0) * 2.0 + 200.0 {
                optimal += 1;
            }
        }
        assert!(total >= 20, "only {total} pathology-free clients");
        let frac = f64::from(optimal) / f64::from(total);
        assert!(frac > 0.8, "only {frac} of idealized clients near-optimal");
    }

    /// The day query over the small, default, failure and 1k-AS policy
    /// worlds: it answers only on flip days of flappy attachments, moves
    /// the client at an instant inside the day from its rank-0 route — the
    /// distance ranking's first candidate, or the policy table's own entry
    /// — and its day's route is `anycast_route`, in either engine.
    #[test]
    fn anycast_day_switches_only_on_flip_days_from_the_rank_zero_route() {
        use crate::worldgen::dynamics::{flips_on, is_flappy};
        use crate::worldgen::WorldGenConfig;
        let failures = NetConfig {
            p_site_outage: 0.3,
            p_site_drain: 0.15,
            ..NetConfig::small()
        };
        let policy = NetConfig {
            worldgen: Some(WorldGenConfig::with_ases(1_000)),
            ..NetConfig::small()
        };
        for cfg in [NetConfig::small(), NetConfig::default(), failures, policy] {
            let mut switches = 0;
            for seed in 0..8 {
                let net = Internet::new(cfg.clone(), seed).unwrap();
                for i in 0..24 {
                    let c = client_at(&net, i);
                    for day in Day(0).span(14) {
                        let today = net.anycast_day(&c, day);
                        assert_eq!(today.route, net.anycast_route(&c, day));
                        let Some((at_s, before)) = today.switch else {
                            continue;
                        };
                        assert!(is_flappy(seed, c.as_id, c.metro));
                        assert!(flips_on(seed, c.as_id, c.metro, day));
                        assert!((0.0..86_400.0).contains(&at_s));
                        let egress = match net.policy_world() {
                            None => {
                                bgp::select_anycast_ingress(&net.topo, 0, c.as_id, c.metro, &[])
                            }
                            Some(pw) => {
                                let entry = pw.steady_table().entry(c.as_id.0).unwrap();
                                table_egress(pw, entry, BorderId(entry.ingress))
                            }
                        };
                        let site = net.igp_site(egress.ingress, day, &[]).unwrap();
                        let access_km = net.access_km(&c);
                        assert_eq!(before, net.build_decision(&c, access_km, egress, site, day));
                        assert_eq!(*today.at(at_s - 1e-6), before);
                        assert_eq!(*today.at(at_s), today.route);
                        switches += 1;
                    }
                }
            }
            assert!(switches > 100, "only {switches} switches");
        }
    }

    #[test]
    fn measure_helpers_agree_with_routes() {
        let net = world();
        let c = client_at(&net, 2);
        let site = net.anycast_route(&c, Day(0)).site;
        let base = net.unicast_route(&c, site, Day(0)).base_rtt_ms;
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(net.measure_unicast(&c, site, Day(0), &mut rng) > base);
    }

    #[test]
    fn client_site_km_is_geodesic() {
        let net = world();
        let c = client_at(&net, 0);
        for (site, loc) in net.site_locations() {
            assert!((net.client_site_km(&c, site) - c.location.haversine_km(&loc)).abs() < 1e-9);
        }
    }

    #[test]
    fn route_at_matches_route_without_failures() {
        let net = world();
        for i in 0..8 {
            let c = client_at(&net, i);
            for day in Day(0).span(3) {
                for t in [0.0, 30_000.0, 80_000.0] {
                    assert_eq!(
                        net.anycast_route_at(&c, day, t),
                        Some(net.anycast_route(&c, day))
                    );
                    let site = net.topology().cdn.site_ids().next().unwrap();
                    assert_eq!(
                        net.unicast_route_at(&c, site, day, t),
                        Some(net.unicast_route(&c, site, day))
                    );
                }
            }
        }
    }

    fn failure_world() -> Internet {
        let cfg = NetConfig {
            p_site_outage: 0.3,
            p_site_drain: 0.15,
            ..NetConfig::small()
        };
        Internet::new(cfg, 11).unwrap()
    }

    #[test]
    fn failover_routes_avoid_down_sites() {
        let net = failure_world();
        for i in 0..10 {
            let c = client_at(&net, i);
            for day in Day(0).span(10) {
                for t in [10_000.0, 40_000.0, 70_000.0] {
                    if let Some(d) = net.anycast_route_at(&c, day, t) {
                        assert!(
                            !net.outages().is_down(d.site, day, t),
                            "client routed to a down site"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unicast_to_down_site_fails_for_the_whole_window() {
        let net = failure_world();
        let c = client_at(&net, 0);
        let (site, day, w) = net
            .topology()
            .cdn
            .site_ids()
            .flat_map(|s| Day(0).span(30).map(move |d| (s, d)))
            .find_map(|(s, d)| net.outages().window_on(s, d).map(|w| (s, d, w)))
            .expect("failure world schedules some window");
        let mid = (w.start_s + w.end_s) / 2.0;
        assert_eq!(net.unicast_route_at(&c, site, day, mid), None);
        if w.end_s < 86_000.0 {
            assert!(net.unicast_route_at(&c, site, day, w.end_s + 1.0).is_some());
        }
    }

    #[test]
    fn unplanned_outage_blackholes_then_fails_over_in_one_step() {
        use crate::outage::OutageKind;
        let net = failure_world();
        let reconv = crate::outage::BGP_RECONVERGENCE_S;
        // Find a client whose steady route lands on a site with an
        // unplanned outage that day.
        let found = (0..net.topology().eyeballs().len()).find_map(|i| {
            let c = client_at(&net, i);
            Day(0).span(30).find_map(|day| {
                let steady = net.anycast_route(&c, day);
                match net.outages().window_on(steady.site, day) {
                    Some(w) if w.kind == OutageKind::Unplanned && w.end_s < 86_000.0 => {
                        Some((c, day, steady, w))
                    }
                    _ => None,
                }
            })
        });
        let (c, day, steady, w) = found.expect("some client is hit by an unplanned outage");
        // During reconvergence: the stale route blackholes.
        assert_eq!(net.anycast_route_at(&c, day, w.start_s + 1.0), None);
        // One routing step later: served by a different, live site.
        let after = net
            .anycast_route_at(&c, day, w.start_s + reconv + 1.0)
            .expect("failover route exists");
        assert_ne!(after.site, steady.site);
        assert!(!net
            .outages()
            .is_down(after.site, day, w.start_s + reconv + 1.0));
    }

    #[test]
    fn same_seed_same_world_same_routes() {
        let a = Internet::new(NetConfig::small(), 5).unwrap();
        let b = Internet::new(NetConfig::small(), 5).unwrap();
        for i in 0..10 {
            let ca = client_at(&a, i);
            let cb = client_at(&b, i);
            assert_eq!(
                a.anycast_route(&ca, Day(3)).site,
                b.anycast_route(&cb, Day(3)).site
            );
        }
    }
}
