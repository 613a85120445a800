//! Supplementary experiments beyond the paper's figures.
//!
//! Claims the paper makes in prose get quantified here:
//!
//! * [`ldns_distance`] — §3.3's justification for using LDNS location:
//!   "excluding 8% of demand from public resolvers, only 11-12% of demand
//!   comes from clients who are further than 500km from their LDNS";
//! * [`tcp_disruption`] — §2's "the Web … is dominated by short flows,
//!   this does not appear to be an issue in practice";
//! * [`load_shedding`] — §2's "simply withdrawing the route … can lead to
//!   cascading overloading of nearby front-ends", versus gradual shedding;
//! * [`ecs_adoption`] — §7's deployment caveat: prediction only reaches
//!   clients whose resolvers forward ECS;
//! * [`failover`] — §2's availability argument: anycast fails over in one
//!   routing step while DNS redirection serves stale answers until TTL
//!   expiry.

use std::collections::BTreeMap;

use anycast_analysis::cdf::{log2_grid, Ecdf};
use anycast_analysis::report::Series;
use anycast_control::capacity::{busiest, withdraw};
use anycast_control::CapacityPlan;
use anycast_core::flows::{disruption_rate, FlowModel};
use anycast_core::{
    anycast_request, request_times, DnsRedirectionSim, EvalRow, FailureReason, Grouping,
    PredictorConfig,
};
use anycast_dns::ResolverKind;
use anycast_geo::GeoPoint;
use anycast_netsim::{Day, SiteId};
use anycast_workload::Scenario;

use crate::trial::{replay, Shares, Trial};
use crate::worlds::{figure_days, rng_for, scenario, scenario_config, Scale};
use crate::FigureResult;

/// Client-to-LDNS distance, split by resolver population.
pub fn ldns_distance(scale: Scale, seed: u64) -> FigureResult {
    let s = scenario(scale, seed);
    let mut isp: Vec<(f64, f64)> = Vec::new();
    let mut public: Vec<(f64, f64)> = Vec::new();
    for (i, c) in s.clients.iter().enumerate() {
        let r = s.ldns.resolver(s.ldns.resolver_of(i));
        let d = c.attachment.location.haversine_km(&r.location);
        let entry = (d.max(1.0), c.volume as f64);
        match r.kind {
            ResolverKind::IspLocal => isp.push(entry),
            ResolverKind::Public => public.push(entry),
        }
    }
    let grid = log2_grid(16.0, 16_384.0, 1);
    let isp_ecdf = Ecdf::from_weighted(isp.iter().copied());
    let public_ecdf = Ecdf::from_weighted(public.iter().copied());
    let total_w: f64 = isp.iter().chain(&public).map(|&(_, w)| w).sum();
    let public_w: f64 = public.iter().map(|&(_, w)| w).sum();

    FigureResult {
        id: "extra-ldns-distance",
        title: "Client-to-LDNS distance by resolver population (§3.3)".into(),
        x_label: "distance (km, log grid)".into(),
        series: vec![
            Series::new("ISP resolvers", isp_ecdf.cdf_series(&grid)),
            Series::new("Public resolvers", public_ecdf.cdf_series(&grid)),
        ],
        scalars: vec![
            (
                "ISP demand farther than 500 km from LDNS".to_string(),
                isp_ecdf.fraction_above(500.0),
            ),
            (
                "public-resolver demand share".to_string(),
                public_w / total_w,
            ),
        ],
        text: None,
    }
}

/// Broken-flow fraction as flow durations grow from web to video scale.
pub fn tcp_disruption(scale: Scale, seed: u64) -> FigureResult {
    let s = scenario(scale, seed);
    let mut rng = rng_for(seed, 0xecf1);
    let mut points = Vec::new();
    for median_s in [0.5, 1.5, 10.0, 60.0, 300.0, 1800.0] {
        let model = FlowModel {
            duration_median_s: median_s,
            duration_sigma: 1.0,
        };
        let stats = disruption_rate(&s, Day(0), model, 5, &mut rng);
        points.push((median_s, stats.broken_fraction()));
    }
    let web = points[1].1;
    let video = points[4].1;
    FigureResult {
        id: "extra-tcp-disruption",
        title: "Flows broken by anycast route changes vs flow duration (§2)".into(),
        x_label: "median flow duration (s)".into(),
        series: vec![Series::new("broken fraction", points)],
        scalars: vec![
            ("web-scale flows broken".to_string(), web),
            ("video-scale flows broken".to_string(), video),
        ],
        text: None,
    }
}

/// Gradual shedding vs route withdrawal as headroom shrinks.
pub fn load_shedding(scale: Scale, seed: u64) -> FigureResult {
    let s = scenario(scale, seed);
    // Offered load per site: volume-weighted anycast routing of the
    // population. Every site is listed, idle ones too: they take spill.
    let locations: BTreeMap<SiteId, GeoPoint> = s.internet.site_locations().into_iter().collect();
    let mut traffic: BTreeMap<SiteId, f64> = locations.keys().map(|&site| (site, 0.0)).collect();
    for c in &s.clients {
        let route = s.internet.anycast_route(&c.attachment, Day(0));
        *traffic.entry(route.site).or_default() += c.volume as f64;
    }
    let victim =
        busiest(traffic.iter().map(|(&site, &load)| (site, load))).expect("the fleet has a site");
    let mean = traffic.values().sum::<f64>() / locations.len().max(1) as f64;

    let mut shed_pts = Vec::new();
    let mut withdraw_pts = Vec::new();
    for factor in [1.2, 1.5, 2.0, 3.0, 5.0] {
        // Every site gets `factor × mean load`.
        let mut plan = CapacityPlan::new();
        for &site in locations.keys() {
            plan.set(site, factor * mean);
        }
        let mut shed = traffic.clone();
        plan.spill(&mut shed, &locations);
        shed_pts.push((factor, plan.overload(&shed)));
        let mut withdrawn = traffic.clone();
        withdraw(&mut withdrawn, &locations, victim);
        withdraw_pts.push((factor, plan.overload(&withdrawn)));
    }
    let shed_at_2 = shed_pts[2].1;
    let withdraw_at_2 = withdraw_pts[2].1;
    FigureResult {
        id: "extra-load-shed",
        title: "Residual overload: gradual shedding vs withdrawing the busiest site (§2)".into(),
        x_label: "capacity factor (× mean load)".into(),
        series: vec![
            Series::new("after gradual shedding", shed_pts),
            Series::new("after withdrawal", withdraw_pts),
        ],
        scalars: vec![
            (
                "residual overload after shedding (2× capacity)".to_string(),
                shed_at_2,
            ),
            (
                "residual overload after withdrawal (2× capacity)".to_string(),
                withdraw_at_2,
            ),
        ],
        text: None,
    }
}

/// ECS adoption sweep — the §7 deployment discussion, quantified.
///
/// "Clients using their ISPs' LDNS cannot benefit unless the ISPs enable
/// ECS and the CDN supports ECS requests from the LDNS." We sweep the
/// fraction of ISP resolvers that attach ECS; at each level we train the
/// ECS predictor and evaluate it, counting only clients whose resolver
/// actually forwards their subnet — everyone else stays on anycast.
pub fn ecs_adoption(scale: Scale, seed: u64) -> FigureResult {
    let mut reach_pts = Vec::new();
    let mut improved_pts = Vec::new();
    for adoption in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut cfg = scenario_config(scale, seed);
        cfg.ldns.isp_ecs_fraction = adoption;
        let trial = Trial::run(Scenario::build(cfg).expect("valid adoption config"), 2);

        // ECS reach: share of demand whose resolver forwards its subnet.
        let s = trial.scenario();
        let forwards_ecs = |client| s.ldns.resolver(s.ldns.resolver_of(client)).supports_ecs;
        let total_volume: f64 = s.clients.iter().map(|c| c.volume as f64).sum();
        let reachable: f64 = (0..s.clients.len())
            .filter(|&i| forwards_ecs(i))
            .map(|i| s.clients[i].volume as f64)
            .sum();
        reach_pts.push((adoption, reachable / total_volume));

        // Prediction benefit, counting unreachable clients as unchanged.
        let table = trial.train(PredictorConfig::default(), Day(0));
        let mut rows = trial.rows(&table, Grouping::Ecs, Day(1));
        let ecs_reaches = |row: &EvalRow| s.client_index(row.prefix).is_some_and(forwards_ecs);
        for row in rows.iter_mut().filter(|row| !ecs_reaches(row)) {
            // No ECS from this client's resolver: the prediction cannot
            // reach it; it stays on anycast.
            row.improvement_p50_ms = 0.0;
            row.improvement_p75_ms = 0.0;
        }
        improved_pts.push((adoption, Shares::of(&rows).improved));
    }

    FigureResult {
        id: "extra-ecs-adoption",
        title: "ECS adoption by ISP resolvers vs prediction reach (§7)".into(),
        x_label: "ISP resolver ECS adoption".into(),
        series: vec![
            Series::new("demand reachable via ECS", reach_pts),
            Series::new("weighted share improved (p75)", improved_pts),
        ],
        scalars: Vec::new(),
        text: None,
    }
}

/// Availability under front-end failures: anycast failover vs DNS TTL (§2).
///
/// "In the event of the failure of the front-end, BGP fails over to the
/// next best front-end" — while DNS redirection "can take a long time to
/// take effect" because answers sit in caches for a TTL. We build a world
/// with scheduled front-end outages, replay the same deterministic probe
/// schedule against (a) the anycast VIP and (b) a health-checked DNS
/// authority at a range of TTLs, and count the fraction of requests lost.
/// Anycast's loss is bounded by the BGP reconvergence window and is
/// independent of any cache; DNS loss grows with the TTL because a
/// front-end that dies mid-TTL strands every client still holding its
/// answer.
pub fn failover(scale: Scale, seed: u64) -> FigureResult {
    const TTLS_S: [f64; 6] = [30.0, 60.0, 120.0, 300.0, 1_200.0, 3_600.0];
    let mut cfg = scenario_config(scale, seed);
    cfg.net.p_site_outage = 0.25;
    cfg.net.p_site_drain = 0.1;
    let s = Scenario::build(cfg).expect("valid failure config");
    let days = figure_days(scale, 10);
    // Probes are spaced 900 s apart; TTLs above that (1 200 s, 3 600 s)
    // exercise cached answers, shorter ones always re-resolve — so the
    // curve shows exactly where staleness starts to bite.
    let times = request_times(96);

    // Anycast: no client-side state, so one pass covers every TTL.
    let anycast = replay(&s, days, &times, FailureReason::Converging, |snap, i, t| {
        anycast_request(&s.internet, snap, i, t)
    });
    let any_unavail = anycast.unavailability();

    // DNS redirection: one cache per TTL, time advancing monotonically so
    // expiries behave like a real resolver's.
    let dns = TTLS_S.map(|ttl| {
        let mut dns = DnsRedirectionSim::new(&s.internet, ttl);
        replay(
            &s,
            days,
            &times,
            FailureReason::StaleDnsAnswer,
            |snap, i, t| dns.request(snap, i, t),
        )
    });
    let dns_pts = TTLS_S
        .iter()
        .zip(&dns)
        .map(|(&ttl, d)| (ttl, d.unavailability()));
    let anycast_pts: Vec<(f64, f64)> = TTLS_S.iter().map(|&ttl| (ttl, any_unavail)).collect();

    FigureResult {
        id: "extra-failover",
        title: "Unavailability under front-end outages: anycast vs DNS redirection (§2)".into(),
        x_label: "DNS answer TTL (s)".into(),
        series: vec![
            Series::new("DNS redirection", dns_pts.collect()),
            Series::new("anycast (TTL-independent)", anycast_pts),
        ],
        scalars: vec![
            ("anycast availability".to_string(), 1.0 - any_unavail),
            (
                "anycast failures inside BGP reconvergence".to_string(),
                anycast.of_reason as f64,
            ),
            (
                "BGP reconvergence (s)".to_string(),
                anycast_netsim::outage::BGP_RECONVERGENCE_S,
            ),
            (
                "stale-answer failures at 3 600 s TTL".to_string(),
                dns[TTLS_S.len() - 1].of_reason as f64,
            ),
        ],
        text: None,
    }
}

/// A textual inventory of the generated world: deployment by region, AS
/// population, pathology counts — the §3/§4 "experimental setup" section as
/// an inspectable artifact.
pub fn world_summary(scale: Scale, seed: u64) -> FigureResult {
    use anycast_geo::Region;
    use anycast_netsim::EgressPolicy;
    let s = scenario(scale, seed);
    let topo = s.internet.topology();
    let mut text = String::new();

    text.push_str("front-end sites by region:\n");
    for region in Region::ALL {
        let n = topo
            .cdn
            .sites
            .iter()
            .filter(|site| topo.atlas.metro(site.metro).region == region)
            .count();
        if n > 0 {
            text.push_str(&format!("  {:<14} {n}\n", region.label()));
        }
    }
    let peering_only = topo
        .cdn
        .borders
        .iter()
        .filter(|b| b.colocated_site.is_none())
        .count();
    text.push_str(&format!(
        "border routers: {} ({} peering-only)\n",
        topo.cdn.borders.len(),
        peering_only
    ));

    let n_eyeballs = topo.eyeballs().len();
    let transit_only = topo.eyeballs().filter(|e| e.is_transit_only()).count();
    let single_peer = topo
        .eyeballs()
        .filter(|e| e.peering_borders.len() == 1)
        .count();
    let fixed = topo
        .eyeballs()
        .filter(|e| matches!(e.egress_policy, EgressPolicy::FixedEgress(_)))
        .count();
    text.push_str(&format!(
        "eyeball ASes: {} ({} transit-only, {} single-peer, {} fixed-egress)\n",
        n_eyeballs, transit_only, single_peer, fixed
    ));
    text.push_str(&format!(
        "transit providers: {}\nclient /24s: {} (total volume {}/day)\nresolvers: {}\n",
        topo.transits.len(),
        s.clients.len(),
        s.clients.iter().map(|c| c.volume).sum::<u64>(),
        s.ldns.resolvers.len(),
    ));

    FigureResult {
        id: "world-summary",
        title: "Generated-world inventory".into(),
        x_label: String::new(),
        series: Vec::new(),
        scalars: vec![
            ("front-end sites".to_string(), topo.cdn.sites.len() as f64),
            ("eyeball ASes".to_string(), n_eyeballs as f64),
            ("client /24s".to_string(), s.clients.len() as f64),
        ],
        text: Some(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldns_distance_matches_the_modeled_tail() {
        let fig = ldns_distance(Scale::Small, 1);
        let far = fig.scalars[0].1;
        // The paper's statistic: ~11-12% of non-public demand > 500 km.
        assert!(far > 0.02 && far < 0.35, "far-LDNS share {far}");
        let public_share = fig.scalars[1].1;
        assert!(
            public_share > 0.02 && public_share < 0.20,
            "public share {public_share}"
        );
    }

    #[test]
    fn disruption_grows_with_duration() {
        let fig = tcp_disruption(Scale::Small, 2);
        let pts = &fig.series[0].points;
        assert!(
            pts.last().unwrap().1 >= pts.first().unwrap().1,
            "longer flows must break at least as often"
        );
        // Web-scale flows: negligible breakage.
        assert!(fig.scalars[0].1 < 0.01);
    }

    #[test]
    fn ecs_reach_grows_with_adoption() {
        let fig = ecs_adoption(Scale::Small, 1);
        let reach = &fig.series[0].points;
        for w in reach.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9, "reach must grow with adoption");
        }
        // Full adoption reaches everyone.
        assert!(reach.last().unwrap().1 > 0.99);
        // Zero ISP adoption still reaches the public-resolver share.
        assert!(reach[0].1 > 0.0 && reach[0].1 < 0.25);
        // Improvement never shrinks as adoption grows.
        let improved = &fig.series[1].points;
        assert!(improved.last().unwrap().1 >= improved[0].1 - 1e-9);
    }

    #[test]
    fn failover_ranks_anycast_above_dns_redirection() {
        let fig = failover(Scale::Small, 5);
        let dns = &fig.series[0].points;
        let anycast = &fig.series[1].points;
        // DNS loss grows with the TTL; the longest TTL loses strictly more
        // than the shortest (the §2 staleness claim).
        assert!(
            dns.last().unwrap().1 >= dns.first().unwrap().1,
            "DNS unavailability must not shrink as the TTL grows: {dns:?}"
        );
        assert!(
            dns.last().unwrap().1 >= anycast.last().unwrap().1,
            "long-TTL DNS must lose at least as much as anycast"
        );
        // Anycast only loses requests inside the BGP reconvergence window.
        let avail = fig.scalars[0].1;
        assert!(avail > 0.99, "anycast availability {avail}");
        // The experiment actually exercised the stale-answer path.
        assert!(fig.scalars[3].1 > 0.0, "no stale answers observed");
        // Deterministic: same seed, same curves, bit for bit.
        let again = failover(Scale::Small, 5);
        assert_eq!(fig.series[0].points, again.series[0].points);
        assert_eq!(fig.series[1].points, again.series[1].points);
    }

    #[test]
    fn world_summary_inventories_everything() {
        let fig = world_summary(Scale::Small, 1);
        let text = fig.text.as_ref().unwrap();
        assert!(text.contains("front-end sites by region"));
        assert!(text.contains("eyeball ASes"));
        assert!(fig
            .scalars
            .iter()
            .any(|(k, v)| k == "front-end sites" && *v == 12.0));
    }

    #[test]
    fn withdrawal_is_never_better_than_shedding() {
        let fig = load_shedding(Scale::Small, 3);
        let shed = &fig.series[0].points;
        let withdrawn = &fig.series[1].points;
        for (s, w) in shed.iter().zip(withdrawn) {
            assert!(
                w.1 >= s.1 - 1e-9,
                "withdrawal beat shedding at factor {}",
                s.0
            );
        }
    }
}
