//! Figure 4 — how far anycast sends clients, absolutely and past their
//! closest front-end.
//!
//! "About 82% of clients are directed to a front-end within 2000 km while
//! 87% of client volume is within 2000 km … About 55% of clients and
//! weighted clients have distance 0 [past closest] … 75% of clients are
//! directed to a front-end within around 400 km and 90% are within 1375 km
//! of their closest" (§5). One day of production (passive) traffic.

use anycast_analysis::cdf::{log2_grid, Ecdf};
use anycast_analysis::report::Series;
use anycast_core::Deployment;
use anycast_netsim::Day;
use anycast_workload::record::{daily_serving_site, query_volume};

use crate::worlds::{rng_for, scenario, Scale};
use crate::FigureResult;

/// Computes the figure.
pub fn compute(scale: Scale, seed: u64) -> FigureResult {
    let s = scenario(scale, seed);
    let deployment = Deployment::of(&s.internet);
    let mut rng = rng_for(seed, 0xf164);
    let records = s.generate_passive_day(Day(0), &mut rng);

    // Per client: the day's majority serving site, the believed client
    // location (what the CDN's geolocation reports), and the query volume.
    let serving = daily_serving_site(&records, s.clients.len());
    let volumes = query_volume(&records, s.clients.len());
    let mut to_fe: Vec<(f64, f64)> = Vec::new(); // (km, weight)
    let mut past_closest: Vec<(f64, f64)> = Vec::new();
    for (client, days) in serving.iter().enumerate() {
        let Some(&site) = days.get(&Day(0)) else {
            continue;
        };
        let location = s.believed_location(client);
        let weight = volumes[client] as f64;
        let d_fe = deployment.front_end(site).location.haversine_km(&location);
        let d_closest = deployment
            .nearest(&location, 1)
            .first()
            .map(|&(_, d)| d)
            .unwrap_or(0.0);
        to_fe.push((d_fe, weight));
        past_closest.push(((d_fe - d_closest).max(0.0), weight));
    }

    let grid = log2_grid(64.0, 8192.0, 2);
    let weighted_fe = Ecdf::from_weighted(to_fe.iter().copied());
    let unweighted_fe = Ecdf::from_values(to_fe.iter().map(|&(d, _)| d));
    let weighted_past = Ecdf::from_weighted(past_closest.iter().copied());
    let unweighted_past = Ecdf::from_values(past_closest.iter().map(|&(d, _)| d));

    let scalars = vec![
        (
            "clients within 2000 km of their front-end".to_string(),
            unweighted_fe.fraction_at_or_below(2000.0),
        ),
        (
            "weighted clients within 2000 km".to_string(),
            weighted_fe.fraction_at_or_below(2000.0),
        ),
        (
            "clients at their closest front-end (past-closest = 0)".to_string(),
            unweighted_past.fraction_at_or_below(0.0),
        ),
        (
            "clients within 400 km past closest".to_string(),
            unweighted_past.fraction_at_or_below(400.0),
        ),
        (
            "clients within 1375 km past closest".to_string(),
            unweighted_past.fraction_at_or_below(1375.0),
        ),
    ];

    let series = vec![
        Series::new(
            "Weighted Clients Past Closest",
            weighted_past.cdf_series(&grid),
        ),
        Series::new("Clients Past Closest", unweighted_past.cdf_series(&grid)),
        Series::new(
            "Weighted Clients to Front-end",
            weighted_fe.cdf_series(&grid),
        ),
        Series::new("Clients to Front-end", unweighted_fe.cdf_series(&grid)),
    ];

    FigureResult {
        id: "fig4",
        title: "Distance between clients and their anycast front-ends".into(),
        x_label: "distance (km, log grid)".into(),
        series,
        scalars,
        text: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn past_closest_dominates_absolute_distance() {
        let fig = compute(Scale::Small, 1);
        // Past-closest distances are ≤ absolute distances, so their CDF
        // lies above at every x.
        let past = fig
            .series
            .iter()
            .find(|s| s.name == "Clients Past Closest")
            .unwrap();
        let abs = fig
            .series
            .iter()
            .find(|s| s.name == "Clients to Front-end")
            .unwrap();
        for (a, b) in past.points.iter().zip(&abs.points) {
            assert!(a.1 >= b.1 - 1e-12);
        }
    }

    #[test]
    fn majority_reach_their_closest_front_end() {
        let fig = compute(Scale::Small, 2);
        let at_closest = fig
            .scalars
            .iter()
            .find(|(k, _)| k.contains("past-closest = 0"))
            .unwrap()
            .1;
        // Paper: ~55%. Accept a broad band — the point is "a majority-ish
        // share, far from 100%".
        assert!(
            at_closest > 0.25 && at_closest < 0.95,
            "at-closest fraction {at_closest}"
        );
    }

    #[test]
    fn most_clients_within_2000km() {
        let fig = compute(Scale::Small, 3);
        let within = fig
            .scalars
            .iter()
            .find(|(k, _)| k.starts_with("clients within 2000"))
            .unwrap()
            .1;
        assert!(within > 0.5, "within-2000km fraction {within}");
    }
}
