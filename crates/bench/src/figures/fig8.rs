//! Figure 8 — how far a front-end switch moves a client.
//!
//! "When the majority of clients switch front-ends, it is to a nearby
//! front-end … The median change in distance from front-end switches is
//! 483 km while 83% are within 2000 km" (§5). We measure, per switch event,
//! the absolute change in the client-to-front-end distance.

use anycast_analysis::cdf::{log2_grid, Ecdf};
use anycast_analysis::report::Series;
use anycast_core::Deployment;

use crate::figures::fig7::week_observations;
use crate::worlds::{scenario, Scale};
use crate::FigureResult;

/// Computes the figure from the same week of passive data as Figure 7.
pub fn compute(scale: Scale, seed: u64) -> FigureResult {
    let s = scenario(scale, seed);
    let deployment = Deployment::of(&s.internet);
    let observations = week_observations(&s, seed);

    let mut deltas: Vec<f64> = Vec::new();
    for (client, obs) in observations.iter().enumerate() {
        let loc = s.believed_location(client);
        for (_, from, to) in obs.switches() {
            let d_from = deployment.front_end(from).location.haversine_km(&loc);
            let d_to = deployment.front_end(to).location.haversine_km(&loc);
            deltas.push((d_to - d_from).abs());
        }
    }

    let grid = log2_grid(64.0, 8192.0, 2);
    let ecdf = Ecdf::from_values(deltas.iter().copied());
    let scalars = vec![
        (
            "median distance change (km)".to_string(),
            ecdf.median().unwrap_or(f64::NAN),
        ),
        (
            "switches within 2000 km".to_string(),
            ecdf.fraction_at_or_below(2000.0),
        ),
        ("switch events".to_string(), deltas.len() as f64),
    ];

    FigureResult {
        id: "fig8",
        title: "Change in client-to-front-end distance on front-end switch".into(),
        x_label: "distance change (km, log grid)".into(),
        series: vec![Series::new("front-end changes", ecdf.cdf_series(&grid))],
        scalars,
        text: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_exist_and_are_mostly_nearby() {
        let fig = compute(Scale::Small, 1);
        let events = fig.scalars[2].1;
        assert!(events > 5.0, "too few switch events ({events}) to analyze");
        let within_2000 = fig.scalars[1].1;
        assert!(within_2000 > 0.4, "switches implausibly far: {within_2000}");
    }

    #[test]
    fn cdf_is_monotone() {
        let fig = compute(Scale::Small, 2);
        for w in fig.series[0].points.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
