//! Figure 7 — cumulative fraction of clients that switch front-ends over a
//! week.
//!
//! "Within the first day, 7% of clients landed on multiple front-ends. An
//! additional 2-4% clients see a front-end change each day until the
//! weekend, where there is very little churn, less than .5% … Across the
//! entire week, 21% of clients landed on multiple front-ends" (§5). The
//! week runs Wednesday through Tuesday — day 0 of the simulation clock is a
//! Wednesday for exactly this reason.

use anycast_analysis::affinity::{cumulative_switch_curve, ClientObservations};
use anycast_analysis::report::Series;
use anycast_netsim::{Day, Prefix24, SiteId};
use anycast_workload::record::{daily_serving_site, sites_seen};
use anycast_workload::PassiveRecord;
use std::collections::HashMap;

use crate::worlds::{rng_for, scenario, Scale};
use crate::FigureResult;

/// The week of passive data.
pub const WEEK_DAYS: u32 = 7;

/// Builds the per-client observations for the week (shared with Figure 8),
/// with the week's records in day order.
pub fn week_observations(
    scale: Scale,
    seed: u64,
) -> (
    Vec<PassiveRecord>,
    HashMap<Prefix24, ClientObservations<SiteId>>,
) {
    let s = scenario(scale, seed);
    let mut rng = rng_for(seed, 0xf167);
    let mut records = Vec::new();
    for day in Day(0).span(WEEK_DAYS) {
        records.extend(s.generate_passive_day(day, &mut rng));
    }
    let serving = daily_serving_site(&records);
    let mut multi: HashMap<Prefix24, Vec<u32>> = HashMap::new();
    for day in Day(0).span(WEEK_DAYS) {
        for (prefix, sites) in sites_seen(&records, day) {
            if sites.len() > 1 {
                multi.entry(prefix).or_default().push(day.0);
            }
        }
    }
    let observations: HashMap<Prefix24, ClientObservations<SiteId>> = serving
        .into_iter()
        .map(|(prefix, days)| {
            let daily_sites: Vec<(u32, SiteId)> = days.into_iter().map(|(d, s)| (d.0, s)).collect();
            let multi_site_days = multi.remove(&prefix).unwrap_or_default();
            (
                prefix,
                ClientObservations {
                    daily_sites,
                    multi_site_days,
                },
            )
        })
        .collect();
    (records, observations)
}

/// Computes the figure.
pub fn compute(scale: Scale, seed: u64) -> FigureResult {
    let (_, observations) = week_observations(scale, seed);
    let clients: Vec<ClientObservations<SiteId>> = observations.into_values().collect();
    let days: Vec<u32> = (0..WEEK_DAYS).collect();
    let curve = cumulative_switch_curve(&clients, &days);

    let points: Vec<(f64, f64)> = curve.iter().map(|&(d, f)| (f64::from(d), f)).collect();
    let day_one = points.first().map(|&(_, f)| f).unwrap_or(0.0);
    let week = points.last().map(|&(_, f)| f).unwrap_or(0.0);
    // Weekend increments: day 0 is Wed, so Sat/Sun are indices 3 and 4.
    let weekend_increment = (points[4].1 - points[2].1).max(0.0);

    let scalars = vec![
        ("switched within first day (Wed)".to_string(), day_one),
        ("switched within full week".to_string(), week),
        ("weekend increment (Sat+Sun)".to_string(), weekend_increment),
        ("clients observed".to_string(), clients.len() as f64),
    ];

    FigureResult {
        id: "fig7",
        title: "Cumulative fraction of clients that changed front-ends (Wed→Tue)".into(),
        x_label: "day of week (0=Wed)".into(),
        series: vec![Series::new("cumulative fraction switched", points)],
        scalars,
        text: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_with_weekend_plateau() {
        let fig = compute(Scale::Small, 1);
        let pts = &fig.series[0].points;
        assert_eq!(pts.len(), 7);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12, "curve must be cumulative");
        }
        // Weekday increments (Thu, Fri) should collectively exceed the
        // weekend increments (Sat, Sun).
        let weekday_inc = (pts[2].1 - pts[0].1).max(0.0);
        let weekend_inc = (pts[4].1 - pts[2].1).max(0.0);
        assert!(
            weekday_inc >= weekend_inc,
            "weekday {weekday_inc} vs weekend {weekend_inc}"
        );
    }

    #[test]
    fn shape_matches_paper_bands() {
        let fig = compute(Scale::Small, 2);
        let day_one = fig.scalars[0].1;
        let week = fig.scalars[1].1;
        // Paper: 7% day one, 21% week. Generous bands for the small world.
        assert!(day_one > 0.01 && day_one < 0.30, "day-one {day_one}");
        assert!(week >= day_one && week < 0.45, "week {week}");
    }
}
