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
use anycast_netsim::{Day, SiteId};
use anycast_workload::record::{daily_serving_site, sites_seen};
use anycast_workload::Scenario;

use crate::worlds::{rng_for, scenario, Scale};
use crate::FigureResult;

/// The week of passive data.
pub const WEEK_DAYS: u32 = 7;

/// Builds each client's observations over the week (shared with Figure
/// 8), indexed by client. A client never served that week has none. Each
/// day's records are dropped once they are counted.
pub fn week_observations(s: &Scenario, seed: u64) -> Vec<ClientObservations<SiteId>> {
    let n = s.clients.len();
    let mut rng = rng_for(seed, 0xf167);
    let mut observations = vec![
        ClientObservations {
            daily_sites: Vec::new(),
            multi_site_days: Vec::new(),
        };
        n
    ];
    for day in Day(0).span(WEEK_DAYS) {
        let records = s.generate_passive_day(day, &mut rng);
        let serving = daily_serving_site(&records, n);
        let seen = sites_seen(&records, day, n);
        for ((obs, serving), seen) in observations.iter_mut().zip(serving).zip(seen) {
            obs.daily_sites
                .extend(serving.get(&day).map(|&site| (day.0, site)));
            if seen.len() > 1 {
                obs.multi_site_days.push(day.0);
            }
        }
    }
    observations
}

/// Computes the figure.
pub fn compute(scale: Scale, seed: u64) -> FigureResult {
    let observations = week_observations(&scenario(scale, seed), seed);
    let clients: Vec<ClientObservations<SiteId>> = observations
        .into_iter()
        .filter(|obs| !obs.daily_sites.is_empty())
        .collect();
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
