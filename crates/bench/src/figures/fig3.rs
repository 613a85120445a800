//! Figure 3 — the headline result: CCDF of the per-request difference
//! between anycast latency and the best of three unicast front-ends.
//!
//! "Most of the time, in most regions, anycast does well … However, anycast
//! is at least 25ms slower for 20% of requests, and just below 10% of
//! anycast measurements are 100ms or more slower than the best unicast for
//! the client" (§5). Three curves: Europe, World, United States.

use anycast_analysis::cdf::{linear_grid, Ecdf};
use anycast_analysis::report::Series;
use anycast_geo::Scope;
use anycast_netsim::Day;

use crate::worlds::{figure_days, study, Scale};
use crate::FigureResult;

/// Days of beacon data the figure aggregates ("collected over a period of a
/// few days").
pub const PAPER_DAYS: u32 = 3;

/// Computes the figure.
pub fn compute(scale: Scale, seed: u64) -> FigureResult {
    let mut st = study(scale, seed);
    st.run_days(Day(0), figure_days(scale, PAPER_DAYS));

    let s = st.scenario();
    let executions = st.dataset().executions();
    let grid = linear_grid(0.0, 100.0, 20);
    let mut series = Vec::new();
    let mut scalars = Vec::new();
    for scope in Scope::FIGURE3 {
        let penalties = executions.iter().filter_map(|e| {
            let client = &s.clients[s.client_index(e.prefix)?];
            if !scope.contains(client.country, client.region) {
                return None;
            }
            e.anycast_penalty_ms()
        });
        let ecdf = Ecdf::from_values(penalties);
        if scope == Scope::World {
            scalars.push((
                "fraction of requests ≥25ms slower (world)".to_string(),
                ecdf.fraction_above(25.0),
            ));
            scalars.push((
                "fraction of requests ≥100ms slower (world)".to_string(),
                ecdf.fraction_above(100.0),
            ));
        }
        series.push(Series::new(scope.label(), ecdf.ccdf_series(&grid)));
    }
    scalars.push(("beacon executions".to_string(), executions.len() as f64));

    FigureResult {
        id: "fig3",
        title: "Fraction of requests where best-of-three unicast beat anycast".into(),
        x_label: "anycast - best unicast (ms)".into(),
        series,
        scalars,
        text: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccdfs_are_monotone_and_plausible() {
        let fig = compute(Scale::Small, 1);
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(w[0].1 >= w[1].1, "CCDF must decrease ({})", s.name);
            }
        }
        // The paper's shape: a sizable fraction of requests see some
        // penalty, a small fraction sees a large one.
        let world = fig.series.iter().find(|s| s.name == "World").unwrap();
        let at_0 = world.points[0].1;
        let at_100 = world.points.last().unwrap().1;
        assert!(at_0 > 0.1 && at_0 < 0.95, "penalty>0 fraction {at_0}");
        assert!(at_100 < at_0, "tail must be thinner than head");
    }

    #[test]
    fn world_curve_includes_all_requests() {
        let fig = compute(Scale::Small, 2);
        let execs = fig
            .scalars
            .iter()
            .find(|(k, _)| k.contains("executions"))
            .unwrap()
            .1;
        assert!(execs > 100.0, "too few executions: {execs}");
    }
}
