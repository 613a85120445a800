//! Figure 5 — daily poor-path prevalence over a month.
//!
//! "Each line specifies a particular minimum latency improvement, and the
//! figure shows the fraction of client /24s each day for which some unicast
//! front-end yields at least that improvement over anycast. On average, we
//! find that 19% of prefixes see some performance benefit … 12% of clients
//! with 10ms or more improvement, but only 4% see 50ms or more" (§5).

use anycast_analysis::poor_paths::{daily_prevalence, mean_fraction, PrefixDayPerf};
use anycast_analysis::report::Series;
use anycast_netsim::{Day, Prefix24};

use crate::worlds::{figure_days, study, Scale};
use crate::FigureResult;

/// The paper's experiment spans April 2015; we run four weeks.
pub const PAPER_DAYS: u32 = 28;

/// Threshold labels in the paper's legend.
pub const LABELS: [&str; 5] = ["all", "> 10ms", "> 25ms", "> 50ms", "> 100ms"];

/// Runs the month's campaign a day at a time and hands `each` every day's
/// per-/24 anycast-vs-best-unicast summary: the data behind this figure
/// and Figure 6.
pub fn month(scale: Scale, seed: u64, mut each: impl FnMut(Day, Vec<PrefixDayPerf<Prefix24>>)) {
    let mut st = study(scale, seed);
    for day in Day(0).span(figure_days(scale, PAPER_DAYS)) {
        st.run_day(day);
        each(day, st.daily_prefix_perf(day));
    }
}

/// Computes the figure, returning the per-day fractions.
pub fn compute(scale: Scale, seed: u64) -> FigureResult {
    let days = figure_days(scale, PAPER_DAYS);
    let mut daily = Vec::with_capacity(days as usize);
    month(scale, seed, |_, perf| daily.push(daily_prevalence(&perf)));

    let mut series = Vec::new();
    for (i, label) in LABELS.iter().enumerate() {
        let points: Vec<(f64, f64)> = daily
            .iter()
            .enumerate()
            .map(|(d, p)| (d as f64, p.fraction(i)))
            .collect();
        series.push(Series::new(*label, points));
    }

    let scalars = vec![
        (
            "mean fraction with any improvement".to_string(),
            mean_fraction(&daily, 0),
        ),
        ("mean fraction >10ms".to_string(), mean_fraction(&daily, 1)),
        ("mean fraction >25ms".to_string(), mean_fraction(&daily, 2)),
        ("mean fraction >50ms".to_string(), mean_fraction(&daily, 3)),
        ("mean fraction >100ms".to_string(), mean_fraction(&daily, 4)),
        ("days analyzed".to_string(), f64::from(days)),
    ];

    FigureResult {
        id: "fig5",
        title: "Daily poor-path prevalence".into(),
        x_label: "day".into(),
        series,
        scalars,
        text: None,
    }
}

/// The `(prefix, day)` of every /24-day some unicast front-end beat
/// anycast — Figure 6's input.
pub fn poor_days_by_prefix(scale: Scale, seed: u64) -> Vec<(Prefix24, u32)> {
    let mut out = Vec::new();
    month(scale, seed, |day, perf| {
        let poor = perf.iter().filter(|p| p.improvement_ms() > 0.0);
        out.extend(poor.map(|p| (p.key, day.0)));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_analysis::poor_paths::THRESHOLDS_MS;

    #[test]
    fn thresholds_are_nested_each_day() {
        let fig = compute(Scale::Small, 1);
        assert_eq!(fig.series.len(), THRESHOLDS_MS.len());
        let days = fig.series[0].points.len();
        for d in 0..days {
            for t in 0..THRESHOLDS_MS.len() - 1 {
                assert!(
                    fig.series[t].points[d].1 >= fig.series[t + 1].points[d].1,
                    "day {d}: threshold {t} below {}",
                    t + 1
                );
            }
        }
    }

    #[test]
    fn prevalence_is_persistent_but_minority() {
        let fig = compute(Scale::Small, 2);
        let any = fig.scalars[0].1;
        let over50 = fig.scalars[3].1;
        assert!(
            any > 0.02 && any < 0.6,
            "daily any-improvement fraction {any}"
        );
        assert!(over50 < any, "thresholded fraction must be smaller");
    }

    #[test]
    fn poor_days_feed_persistence() {
        let poor = poor_days_by_prefix(Scale::Small, 3);
        assert!(!poor.is_empty());
    }
}
