//! The paper's shapes as bands from EXPERIMENTS.md the output must fall
//! in, where the goldens pin bytes.
//!
//! Fig 9 (§6): prediction improves more weighted demand than it hurts at
//! p75, at ECS and LDNS granularity, and leaves ≥ 80% of it on anycast
//! (EXPERIMENTS.md: improved ≫ hurt, 83–87% unchanged). One regressing
//! prefix can swing a small world's seed (improved ranges ~5–19% across
//! seeds), so the band holds for the shares averaged over three seeds.
//!
//! §6's metric argument: "higher percentiles of latency distributions are
//! very noisy", so a table trained on them redirects clients it hurts. In
//! `ablation-prediction-metric`, p95's net benefit (improved − hurt at
//! p75) is the lowest of the four metrics on each of three seeds, and
//! negative on their mean.
//!
//! §2's cascade: "withdrawing the route … can lead to cascading
//! overloading of nearby front-ends". In `ablation-load-shedding`, at every
//! headroom below 1, withdrawing an overloaded site overloads the rest more
//! than doing nothing, on each of three seeds.
//!
//! Fig 1's knee at ~5 front-ends (EXPERIMENTS.md: 5 → 9 gains 0.18 ms,
//! 1 → 5 gains 4.7 ms): on each seed the 1 → 5 gain exceeds the 5 → 9
//! gain, and over three seeds five front-ends capture ≥ 75% of what nine
//! gain over one.
//!
//! Fig 3's tail (paper: ~20% of requests ≥ 25 ms slower than the best of
//! three unicast front-ends, just below 10% ≥ 100 ms): on each seed the
//! ≥ 25 ms share is 10–30% and the ≥ 100 ms share 3–10%.
//!
//! Fig 5's threshold lines (paper: 12% of /24s > 10 ms, 4% > 50 ms on a
//! mean day): over three seeds, 6–18% and 1–7%.
//!
//! Fig 7 (paper: "network operators not pushing out changes during the
//! weekend"): on each seed, the mean daily increment of switched clients
//! over the five weekdays exceeds that over Saturday and Sunday.
//!
//! `ablation-hybrid` (§6's conservative hybrid): raising the required
//! predicted gain never raises the hurt share or the redirected set, on
//! each of three seeds. At `small` scale the hurt share is 0 at every
//! threshold on all three, so the redirected set carries the band.

use anycast_bench::ablations;
use anycast_bench::figures::{fig1, fig3, fig5, fig7, fig9};
use anycast_bench::worlds::Scale;
use anycast_bench::FigureResult;

const SEEDS: [u64; 3] = [1, 2, 3];

fn scalar(fig: &FigureResult, label: &str) -> f64 {
    let found = fig.scalars.iter().find(|(name, _)| name == label);
    found
        .unwrap_or_else(|| panic!("{} reports {label:?}", fig.id))
        .1
}

fn series<'a>(fig: &'a FigureResult, name: &str) -> &'a [(f64, f64)] {
    let found = fig.series.iter().find(|s| s.name == name);
    &found
        .unwrap_or_else(|| panic!("{} has {name:?}", fig.id))
        .points
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0.0), |(s, n), x| (s + x, n + 1.0));
    sum / n
}

#[test]
fn fig9_prediction_improves_more_than_it_hurts_and_leaves_most_demand_alone() {
    let figs = SEEDS.map(|seed| fig9::compute(Scale::Small, seed));
    let share = |label: String| mean(figs.iter().map(|fig| scalar(fig, &label)));
    for grouping in ["EDNS-0", "LDNS"] {
        let improved = share(format!("{grouping}: weighted share improved (p75)"));
        let unchanged = share(format!("{grouping}: weighted share unchanged (p75)"));
        let hurt = share(format!("{grouping}: weighted share hurt (p75)"));
        assert!(
            improved > hurt,
            "{grouping}: improved {improved:.3}, hurt {hurt:.3}"
        );
        assert!(unchanged >= 0.80, "{grouping}: {unchanged:.3} unchanged");
    }
}

#[test]
fn p95_is_the_worst_prediction_metric_and_a_net_loss() {
    let net =
        |fig: &FigureResult, metric: &str| scalar(fig, &format!("{metric}: improved - hurt (p75)"));
    let mut p95_sum = 0.0;
    for seed in SEEDS {
        let fig = ablations::prediction_metric(Scale::Small, seed);
        let p95 = net(&fig, "p95");
        for metric in ["p25", "p50", "p75"] {
            let other = net(&fig, metric);
            assert!(
                p95 < other,
                "seed {seed}: p95 {p95:.3} vs {metric} {other:.3}"
            );
        }
        p95_sum += p95;
    }
    let p95_mean = p95_sum / 3.0;
    assert!(p95_mean < 0.0, "p95 mean net benefit {p95_mean:.3}");
}

#[test]
fn withdrawing_an_overloaded_site_cascades_at_every_headroom_below_one() {
    for seed in SEEDS {
        let fig = ablations::load_shedding(Scale::Small, seed);
        let integral = |mode: &str| series(&fig, &format!("overload integral, {mode}"));
        let (off, withdraw) = (integral("off"), integral("withdraw"));
        let tight = off.iter().zip(withdraw).filter(|(o, _)| o.0 < 1.0);
        assert_eq!(tight.clone().count(), 3, "seed {seed}: headrooms below 1");
        for (o, w) in tight {
            assert!(
                w.1 > o.1,
                "seed {seed}, headroom {}: withdraw {} vs off {}",
                o.0,
                w.1,
                o.1
            );
        }
    }
}

#[test]
fn fig1_the_knee_falls_at_about_five_front_ends() {
    let mut gains = Vec::new();
    for seed in SEEDS {
        let fig = fig1::compute(Scale::Small, seed);
        let median = |n: &str| scalar(&fig, &format!("median min-latency, {n} (ms)"));
        let (one, five, nine) = (
            median("1 front-end"),
            median("5 front-ends"),
            median("9 front-ends"),
        );
        assert!(
            one - five > five - nine,
            "seed {seed}: 1→5 gains {:.3} ms, 5→9 {:.3} ms",
            one - five,
            five - nine
        );
        gains.push((one - five, one - nine));
    }
    let captured = mean(gains.iter().map(|g| g.0)) / mean(gains.iter().map(|g| g.1));
    assert!(
        captured >= 0.75,
        "five front-ends capture {captured:.3} of the gain"
    );
}

#[test]
fn fig3_a_minority_of_requests_trails_unicast_by_25_and_100_ms() {
    for seed in SEEDS {
        let fig = fig3::compute(Scale::Small, seed);
        let over_25 = scalar(&fig, "fraction of requests ≥25ms slower (world)");
        let over_100 = scalar(&fig, "fraction of requests ≥100ms slower (world)");
        assert!(
            (0.10..=0.30).contains(&over_25),
            "seed {seed}: ≥25 ms {over_25:.3}"
        );
        assert!(
            (0.03..=0.10).contains(&over_100),
            "seed {seed}: ≥100 ms {over_100:.3}"
        );
    }
}

#[test]
fn fig5_the_10_and_50_ms_lines_land_near_the_paper() {
    let figs = SEEDS.map(|seed| fig5::compute(Scale::Small, seed));
    let over = |ms: u32| {
        mean(
            figs.iter()
                .map(|fig| scalar(fig, &format!("mean fraction >{ms}ms"))),
        )
    };
    let (over_10, over_50) = (over(10), over(50));
    assert!((0.06..=0.18).contains(&over_10), ">10 ms {over_10:.3}");
    assert!((0.01..=0.07).contains(&over_50), ">50 ms {over_50:.3}");
}

#[test]
fn fig7_weekdays_switch_more_clients_than_weekends() {
    for seed in SEEDS {
        let fig = fig7::compute(Scale::Small, seed);
        let cumulative = series(&fig, "cumulative fraction switched");
        assert_eq!(cumulative.len(), 7, "seed {seed}: Wed→Tue");
        // Day 0 is Wednesday, so days 3 and 4 are the weekend.
        let mut prev = 0.0;
        let (mut weekday, mut weekend) = (Vec::new(), Vec::new());
        for (day, &(_, frac)) in cumulative.iter().enumerate() {
            let days = if day == 3 || day == 4 {
                &mut weekend
            } else {
                &mut weekday
            };
            days.push(frac - prev);
            prev = frac;
        }
        let (weekday, weekend) = (mean(weekday), mean(weekend));
        assert!(
            weekday > weekend,
            "seed {seed}: weekday {weekday:.4}/day vs weekend {weekend:.4}/day"
        );
    }
}

#[test]
fn ablation_hybrid_hurt_never_grows_with_the_threshold() {
    for seed in SEEDS {
        let fig = ablations::hybrid_threshold(Scale::Small, seed);
        for name in ["weighted share hurt (p75)", "groups redirected"] {
            let points = series(&fig, name);
            assert_eq!(points.len(), 5, "seed {seed}: {name}");
            for w in points.windows(2) {
                assert!(
                    w[1].1 <= w[0].1,
                    "seed {seed}: {name} rises from {} at {} ms to {} at {} ms",
                    w[0].1,
                    w[0].0,
                    w[1].1,
                    w[1].0
                );
            }
        }
    }
}
