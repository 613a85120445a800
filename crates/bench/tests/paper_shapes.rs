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

use anycast_bench::ablations;
use anycast_bench::figures::fig9;
use anycast_bench::worlds::Scale;

#[test]
fn fig9_prediction_improves_more_than_it_hurts_and_leaves_most_demand_alone() {
    let figs = [1, 2, 3].map(|seed| fig9::compute(Scale::Small, seed));
    let mean = |label: String| {
        let share = |fig: &anycast_bench::FigureResult| {
            let scalar = fig.scalars.iter().find(|(name, _)| *name == label);
            scalar.unwrap_or_else(|| panic!("fig9 reports {label:?}")).1
        };
        figs.iter().map(share).sum::<f64>() / figs.len() as f64
    };
    for grouping in ["EDNS-0", "LDNS"] {
        let improved = mean(format!("{grouping}: weighted share improved (p75)"));
        let unchanged = mean(format!("{grouping}: weighted share unchanged (p75)"));
        let hurt = mean(format!("{grouping}: weighted share hurt (p75)"));
        assert!(
            improved > hurt,
            "{grouping}: improved {improved:.3}, hurt {hurt:.3}"
        );
        assert!(unchanged >= 0.80, "{grouping}: {unchanged:.3} unchanged");
    }
}

#[test]
fn p95_is_the_worst_prediction_metric_and_a_net_loss() {
    let net = |fig: &anycast_bench::FigureResult, metric: &str| {
        let label = format!("{metric}: improved - hurt (p75)");
        let scalar = fig.scalars.iter().find(|(name, _)| *name == label);
        scalar.unwrap_or_else(|| panic!("{label:?} missing")).1
    };
    let mut p95_sum = 0.0;
    for seed in [1, 2, 3] {
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
    for seed in [1, 2, 3] {
        let fig = ablations::load_shedding(Scale::Small, seed);
        let integral = |mode: &str| {
            let name = format!("overload integral, {mode}");
            let series = fig.series.iter().find(|s| s.name == name);
            series
                .unwrap_or_else(|| panic!("{name:?} missing"))
                .points
                .clone()
        };
        let (off, withdraw) = (integral("off"), integral("withdraw"));
        let tight = off.iter().zip(&withdraw).filter(|(o, _)| o.0 < 1.0);
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
