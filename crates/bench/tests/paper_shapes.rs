//! The paper's shapes as bands from EXPERIMENTS.md the output must fall
//! in, where the goldens pin bytes.
//!
//! Fig 9 (§6): prediction improves more weighted demand than it hurts at
//! p75, at ECS and LDNS granularity, and leaves ≥ 80% of it on anycast
//! (EXPERIMENTS.md: improved ≫ hurt, 83–87% unchanged). One regressing
//! prefix can swing a small world's seed (improved ranges ~5–19% across
//! seeds), so the band holds for the shares averaged over three seeds.

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
