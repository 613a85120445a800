//! Figure 1 — diminishing returns of measuring additional front-ends.
//!
//! "The labeled Nth line includes latency measurements from the nearest N
//! front-ends to the LDNS. The results show decreasing latency as we
//! initially include more front-ends, but we see little decrease after
//! adding five front-ends per prefix" (§3.3). The figure validates the
//! beacon's ten-candidate cap.
//!
//! Regeneration: for every client /24, measure each of the ten front-ends
//! nearest its LDNS (three samples each, keeping the minimum — the paper
//! plots *minimum observed* latency), then for each N plot the CDF over
//! /24s of the minimum across the nearest N.

use anycast_analysis::cdf::{linear_grid, Ecdf};
use anycast_analysis::report::Series;
use anycast_core::Deployment;
use anycast_netsim::Day;
use anycast_workload::{ldns_assign, Scenario};
use rand::rngs::SmallRng;

use crate::worlds::{rng_for, scenario, Scale};
use crate::FigureResult;

/// The candidate-count lines of the figure.
pub const N_LINES: [usize; 5] = [1, 3, 5, 7, 9];

/// Samples per candidate front-end.
const SAMPLES: usize = 3;

/// Per client /24, the best day-0 latency among the `k` front-ends nearest
/// its LDNS, by candidate rank: entry `n − 1` is the best of the nearest
/// `n`, each front-end measured `samples` times.
pub fn best_within_nearest(
    s: &Scenario,
    deployment: &Deployment,
    k: usize,
    samples: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<f64>> {
    let mut per_client = Vec::with_capacity(s.clients.len());
    for (i, c) in s.clients.iter().enumerate() {
        let ldns_id = s.ldns.resolver_of(i);
        let believed = ldns_assign::believed_ldns_location(s.ldns.resolver(ldns_id), &s.geodb);
        let mut best = f64::INFINITY;
        let mut row = Vec::with_capacity(k);
        for (site, _) in deployment.nearest(&believed, k) {
            for _ in 0..samples {
                best = best.min(s.internet.measure_unicast(&c.attachment, site, Day(0), rng));
            }
            row.push(best);
        }
        per_client.push(row);
    }
    per_client
}

/// The distribution over clients of the best latency within the nearest
/// `n` (a client with fewer candidates contributes its best of all).
pub fn within_nearest(per_client: &[Vec<f64>], n: usize) -> Ecdf {
    Ecdf::from_values(
        per_client
            .iter()
            .filter_map(|row| row.get(n.min(row.len()) - 1).copied()),
    )
}

/// Computes the figure.
pub fn compute(scale: Scale, seed: u64) -> FigureResult {
    let s = scenario(scale, seed);
    let deployment = Deployment::of(&s.internet);
    let mut rng = rng_for(seed, 0xf161);
    let max_n = *N_LINES.iter().max().expect("non-empty");
    let per_client_min = best_within_nearest(&s, &deployment, max_n, SAMPLES, &mut rng);

    let grid = linear_grid(0.0, 200.0, 40);
    // Paper legend order: 9 front-ends first.
    let series = N_LINES
        .iter()
        .rev()
        .map(|&n| {
            let cdf = within_nearest(&per_client_min, n).cdf_series(&grid);
            Series::new(format!("{n} front-ends"), cdf)
        })
        .collect();

    // Headline scalars: median min-latency at N=1, 5, 9 — the diminishing-
    // returns argument in numbers.
    let median_at = |n: usize| {
        within_nearest(&per_client_min, n)
            .median()
            .unwrap_or(f64::NAN)
    };
    let scalars = vec![
        (
            "median min-latency, 1 front-end (ms)".to_string(),
            median_at(1),
        ),
        (
            "median min-latency, 5 front-ends (ms)".to_string(),
            median_at(5),
        ),
        (
            "median min-latency, 9 front-ends (ms)".to_string(),
            median_at(9),
        ),
        (
            "gain from 5 to 9 front-ends (ms)".to_string(),
            median_at(5) - median_at(9),
        ),
    ];

    FigureResult {
        id: "fig1",
        title: "Diminishing returns of measuring to additional front-ends".into(),
        x_label: "min latency (ms)".into(),
        series,
        scalars,
        text: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let fig = compute(Scale::Small, 1);
        assert_eq!(fig.series.len(), N_LINES.len());
        // More candidates can only lower the minimum: at every grid point
        // the 9-front-end CDF dominates the 1-front-end CDF.
        let nine = &fig.series[0];
        let one = fig.series.last().unwrap();
        assert!(nine.name.starts_with('9') && one.name.starts_with('1'));
        for (a, b) in nine.points.iter().zip(&one.points) {
            assert!(a.1 >= b.1 - 1e-12, "CDF ordering violated at x={}", a.0);
        }
        // Diminishing returns: the 1→5 gain exceeds the 5→9 gain.
        let med = |name_prefix: &str| {
            fig.scalars
                .iter()
                .find(|(k, _)| k.contains(name_prefix))
                .unwrap()
                .1
        };
        let gain_1_to_5 = med("1 front-end") - med("5 front-ends");
        let gain_5_to_9 = med("5 front-ends") - med("9 front-ends");
        assert!(gain_1_to_5 >= gain_5_to_9, "{gain_1_to_5} vs {gain_5_to_9}");
        assert!(gain_5_to_9 < 10.0, "no plateau after 5 front-ends");
    }
}
