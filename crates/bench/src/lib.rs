//! Figure and table regeneration for the paper's evaluation.
//!
//! Every table and figure in *Analyzing the Performance of an Anycast CDN*
//! has a module here that recomputes it over the simulated world:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`figures::fig1`] | Fig. 1 — diminishing returns of measuring more front-ends |
//! | [`figures::table_cdn_sizes`] | §4 table — CDN deployment sizes |
//! | [`figures::fig2`] | Fig. 2 — client distance to Nth-closest front-end |
//! | [`figures::fig3`] | Fig. 3 — CCDF of anycast penalty vs best unicast |
//! | [`figures::fig4`] | Fig. 4 — client-to-anycast-front-end distance / past-closest |
//! | [`figures::fig5`] | Fig. 5 — daily poor-path prevalence over a month |
//! | [`figures::fig6`] | Fig. 6 — poor-path persistence |
//! | [`figures::fig7`] | Fig. 7 — cumulative front-end switches over a week |
//! | [`figures::fig8`] | Fig. 8 — distance change on front-end switch |
//! | [`figures::fig9`] | Fig. 9 — prediction improvement over anycast |
//!
//! [`ablations`] adds ten sweeps of the design choices DESIGN.md calls
//! out (prediction metric, min-sample filter, candidate-set size,
//! deployment density, hybrid threshold, training window, outage rate ×
//! TTL, load shedding, table compression, world scale);
//! [`extras`] quantifies five claims the paper makes in prose
//! (client-LDNS distance, TCP disruption under route changes, shedding vs
//! withdrawal, ECS adoption, failover) plus an inventory of the world.
//! [`trial`] is the one seam all of them train, score and replay probes
//! through, and [`ARTIFACTS`] is the one list of what `figures` can
//! compute. [`worlds`] builds the standard experiment worlds at two
//! scales: `Small` for CI, `Paper` for the numbers recorded in
//! EXPERIMENTS.md. Nothing here reads a clock: every artifact is a pure
//! function of `(scale, seed)`, and wall-clock numbers come from the
//! standalone `benchmark/` package.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod cli;
pub mod extras;
pub mod figures;
pub mod trial;
pub mod worlds;

use anycast_analysis::report::{render_scalars, render_table, Series};

use crate::figures::{fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, table_cdn_sizes};
use crate::worlds::Scale;

/// Regenerates one artifact: a pure function of `(scale, seed)`.
pub type Compute = fn(Scale, u64) -> FigureResult;

/// Every artifact as `(id, group, compute)`, in `figures everything`
/// order. The group is the `figures` target word that selects it.
#[rustfmt::skip]
pub const ARTIFACTS: [(&str, &str, Compute); 26] = [
    ("fig1", "all", fig1::compute),
    ("table-cdn-sizes", "all", |_, _| table_cdn_sizes::compute()),
    ("fig2", "all", fig2::compute),
    ("fig3", "all", fig3::compute),
    ("fig4", "all", fig4::compute),
    ("fig5", "all", fig5::compute),
    ("fig6", "all", fig6::compute),
    ("fig7", "all", fig7::compute),
    ("fig8", "all", fig8::compute),
    ("fig9", "all", fig9::compute),
    ("ablation-prediction-metric", "ablations", ablations::prediction_metric),
    ("ablation-min-samples", "ablations", ablations::min_samples),
    ("ablation-candidates", "ablations", ablations::candidate_count),
    ("ablation-density", "ablations", ablations::deployment_density),
    ("ablation-hybrid", "ablations", ablations::hybrid_threshold),
    ("ablation-training-window", "ablations", ablations::training_window),
    ("ablation-outage-ttl", "ablations", ablations::outage_ttl),
    ("ablation-load-shedding", "ablations", ablations::load_shedding),
    ("ablation-table-compression", "ablations", ablations::table_compression),
    ("ablation-world-scale", "ablations", ablations::world_scale),
    ("extra-ldns-distance", "extras", extras::ldns_distance),
    ("extra-tcp-disruption", "extras", extras::tcp_disruption),
    ("extra-load-shed", "extras", extras::load_shedding),
    ("extra-ecs-adoption", "extras", extras::ecs_adoption),
    ("extra-failover", "extras", extras::failover),
    ("world-summary", "extras", extras::world_summary),
];

/// Computes an artifact by id.
pub fn compute(id: &str, scale: Scale, seed: u64) -> Option<FigureResult> {
    let &(_, _, compute) = ARTIFACTS.iter().find(|&&(known, ..)| known == id)?;
    Some(compute(scale, seed))
}

/// One regenerated artifact: labeled series on a shared grid plus summary
/// scalars, renderable as text or CSV.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Artifact id ("fig3", "table-cdn-sizes").
    pub id: &'static str,
    /// Human title, matching the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// The curves.
    pub series: Vec<Series>,
    /// Named summary numbers (medians, headline fractions) compared against
    /// the paper in EXPERIMENTS.md.
    pub scalars: Vec<(String, f64)>,
    /// Free-form preformatted block (used by the CDN-size table).
    pub text: Option<String>,
}

impl FigureResult {
    /// Renders the artifact as aligned text.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        if let Some(t) = &self.text {
            out.push_str(t);
        }
        if !self.series.is_empty() {
            out.push_str(&render_table(&self.x_label, &self.series));
        }
        if !self.scalars.is_empty() {
            let pairs: Vec<(&str, f64)> =
                self.scalars.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            out.push('\n');
            out.push_str(&render_scalars(&pairs));
        }
        out
    }

    /// Renders the series as long-form CSV.
    pub fn to_csv(&self) -> String {
        anycast_analysis::report::render_csv(&self.series)
    }
}
