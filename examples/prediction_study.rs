//! The §6 history-based prediction scheme, including the hybrid.
//!
//! ```sh
//! cargo run --release --example prediction_study
//! ```
//!
//! Trains the predictor on day 0's beacon measurements (25th-percentile
//! metric, 20-sample minimum) at both ECS and LDNS granularity, evaluates
//! against day 1 at the 50th/75th percentiles, and then sweeps the hybrid
//! gain threshold — the paper's proposal to redirect only the clients
//! anycast demonstrably underserves.

use anycast_cdn::core::{
    evaluate_prediction, evaluation::outcome_shares, Grouping, Metric, Predictor, PredictorConfig,
    Study, StudyConfig,
};
use anycast_cdn::netsim::Day;
use anycast_cdn::workload::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 11,
        ..Default::default()
    })
    .expect("default configuration is valid");
    let mut study = Study::new(scenario, StudyConfig::default());
    study.run_days(Day(0), 2);

    let ldns_of = study.ldns_of();
    let volumes = study.volumes();

    println!("train on day 0, evaluate on day 1 (weighted by query volume)\n");
    for (grouping, label) in [(Grouping::Ecs, "ECS (/24)"), (Grouping::Ldns, "LDNS")] {
        let cfg = PredictorConfig {
            grouping,
            metric: Metric::P25,
            min_samples: 20,
        };
        let table = Predictor::new(cfg).train(study.dataset(), Day(0));
        let rows = evaluate_prediction(
            &table,
            grouping,
            study.dataset(),
            Day(1),
            &ldns_of,
            &volumes,
        );
        let (improved, unchanged, hurt) = outcome_shares(&rows, false);
        println!("{label:10}  groups with prediction: {}", table.len());
        println!(
            "{:10}  redirected to unicast: {}",
            "",
            table.redirected_groups().count()
        );
        println!(
            "{:10}  p75 outcome: {:4.1}% improved / {:4.1}% unchanged / {:4.1}% hurt\n",
            "",
            100.0 * improved,
            100.0 * unchanged,
            100.0 * hurt
        );
    }

    // The hybrid: require a predicted gain before redirecting anyone.
    println!("hybrid sweep (ECS grouping): min predicted gain → redirected groups, outcome");
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        metric: Metric::P25,
        min_samples: 20,
    };
    let full = Predictor::new(cfg).train(study.dataset(), Day(0));
    for threshold in [0.0, 5.0, 10.0, 25.0, 50.0] {
        let table = full.hybrid_filter(threshold);
        let rows = evaluate_prediction(
            &table,
            Grouping::Ecs,
            study.dataset(),
            Day(1),
            &ldns_of,
            &volumes,
        );
        let (improved, _, hurt) = outcome_shares(&rows, false);
        println!(
            "  ≥{threshold:>4.0} ms: {:3} groups redirected, {:4.1}% improved, {:4.1}% hurt",
            table.len(),
            100.0 * improved,
            100.0 * hurt
        );
    }
    println!(
        "\nhigher thresholds redirect fewer clients but almost never hurt —\n\
         the conservative end is the paper's recommended hybrid deployment."
    );
}
