//! The full §3 measurement methodology, end to end.
//!
//! ```sh
//! cargo run --release --example beacon_study
//! ```
//!
//! Runs three days of the JavaScript-beacon campaign over the default
//! world: a fraction of each client's queries triggers a beacon, each
//! beacon resolves four unique hostnames through the client's real LDNS
//! against the CDN's authoritative servers (warm-up + cached fetch), times
//! the four downloads, and the backend joins client-side HTTP results with
//! server-side DNS logs. Prints the Figure 3 headline: how often and by how
//! much the best of three unicast front-ends beats anycast.

use anycast_cdn::analysis::Ecdf;
use anycast_cdn::core::{Study, StudyConfig};
use anycast_cdn::netsim::Day;
use anycast_cdn::workload::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 7,
        ..Default::default()
    })
    .expect("default configuration is valid");
    let mut study = Study::new(scenario, StudyConfig::default());

    let days = 3;
    study.run_days(Day(0), days);

    let dataset = study.dataset();
    println!(
        "campaign: {} days, {} joined measurements, {} beacon executions",
        days,
        dataset.len(),
        dataset.executions().len(),
    );

    // Per-execution anycast penalty (Figure 3's quantity).
    let executions = dataset.executions();
    let penalties: Vec<f64> = executions
        .iter()
        .filter_map(|e| e.anycast_penalty_ms())
        .collect();
    let ecdf = Ecdf::from_values(penalties.iter().copied());
    println!("\nanycast vs best-of-three unicast (per request):");
    for threshold in [0.0, 10.0, 25.0, 50.0, 100.0] {
        println!(
            "  ≥{:>3.0} ms slower: {:5.1} % of requests",
            threshold,
            100.0 * ecdf.fraction_above(threshold)
        );
    }

    // Where do the four measurements of one execution go? Show one run.
    let sample = executions
        .iter()
        .find(|e| e.anycast.is_some() && e.unicast.len() == 3)
        .expect("complete executions exist");
    let (any_site, any_rtt) = sample.anycast.unwrap();
    println!(
        "\none beacon execution ({} via {}):",
        sample.prefix, sample.ldns
    );
    println!("  anycast      → {any_site}: {any_rtt:.0} ms");
    for (site, rtt) in &sample.unicast {
        println!("  unicast      → {site}: {rtt:.0} ms");
    }
    let (best_site, best_rtt) = sample.best_unicast().unwrap();
    println!(
        "  best unicast = {best_site} ({best_rtt:.0} ms); penalty {:+.0} ms",
        sample.anycast_penalty_ms().unwrap()
    );
}
