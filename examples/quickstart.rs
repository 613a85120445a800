//! Quickstart: build a world, route some clients, measure anycast.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the default simulated Internet (44-site anycast CDN, ~4 000
//! client /24s), routes one day of traffic, and prints where anycast sends
//! clients and how far past their closest front-end they land — the
//! headline statistics of the paper's §5.

use anycast_cdn::analysis::Ecdf;
use anycast_cdn::core::Deployment;
use anycast_cdn::netsim::Day;
use anycast_cdn::workload::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 42,
        ..Default::default()
    })
    .expect("default configuration is valid");
    let deployment = Deployment::of(&scenario.internet);

    println!(
        "world: {} front-end sites, {} border routers, {} eyeball ASes, {} client /24s\n",
        deployment.size(),
        scenario.internet.topology().cdn.borders.len(),
        scenario.internet.topology().eyeballs().len(),
        scenario.clients.len(),
    );

    // Route every client through anycast on day 0 and measure the
    // geographic quality of the mapping.
    let day = Day(0);
    let mut to_fe_km = Vec::new();
    let mut past_closest_km = Vec::new();
    for client in &scenario.clients {
        let route = scenario.internet.anycast_route(&client.attachment, day);
        let d_fe = scenario
            .internet
            .client_site_km(&client.attachment, route.site);
        let d_best = deployment
            .nearest(&client.attachment.location, 1)
            .first()
            .map(|&(_, d)| d)
            .unwrap_or(0.0);
        to_fe_km.push(d_fe);
        past_closest_km.push((d_fe - d_best).max(0.0));
    }

    let fe = Ecdf::from_values(to_fe_km);
    let past = Ecdf::from_values(past_closest_km);
    println!("distance from client to its anycast front-end:");
    println!(
        "  median               {:7.0} km",
        fe.median().unwrap_or(0.0)
    );
    println!(
        "  within 2000 km       {:6.1} %",
        100.0 * fe.fraction_at_or_below(2000.0)
    );
    println!("distance past the closest front-end:");
    println!(
        "  routed to closest    {:6.1} %",
        100.0 * past.fraction_at_or_below(0.0)
    );
    println!(
        "  within 400 km        {:6.1} %",
        100.0 * past.fraction_at_or_below(400.0)
    );
    println!(
        "  within 1375 km       {:6.1} %",
        100.0 * past.fraction_at_or_below(1375.0)
    );

    // One concrete client, end to end.
    let client = &scenario.clients[0];
    let route = scenario.internet.anycast_route(&client.attachment, day);
    let metro = client.metro(scenario.internet.topology());
    println!(
        "\nexample client: {} near {}, {} → served by {} ({:.1} ms base RTT)",
        client.prefix,
        metro.name,
        metro.country,
        deployment.front_end(route.site).label,
        route.base_rtt_ms,
    );
    println!(
        "path:\n{}",
        scenario
            .internet
            .path_of(&client.attachment, &route)
            .render(&scenario.internet.topology().atlas)
    );
}
