//! Reproducing the §5 case studies with simulated traceroutes.
//!
//! ```sh
//! cargo run --release --example troubleshoot_paths
//! ```
//!
//! The paper troubleshot poor anycast routes with RIPE Atlas traceroutes
//! and found two recurring patterns:
//!
//! 1. **BGP's blindness to internal topology** — traffic ingresses at a
//!    border router whose internal route to the nearest front-end is long,
//!    so a farther front-end serves the client;
//! 2. **remote peering** — the ISP hands traffic off at a distant exchange
//!    (their examples: Denver→Phoenix, Moscow→Stockholm).
//!
//! This example scans the simulated world for both patterns and prints the
//! offending paths next to the unicast path the client *could* have had.

use anycast_cdn::core::Deployment;
use anycast_cdn::netsim::{Day, EgressPolicy};
use anycast_cdn::workload::{Scenario, ScenarioConfig};

fn main() {
    let scenario = Scenario::build(ScenarioConfig {
        seed: 3,
        ..Default::default()
    })
    .expect("default configuration is valid");
    let topo = scenario.internet.topology();
    let deployment = Deployment::of(&scenario.internet);
    let day = Day(0);

    // Case 1: remote-peering / fixed-egress pathologies — the client's ISP
    // carries traffic to a distant hand-off point.
    println!("=== case study: distant peering hand-off ===\n");
    let mut shown = 0;
    for client in &scenario.clients {
        let eyeball = topo.eyeball(client.attachment.as_id);
        let pathological = eyeball.peering_borders.len() == 1
            || matches!(eyeball.egress_policy, EgressPolicy::FixedEgress(_));
        if !pathological {
            continue;
        }
        let route = scenario.internet.anycast_route(&client.attachment, day);
        let ingress_metro = topo.atlas.metro(topo.cdn.border_metro(route.ingress));
        let client_metro = client.metro(topo);
        let handoff_km = client
            .attachment
            .location
            .haversine_km(&ingress_metro.location());
        if handoff_km < 900.0 {
            continue; // only show the egregious ones
        }
        let best = deployment.nearest(&client.attachment.location, 1)[0];
        let unicast = scenario
            .internet
            .unicast_route(&client.attachment, best.0, day);
        if unicast.base_rtt_ms >= route.base_rtt_ms {
            // The nearby front-end is not actually faster for this client
            // (e.g. its single-prefix route is itself poor); not a case
            // study.
            continue;
        }
        println!(
            "client near {}, {} (AS{}) → hand-off in {}, {} ({handoff_km:.0} km away)",
            client_metro.name,
            client_metro.country,
            eyeball.id.0,
            ingress_metro.name,
            ingress_metro.country,
        );
        println!(
            "  anycast: {:5.1} ms via {}\n{}",
            route.base_rtt_ms,
            deployment.front_end(route.site).label,
            indent(
                &scenario
                    .internet
                    .path_of(&client.attachment, &route)
                    .render(&topo.atlas)
            )
        );
        println!(
            "  best unicast: {:5.1} ms via {}\n{}",
            unicast.base_rtt_ms,
            deployment.front_end(best.0).label,
            indent(
                &scenario
                    .internet
                    .path_of(&client.attachment, &unicast)
                    .render(&topo.atlas)
            )
        );
        shown += 1;
        if shown >= 2 {
            break;
        }
    }

    // Case 2: IGP divergence — a peering-only border whose IGP-selected
    // front-end is not the geographically nearest one. Whether a given
    // world rolls one depends on the seed, so scan a few worlds until we
    // find the pattern.
    println!("=== case study: internal topology the announcement cannot express ===\n");
    'seeds: for seed in 0..32u64 {
        let world = Scenario::build(ScenarioConfig {
            seed,
            ..Default::default()
        })
        .expect("valid config");
        let wtopo = world.internet.topology();
        let wdeploy = Deployment::of(&world.internet);
        for (b_idx, border) in wtopo.cdn.borders.iter().enumerate() {
            if border.colocated_site.is_some() {
                continue;
            }
            let b = anycast_cdn::netsim::BorderId(b_idx as u16);
            let bloc = wtopo.atlas.metro(border.metro).location();
            let selected =
                anycast_cdn::netsim::igp::select_site(wtopo, b, 0, &[]).expect("a CDN has sites");
            let geo_nearest = wdeploy.nearest(&bloc, 1)[0].0;
            if selected == geo_nearest {
                continue;
            }
            let bm = wtopo.atlas.metro(border.metro);
            println!(
                "world seed {seed}: border router in {}, {} —\n  IGP serves {} although {} is geographically nearest",
                bm.name,
                bm.country,
                wdeploy.front_end(selected).label,
                wdeploy.front_end(geo_nearest).label,
            );
            println!(
                "  (internal cost to {} is inflated — \"with anycast, there is no way to\n   \
                 communicate this internal topology information in a BGP announcement\")",
                wdeploy.front_end(geo_nearest).label
            );
            break 'seeds;
        }
    }
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("      {l}\n")).collect()
}
