//! Closed-loop load management vs. route withdrawal (§2's claims).
//!
//! ```sh
//! cargo run --release --example load_management
//! ```
//!
//! Anycast "is unaware of server load … simply withdrawing the route to
//! take that front-end offline can lead to cascading overloading of nearby
//! front-ends" (§2). This example closes that loop: it undersizes one
//! front-end, replays a day of DNS traffic against the real serving plane,
//! and lets the control plane measure per-site load from the server's own
//! tallies, water-fill the excess onto next-ranked candidates, and
//! hot-swap the rewritten table into the running server — epoch by epoch
//! until no site is overloaded. It then contrasts the BGP blunt
//! instrument, and finishes with the companion §2 claim: how rarely route
//! churn actually breaks TCP flows.

use std::collections::BTreeMap;

use anycast_cdn::control::{
    replay_wire, simulate, CapacityPlan, ControlConfig, ControlMode, DemandModel, EpochDemand,
    LoopConfig,
};
use anycast_cdn::core::flows::{disruption_rate, FlowModel};
use anycast_cdn::core::prediction::{Grouping, PredictionTable, Predictor, PredictorConfig};
use anycast_cdn::core::{Deployment, Study, StudyConfig};
use anycast_cdn::netsim::{Day, SiteId};
use anycast_cdn::workload::{scenario::seeded_rng, Scenario};

/// Load at `site` the controller could actually steer away this epoch:
/// per contributing group, the reduction its first load-reducing deeper
/// ranked candidate achieves.
fn movable_at(demand: &EpochDemand, table: &PredictionTable, site: SiteId) -> f64 {
    demand
        .groups
        .keys()
        .map(|&key| {
            let ranked = table.ranked(key);
            let Some(cur) = ranked.first() else {
                return 0.0;
            };
            let here = demand.contribution(key, cur.target, site);
            if here <= 0.0 {
                return 0.0;
            }
            ranked
                .iter()
                .skip(1)
                .map(|c| here - demand.contribution(key, c.target, site))
                .find(|&r| r > 0.0)
                .unwrap_or(0.0)
        })
        .sum()
}

fn main() {
    // Day 0 trains the candidate rankings the controller spills along.
    let mut study = Study::new(Scenario::small(42), StudyConfig::default());
    study.run_day(Day(0));
    let table = Predictor::new(PredictorConfig {
        grouping: Grouping::Ldns,
        ..PredictorConfig::default()
    })
    .train(study.dataset(), Day(0));
    let scenario = study.scenario();
    let deployment = Deployment::of(&scenario.internet);

    let cfg = LoopConfig {
        grouping: Grouping::Ldns,
        day: Day(1),
        epochs: 4,
        control: ControlConfig {
            mode: ControlMode::Shed,
        },
        ..LoopConfig::default()
    };

    // Undersize the front-end with the most steerable day-1 load: its
    // budget is its peak unmovable load plus a sliver, so only actual
    // DNS steering can clear the overload.
    let model = DemandModel::build(
        scenario,
        &table,
        cfg.grouping,
        cfg.day,
        cfg.epochs,
        cfg.query_cap,
    );
    let loads0 = model.epochs[0].project(&table, &BTreeMap::new());
    let (site, movable0) = loads0
        .keys()
        .map(|&s| (s, movable_at(&model.epochs[0], &table, s)))
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("the small world has sites");
    let peak_unmovable = model
        .epochs
        .iter()
        .map(|e| {
            let loads = e.project(&table, &BTreeMap::new());
            loads.get(&site).copied().unwrap_or(0.0) - movable_at(e, &table, site)
        })
        .fold(0.0, f64::max);
    let mut caps = CapacityPlan::new();
    caps.set(site, peak_unmovable + 0.05 * movable0);
    println!(
        "undersizing {}: capacity {:.0} vs epoch-0 offered load {:.0}",
        deployment.front_end(site).label,
        caps.get(site),
        loads0[&site],
    );

    // The closed loop, on the wire: serve the day over loopback UDP, read
    // the server's own per-address tallies at each epoch boundary, and
    // hot-swap rewritten tables into the running store.
    let run = replay_wire(scenario, &table, &cfg, &caps, 2);
    println!("\nclosed-loop replay (shed mode):");
    for e in &run.report.epochs {
        println!(
            "  epoch {}: {:>4.0} queries  overload {:>5.1}  moves {}  restored {}  {}",
            e.epoch,
            e.queries,
            e.overload,
            e.moves,
            e.restored,
            if e.swapped { "table swapped" } else { "steady" },
        );
    }
    let last = run.report.epochs.last().expect("epochs ran");
    assert!(
        run.report.epochs[0].overload > 0.0,
        "the first epoch must observe the overload"
    );
    assert_eq!(
        last.overload, 0.0,
        "after convergence no site remains overloaded"
    );
    println!(
        "  converged: no site remains overloaded \
         (overload integral {:.1}, median inflation {:.1} ms, {} table swaps)",
        run.report.overload_integral, run.report.median_inflation_ms, run.report.table_swaps,
    );

    // Remedy 2: the BGP blunt instrument. With realistic budgets on the
    // neighbours (30% above their own peaks), dumping the withdrawn
    // site's whole catchment on them cascades where shedding fits.
    let mut realistic = caps.clone();
    for (&s, &p) in &model.peak_loads(&table) {
        if s != site {
            realistic.set(s, 1.3 * p.max(1.0));
        }
    }
    let mut wd_cfg = cfg;
    wd_cfg.control.mode = ControlMode::Withdraw;
    let withdrawn = simulate(scenario, &table, &wd_cfg, &realistic);
    let shed = simulate(scenario, &table, &cfg, &realistic);
    println!(
        "\nwith realistic neighbour budgets (1.3× their peaks):\n  \
         shedding overload integral:    {:>6.1}\n  \
         withdrawing overload integral: {:>6.1}  (the §2 cascade)",
        shed.overload_integral, withdrawn.overload_integral,
    );

    // Companion claim: route churn barely breaks web flows.
    let mut rng = seeded_rng(17, 0xf10e);
    let web = disruption_rate(scenario, Day(0), FlowModel::web(), 3, &mut rng);
    let video = disruption_rate(scenario, Day(0), FlowModel::video(), 3, &mut rng);
    println!(
        "\nTCP disruption from route churn (day 0):\n  \
         web flows broken:   {:.4}% of {}\n  \
         video flows broken: {:.4}% of {}",
        100.0 * web.broken_fraction(),
        web.flows,
        100.0 * video.broken_fraction(),
        video.flows,
    );
}
