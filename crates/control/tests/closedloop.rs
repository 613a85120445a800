//! Closed-loop acceptance and determinism contracts.
//!
//! The ISSUE's bar, pinned as tests:
//! * with one site's capacity below its offered load, the closed loop
//!   cuts the overload integral by ≥90% vs the valve-only baseline, at a
//!   bounded median latency inflation;
//! * the wire replay is bit-identical across worker counts and reruns;
//! * with no capacities configured, the control plane is byte-for-byte
//!   invisible: identical answers, zero table swaps;
//! * left alone, the wire measures exactly the overload the model
//!   projects, epoch by epoch.

use std::collections::BTreeMap;

use anycast_control::{
    replay_wire, simulate, CapacityPlan, ControlConfig, ControlMode, DemandModel, EpochDemand,
    LoopConfig, RunReport,
};
use anycast_core::prediction::{Grouping, PredictionTable, Predictor, PredictorConfig};
use anycast_core::{Study, StudyConfig};
use anycast_netsim::{Day, SiteId, WorldGenConfig};
use anycast_workload::{Scenario, ScenarioConfig};

fn trained(seed: u64) -> (Study, PredictionTable) {
    let mut study = Study::new(Scenario::small(seed), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ldns,
        ..PredictorConfig::default()
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    (study, table)
}

/// An outage world: a quarter of the fleet goes dark for the whole day
/// when the outage is drawn, shifting anycast catchments persistently.
fn trained_outage(seed: u64) -> (Study, PredictionTable) {
    trained_outage_in(ScenarioConfig::small(seed))
}

/// The same outages on a 300-AS policy-routed world.
fn trained_policy_outage(seed: u64) -> (Study, PredictionTable) {
    let mut cfg = ScenarioConfig::small(seed);
    cfg.net.worldgen = Some(WorldGenConfig::with_ases(300));
    trained_outage_in(cfg)
}

fn trained_outage_in(mut cfg: ScenarioConfig) -> (Study, PredictionTable) {
    cfg.net.p_site_outage = 0.25;
    cfg.net.outage_duration_s = 86_400.0;
    let mut study = Study::new(
        Scenario::build(cfg).expect("valid config"),
        StudyConfig::default(),
    );
    study.run_day(Day(0));
    let pcfg = PredictorConfig {
        grouping: Grouping::Ldns,
        ..PredictorConfig::default()
    };
    let table = Predictor::new(pcfg).train(study.dataset(), Day(0));
    (study, table)
}

fn loop_cfg(mode: ControlMode) -> LoopConfig {
    LoopConfig {
        grouping: Grouping::Ldns,
        day: Day(1),
        epochs: 4,
        control: ControlConfig { mode },
        ..LoopConfig::default()
    }
}

/// Load at `site` the controller could actually move away this epoch:
/// for each group contributing there, the reduction its first
/// load-reducing deeper candidate would achieve (the controller's own
/// movability rule, headroom aside).
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

/// Per-site `(peak movable, total movable, peak unmovable)` across the
/// day's epochs.
fn site_profile(model: &DemandModel, table: &PredictionTable) -> BTreeMap<SiteId, (f64, f64, f64)> {
    let mut out: BTreeMap<SiteId, (f64, f64, f64)> = BTreeMap::new();
    for epoch in &model.epochs {
        let loads = epoch.project(table, &BTreeMap::new());
        for (&s, &l) in &loads {
            let m = movable_at(epoch, table, s);
            let e = out.entry(s).or_insert((0.0, 0.0, 0.0));
            e.0 = e.0.max(m);
            e.1 += m;
            e.2 = e.2.max(l - m);
        }
    }
    out
}

fn model_for(scenario: &Scenario, table: &PredictionTable, cfg: &LoopConfig) -> DemandModel {
    DemandModel::build(
        scenario,
        table,
        cfg.grouping,
        cfg.day,
        cfg.epochs,
        cfg.query_cap,
    )
}

/// Undersizes the site with the most steerable load across the day: its
/// budget is its peak unmovable load plus 5% of its peak movable load,
/// so the overload can only clear by actually steering groups away.
fn undersize_busiest_site(
    scenario: &Scenario,
    table: &PredictionTable,
    cfg: &LoopConfig,
) -> (CapacityPlan, SiteId) {
    let profile = site_profile(&model_for(scenario, table, cfg), table);
    let (&busiest, &(peak_movable, _, peak_unmovable)) = profile
        .iter()
        .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1).then_with(|| b.0.cmp(a.0)))
        .expect("a trained small world steers load somewhere");
    assert!(peak_movable > 0.0, "chosen site must have steerable load");
    let mut plan = CapacityPlan::new();
    plan.set(busiest, peak_unmovable + 0.05 * peak_movable);
    (plan, busiest)
}

#[test]
fn shedding_cuts_the_overload_integral_by_90_percent() {
    let (study, table) = trained(42);
    let scenario = study.scenario();
    let (caps, busiest) = undersize_busiest_site(scenario, &table, &loop_cfg(ControlMode::Off));

    let off = simulate(scenario, &table, &loop_cfg(ControlMode::Off), &caps);
    let shed = simulate(scenario, &table, &loop_cfg(ControlMode::Shed), &caps);

    assert!(
        off.overload_integral > 0.0,
        "site {busiest:?} must actually be undersized"
    );
    assert!(
        shed.overload_integral <= 0.1 * off.overload_integral,
        "closed loop must shed ≥90% of the overload integral: \
         off {} vs shed {}",
        off.overload_integral,
        shed.overload_integral
    );
    // The latency price of that health stays bounded: steering never
    // costs the query population more than 50ms per query, median or
    // worst epoch.
    assert!(
        shed.median_inflation_ms >= 0.0 && shed.median_inflation_ms <= 50.0,
        "median inflation out of bounds: {} ms",
        shed.median_inflation_ms
    );
    let worst = shed
        .epochs
        .iter()
        .map(|e| e.mean_inflation_ms)
        .fold(0.0f64, f64::max);
    assert!(
        worst <= 50.0,
        "worst-epoch inflation out of bounds: {worst} ms"
    );
    assert!(off.median_inflation_ms == 0.0, "baseline steers nothing");
    assert!(shed.epochs.iter().any(|e| e.moves > 0), "groups moved");
}

#[test]
fn withdrawal_is_the_blunter_instrument() {
    // §2's claim, closed-loop edition: withdrawing the overloaded site
    // dumps its entire catchment on a neighbour, so with realistic
    // budgets everywhere it cascades where targeted shedding fits.
    let (study, table) = trained(42);
    let scenario = study.scenario();
    let cfg_off = loop_cfg(ControlMode::Off);
    let peaks = model_for(scenario, &table, &cfg_off).peak_loads(&table);
    let (mut caps, busiest) = undersize_busiest_site(scenario, &table, &cfg_off);
    // Every other site gets a realistic budget: 30% above its own peak.
    for (&s, &peak_load) in &peaks {
        if s != busiest {
            caps.set(s, 1.3 * peak_load.max(1.0));
        }
    }

    let shed = simulate(scenario, &table, &loop_cfg(ControlMode::Shed), &caps);
    let withdrawn = simulate(scenario, &table, &loop_cfg(ControlMode::Withdraw), &caps);
    assert!(
        withdrawn.overload_integral > shed.overload_integral,
        "withdraw ({}) must cascade where shedding ({}) fits",
        withdrawn.overload_integral,
        shed.overload_integral
    );
    assert!(
        withdrawn.epochs.iter().any(|e| e.moves > 0),
        "a site went down"
    );
}

#[test]
fn wire_replay_is_bit_identical_across_workers_and_reruns() {
    let (study, table) = trained(43);
    let scenario = study.scenario();
    let cfg = loop_cfg(ControlMode::Shed);
    let (caps, _) = undersize_busiest_site(scenario, &table, &cfg);

    let one = replay_wire(scenario, &table, &cfg, &caps, 1);
    let two = replay_wire(scenario, &table, &cfg, &caps, 2);
    let four = replay_wire(scenario, &table, &cfg, &caps, 4);
    let rerun = replay_wire(scenario, &table, &cfg, &caps, 1);

    assert_eq!(one, two, "1 vs 2 workers must serve identical bytes");
    assert_eq!(one, four, "1 vs 4 workers must serve identical bytes");
    assert_eq!(one, rerun, "reruns must be bit-identical");
    assert_ne!(one.report.answers_digest, 0);
    // The loop actually engaged: a rewritten table was swapped in.
    assert!(one.report.table_swaps > 0, "control must have acted");
}

#[test]
fn no_capacities_means_byte_identical_answers_and_zero_swaps() {
    let (study, table) = trained(44);
    let scenario = study.scenario();
    let cfg = loop_cfg(ControlMode::Shed);

    // Knobs off twice over: an armed controller with an empty plan, and
    // the plain Off mode. Both must serve the same bytes and never swap.
    let armed = replay_wire(scenario, &table, &cfg, &CapacityPlan::new(), 1);
    let mut off_cfg = cfg;
    off_cfg.control.mode = ControlMode::Off;
    let off = replay_wire(scenario, &table, &off_cfg, &CapacityPlan::new(), 1);

    assert_eq!(
        armed.answers, off.answers,
        "control plane must be invisible"
    );
    assert_eq!(armed.report.answers_digest, off.report.answers_digest);
    assert_eq!(armed.report.table_swaps, 0);
    assert_eq!(off.report.table_swaps, 0);
    assert!(armed
        .report
        .epochs
        .iter()
        .all(|e| !e.swapped && e.moves == 0));
    assert_eq!(
        armed.report.overload_integral, 0.0,
        "uncapacitated = healthy"
    );
}

#[test]
fn wire_loop_clears_overload_after_convergence() {
    // The example's contract, pinned: replay with one undersized site —
    // after the reactive controller converges, no site stays overloaded.
    // The budget is built so the overload is visible from epoch 0: the
    // site with the most epoch-0 movable load gets its peak unmovable
    // load plus a sliver.
    let (study, table) = trained(42);
    let scenario = study.scenario();
    let cfg = loop_cfg(ControlMode::Shed);
    let model = model_for(scenario, &table, &cfg);
    let profile = site_profile(&model, &table);
    let (site, movable0) = profile
        .keys()
        .map(|&s| (s, movable_at(&model.epochs[0], &table, s)))
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("sites exist");
    assert!(movable0 > 0.0);
    let mut caps = CapacityPlan::new();
    caps.set(site, profile[&site].2 + 0.05 * movable0);

    let run = replay_wire(scenario, &table, &cfg, &caps, 1);
    assert!(
        run.report.epochs[0].overload > 0.0,
        "the first epoch must observe the overload: {:?}",
        run.report.epochs
    );
    let last = run.report.epochs.last().expect("epochs ran");
    assert_eq!(
        last.overload, 0.0,
        "after convergence no site remains overloaded: {:?}",
        run.report.epochs
    );
    assert!(run.report.table_swaps >= 1);
}

#[test]
fn the_wire_measures_the_overload_the_model_projects() {
    // The two harnesses share a demand model but not a measurement: the
    // model projects each epoch's load from the query plan, the wire
    // counts what a live server answered and where BGP took the VIP
    // answers. Left alone (Off mode, nothing swapped), both must see the
    // same overload in every epoch — on the default world and on two
    // where whole-day outages move anycast catchments, one of them
    // policy-routed.
    for (world, train) in [
        ("default", trained as fn(u64) -> (Study, PredictionTable)),
        ("outage", trained_outage),
        ("policy outage", trained_policy_outage),
    ] {
        for seed in [42, 43, 44] {
            let (study, table) = train(seed);
            let scenario = study.scenario();
            let cfg = loop_cfg(ControlMode::Off);
            let (caps, _) = undersize_busiest_site(scenario, &table, &cfg);
            let model = simulate(scenario, &table, &cfg, &caps);
            assert!(model.overload_integral > 0.0, "{world} world, seed {seed}");
            let wire = replay_wire(scenario, &table, &cfg, &caps, 1);
            let overloads = |r: &RunReport| r.epochs.iter().map(|e| e.overload).collect::<Vec<_>>();
            assert_eq!(
                overloads(&wire.report),
                overloads(&model),
                "{world} world, seed {seed}: wire vs model"
            );
            assert_eq!(wire.report.table_swaps, 0);
        }
    }
}
