//! The closed loop: demand in, control decisions out, tables swapped.
//!
//! Two harnesses share the same controller:
//!
//! * [`simulate`] — the pure model. Each control epoch projects offered
//!   load from the [`DemandModel`], runs the controller (or the withdraw
//!   cascade, or nothing), and integrates the resulting overload. This is
//!   where the shed-vs-withdraw-vs-nothing tradeoff is measured.
//! * [`replay_wire`] — the real thing. A day of queries replays against a
//!   running [`anycast_serve::server::DnsServer`]; at each epoch boundary
//!   the loop reads the server's per-front-end answered tallies (the live
//!   load feed), steps the controller on the *measured* loads, and
//!   hot-swaps the rewritten [`CompiledTable`] into the server's
//!   [`TableStore`] so the next epoch is served under the new assignment.
//!
//! Both paths are deterministic: same scenario, table, and config produce
//! identical [`RunReport`]s — and the wire path's answers are
//! byte-identical across worker counts and reruns. With an empty
//! [`CapacityPlan`] (or [`ControlMode::Off`]) the loop never swaps and
//! the replay is byte-identical to an uncontrolled one.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use anycast_analysis::median;
use anycast_beacon::Target;
use anycast_core::prediction::{Grouping, PredictionTable};
use anycast_dns::LdnsId;
use anycast_geo::GeoPoint;
use anycast_netsim::{Day, SiteId};
use anycast_obs::counter;
use anycast_serve::client::WireClient;
use anycast_serve::replay::{day_query_plan, ldns_directory, ldns_source_addr, service_qname};
use anycast_serve::server::{DnsServer, ServeConfig};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_workload::Scenario;

use crate::capacity::{busiest, withdraw, CapacityPlan};
use crate::controller::{ControlConfig, ControlMode, Controller};
use crate::demand::{epoch_bounds, vip_landing, DemandModel, EpochDemand};

/// Closed-loop run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopConfig {
    /// Group granularity of the trained table.
    pub grouping: Grouping,
    /// Day replayed.
    pub day: Day,
    /// Control epochs the day is split into.
    pub epochs: usize,
    /// Cap on the day's query count (`usize::MAX` = the whole day).
    pub query_cap: usize,
    /// Controller tuning.
    pub control: ControlConfig,
}

impl Default for LoopConfig {
    fn default() -> LoopConfig {
        LoopConfig {
            grouping: Grouping::Ecs,
            day: Day(1),
            epochs: 6,
            query_cap: usize::MAX,
            control: ControlConfig::default(),
        }
    }
}

/// One control epoch's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Queries offered this epoch.
    pub queries: f64,
    /// Load above capacity this epoch (model: after rewrites; wire: as
    /// measured while the epoch was served).
    pub overload: f64,
    /// Groups demoted (shed) or sites withdrawn this epoch.
    pub moves: usize,
    /// Groups restored toward rank 0 this epoch.
    pub restored: usize,
    /// Mean per-query latency inflation of the steering in force, ms.
    pub mean_inflation_ms: f64,
    /// Whether a rewritten table was swapped into the server.
    pub swapped: bool,
}

/// A whole run's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Control mode the run used.
    pub mode: ControlMode,
    /// Per-epoch detail, in order.
    pub epochs: Vec<EpochReport>,
    /// Σ per-epoch overload — the headline health metric.
    pub overload_integral: f64,
    /// Median over epochs of the mean per-query inflation, ms — the
    /// latency price paid for that health.
    pub median_inflation_ms: f64,
    /// Tables swapped into the serving plane (0 on the model path and on
    /// byte-identical runs).
    pub table_swaps: u64,
    /// FNV-1a digest over every served `(addr, ttl, scope)` triple in
    /// order (0 on the model path).
    pub answers_digest: u64,
}

/// A wire replay's outcome: the report plus every served answer triple,
/// in query order, for byte-identity assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRunReport {
    /// The run report (with a non-zero answers digest).
    pub report: RunReport,
    /// Every `(addr, ttl, scope)` served, in order.
    pub answers: Vec<(Ipv4Addr, u32, u8)>,
}

/// Median of the per-epoch inflations, 0 for no epochs. `+ 0.0` folds
/// IEEE negative zero back to +0.0 so reports never print "-0".
fn median_or_zero(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0) + 0.0
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the closed loop purely against the demand model — no sockets.
///
/// All three [`ControlMode`]s are supported here; `Withdraw` is simulated
/// at site-load granularity (one withdrawal of the most-overloaded live
/// site per epoch, never reverted — BGP convergence is not free).
pub fn simulate(
    scenario: &Scenario,
    table: &PredictionTable,
    cfg: &LoopConfig,
    caps: &CapacityPlan,
) -> RunReport {
    let model = DemandModel::build(
        scenario,
        table,
        cfg.grouping,
        cfg.day,
        cfg.epochs,
        cfg.query_cap,
    );
    let sites = scenario.internet.site_locations();
    let mut controller = Controller::new(cfg.control, caps.clone(), &sites);
    let locations: BTreeMap<SiteId, GeoPoint> = sites.into_iter().collect();
    let mut withdrawn: Vec<SiteId> = Vec::new();
    let mut epochs = Vec::with_capacity(model.epochs.len());
    let mut inflations = Vec::with_capacity(model.epochs.len());

    for (i, demand) in model.epochs.iter().enumerate() {
        let queries = demand.total_queries();
        let rep = match cfg.control.mode {
            ControlMode::Off => {
                let loads = demand.project(table, &BTreeMap::new());
                EpochReport {
                    epoch: i,
                    queries,
                    overload: caps.overload(&loads),
                    moves: 0,
                    restored: 0,
                    mean_inflation_ms: 0.0,
                    swapped: false,
                }
            }
            ControlMode::Shed => {
                let step = controller.step(table, demand, None);
                EpochReport {
                    epoch: i,
                    queries,
                    overload: step.overload,
                    moves: step.moves,
                    restored: step.restored,
                    mean_inflation_ms: if queries > 0.0 {
                        step.inflation_ms_sum / queries
                    } else {
                        0.0
                    },
                    swapped: step.changed,
                }
            }
            ControlMode::Withdraw => {
                withdraw_epoch(i, demand, table, caps, &locations, &mut withdrawn, queries)
            }
        };
        inflations.push(rep.mean_inflation_ms);
        epochs.push(rep);
    }
    RunReport {
        mode: cfg.control.mode,
        overload_integral: epochs.iter().map(|e| e.overload).sum(),
        median_inflation_ms: median_or_zero(&inflations),
        table_swaps: 0,
        answers_digest: 0,
        epochs,
    }
}

/// One epoch of the withdraw cascade: standing withdrawals apply, the
/// epoch's overload is what the fleet suffered under them, and at the
/// epoch boundary the most-overloaded live site is taken offline (ties
/// to the lowest id) — BGP is reactive, so the relief (and the cascade
/// it causes) lands on the *next* epoch.
fn withdraw_epoch(
    epoch: usize,
    demand: &EpochDemand,
    table: &PredictionTable,
    caps: &CapacityPlan,
    locations: &BTreeMap<SiteId, GeoPoint>,
    withdrawn: &mut Vec<SiteId>,
    queries: f64,
) -> EpochReport {
    let proj = demand.project(table, &BTreeMap::new());
    let mut loads: BTreeMap<SiteId, f64> = locations
        .keys()
        .map(|&site| (site, proj.get(&site).copied().unwrap_or(0.0)))
        .collect();
    for &w in withdrawn.iter() {
        withdraw(&mut loads, locations, w);
    }
    let suffered = caps.overload(&loads);
    let standing = withdrawn.clone();
    let mut moved = 0usize;
    let overloaded = loads
        .iter()
        .map(|(&s, &l)| (s, caps.excess(s, l)))
        .filter(|&(_, over)| over > 0.0);
    if let Some(worst) = busiest(overloaded) {
        withdrawn.push(worst);
        moved = 1;
    }
    // Latency price: groups whose rank-0 site is gone fall to their next
    // live candidate where one is scored; displaced load with no scored
    // alternative (pinned, or rankings exhausted) pays the scored mean.
    let mut scored_ms = 0.0f64;
    let mut scored_q = 0.0f64;
    let mut unscored_q = 0.0f64;
    for (&key, g) in &demand.groups {
        let ranked = table.ranked(key);
        let Some(cur) = ranked.first() else { continue };
        let Target::Unicast(home) = cur.target else {
            continue;
        };
        if !standing.contains(&home) {
            continue;
        }
        let live = ranked.iter().skip(1).find(|c| match c.target {
            Target::Unicast(s) => !standing.contains(&s),
            Target::Anycast => true,
        });
        match live {
            Some(c) => {
                scored_ms += g.queries as f64 * (c.score_ms - cur.score_ms);
                scored_q += g.queries as f64;
            }
            None => unscored_q += g.queries as f64,
        }
    }
    for (site, l) in &demand.pinned {
        if standing.contains(site) {
            unscored_q += l;
        }
    }
    let mean_scored = if scored_q > 0.0 {
        scored_ms / scored_q
    } else {
        0.0
    };
    let total_ms = scored_ms + unscored_q * mean_scored;
    EpochReport {
        epoch,
        queries,
        overload: suffered,
        moves: moved,
        restored: 0,
        mean_inflation_ms: if queries > 0.0 {
            total_ms / queries
        } else {
            0.0
        },
        swapped: false,
    }
}

/// Answer TTL the replayed server serves, seconds.
const TTL_S: u32 = 60;

/// Replays a day of real queries against a running DNS server, closing
/// the loop live: per-front-end answered tallies are read at each epoch
/// boundary, the controller steps on the measured loads, and a rewritten
/// table is hot-swapped in for the next epoch.
///
/// Only [`ControlMode::Off`] and [`ControlMode::Shed`] are meaningful on
/// the wire — withdrawal is a BGP action, not a DNS one.
///
/// # Panics
/// Panics on [`ControlMode::Withdraw`] (simulate-only), or if the server
/// or a client socket cannot be set up.
pub fn replay_wire(
    scenario: &Scenario,
    table: &PredictionTable,
    cfg: &LoopConfig,
    caps: &CapacityPlan,
    workers: usize,
) -> WireRunReport {
    assert!(
        cfg.control.mode != ControlMode::Withdraw,
        "withdraw is a BGP action: simulate-only"
    );
    let model = DemandModel::build(
        scenario,
        table,
        cfg.grouping,
        cfg.day,
        cfg.epochs,
        cfg.query_cap,
    );
    let plan = day_query_plan(scenario, cfg.day, cfg.query_cap);
    let bounds = epoch_bounds(plan.len(), cfg.epochs);
    let addressing = scenario.addressing;

    let store = Arc::new(TableStore::new(CompiledTable::compile(
        table,
        cfg.grouping,
        addressing,
        TTL_S,
        0,
    )));
    let mut serve_cfg = ServeConfig::new(addressing.anycast_ip());
    serve_cfg.workers = workers;
    let server = DnsServer::spawn_tables(serve_cfg, store.clone(), ldns_directory(scenario))
        .expect("server spawns");

    let sites = scenario.internet.site_locations();
    let mut controller = Controller::new(cfg.control, caps.clone(), &sites);
    let qname = service_qname();
    let mut clients: BTreeMap<LdnsId, WireClient> = BTreeMap::new();
    let mut answers: Vec<(Ipv4Addr, u32, u8)> = Vec::with_capacity(plan.len());
    let mut prev_tally: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
    let mut epochs = Vec::with_capacity(bounds.len());
    let mut inflations = Vec::with_capacity(bounds.len());
    let mut swaps = 0u64;

    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        // Serve the epoch's chunk under the table currently installed.
        let mut vip_catchments: BTreeMap<SiteId, u64> = BTreeMap::new();
        let mut vip_lost = 0u64;
        for (j, (ci, spec)) in plan[lo..hi].iter().enumerate() {
            let server_addr = server.local_addr();
            let client = clients.entry(spec.ldns).or_insert_with(|| {
                WireClient::bind(ldns_source_addr(spec.ldns), server_addr).expect("client binds")
            });
            let a = client.query(&qname, spec.ecs.as_ref()).expect("wire query");
            if addressing.is_anycast(a.addr) {
                match vip_landing(scenario, *ci, cfg.day, lo + j, plan.len()) {
                    Some(site) => *vip_catchments.entry(site).or_insert(0) += 1,
                    None => vip_lost += 1,
                }
            }
            answers.push((a.addr, a.ttl_s, a.ecs_scope));
        }

        // The live load feed: per-front-end answered tallies, as deltas.
        let tally: BTreeMap<Ipv4Addr, u64> =
            server.stats().answered_by_addr().into_iter().collect();
        let mut measured: BTreeMap<SiteId, f64> = BTreeMap::new();
        let mut vip_total = 0u64;
        for (&addr, &n) in &tally {
            let delta = n - prev_tally.get(&addr).copied().unwrap_or(0);
            if delta == 0 {
                continue;
            }
            match addressing.site_for_ip(addr) {
                Some(site) => *measured.entry(site).or_insert(0.0) += delta as f64,
                None => vip_total += delta,
            }
        }
        prev_tally = tally;
        // VIP answers land where BGP takes each client: split the VIP
        // tally across the anycast catchments observed this epoch.
        debug_assert_eq!(vip_total, vip_catchments.values().sum::<u64>() + vip_lost);
        let _ = (vip_total, vip_lost);
        for (&site, &n) in &vip_catchments {
            *measured.entry(site).or_insert(0.0) += n as f64;
        }

        let queries = (hi - lo) as f64;
        let overload = caps.overload(&measured);

        let mut moves = 0;
        let mut restored = 0;
        let mut swapped = false;
        let mut inflation = 0.0;
        if cfg.control.mode == ControlMode::Shed {
            let step = controller.step(table, &model.epochs[i], Some(&measured));
            moves = step.moves;
            restored = step.restored;
            inflation = if queries > 0.0 {
                step.inflation_ms_sum / queries
            } else {
                0.0
            };
            if step.changed {
                swaps += 1;
                swapped = true;
                counter!("control_table_swaps_total").inc();
                store.swap(CompiledTable::compile_with_overrides(
                    table,
                    &step.overrides,
                    cfg.grouping,
                    addressing,
                    TTL_S,
                    swaps,
                ));
            }
        }
        inflations.push(inflation);
        epochs.push(EpochReport {
            epoch: i,
            queries,
            overload,
            moves,
            restored,
            mean_inflation_ms: inflation,
            swapped,
        });
    }

    let digest = fnv1a(answers.iter().flat_map(|&(addr, ttl, scope)| {
        addr.octets()
            .into_iter()
            .chain(ttl.to_be_bytes())
            .chain([scope])
    }));
    WireRunReport {
        report: RunReport {
            mode: cfg.control.mode,
            overload_integral: epochs.iter().map(|e| e.overload).sum(),
            median_inflation_ms: median_or_zero(&inflations),
            table_swaps: swaps,
            answers_digest: digest,
            epochs,
        },
        answers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_all_shapes() {
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median_or_zero(&[3.0]), 3.0);
        assert_eq!(median_or_zero(&[1.0, 3.0]), 2.0);
        assert_eq!(median_or_zero(&[9.0, 1.0, 3.0]), 3.0);
        assert!(median_or_zero(&[-0.0]).is_sign_positive());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = fnv1a([1u8, 2, 3]);
        let b = fnv1a([3u8, 2, 1]);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a([1u8, 2, 3]));
    }
}
