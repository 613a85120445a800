//! Next-day evaluation of the prediction scheme (Figure 9).
//!
//! "We evaluate the performance of the prediction scheme by comparing
//! against the performance observed in next day's beacon measurements. We
//! compare 50th and 75th anycast performance for the group to 50th and 75th
//! performance for the predicted front-end" (§6). The Bing team's internal
//! benchmark is the 75th percentile.
//!
//! Evaluation is per client /24 (the figure's y-axis is "CDF of weighted
//! /24s") even when the prediction was made at LDNS granularity: each
//! prefix inherits its resolver's predicted front-end.

use std::collections::HashMap;

use anycast_analysis::percentile;
use anycast_beacon::{BeaconDataset, Target};
use anycast_dns::LdnsId;
use anycast_netsim::{Day, Prefix24};

use crate::prediction::{Grouping, PredictionTable};

/// A map keyed by client /24: the form in which [`evaluate_prediction`]
/// takes each client's resolver and query volume, built from the
/// scenario's per-client columns by [`Study::ldns_of`](crate::Study::ldns_of)
/// and [`Study::volumes`](crate::Study::volumes).
pub type PrefixMap<V> = HashMap<Prefix24, V>;

/// One prefix's evaluation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalRow {
    /// The evaluated /24.
    pub prefix: Prefix24,
    /// Query-volume weight of the prefix.
    pub weight: f64,
    /// What the table predicted for this prefix's group (`Target::Anycast`
    /// when the prediction kept anycast or no prediction existed).
    pub choice: Target,
    /// `anycast_p50 − predicted_p50` on the evaluation day: positive means
    /// the prediction improved on anycast, negative means it hurt, zero
    /// means the prediction was (or fell back to) anycast.
    pub improvement_p50_ms: f64,
    /// Same at the 75th percentile.
    pub improvement_p75_ms: f64,
}

/// Evaluates a trained table against `eval_day`'s measurements.
///
/// `ldns_of` maps each prefix to its resolver (needed for
/// [`Grouping::Ldns`]); `volumes` supplies the query-volume weights. A
/// prefix is evaluated only if the eval day has anycast samples for it and
/// — when the choice is a unicast front-end — samples to that front-end;
/// otherwise the comparison the paper makes is undefined for that prefix.
pub fn evaluate_prediction(
    table: &PredictionTable,
    grouping: Grouping,
    data: &BeaconDataset,
    eval_day: Day,
    ldns_of: &PrefixMap<LdnsId>,
    volumes: &PrefixMap<u64>,
) -> Vec<EvalRow> {
    // Per `(prefix, target)`, the latencies of the eval day's served
    // fetches. A failed fetch has no latency to compare.
    let by_pair = data.by_prefix_target(eval_day);
    let served_to = |prefix, target| by_pair.get(&(prefix, target));
    let mut prefixes: Vec<Prefix24> = by_pair.keys().map(|&(p, _)| p).collect();
    prefixes.sort();
    prefixes.dedup();

    let mut out = Vec::new();
    for prefix in prefixes {
        let Some(anycast_samples) = served_to(prefix, Target::Anycast) else {
            continue;
        };
        // The prefix asks as a /24 ECS query from its resolver would. An
        // LDNS table cannot place a prefix whose resolver is unknown; an
        // ECS table never reads the resolver.
        let ldns = match ldns_of.get(&prefix) {
            Some(&l) => l,
            None if grouping == Grouping::Ldns => continue,
            None => LdnsId(0),
        };
        let choice = table
            .match_query(grouping, ldns, Some(prefix.into()))
            .map_or(Target::Anycast, |(_, c)| c.target);
        let (p50, p75) = match choice {
            Target::Anycast => (0.0, 0.0),
            Target::Unicast(_) => {
                let Some(chosen_samples) = served_to(prefix, choice) else {
                    continue;
                };
                let any50 = percentile(anycast_samples, 50.0);
                let any75 = percentile(anycast_samples, 75.0);
                let cho50 = percentile(chosen_samples, 50.0);
                let cho75 = percentile(chosen_samples, 75.0);
                match (any50, any75, cho50, cho75) {
                    (Some(a50), Some(a75), Some(c50), Some(c75)) => (a50 - c50, a75 - c75),
                    _ => continue,
                }
            }
        };
        out.push(EvalRow {
            prefix,
            weight: volumes.get(&prefix).copied().unwrap_or(1) as f64,
            choice,
            improvement_p50_ms: p50,
            improvement_p75_ms: p75,
        });
    }
    out
}

/// Summary fractions over an evaluation: `(improved, unchanged, hurt)`
/// weighted shares at the given percentile (`true` → p50, `false` → p75).
/// "Improved"/"hurt" use a small epsilon so measurement-noise ties count as
/// unchanged.
pub fn outcome_shares(rows: &[EvalRow], use_p50: bool) -> (f64, f64, f64) {
    let eps = 1e-9;
    let total: f64 = rows.iter().map(|r| r.weight).sum();
    if total == 0.0 {
        return (0.0, 0.0, 0.0);
    }
    let mut improved = 0.0;
    let mut hurt = 0.0;
    for r in rows {
        let v = if use_p50 {
            r.improvement_p50_ms
        } else {
            r.improvement_p75_ms
        };
        if v > eps {
            improved += r.weight;
        } else if v < -eps {
            hurt += r.weight;
        }
    }
    (
        improved / total,
        1.0 - (improved + hurt) / total,
        hurt / total,
    )
}

#[cfg(test)]
// `evaluate_prediction` takes std `PrefixMap`s, a type the benchmark's
// adapter pins; these tests hand it empty or one-entry maps it only looks
// up, so no hash order can reach an output.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::prediction::{Predictor, PredictorConfig};
    use anycast_beacon::{BeaconMeasurement, Slot};
    use anycast_netsim::SiteId;
    use std::net::Ipv4Addr;

    fn prefix(n: u8) -> Prefix24 {
        Prefix24::containing(Ipv4Addr::new(11, 0, n, 1))
    }

    fn rows_on(
        day: u32,
        exec_base: u64,
        p: Prefix24,
        target: Target,
        rtts: &[f64],
    ) -> Vec<BeaconMeasurement> {
        rtts.iter()
            .enumerate()
            .map(|(i, &rtt)| {
                let slot = match target {
                    Target::Anycast => Slot::Anycast,
                    Target::Unicast(_) => Slot::GeoClosest,
                };
                BeaconMeasurement {
                    measurement_id: slot.id_for(exec_base + i as u64),
                    slot,
                    prefix: p,
                    ldns: LdnsId(0),
                    ecs: None,
                    target,
                    served_site: match target {
                        Target::Anycast => SiteId(0),
                        Target::Unicast(s) => s,
                    },
                    rtt_ms: rtt,
                    failed: false,
                    day: Day(day),
                    time_s: 0.0,
                }
            })
            .collect()
    }

    fn train_eval_dataset() -> BeaconDataset {
        let mut ds = BeaconDataset::new();
        // Day 0 (training): prefix 1 is badly served by anycast.
        ds.extend(rows_on(0, 0, prefix(1), Target::Anycast, &[100.0; 25]));
        ds.extend(rows_on(
            0,
            100,
            prefix(1),
            Target::Unicast(SiteId(3)),
            &[60.0; 25],
        ));
        // Day 1 (eval): the improvement persists (stable pathology).
        ds.extend(rows_on(1, 200, prefix(1), Target::Anycast, &[95.0; 20]));
        ds.extend(rows_on(
            1,
            300,
            prefix(1),
            Target::Unicast(SiteId(3)),
            &[58.0; 20],
        ));
        ds
    }

    #[test]
    fn persistent_pathology_shows_positive_improvement() {
        let ds = train_eval_dataset();
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        let rows = evaluate_prediction(
            &table,
            Grouping::Ecs,
            &ds,
            Day(1),
            &HashMap::new(),
            &HashMap::from([(prefix(1), 10u64)]),
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].choice, Target::Unicast(SiteId(3)));
        assert!((rows[0].improvement_p50_ms - 37.0).abs() < 1e-9);
        assert_eq!(rows[0].weight, 10.0);
        let (improved, unchanged, hurt) = outcome_shares(&rows, true);
        assert_eq!((improved, unchanged, hurt), (1.0, 0.0, 0.0));
    }

    #[test]
    fn transient_pathology_shows_negative_improvement() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows_on(0, 0, prefix(1), Target::Anycast, &[100.0; 25]));
        ds.extend(rows_on(
            0,
            100,
            prefix(1),
            Target::Unicast(SiteId(3)),
            &[60.0; 25],
        ));
        // Day 1: the route healed; anycast is now better.
        ds.extend(rows_on(1, 200, prefix(1), Target::Anycast, &[40.0; 20]));
        ds.extend(rows_on(
            1,
            300,
            prefix(1),
            Target::Unicast(SiteId(3)),
            &[58.0; 20],
        ));
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        let rows = evaluate_prediction(
            &table,
            Grouping::Ecs,
            &ds,
            Day(1),
            &HashMap::new(),
            &HashMap::new(),
        );
        assert!(rows[0].improvement_p50_ms < 0.0);
        let (_, _, hurt) = outcome_shares(&rows, true);
        assert_eq!(hurt, 1.0);
    }

    #[test]
    fn anycast_choice_scores_zero() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows_on(0, 0, prefix(1), Target::Anycast, &[40.0; 25]));
        ds.extend(rows_on(
            0,
            100,
            prefix(1),
            Target::Unicast(SiteId(3)),
            &[60.0; 25],
        ));
        ds.extend(rows_on(1, 200, prefix(1), Target::Anycast, &[40.0; 20]));
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        let rows = evaluate_prediction(
            &table,
            Grouping::Ecs,
            &ds,
            Day(1),
            &HashMap::new(),
            &HashMap::new(),
        );
        assert_eq!(rows[0].choice, Target::Anycast);
        assert_eq!(rows[0].improvement_p50_ms, 0.0);
        let (_, unchanged, _) = outcome_shares(&rows, false);
        assert_eq!(unchanged, 1.0);
    }

    #[test]
    fn ldns_grouping_propagates_group_choice_to_prefixes() {
        let mut ds = BeaconDataset::new();
        // Training day: all data under LDNS 5, pooled.
        ds.extend(rows_on(0, 0, prefix(1), Target::Anycast, &[100.0; 15]));
        ds.extend(rows_on(0, 100, prefix(2), Target::Anycast, &[100.0; 15]));
        ds.extend(rows_on(
            0,
            200,
            prefix(1),
            Target::Unicast(SiteId(2)),
            &[50.0; 15],
        ));
        ds.extend(rows_on(
            0,
            300,
            prefix(2),
            Target::Unicast(SiteId(2)),
            &[50.0; 15],
        ));
        // Eval day: prefix 1 measured both targets.
        ds.extend(rows_on(1, 400, prefix(1), Target::Anycast, &[100.0; 5]));
        ds.extend(rows_on(
            1,
            500,
            prefix(1),
            Target::Unicast(SiteId(2)),
            &[52.0; 5],
        ));
        let mut ds5 = BeaconDataset::new();
        // Rebuild with ldns 5 on every row.
        let rows: Vec<BeaconMeasurement> = ds
            .measurements()
            .iter()
            .map(|m| BeaconMeasurement {
                ldns: LdnsId(5),
                ..*m
            })
            .collect();
        ds5.extend(rows);
        let cfg = PredictorConfig {
            grouping: Grouping::Ldns,
            ..Default::default()
        };
        let table = Predictor::new(cfg).train(&ds5, Day(0));
        let ldns_of = HashMap::from([(prefix(1), LdnsId(5)), (prefix(2), LdnsId(5))]);
        let rows = evaluate_prediction(
            &table,
            Grouping::Ldns,
            &ds5,
            Day(1),
            &ldns_of,
            &HashMap::new(),
        );
        assert_eq!(rows.len(), 1); // prefix 2 has no eval-day data
        assert_eq!(rows[0].prefix, prefix(1));
        assert!(rows[0].improvement_p50_ms > 0.0);
    }

    #[test]
    fn missing_eval_samples_drop_the_row() {
        let ds = {
            let mut ds = BeaconDataset::new();
            ds.extend(rows_on(0, 0, prefix(1), Target::Anycast, &[100.0; 25]));
            ds.extend(rows_on(
                0,
                100,
                prefix(1),
                Target::Unicast(SiteId(3)),
                &[60.0; 25],
            ));
            // Eval day: anycast only — the predicted front-end was never
            // measured, so the comparison is undefined.
            ds.extend(rows_on(1, 200, prefix(1), Target::Anycast, &[95.0; 20]));
            ds
        };
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        let rows = evaluate_prediction(
            &table,
            Grouping::Ecs,
            &ds,
            Day(1),
            &HashMap::new(),
            &HashMap::new(),
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn outcome_shares_empty_input() {
        assert_eq!(outcome_shares(&[], true), (0.0, 0.0, 0.0));
    }

    #[test]
    fn availability_reflects_eval_day_failures() {
        let mut ds = BeaconDataset::new();
        ds.extend(rows_on(0, 0, prefix(1), Target::Anycast, &[40.0; 25]));
        // Eval day: 15 served, 5 timed out.
        ds.extend(rows_on(1, 200, prefix(1), Target::Anycast, &[40.0; 15]));
        let mut bad = rows_on(1, 300, prefix(1), Target::Anycast, &[6000.0; 5]);
        for m in &mut bad {
            m.failed = true;
        }
        ds.extend(bad);
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        let rows = evaluate_prediction(
            &table,
            Grouping::Ecs,
            &ds,
            Day(1),
            &HashMap::new(),
            &HashMap::new(),
        );
        assert_eq!(rows[0].choice, Target::Anycast);
        // The prefix is still evaluated, on its 15 served fetches.
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn failure_free_eval_has_full_availability() {
        let ds = train_eval_dataset();
        let table = Predictor::new(PredictorConfig::default()).train(&ds, Day(0));
        let rows = evaluate_prediction(
            &table,
            Grouping::Ecs,
            &ds,
            Day(1),
            &HashMap::new(),
            &HashMap::new(),
        );
        assert_eq!(rows.len(), 1);
    }
}
