//! Standard experiment worlds.
//!
//! Two scales:
//!
//! * [`Scale::Small`] — a reduced world (12 sites, 400 prefixes) that keeps
//!   tests and CI runs fast while exercising identical code paths;
//! * [`Scale::Paper`] — the calibrated default world (44 sites, 4 000
//!   client /24s, ~400 k queries/day) used to produce the numbers recorded
//!   in EXPERIMENTS.md.

use anycast_core::{Study, StudyConfig};
use anycast_workload::{Scenario, ScenarioConfig};
use rand::rngs::SmallRng;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast: small world, fewer days.
    Small,
    /// The EXPERIMENTS.md scale.
    Paper,
}

impl Scale {
    /// Parses `"small"` / `"paper"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The scenario configuration for a scale.
pub fn scenario_config(scale: Scale, seed: u64) -> ScenarioConfig {
    match scale {
        Scale::Small => ScenarioConfig::small(seed),
        Scale::Paper => ScenarioConfig {
            seed,
            ..Default::default()
        },
    }
}

/// Builds the scenario for a scale.
pub fn scenario(scale: Scale, seed: u64) -> Scenario {
    Scenario::build(scenario_config(scale, seed)).expect("standard configs are valid")
}

/// Builds a study (scenario + beacon campaign state) for a scale.
pub fn study(scale: Scale, seed: u64) -> Study {
    Study::new(scenario(scale, seed), StudyConfig::default())
}

/// The number of beacon-campaign days each figure uses at a scale.
/// Small scale trims the long experiments so benches stay quick.
pub fn figure_days(scale: Scale, paper_days: u32) -> u32 {
    match scale {
        Scale::Small => paper_days.min(7),
        Scale::Paper => paper_days,
    }
}

/// An independent RNG stream for experiment driving.
pub fn rng_for(seed: u64, salt: u64) -> SmallRng {
    anycast_workload::scenario::seeded_rng(seed, salt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_netsim::Day;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn small_study_runs_a_day() {
        let mut s = study(Scale::Small, 1);
        s.run_days(Day(0), 1);
        assert!(!s.dataset().is_empty());
    }

    #[test]
    fn figure_days_trims_small() {
        assert_eq!(figure_days(Scale::Small, 28), 7);
        assert_eq!(figure_days(Scale::Paper, 28), 28);
        assert_eq!(figure_days(Scale::Small, 2), 2);
    }
}
