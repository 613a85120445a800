//! The five pinned workloads.
//!
//! Each workload sizes a **fixed** amount of work from `--seconds` and the
//! pinned per-segment cost below, then measures that work. The work is a
//! function of `(workload, seed, seconds)` only, never of how fast the run
//! goes: a faster commit finishes sooner, and `attempted`, the table
//! sizes and `peak_rss_mb` stay comparable between commits.

pub mod campaign;
pub mod retrain;
pub mod serve;

use crate::adapter::World;
use crate::report::Outcome;

/// How one run is parameterised.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
}

/// Set-ups timed in an end-to-end run; `setup_s` is their median. Three
/// left the median at the mercy of one host stall (set-ups of 7.6 s, 2.8 s
/// and 3.8 s were seen for a 2.1 s set-up). A traced run sets up once.
pub const SETUP_REPEATS: usize = 5;

/// The set-up times of an end-to-end run: `first_s`, the set-up the
/// measured phase ran on, then `set_up` timed [`SETUP_REPEATS`]` - 1` more
/// times. A user's process sets up once, so the repeats run after the
/// measured phase and after `peak_rss_mb` is read: memory that earlier
/// set-ups left behind in the allocator is not the workload's. `set_up`
/// returns the seconds it took and drops what it built.
pub fn set_up_times(first_s: f64, mut set_up: impl FnMut() -> f64) -> Vec<f64> {
    let mut times = vec![first_s];
    times.extend((1..SETUP_REPEATS).map(|_| set_up()));
    times
}

/// Segments for `seconds` of work at a pinned cost per segment, at least
/// three so a median exists.
pub fn segments(seconds: f64, seconds_per_segment: f64) -> u32 {
    ((seconds / seconds_per_segment).round() as u32).max(3)
}

/// Runs a workload by name.
pub fn run(name: &'static str, args: &RunArgs) -> std::io::Result<Outcome> {
    Ok(match name {
        "campaign_legacy" => campaign::run(name, World::Legacy, args),
        "campaign_policy75k" => campaign::run(name, World::Policy75k, args),
        "retrain_publish" => retrain::run(name, args),
        "serve_ecs_steady" => serve::run(name, crate::synth::Mix::Steady, args)?,
        "serve_mixed_swap" => serve::run(name, crate::synth::Mix::Mixed, args)?,
        other => unreachable!("{other} is not a workload; main checks names"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_sized_from_seconds_alone() {
        assert_eq!(segments(15.0, 1.05), 14);
        assert_eq!(segments(1.5, 1.05), 3);
        assert_eq!(segments(0.0, 2.1), 3);
        assert_eq!(segments(15.0, 2.1), 7);
    }
}
