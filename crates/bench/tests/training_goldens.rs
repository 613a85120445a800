//! Goldens, byte for byte: the three artifacts that read a trained table,
//! and the two that route through a `RouteSnapshot` over something other
//! than the steady legacy world.
//!
//! All three go through `Predictor::train`: `fig9` on one day at both
//! groupings, `ablation-table-compression` with aggregation and
//! `ablation-training-window` over multi-day windows, so a change to the
//! trainer that moves a served choice, a score or a gain shows up here as
//! a diff.
//! `ablation-world-scale` runs two-day studies on policy worlds (default
//! flap rates, so the snapshot's route-dynamics timeline answers beacons)
//! and reports the catchment tables' bytes; `extra-failover` drives the
//! snapshot's site-outage fallback on a failure world. The files under
//! `goldens/` are the stdout of `figures <id> --scale small --seed 7`;
//! regenerate them only for a change that *means* to move a table or a
//! route.

use anycast_bench::worlds::Scale;

const SEED: u64 = 7;

fn assert_matches_golden(id: &str, golden: &str) {
    let result = anycast_bench::compute(id, Scale::Small, SEED).expect("a known artifact id");
    // `figures` prints the rendering with `println!`.
    let got = format!("{}\n", result.render());
    if got != golden {
        let line = got
            .lines()
            .zip(golden.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "{id} drifted from tests/goldens/{id}.txt at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            golden.lines().nth(line),
        );
    }
}

#[test]
fn fig9_matches_its_golden() {
    assert_matches_golden("fig9", include_str!("goldens/fig9.txt"));
}

#[test]
fn table_compression_matches_its_golden() {
    assert_matches_golden(
        "ablation-table-compression",
        include_str!("goldens/ablation-table-compression.txt"),
    );
}

#[test]
fn training_window_matches_its_golden() {
    assert_matches_golden(
        "ablation-training-window",
        include_str!("goldens/ablation-training-window.txt"),
    );
}

#[test]
fn world_scale_matches_its_golden() {
    assert_matches_golden(
        "ablation-world-scale",
        include_str!("goldens/ablation-world-scale.txt"),
    );
}

#[test]
fn failover_matches_its_golden() {
    assert_matches_golden("extra-failover", include_str!("goldens/extra-failover.txt"));
}
