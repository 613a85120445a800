//! Obs-neutrality, byte for byte, at the figure level: metric recording
//! on or off must not move a byte of what `figures` prints. `fig3` runs a
//! campaign; the other four read a trained table (one per training path).
//!
//! A dedicated integration-test binary with a single test: it flips the
//! process-wide recording switch, which no other test may observe.

use anycast_bench::worlds::Scale;

const IDS: [&str; 5] = [
    "fig3",
    "fig9",
    "ablation-table-compression",
    "ablation-sketch-accuracy",
    "ablation-training-window",
];

fn render(id: &str) -> String {
    anycast_bench::compute(id, Scale::Small, 7)
        .expect("a known artifact id")
        .render()
}

#[test]
fn figures_are_byte_identical_with_recording_off() {
    anycast_obs::set_enabled(true);
    let on: Vec<String> = IDS.iter().map(|id| render(id)).collect();
    anycast_obs::set_enabled(false);
    let off: Vec<String> = IDS.iter().map(|id| render(id)).collect();
    anycast_obs::set_enabled(true);
    for ((id, on), off) in IDS.iter().zip(&on).zip(&off) {
        assert_eq!(on, off, "{id} changes when recording is off");
    }
}
