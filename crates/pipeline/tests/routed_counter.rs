//! `pipeline_records_routed_total` is the rows the workers kept: a worker
//! that dies mid-stream reports none, and its survivor reports its share
//! whole.
//!
//! Dedicated integration-test binary: exact-count assertions run inside
//! `obs::capture` windows with nothing else in the process.

use anycast_beacon::Target;
use anycast_netsim::stream::mix64;
use anycast_pipeline::{sketch_day, ShardConfig};

#[test]
fn the_survivor_reports_the_rows_it_kept() {
    anycast_obs::set_enabled(true);
    // Key 9's owner meets a NaN latency mid-stream and dies; the other
    // worker finishes its share.
    let records = (0..1_000u64).map(|i| {
        let v = if i == 509 { f64::NAN } else { i as f64 };
        (i % 10, Target::Anycast, v)
    });
    let ((), delta) = anycast_obs::capture(|| {
        let died = std::panic::catch_unwind(|| {
            sketch_day(records, 0.05, ShardConfig { workers: 2 }, |k: &u64| {
                mix64(*k)
            })
        })
        .expect_err("the poisoned worker's death reaches the caller");
        let message = died.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("shard worker"), "{message}");
        assert!(message.contains("NaN fed to QuantileSketch"), "{message}");
    });
    assert_eq!(delta.counter("pipeline_shard_panics_total"), 1);
    let routed = delta.counter("pipeline_records_routed_total");
    assert!(
        routed > 0 && routed % 100 == 0 && routed < 1_000,
        "{routed}"
    );
}
