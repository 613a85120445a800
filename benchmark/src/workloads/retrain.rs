//! `retrain_publish`: the operator's daily table refresh.
//!
//! Set-up streams the seeded synthetic day into the program's dataset and
//! runs one warm-up cycle. Each measured cycle is one segment:
//! `train_sketched` (the ingest path), then `train_aggregated` →
//! `CompiledTable::compile` → `TableStore::swap` → the first
//! `TableStore::load` that returns the new generation (the publish path).
//! Training is deterministic, so a cycle whose tables differ from the
//! first cycle's, or whose generation is not live after the swap, fails.

use std::time::Instant;

use super::{segments, set_up_times, RunArgs};
use crate::adapter::{self, Store, TrainingDay, WORKERS};
use crate::layers::{ms_of, ns_per_op, pct_over, ratio};
use crate::procfs;
use crate::report::Outcome;
use crate::stats;
use crate::synth::{day_rows, DaySpec};
use crate::trace::Tracer;

/// Pinned wall cost of one cycle over the pinned day on the reference
/// host; sizes the number of cycles from `--seconds`.
const SECONDS_PER_CYCLE: f64 = 2.1;

/// One cycle's timings and table digests.
struct Cycle {
    ingest_s: f64,
    publish_ms: f64,
    digests: (u64, u64),
    entries: usize,
    live: bool,
}

/// Runs cycle number `generation`; creates the store on the first.
fn cycle(
    day: &TrainingDay,
    store: &mut Option<Store>,
    generation: u64,
    tracer: &mut Tracer,
) -> Cycle {
    let (sketched, ingest_ms) = ms_of(|| {
        tracer.span("core.train_sketched", generation, || {
            day.train_sketched(WORKERS)
        })
    });
    let ((aggregated, live), publish_ms) = ms_of(|| {
        let span = tracer.enter("retrain.publish", generation);
        let aggregated = tracer.span("core.train_aggregated", generation, || {
            day.train_aggregated()
        });
        let compiled = tracer.span("serve.compile", generation, || {
            aggregated.compile(day, generation)
        });
        let live = match store {
            Some(s) => {
                tracer.span("serve.swap", generation, || s.swap(compiled));
                tracer.span("serve.load", generation, || s.generation()) == generation
            }
            None => {
                let s = Store::new(compiled);
                let live = s.generation() == generation;
                *store = Some(s);
                live
            }
        };
        tracer.exit(span);
        (aggregated, live)
    });
    Cycle {
        ingest_s: ingest_ms / 1e3,
        publish_ms,
        digests: (sketched.digest(), aggregated.digest()),
        entries: aggregated.len(),
        live,
    }
}

/// Loads the day and runs the warm-up cycle; returns the seconds both
/// took. The rows are generated inside the load (one copy in memory); a
/// traced run reports what generation alone costs as `bench.input_gen_s`.
fn set_up(
    seed: u64,
    spec: DaySpec,
    tracer: &mut Tracer,
) -> (TrainingDay, Option<Store>, Cycle, f64) {
    let t = Instant::now();
    let day = tracer.span("bench.load_day", 0, || {
        TrainingDay::load(day_rows(seed, spec), &spec)
    });
    let mut store = None;
    let warm = cycle(&day, &mut store, 0, tracer);
    (day, store, warm, t.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(name: &'static str, args: &RunArgs) -> Outcome {
    let spec = DaySpec::PINNED;
    let mut out = Outcome::new(name, args.traced);
    let mut tracer = Tracer::new(args.traced);
    let n_cycles = segments(args.seconds, SECONDS_PER_CYCLE);

    // Set-up: load the day and run one warm-up cycle.
    let (day, mut store, warm, setup_s) = set_up(args.seed, spec, &mut tracer);
    let rows = day.rows();

    // Measured phase.
    let mark = adapter::obs_mark();
    let mut cycles = Vec::with_capacity(n_cycles as usize);
    for g in 1..=u64::from(n_cycles) {
        tracer.set_enabled(args.traced && g % 2 == 1);
        cycles.push(cycle(&day, &mut store, g, &mut tracer));
    }
    tracer.set_enabled(args.traced);
    let delta = mark.delta();
    let peak_rss_mb = procfs::peak_rss_mb();

    out.attempted = u64::from(n_cycles);
    for (i, c) in cycles.iter().enumerate() {
        if c.digests != warm.digests || !c.live {
            out.failed += 1;
            out.violation(format!(
                "cycle {}: tables {:016x}/{:016x} against {:016x}/{:016x} of the warm-up cycle, new generation live: {}",
                i + 1, c.digests.0, c.digests.1, warm.digests.0, warm.digests.1, c.live
            ));
        }
    }

    let ingest: Vec<f64> = cycles.iter().map(|c| rows as f64 / c.ingest_s).collect();
    let publish: Vec<f64> = cycles.iter().map(|c| c.publish_ms).collect();
    out.set_median("throughput_per_s", &ingest);
    // Cycles are identical single-threaded work; the host's slow state
    // stretches exactly this pass by half, so the median of seven cycles
    // flips between the two states from run to run.
    out.set_fastest("response_ms", &publish);
    if args.traced {
        let n = cycles.len() as f64;
        let med = |span: &str| stats::median_or_zero(&tracer.durations_ms(span));
        out.set("core.train_sketched_ms", med("core.train_sketched"));
        out.set("core.train_aggregated_ms", med("core.train_aggregated"));
        out.set("serve.compile_ms", med("serve.compile"));
        out.set("serve.swap_us", 1e3 * med("serve.swap"));
        let totals = tracer.totals();
        // The ingest half is one call; the publish half's own time is
        // what its four calls leave over.
        let total_ms = |span: &str| {
            totals
                .get(span)
                .map_or(0.0, |t| t.durations_ms.iter().sum())
        };
        let cycle_ms = total_ms("core.train_sketched") + total_ms("retrain.publish");
        let own_ms = totals.get("retrain.publish").map_or(0.0, |t| t.self_ms);
        out.set("core.cycle_gap_pct", 100.0 * ratio(own_ms, cycle_ms));
        let trained = delta.counter("prediction_groups_trained_total") as f64;
        let discarded = delta.counter("prediction_groups_discarded_total") as f64;
        out.set("core.group_keep_ratio", ratio(trained, trained + discarded));
        out.set(
            "pipeline.backpressure_blocks",
            delta.counter("pipeline_backpressure_blocks_total") as f64 / n,
        );
        out.set(
            "pipeline.batches_sent",
            delta.counter("pipeline_batches_sent_total") as f64 / n,
        );
        // Cycles 1, 3, 5… recorded spans; 2, 4, 6… did not.
        let every_other = |from: usize| -> f64 {
            let speeds: Vec<f64> = ingest.iter().skip(from).step_by(2).copied().collect();
            stats::median_or_zero(&speeds)
        };
        out.set(
            "bench.trace_overhead_pct",
            pct_over(every_other(1), every_other(0)),
        );
        out.set("bench.segments", n);
        probe_layers(&day, args.seed, spec, warm.entries, &mut out);
        out.spans = tracer.spans().to_vec();
    } else {
        out.set("peak_rss_mb", peak_rss_mb);
        drop((day, store));
        let again = || set_up(args.seed, spec, &mut tracer).3;
        out.set_median("setup_s", &set_up_times(setup_s, again));
    }
    out
}

/// The probes of the layers a refresh enters.
fn probe_layers(
    day: &TrainingDay,
    seed: u64,
    spec: DaySpec,
    aggregated_entries: usize,
    out: &mut Outcome,
) {
    let rows = day.rows() as f64;
    let generate = || day_rows(seed, spec).map(std::hint::black_box).count();
    out.set("bench.input_gen_s", ms_of(generate).1 / 1e3);
    let (exact, exact_ms) = ms_of(|| day.train_exact());
    out.set("core.train_exact_ms", exact_ms);
    out.set(
        "core.compression_ratio",
        ratio(exact.len() as f64, aggregated_entries as f64),
    );
    out.set("core.evaluate_ms", day.evaluate(&exact));
    drop(exact);
    out.set(
        "pipeline.ingest_rows_per_s_1w",
        rows / (ms_of(|| day.sketch_ingest(1)).1 / 1e3),
    );
    out.set(
        "pipeline.ingest_rows_per_s_2w",
        rows / (ms_of(|| day.sketch_ingest(WORKERS)).1 / 1e3),
    );
    let samples = day.latencies(100_000);
    out.set(
        "pipeline.sketch_observe_ns",
        ns_per_op(samples.len(), |_| adapter::sketch_observes(&samples)),
    );
    let merges: Vec<f64> = (0..5)
        .map(|_| adapter::sketch_merge_ns(&samples, 64) as f64 / 1e3)
        .collect();
    out.set("pipeline.sketch_merge_us", stats::median_or_zero(&merges));
    // One (group, target) pair holds a few dozen samples; score that size.
    let pair = &samples[..32];
    out.set(
        "analysis.percentile_ns_per_sample",
        ns_per_op(20_000, |n| adapter::percentiles(pair, n)) / pair.len() as f64,
    );
    let (span_ns, counter_ns, hist_ns) = adapter::obs_primitive_ns(200_000);
    out.set("obs.span_ns", span_ns);
    out.set("obs.counter_inc_ns", counter_ns);
    out.set("obs.hist_observe_ns", hist_ns);
}
