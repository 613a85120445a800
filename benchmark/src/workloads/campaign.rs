//! `campaign_legacy` and `campaign_policy75k`: the researcher's path.
//!
//! Set-up builds the paper-scale scenario and a two-worker study and runs
//! one warm-up day. The measured phase runs consecutive days; each day is
//! one segment. The first and last measured day are then re-run, untimed,
//! by a one-worker study over a freshly built scenario, and their row
//! digests must match: a day that loses rows or depends on the worker
//! count fails.

use std::time::Instant;

use super::{segments, set_up_times, RunArgs};
use crate::adapter::{self, Campaign, World, WORKERS};
use crate::layers::{ms_of, ns_per_op, pct_over, ratio};
use crate::procfs;
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;

/// Pinned wall cost of one paper-scale day on the reference host, both
/// worlds; sizes the number of days from `--seconds`.
const SECONDS_PER_DAY: f64 = 1.05;
/// Runs of one extra day at the end of a traced run: an untimed pass that
/// fills the day's route caches, then the program's own metric recording
/// alternately on and off. The same day is repeated so weekday volume
/// does not confound the comparison.
const OBS_RUNS: u32 = 5;

/// One measured day.
struct DayRun {
    day: u32,
    rows: usize,
    ms: f64,
}

fn run_day(c: &mut Campaign, day: u32, tracer: &mut Tracer) -> DayRun {
    let t = Instant::now();
    let rows = tracer.span("core.run_day", u64::from(day), || c.run_day(day));
    DayRun {
        day,
        rows,
        ms: t.elapsed().as_secs_f64() * 1e3,
    }
}

/// Rows per second of each day that joined any.
fn rows_per_s(days: &[DayRun]) -> Vec<f64> {
    days.iter()
        .filter(|d| d.rows > 0)
        .map(|d| d.rows as f64 / (d.ms / 1e3))
        .collect()
}

/// Re-runs `days` with one worker over a fresh scenario and counts the
/// days whose row digest differs from the measured study's.
fn verify(world: World, seed: u64, measured: &Campaign, days: &[u32], out: &mut Outcome) {
    let (mut reference, _) = Campaign::build(world, seed, 1);
    for &d in days {
        reference.run_day(d);
        let (want, got) = (reference.day_digest(d), measured.day_digest(d));
        if want != got {
            out.failed += 1;
            out.violation(format!(
                "day {d}: {WORKERS}-worker digest {got:016x} differs from the 1-worker reference {want:016x}"
            ));
        }
    }
}

/// Builds the campaign and runs its warm-up day; returns it with the ms
/// `Scenario::build` took and the seconds the whole set-up took.
fn set_up(world: World, seed: u64, tracer: &mut Tracer) -> (Campaign, f64, f64) {
    let t = Instant::now();
    let (c, scenario_ms) = tracer.span("bench.setup", 0, || {
        let (mut c, ms) = Campaign::build(world, seed, WORKERS);
        c.run_day(0);
        (c, ms)
    });
    (c, scenario_ms, t.elapsed().as_secs_f64())
}

/// Runs the workload.
pub fn run(name: &'static str, world: World, args: &RunArgs) -> Outcome {
    let mut out = Outcome::new(name, args.traced);
    let mut tracer = Tracer::new(args.traced);
    let n_days = segments(args.seconds, SECONDS_PER_DAY);

    // Set-up: scenario + study + one warm-up day.
    let (mut campaign, scenario_ms, setup_s) = set_up(world, args.seed, &mut tracer);

    // Measured phase.
    let obs_runs = if args.traced && n_days >= 2 * OBS_RUNS {
        OBS_RUNS
    } else {
        0
    };
    let main_days = n_days - obs_runs;
    let mark = adapter::obs_mark();
    let mut days = Vec::with_capacity(n_days as usize);
    for day in 1..=main_days {
        // A traced run records spans on odd days only, so the same run
        // yields the recorder's overhead.
        tracer.set_enabled(args.traced && day % 2 == 1);
        days.push(run_day(&mut campaign, day, &mut tracer));
    }
    tracer.set_enabled(args.traced);
    let delta = mark.delta();
    let mut obs_speed = [Vec::new(), Vec::new()];
    for pass in 0..obs_runs {
        let on = pass % 2 == 1;
        adapter::obs_set_enabled(on || pass == 0);
        let d = run_day(&mut campaign, main_days + 1, &mut tracer);
        if pass > 0 {
            obs_speed[usize::from(on)].extend(rows_per_s(std::slice::from_ref(&d)));
        }
        days.push(d);
    }
    adapter::obs_set_enabled(true);
    let peak_rss_mb = procfs::peak_rss_mb();

    out.attempted = u64::from(n_days);
    for d in days.iter().filter(|d| d.rows == 0) {
        out.failed += 1;
        out.violation(format!("day {} joined no rows", d.day));
    }
    verify(world, args.seed, &campaign, &[1, main_days], &mut out);

    let main = &days[..main_days as usize];
    out.set_median("throughput_per_s", &rows_per_s(main));
    out.set_median(
        "response_ms",
        &main.iter().map(|d| d.ms).collect::<Vec<_>>(),
    );
    if args.traced {
        probe_layers(&campaign, main, scenario_ms, world, &mut out);
        let day_ms: f64 = main.iter().map(|d| d.ms).sum();
        let n = main.len() as f64;
        let span_ms = |stage: &str| delta.span(stage).1;
        let staged: f64 = [
            "study.schedule",
            "study.snapshot_build",
            "study.execute",
            "study.join",
        ]
        .iter()
        .map(|s| span_ms(s))
        .sum();
        out.set(
            "netsim.snapshot_build_ms",
            span_ms("study.snapshot_build") / n,
        );
        out.set("core.schedule_ms", span_ms("study.schedule") / n);
        out.set("core.execute_ms", span_ms("study.execute") / n);
        out.set("core.join_ms", span_ms("study.join") / n);
        out.set("core.day_gap_pct", 100.0 * ratio(day_ms - staged, day_ms));
        let (beacons, beacon_ms) = delta.span("study.beacon");
        out.set("beacon.exec_us", 1e3 * ratio(beacon_ms, beacons as f64));
        let per_worker = delta.span_by_worker_ms("study.beacon");
        let busiest = per_worker.iter().copied().fold(0.0, f64::max);
        out.set(
            "core.worker_balance",
            ratio(busiest, stats::mean(&per_worker)),
        );
        out.set(
            "beacon.failed_rows",
            delta.counter("study_day_failed_rows_total") as f64,
        );
        let hits = delta.counter("netsim_catchment_cache_hits_total") as f64;
        let misses = delta.counter("netsim_catchment_cache_misses_total") as f64;
        out.set(
            "netsim.catchment_cache_hit_ratio",
            ratio(hits, hits + misses),
        );
        out.set(
            "netsim.incremental_recomputes",
            delta.counter("netsim_catchment_incremental_recomputes_total") as f64,
        );
        let hits = delta.counter("netsim_route_memo_hits_total") as f64;
        let misses = delta.counter("netsim_route_memo_misses_total") as f64;
        out.set("netsim.route_memo_hit_ratio", ratio(hits, hits + misses));
        let [off, on] = obs_speed.map(|v| stats::median_or_zero(&v));
        out.set("obs.cost_pct_day", pct_over(off, on));
        // Neighbouring days, recorder on then off: the median pair is not
        // one that straddles a weekend.
        let pairs: Vec<f64> = main
            .chunks_exact(2)
            .map(|p| pct_over(p[1].rows as f64 / p[1].ms, p[0].rows as f64 / p[0].ms))
            .collect();
        out.set("bench.trace_overhead_pct", stats::median_or_zero(&pairs));
        out.set("bench.segments", main.len() as f64);
        out.spans = tracer.spans().to_vec();
    } else {
        out.set("peak_rss_mb", peak_rss_mb);
        drop(campaign);
        let again = || set_up(world, args.seed, &mut tracer).2;
        out.set_median("setup_s", &set_up_times(setup_s, again));
    }
    out
}

/// The probes of the layers a campaign enters.
fn probe_layers(c: &Campaign, main: &[DayRun], scenario_ms: f64, world: World, out: &mut Outcome) {
    let days: Vec<u32> = main.iter().map(|d| d.day).collect();
    let last = *days.last().expect("measured days");
    out.set("netsim.world_build_ms", adapter::world_build_ms(world));
    out.set("workload.scenario_build_ms", scenario_ms);
    out.set(
        "netsim.route_lookup_ns",
        ns_per_op(20_000, |n| c.route_lookups(last, n)),
    );
    out.set(
        "geo.k_nearest_ns",
        ns_per_op(20_000, |n| c.k_nearest_queries(n)),
    );
    const RESOLVES: usize = 20_000;
    let runs: Vec<f64> = (0..3)
        .map(|_| c.resolves(RESOLVES) as f64 / RESOLVES as f64)
        .collect();
    out.set("dns.resolve_ns", stats::median_or_zero(&runs));
    out.set("analysis.figures_ms", ms_of(|| c.figure_pass(&days)).1);
    let (simulate_ms, step_us) = c.control_loop(last);
    out.set("control.simulate_ms", simulate_ms);
    out.set("control.step_us", step_us);
    let (span_ns, counter_ns, hist_ns) = adapter::obs_primitive_ns(200_000);
    out.set("obs.span_ns", span_ns);
    out.set("obs.counter_inc_ns", counter_ns);
    out.set("obs.hist_observe_ns", hist_ns);
    if let Some(p) = c.policy_probe(&days) {
        out.set("netsim.catchment_full_ms", p.full_ms);
        out.set(
            "netsim.catchment_incr_ms",
            stats::median_or_zero(&p.incr_ms),
        );
        out.set("netsim.route_table_mb", p.table_mb);
        out.set("netsim.flap_events_per_day", p.events_per_day);
    }
}
