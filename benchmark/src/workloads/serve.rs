//! `serve_ecs_steady` and `serve_mixed_swap`: answering resolvers.
//!
//! The synthetic day is loaded once as input. Set-up trains the tables,
//! compiles them, spawns a one-worker server and warms it with a short
//! burst. Phase A is a closed loop (capacity); Phase B is an open loop at
//! a fixed rate (latency from due time). Both run as 0.5 s slices. Every
//! answer is checked against the
//! in-process `CompiledTable::answer` of a table that was live while the
//! query was in flight. Traffic crosses the host's loopback interface,
//! never a real link.

use std::time::Instant;

use super::{RunArgs, SETUP_REPEATS};
use crate::adapter::{self, BatchSocket, Compiled, Server, ServerCounters, Store, TrainingDay};
use crate::layers::{ns_per_op, pct_over, ratio};
use crate::loadgen::{ClosedStats, Generator, Swapper, SEND_BATCH};
use crate::procfs::{self, ThreadCpu};
use crate::report::Outcome;
use crate::stats;
use crate::synth::{day_rows, query_pool, DaySpec, Mix, PoolQuery, QueryKind, POOL_LEN};
use crate::trace::Tracer;
use crate::wire::Reply;

/// Offered rate of the open loop: well under one worker's capacity on the
/// reference host, so latency is the server's and not a queue's.
pub const OPEN_RATE_QPS: u64 = 50_000;
/// Period of the table swaps in `serve_mixed_swap`.
const SWAP_PERIOD_NS: u64 = 250_000_000;
/// Length of a slice; every timed serve metric is a median over slices.
const SLICE_NS: u64 = 500_000_000;
/// Length of the warm-up burst that ends set-up.
const WARM_UP_NS: u64 = 300_000_000;
/// Generator lateness (p99) above which the host, not the program, is
/// setting the open-loop numbers.
const NOISY_LATE_US: f64 = 500.0;
/// Server busy share below which a closed loop measured the generator.
const MIN_BUSY_SHARE: f64 = 0.8;
/// Name prefix of the server's worker threads.
const WORKER_THREADS: &str = "serve-wk";

/// Slices in `seconds`, at least three.
fn slices(seconds: f64) -> u64 {
    ((seconds * 1e9) as u64 / SLICE_NS).max(3)
}

/// Resolvers the generator's sockets speak as.
fn socket_resolvers(mix: Mix) -> &'static [u32] {
    match mix {
        Mix::Steady => &[0],
        Mix::Mixed => &[0, 1],
    }
}

/// Everything a server and its generator are built from.
struct Fixture<'a> {
    tables: Vec<Compiled>,
    expected: Vec<Vec<Reply>>,
    pool: &'a [PoolQuery],
    wires: &'a [Vec<u8>],
    mix: Mix,
    spec: DaySpec,
}

/// A spawned server with its generator.
struct Rig {
    server: Server,
    generator: Generator,
}

impl Fixture<'_> {
    /// Spawns a server over `tables[0]` and a generator aimed at it.
    fn rig(&self, recorder: bool) -> std::io::Result<Rig> {
        let store = Store::new(self.tables[0].clone());
        let server = Server::spawn(&store, &self.spec, recorder)?;
        let sockets = socket_resolvers(self.mix)
            .iter()
            .map(|&ldns| BatchSocket::bind(ldns, server.addr(), SEND_BATCH))
            .collect::<std::io::Result<Vec<_>>>()?;
        let period = if self.mix == Mix::Mixed {
            SWAP_PERIOD_NS
        } else {
            0
        };
        let generator = Generator::new(
            sockets,
            self.wires.to_vec(),
            self.pool.iter().map(|q| q.socket).collect(),
            self.expected.clone(),
            Swapper::new(store, self.tables.clone(), period),
        );
        Ok(Rig { server, generator })
    }

    /// Share of the pool the server must count as decode errors.
    fn malformed_share(&self) -> f64 {
        let malformed = self
            .pool
            .iter()
            .filter(|q| q.kind == QueryKind::TruncatedOpt);
        malformed.count() as f64 / self.pool.len() as f64
    }
}

/// Trains and compiles the workload's tables: the /24 table alone, or the
/// /24, aggregated and LDNS-grouped tables the swaps cycle through.
fn compile_tables(day: &TrainingDay, mix: Mix, tracer: &mut Tracer) -> Vec<Compiled> {
    let mut tables = Vec::new();
    let exact = tracer.span("core.train_exact", 0, || day.train_exact());
    tables.push(tracer.span("serve.compile", 0, || exact.compile(day, 1)));
    if mix == Mix::Mixed {
        let aggregated = tracer.span("core.train_aggregated", 0, || day.train_aggregated());
        tables.push(tracer.span("serve.compile", 0, || aggregated.compile(day, 2)));
        let by_ldns = tracer.span("core.train_ldns", 0, || day.train_ldns());
        tables.push(tracer.span("serve.compile", 0, || by_ldns.compile(day, 3)));
    }
    tables
}

/// Reference answers of every pool query under every table.
fn expected_replies(tables: &[Compiled], pool: &[PoolQuery], mix: Mix) -> Vec<Vec<Reply>> {
    let resolvers = socket_resolvers(mix);
    pool.iter()
        .map(|q| {
            let ldns = resolvers[usize::from(q.socket)];
            tables.iter().map(|t| t.expected(q, ldns)).collect()
        })
        .collect()
}

/// CPU accounting of the server's worker threads right now.
fn worker_cpu() -> ThreadCpu {
    procfs::thread_cpu(&procfs::thread_ids_named(WORKER_THREADS))
}

/// Closed-loop slices with the server-side accounting around them.
#[derive(Default)]
struct ClosedPhase {
    total: ClosedStats,
    /// Verified answers per second of each slice.
    qps: Vec<f64>,
    cpu: ThreadCpu,
    counters: ServerCounters,
}

fn closed_phase(
    rig: &mut Rig,
    n_slices: u64,
    tracer: &mut Tracer,
    id: u64,
) -> std::io::Result<ClosedPhase> {
    let mut phase = ClosedPhase::default();
    let (cpu0, c0) = (worker_cpu(), rig.server.counters());
    for _ in 0..n_slices {
        let stats = rig.generator.closed_loop(SLICE_NS, tracer, id)?;
        phase.total.absorb(&stats);
        phase.qps.push(stats.qps());
    }
    phase.cpu = worker_cpu().since(&cpu0);
    phase.counters = rig.server.counters().since(&c0);
    Ok(phase)
}

/// Counts a closed phase's failures into `out`.
fn account_closed(p: &ClosedPhase, malformed_share: f64, out: &mut Outcome) {
    out.attempted += p.total.attempted;
    out.failed += p.total.unanswered + p.total.wrong;
    if p.total.unanswered + p.total.wrong > 0 {
        out.violation(format!(
            "closed loop: {} unanswered after re-sends, {} wrong answers of {}",
            p.total.unanswered, p.total.wrong, p.total.attempted
        ));
    }
    // Every malformed query that arrived must be a decode error, and
    // nothing else may be. Re-sends make the sent count a lower bound.
    let malformed_sent = (p.total.attempted as f64 * malformed_share).round() as u64;
    let slack = p.total.resends + 16;
    if p.counters.decode_errors.abs_diff(malformed_sent) > slack {
        out.failed += 1;
        out.violation(format!(
            "server counted {} decode errors for about {malformed_sent} malformed queries",
            p.counters.decode_errors
        ));
    }
}

/// Open-loop slices, pooled.
#[derive(Default)]
struct OpenPhase {
    sent: u64,
    lost: u64,
    wrong: u64,
    /// Median latency from due time of each slice, µs.
    p50_us: Vec<f64>,
    /// As measured, ns: every answered query; generator lateness of every
    /// query; queries due within 2 ms after a swap.
    latency_ns: Vec<u32>,
    lateness_ns: Vec<u32>,
    post_swap_ns: Vec<u32>,
    cpu: ThreadCpu,
}

fn open_phase(
    rig: &mut Rig,
    n_slices: u64,
    tracer: &mut Tracer,
    id: u64,
) -> std::io::Result<OpenPhase> {
    let mut phase = OpenPhase::default();
    let cpu0 = worker_cpu();
    for _ in 0..n_slices {
        let mut stats = rig
            .generator
            .open_loop(OPEN_RATE_QPS, SLICE_NS, tracer, id)?;
        phase.sent += stats.sent;
        phase.lost += stats.lost;
        phase.wrong += stats.wrong;
        if let Some(p50) = stats::percentile_u32(&mut stats.latency_ns, 50.0) {
            phase.p50_us.push(f64::from(p50) / 1e3);
        }
        phase.latency_ns.append(&mut stats.latency_ns);
        phase.lateness_ns.append(&mut stats.lateness_ns);
        phase.post_swap_ns.append(&mut stats.post_swap_ns);
    }
    phase.cpu = worker_cpu().since(&cpu0);
    Ok(phase)
}

fn percentile_us(ns: &mut [u32], p: f64) -> f64 {
    stats::percentile_u32(ns, p).map_or(0.0, |ns| f64::from(ns) / 1e3)
}

/// Set-up: train + compile, then spawn + warm-up burst; returns the
/// seconds the two took. The reference answers are the benchmark's work,
/// not the program's set-up, so they are computed between the timed parts.
fn set_up<'a>(
    day: &TrainingDay,
    pool: &'a [PoolQuery],
    wires: &'a [Vec<u8>],
    mix: Mix,
    tracer: &mut Tracer,
) -> std::io::Result<(Rig, Fixture<'a>, f64)> {
    let t = Instant::now();
    let tables = compile_tables(day, mix, tracer);
    let built = t.elapsed();
    let fixture = Fixture {
        expected: expected_replies(&tables, pool, mix),
        tables,
        pool,
        wires,
        mix,
        spec: DaySpec::PINNED,
    };
    let t = Instant::now();
    let mut rig = tracer.span("serve.spawn", 0, || fixture.rig(true))?;
    if rig.generator.warm_up(WARM_UP_NS, tracer)?.answered == 0 {
        return Err(std::io::Error::other("the warm-up burst got no answer"));
    }
    Ok((rig, fixture, (built + t.elapsed()).as_secs_f64()))
}

/// Runs the workload.
pub fn run(name: &'static str, mix: Mix, args: &RunArgs) -> std::io::Result<Outcome> {
    let spec = DaySpec::PINNED;
    let mut out = Outcome::new(name, args.traced);
    let mut tracer = Tracer::new(args.traced);

    // Input: the training day and the query pool.
    let t = Instant::now();
    let day = TrainingDay::load(day_rows(args.seed, spec), &spec);
    let sockets = socket_resolvers(mix).len() as u8;
    let pool = query_pool(args.seed, &spec, mix, sockets, POOL_LEN);
    let wires = adapter::encode_pool(&pool);
    let input_gen_s = t.elapsed().as_secs_f64();

    let (mut rig, fixture, setup_s) = set_up(&day, &pool, &wires, mix, &mut tracer)?;

    // Phases. A traced run splits the closed loop in four (span recorder
    // on and off in turn) and adds the obs-cost sub-runs; together the
    // phases fill `--seconds`.
    let share = |x: f64| slices(args.seconds * x);
    let mark = adapter::obs_mark();
    let counters0 = rig.server.counters();
    let mut closed = Vec::new();
    if args.traced {
        for quarter in 0..4 {
            tracer.set_enabled(quarter % 2 == 0);
            closed.push(closed_phase(&mut rig, share(0.1), &mut tracer, 1)?);
        }
        tracer.set_enabled(true);
    } else {
        closed.push(closed_phase(&mut rig, share(0.5), &mut tracer, 1)?);
    }
    for p in &closed {
        account_closed(p, fixture.malformed_share(), &mut out);
    }
    let batch_fill = mark.delta().histogram_mean("serve_batch_size");

    let open_slices = share(if args.traced { 0.4 } else { 0.5 });
    let mut open = open_phase(&mut rig, open_slices, &mut tracer, 3)?;
    let answered_open = open.sent - open.lost;
    out.attempted += answered_open;
    out.failed += open.wrong;
    if open.wrong > 0 {
        out.violation(format!(
            "open loop: {} wrong answers of {answered_open}",
            open.wrong
        ));
    }
    let counters = rig.server.counters().since(&counters0);
    let peak_rss_mb = procfs::peak_rss_mb();

    // Figures of merit and guard rails.
    let qps: Vec<f64> = closed.iter().flat_map(|p| p.qps.iter().copied()).collect();
    out.set_median("throughput_per_s", &qps);
    let p50_ms: Vec<f64> = open.p50_us.iter().map(|us| us / 1e3).collect();
    out.set_median("response_ms", &p50_ms);
    let gen_late_p99_us = percentile_us(&mut open.lateness_ns, 99.0);
    let closed_total = closed.iter().fold(ClosedStats::default(), |mut sum, p| {
        sum.absorb(&p.total);
        sum
    });
    let closed_cpu = closed
        .iter()
        .fold(ThreadCpu::default(), |sum, p| sum.plus(&p.cpu));
    let busy_share = ratio(closed_cpu.run_ns as f64, closed_total.wall_ns as f64);
    if gen_late_p99_us > NOISY_LATE_US {
        out.flags.push("host_noisy");
    }
    if busy_share < MIN_BUSY_SHARE {
        out.flags.push("capacity_invalid");
    }

    if args.traced {
        let obs_cost = obs_cost_ns(&fixture, &mut tracer)?;
        let cpu_us = ratio(closed_cpu.run_ns as f64 / 1e3, closed_total.answered as f64);
        out.set("serve.cpu_us_per_query", cpu_us);
        out.set("serve.sys_share", closed_cpu.sys_share());
        out.set("serve.server_busy_share", busy_share);
        out.set("serve.batch_fill_mean", batch_fill);
        out.set(
            "serve.runq_wait_us_per_query",
            ratio(open.cpu.wait_ns as f64 / 1e3, answered_open as f64),
        );
        let decodable = (counters.template_hits + counters.template_misses) as f64;
        out.set(
            "serve.template_hit_ratio",
            ratio(counters.template_hits as f64, decodable),
        );
        let overall_p50 = percentile_us(&mut open.latency_ns, 50.0);
        out.set("serve.p99_us", percentile_us(&mut open.latency_ns, 99.0));
        out.set("serve.p999_us", percentile_us(&mut open.latency_ns, 99.9));
        out.set(
            "serve.open_loss_pct",
            100.0 * ratio(open.lost as f64, open.sent as f64),
        );
        out.set("serve.gen_late_p99_us", gen_late_p99_us);
        out.set("serve.degraded", counters.degraded as f64);
        out.set("serve.decode_errors", counters.decode_errors as f64);
        out.set("serve.truncated", counters.truncated as f64);
        out.set("serve.scrape_ms", rig.server.scrape_ms().unwrap_or(0.0));
        let swaps: Vec<f64> = rig
            .generator
            .swapper
            .swap_cost_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        out.set("serve.swap_us", stats::median_or_zero(&swaps));
        if !open.post_swap_ns.is_empty() {
            out.set(
                "serve.swap_p50_shift_us",
                percentile_us(&mut open.post_swap_ns, 50.0) - overall_p50,
            );
        }
        out.set(
            "serve.compile_ms",
            stats::median_or_zero(&tracer.durations_ms("serve.compile")),
        );
        out.set(
            "core.train_exact_ms",
            stats::median_or_zero(&tracer.durations_ms("core.train_exact")),
        );
        out.set(
            "core.train_aggregated_ms",
            stats::median_or_zero(&tracer.durations_ms("core.train_aggregated")),
        );
        out.set("obs.cost_ns_per_query", obs_cost);
        let quarters = |parity: usize| -> Vec<f64> {
            let phases = closed.iter().skip(parity).step_by(2);
            phases.flat_map(|p| p.qps.iter().copied()).collect()
        };
        let (on, off) = (
            stats::median_or_zero(&quarters(0)),
            stats::median_or_zero(&quarters(1)),
        );
        out.set("bench.trace_overhead_pct", pct_over(off, on));
        out.set("bench.input_gen_s", input_gen_s);
        out.set("bench.segments", (qps.len() + open.p50_us.len()) as f64);
        out.set(
            "bench.host_noisy",
            f64::from(u8::from(out.flags.contains(&"host_noisy"))),
        );
        out.set(
            "bench.capacity_invalid",
            f64::from(u8::from(out.flags.contains(&"capacity_invalid"))),
        );
        probe_layers(&fixture, &mut out);
        out.spans = tracer.spans().to_vec();
    } else {
        out.set("peak_rss_mb", peak_rss_mb);
    }
    rig.server.stop();
    if !args.traced {
        // The other set-ups behind the median; see `set_up_times`.
        drop((rig.generator, fixture));
        let mut times = vec![setup_s];
        for _ in 1..SETUP_REPEATS {
            let (again, _, s) = set_up(&day, &pool, &wires, mix, &mut tracer)?;
            again.server.stop();
            times.push(s);
        }
        out.set_median("setup_s", &times);
    }
    Ok(out)
}

/// Server CPU per query with the flight recorder and the metrics registry
/// on, minus the same with both off, ns: four interleaved closed-loop
/// sub-runs (on, off, on, off) of three slices, each against a freshly
/// spawned server while the main server's threads sit blocked in `recv`.
fn obs_cost_ns(fixture: &Fixture<'_>, tracer: &mut Tracer) -> std::io::Result<f64> {
    let mut cost = [Vec::new(), Vec::new()];
    for round in 0..4u64 {
        let on = round % 2 == 0;
        adapter::obs_set_enabled(on);
        let mut r = fixture.rig(on)?;
        r.generator.warm_up(WARM_UP_NS / 3, tracer)?;
        // The sub-run's worker is the newest thread of that name.
        let tids = procfs::thread_ids_named(WORKER_THREADS);
        let tid = &tids[tids.len() - 1..];
        let cpu0 = procfs::thread_cpu(tid);
        let stats = r.generator.closed_loop(3 * SLICE_NS, tracer, 10 + round)?;
        let cpu = procfs::thread_cpu(tid).since(&cpu0);
        r.server.stop();
        cost[usize::from(on)].push(ratio(cpu.run_ns as f64, stats.answered as f64));
    }
    adapter::obs_set_enabled(true);
    Ok(stats::median_or_zero(&cost[1]) - stats::median_or_zero(&cost[0]))
}

/// The probes of the layers a served query passes through.
fn probe_layers(fixture: &Fixture<'_>, out: &mut Outcome) {
    const N: usize = 200_000;
    let Fixture {
        tables,
        pool,
        wires,
        ..
    } = fixture;
    let resolver = socket_resolvers(fixture.mix)[0];
    out.set(
        "serve.trie_lookup_ns",
        ns_per_op(N, |n| tables[0].lookups(pool, resolver, n)),
    );
    if let Some(by_ldns) = tables.get(2) {
        out.set(
            "serve.ldns_lookup_ns",
            ns_per_op(N, |n| by_ldns.lookups(pool, resolver, n)),
        );
    }
    out.set(
        "serve.parse_ns",
        ns_per_op(N, |n| adapter::parses(wires, n)),
    );
    out.set(
        "serve.patch_ns",
        ns_per_op(N, |n| tables[0].patches(wires, n)),
    );
    out.set(
        "serve.decode_ns",
        ns_per_op(N, |n| adapter::decodes(wires, n)),
    );
    out.set(
        "serve.encode_ns",
        ns_per_op(N, |n| adapter::encodes(wires, n)),
    );
    if let Some(aggregated) = tables.get(1) {
        out.set(
            "core.compression_ratio",
            ratio(tables[0].len() as f64, aggregated.len() as f64),
        );
    }
    let (span_ns, counter_ns, hist_ns) = adapter::obs_primitive_ns(200_000);
    out.set("obs.span_ns", span_ns);
    out.set("obs.counter_inc_ns", counter_ns);
    out.set("obs.hist_observe_ns", hist_ns);
}
