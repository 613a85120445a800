//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the immutable result of one run.
//!
//! `BENCHMARK.json` at the repository root repeats these tables for the
//! driver; a unit test keeps the two identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::adapter::Json;
use crate::stats;
use crate::trace::Span;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One pinned workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line.
    pub name: &'static str,
    /// Why it exists, one line.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "campaign_legacy",
        why: "Beacon days on the default distance-ranked world: per-day route snapshots dominate, so netsim's ranker is the lever",
    },
    WorkloadDef {
        name: "campaign_policy75k",
        why: "Same population on the 75k-AS policy world with daily flaps: catchment lookups replace the ranker and the beacon executor dominates",
    },
    WorkloadDef {
        name: "retrain_publish",
        why: "Operator's daily refresh on a 40k-/24 synthetic day: sketched ingest, then aggregate, compile and swap; the simulator does nothing",
    },
    WorkloadDef {
        name: "serve_ecs_steady",
        why: "Resolver fast path: canonical ECS /24 queries against the 40k-entry table, every answer from the template, no table change",
    },
    WorkloadDef {
        name: "serve_mixed_swap",
        why: "Slow path beside the fast one and writes beside reads: coarse, plain, mixed-case, AAAA and malformed queries under a swap every 250 ms",
    },
];

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics the driver gates on, reported by every
/// workload.
pub const END_TO_END: [EndToEndDef; 2] = [
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The two timed metrics: what a user of each workload sees (see README
/// for what each measures on each workload). Every run measures and
/// prints them and `compare` judges them against `bound`, but
/// `BENCHMARK.json` lists them per layer, under the same names: on the
/// reference host their spread over ten runs reaches 30%, past the
/// largest bound the driver's contract allows, and a bound is not widened
/// to fit a metric that cannot agree with itself.
pub const TIMED: [EndToEndDef; 2] = [
    EndToEndDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEndDef {
        name: "response_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Every metric `compare` judges: the timed pair, then the gated pair.
pub fn compared() -> impl Iterator<Item = &'static EndToEndDef> {
    TIMED.iter().chain(END_TO_END.iter())
}

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics. A traced run prints every one; a layer the
/// workload never enters reads 0.
pub const LAYERS: [LayerDef; 73] = [
    layer("throughput_per_s", "1/s", Higher),
    layer("response_ms", "ms", Lower),
    layer("netsim.world_build_ms", "ms", Lower),
    layer("netsim.snapshot_build_ms", "ms", Lower),
    layer("netsim.catchment_full_ms", "ms", Lower),
    layer("netsim.catchment_incr_ms", "ms", Lower),
    layer("netsim.catchment_cache_hit_ratio", "ratio", Higher),
    layer("netsim.incremental_recomputes", "count", Lower),
    layer("netsim.route_memo_hit_ratio", "ratio", Higher),
    layer("netsim.route_lookup_ns", "ns", Lower),
    layer("netsim.route_table_mb", "MB", Lower),
    layer("netsim.flap_events_per_day", "count", Lower),
    layer("workload.scenario_build_ms", "ms", Lower),
    layer("geo.k_nearest_ns", "ns", Lower),
    layer("dns.resolve_ns", "ns", Lower),
    layer("beacon.exec_us", "us", Lower),
    layer("beacon.failed_rows", "count", Lower),
    layer("core.schedule_ms", "ms", Lower),
    layer("core.execute_ms", "ms", Lower),
    layer("core.join_ms", "ms", Lower),
    layer("core.day_gap_pct", "%", Lower),
    layer("core.worker_balance", "ratio", Lower),
    layer("core.train_exact_ms", "ms", Lower),
    layer("core.train_sketched_ms", "ms", Lower),
    layer("core.train_aggregated_ms", "ms", Lower),
    layer("core.evaluate_ms", "ms", Lower),
    layer("core.group_keep_ratio", "ratio", Higher),
    layer("core.compression_ratio", "ratio", Higher),
    layer("core.cycle_gap_pct", "%", Lower),
    layer("analysis.percentile_ns_per_sample", "ns", Lower),
    layer("analysis.figures_ms", "ms", Lower),
    layer("pipeline.sketch_observe_ns", "ns", Lower),
    layer("pipeline.sketch_merge_us", "us", Lower),
    layer("pipeline.ingest_rows_per_s_1w", "1/s", Higher),
    layer("pipeline.ingest_rows_per_s_2w", "1/s", Higher),
    layer("pipeline.backpressure_blocks", "count", Lower),
    layer("pipeline.batches_sent", "count", Lower),
    layer("serve.compile_ms", "ms", Lower),
    layer("serve.swap_us", "us", Lower),
    layer("serve.swap_p50_shift_us", "us", Lower),
    layer("serve.trie_lookup_ns", "ns", Lower),
    layer("serve.parse_ns", "ns", Lower),
    layer("serve.patch_ns", "ns", Lower),
    layer("serve.ldns_lookup_ns", "ns", Lower),
    layer("serve.decode_ns", "ns", Lower),
    layer("serve.encode_ns", "ns", Lower),
    layer("serve.cpu_us_per_query", "us", Lower),
    layer("serve.sys_share", "ratio", Lower),
    layer("serve.batch_fill_mean", "count", Higher),
    layer("serve.runq_wait_us_per_query", "us", Lower),
    layer("serve.server_busy_share", "ratio", Higher),
    layer("serve.template_hit_ratio", "ratio", Higher),
    layer("serve.p99_us", "us", Lower),
    layer("serve.p999_us", "us", Lower),
    layer("serve.open_loss_pct", "%", Lower),
    layer("serve.gen_late_p99_us", "us", Lower),
    layer("serve.degraded", "count", Lower),
    layer("serve.decode_errors", "count", Lower),
    layer("serve.truncated", "count", Lower),
    layer("serve.scrape_ms", "ms", Lower),
    layer("obs.cost_ns_per_query", "ns", Lower),
    layer("obs.cost_pct_day", "%", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("obs.hist_observe_ns", "ns", Lower),
    layer("control.simulate_ms", "ms", Lower),
    layer("control.step_us", "us", Lower),
    layer("bench.input_gen_s", "s", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.segments", "count", Higher),
    layer("bench.failed_pct", "%", Lower),
    layer("bench.host_noisy", "count", Lower),
    layer("bench.capacity_invalid", "count", Lower),
];

/// The command the driver runs, from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];
/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];
/// How long one run measures, seconds.
pub const RUN_SECONDS: u32 = 15;

/// The text of `BENCHMARK.json`: these tables in the driver's format.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let strings = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        list(WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
            .collect()),
        list(END_TO_END
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.bound
            ))
            .collect()),
        list(LAYERS
            .iter()
            .map(|m| format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word())
            ))
            .collect()),
    )
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The immutable result of one run of one workload: built once by the
/// workload, then only printed and written.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run (per-layer metrics) or the
    /// end-to-end run.
    pub traced: bool,
    /// Operations attempted: days, cycles, or queries.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that did not hold, in words; empty when correct.
    pub violations: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The segment values behind each metric that summarises segments,
    /// with the summary's name (`median` or `fastest`).
    pub segments: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
    /// `host_noisy` / `capacity_invalid`.
    pub flags: Vec<&'static str>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str, traced: bool) -> Outcome {
        Outcome {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            metrics: BTreeMap::new(),
            segments: BTreeMap::new(),
            flags: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            compared().any(|m| m.name == name) || LAYERS.iter().any(|m| m.name == name),
            "{name} is not a declared metric"
        );
        self.metrics.insert(name, value);
    }

    /// Records a metric as the nearest-rank median of its segments (days,
    /// cycles, slices, set-up repeats) and keeps the segments.
    pub fn set_median(&mut self, name: &'static str, segments: &[f64]) {
        let median = stats::median_of_segments(segments)
            .unwrap_or_else(|| panic!("{name}: no segment was measured"));
        self.set(name, median);
        self.segments.insert(name, ("median", segments.to_vec()));
    }

    /// Records a time as the fastest of its segments and keeps them. For
    /// segments of identical single-threaded work on a host whose slow
    /// states only ever add time; see README, "Statistics".
    pub fn set_fastest(&mut self, name: &'static str, segments: &[f64]) {
        let fastest = segments.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(fastest.is_finite(), "{name}: no segment was measured");
        self.set(name, fastest);
        self.segments.insert(name, ("fastest", segments.to_vec()));
    }

    /// Records a failed output check.
    pub fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Failed operations as a percentage of those attempted.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// `(name, unit, value)` of every metric this run must print, in
    /// declaration order. An end-to-end run that lacks one of its metrics
    /// is a bug in the workload; a traced run reads 0 for a layer it never
    /// entered.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            let derived = |name: &str| (name == "bench.failed_pct").then(|| self.failed_pct());
            LAYERS
                .iter()
                .map(|m| {
                    let measured = self.metrics.get(m.name).copied();
                    (m.name, m.unit, derived(m.name).or(measured).unwrap_or(0.0))
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.metrics.get(m.name).copied();
                    (
                        m.name,
                        m.unit,
                        v.unwrap_or_else(|| panic!("{} not measured", m.name)),
                    )
                })
                .collect()
        }
    }

    /// Every metric the run measured: an end-to-end run's timed pair,
    /// then [`Outcome::rows`].
    fn printed(&self) -> Vec<(&'static str, &'static str, f64)> {
        let timed = TIMED.iter().filter(|_| !self.traced);
        let mut rows: Vec<_> = timed
            .filter_map(|m| Some((m.name, m.unit, *self.metrics.get(m.name)?)))
            .collect();
        rows.extend(self.rows());
        rows
    }

    /// The human-readable lines: `workload metric value unit`.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in self.printed() {
            let n = self.segments.get(name).map_or(String::new(), |(how, s)| {
                format!("  ({how} of {})", s.len())
            });
            let _ = writeln!(out, "{} {} {} {}{}", self.workload, name, value, unit, n);
        }
        let _ = writeln!(
            out,
            "{} attempted {} failed {} failed_pct {} correct {}",
            self.workload,
            self.attempted,
            self.failed,
            self.failed_pct(),
            self.correct()
        );
        for f in &self.flags {
            let _ = writeln!(out, "{} flag {f}", self.workload);
        }
        for v in &self.violations {
            let _ = writeln!(out, "{} VIOLATION {v}", self.workload);
        }
        out
    }

    /// The driver's result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows()
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run as an object of a result file.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .printed()
            .iter()
            .map(|(name, unit, value)| {
                let segments = self.segments.get(name).map_or(String::new(), |(how, s)| {
                    let values: Vec<String> = s.iter().map(|v| number(*v)).collect();
                    format!(
                        ", \"summary\": {}, \"segments\": [{}]",
                        quote(how),
                        values.join(", ")
                    )
                });
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{segments}}}",
                    quote(name),
                    number(*value),
                    quote(unit)
                )
            })
            .collect();
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"trace_id\": {}}}",
                    quote(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.trace_id
                )
            })
            .collect();
        let list = |items: Vec<String>| items.join(", ");
        format!(
            "{{\"workload\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \"correct\": {}, \
             \"flags\": [{}], \"violations\": [{}], \"metrics\": {{{}}}, \"spans\": [{}]}}",
            quote(self.workload),
            self.traced,
            self.attempted,
            self.failed,
            self.correct(),
            list(self.flags.iter().map(|f| quote(f)).collect()),
            list(self.violations.iter().map(|v| quote(v)).collect()),
            list(metrics),
            list(spans)
        )
    }
}

/// A JSON string literal, escaped by the library's own writer.
pub fn quote(s: &str) -> String {
    Json::Str(s.to_string()).to_json()
}

/// A JSON number with every digit the measurement has; a non-finite
/// value (a ratio over nothing) is written as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

// ------------------------------------------------------------ compare --

/// How one `(metric, workload)` pair moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Not decidable: the pair is missing on one side, a run was flagged
    /// `host_noisy` or `capacity_invalid`, or an output check failed.
    Unresolved,
}

impl Verdict {
    /// Lower-case word for the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for values `a` (before) and `b` (after) of `metric`.
/// `delta` is `(b - a) / a`, signed so that positive is worse.
pub fn judge(metric: &EndToEndDef, a: f64, b: f64) -> (f64, Verdict) {
    if !(a.is_finite() && b.is_finite()) || a <= 0.0 {
        return (0.0, Verdict::Unresolved);
    }
    let worse = match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let verdict = if worse > metric.bound {
        Verdict::Regressed
    } else if worse < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Value in the first file.
    pub before: f64,
    /// Value in the second file.
    pub after: f64,
    /// Worsening as a share of `before` (negative = better).
    pub worse_by: f64,
    /// Verdict against the metric's bound.
    pub verdict: Verdict,
}

/// The end-to-end runs of a parsed result file: workload → (metric →
/// value, trustworthy).
fn end_to_end_runs(file: &Json) -> BTreeMap<String, (BTreeMap<String, f64>, bool)> {
    let mut out = BTreeMap::new();
    let Some(runs) = file.get("runs").and_then(Json::as_arr) else {
        return out;
    };
    for run in runs {
        if run.get("traced") != Some(&Json::Bool(false)) {
            continue;
        }
        let Some(name) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        let flagged = run
            .get("flags")
            .and_then(Json::as_arr)
            .is_some_and(|f| !f.is_empty());
        let correct = run.get("correct") == Some(&Json::Bool(true));
        let mut metrics = BTreeMap::new();
        if let Some(fields) = run.get("metrics").and_then(Json::as_obj) {
            for (k, v) in fields {
                if let Some(x) = v.get("value").and_then(Json::as_num) {
                    metrics.insert(k.clone(), x);
                }
            }
        }
        out.insert(name.to_string(), (metrics, correct && !flagged));
    }
    out
}

/// Compares the end-to-end runs of two result files, pair by pair.
pub fn compare(before: &Json, after: &Json) -> Vec<Comparison> {
    let a = end_to_end_runs(before);
    let b = end_to_end_runs(after);
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in compared() {
            let va = a.get(w.name).and_then(|(ms, _)| ms.get(m.name)).copied();
            let vb = b.get(w.name).and_then(|(ms, _)| ms.get(m.name)).copied();
            let (Some(before), Some(after)) = (va, vb) else {
                if va.is_some() || vb.is_some() {
                    rows.push(Comparison {
                        workload: w.name.to_string(),
                        metric: m.name,
                        before: va.unwrap_or(f64::NAN),
                        after: vb.unwrap_or(f64::NAN),
                        worse_by: 0.0,
                        verdict: Verdict::Unresolved,
                    });
                }
                continue;
            };
            let trusted = a[w.name].1 && b[w.name].1;
            let (worse_by, verdict) = judge(m, before, after);
            rows.push(Comparison {
                workload: w.name.to_string(),
                metric: m.name,
                before,
                after,
                worse_by,
                verdict: if trusted {
                    verdict
                } else {
                    Verdict::Unresolved
                },
            });
        }
    }
    rows
}

/// The comparison as an aligned table.
pub fn render_comparison(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "before", "after", "worse by", "bound"
    );
    for r in rows {
        let bound = compared()
            .find(|m| m.name == r.metric)
            .map_or(0.0, |m| m.bound);
        let _ = writeln!(
            out,
            "{:<20} {:<18} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.before,
            r.after,
            100.0 * r.worse_by,
            100.0 * bound,
            r.verdict.word()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::json_parse;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(LAYERS.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|m| m.unit))
        {
            assert!(
                !u.is_empty() && u.len() <= 16 && u.chars().all(unit_ok),
                "{u}"
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `anycast-benchmark describe > BENCHMARK.json`"
        );
        let file = json_parse(&benchmark_json()).expect("BENCHMARK.json parses");
        let len = |key: &str| file.get(key).and_then(Json::as_arr).map(<[Json]>::len);
        assert_eq!(len("workloads"), Some(WORKLOADS.len()));
        assert_eq!(len("end_to_end"), Some(END_TO_END.len()));
        assert_eq!(len("per_layer"), Some(LAYERS.len()));
        assert_eq!(len("command"), Some(COMMAND.len()));
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_num),
            Some(f64::from(RUN_SECONDS))
        );
        assert!(benchmark_json().len() < 64 * 1024);
    }

    fn outcome() -> Outcome {
        let mut o = Outcome::new("retrain_publish", false);
        o.attempted = 7;
        o.set_median(
            "throughput_per_s",
            &[6_000_000.0, 6_123_456.789, 7_000_000.0],
        );
        o.set_fastest("response_ms", &[1400.0, 1301.25, 1650.5]);
        o.set("peak_rss_mb", 612.5);
        o.set_median("setup_s", &[2.0, 2.25, 2.5]);
        o
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys_and_every_metric() {
        let line = outcome().result_line();
        let v = json_parse(&line).expect("result line is JSON");
        let fields = v.as_obj().expect("an object");
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_num), Some(7.0));
        let metrics = v.get("metrics").and_then(Json::as_obj).expect("metrics");
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = &metrics["setup_s"];
        assert_eq!(setup.get("value").and_then(Json::as_num), Some(2.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!metrics.contains_key("throughput_per_s"));
        // The timed pair is printed and written to the result file all the same.
        let file = json_parse(&outcome().to_json()).expect("run object is JSON");
        let thr = file.get("metrics").and_then(|m| m.get("throughput_per_s"));
        let thr = thr.expect("written");
        assert_eq!(thr.get("value").and_then(Json::as_num), Some(6_123_456.789));
        assert_eq!(thr.get("unit").and_then(Json::as_str), Some("1/s"));
        assert!(outcome()
            .lines()
            .contains("response_ms 1301.25 ms  (fastest of 3)"));
        assert!(outcome().lines().contains("(median of 3)"));
    }

    #[test]
    fn a_traced_run_prints_every_layer_and_zero_for_the_untouched() {
        let mut o = Outcome::new("serve_ecs_steady", true);
        o.attempted = 10;
        o.failed = 1;
        o.set("serve.trie_lookup_ns", 74.5);
        let rows = o.rows();
        assert_eq!(rows.len(), LAYERS.len());
        assert!(rows.contains(&("serve.trie_lookup_ns", "ns", 74.5)));
        assert!(rows.contains(&("netsim.world_build_ms", "ms", 0.0)));
        assert!(!o.correct());
        let v = json_parse(&o.result_line()).expect("JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("failed").and_then(Json::as_num), Some(1.0));
        assert!(o
            .lines()
            .contains("serve_ecs_steady serve.trie_lookup_ns 74.5 ns"));
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let thr = &TIMED[0]; // higher is better, 25%
        assert_eq!(judge(thr, 100.0, 100.0).1, Verdict::Unchanged);
        assert_eq!(judge(thr, 100.0, 80.0).1, Verdict::Unchanged);
        assert_eq!(judge(thr, 100.0, 70.0).1, Verdict::Regressed);
        assert_eq!(judge(thr, 100.0, 130.0).1, Verdict::Improved);
        let lat = &TIMED[1]; // lower is better, 25%
        assert_eq!(judge(lat, 10.0, 13.0).1, Verdict::Regressed);
        assert_eq!(judge(lat, 10.0, 7.0).1, Verdict::Improved);
        assert_eq!(judge(lat, 10.0, 11.0).1, Verdict::Unchanged);
        assert_eq!(judge(lat, 0.0, 1.0).1, Verdict::Unresolved);
        let (worse, _) = judge(lat, 10.0, 13.0);
        assert!((worse - 0.3).abs() < 1e-12);
    }

    #[test]
    fn compare_reads_result_files_and_distrusts_flagged_runs() {
        let file = |thr: f64, flags: &str| {
            let mut o = outcome();
            o.set_median("throughput_per_s", &[thr]);
            let run = o
                .to_json()
                .replace("\"flags\": []", &format!("\"flags\": [{flags}]"));
            json_parse(&format!("{{\"runs\": [{run}]}}")).expect("file parses")
        };
        let rows = compare(&file(1000.0, ""), &file(600.0, ""));
        assert_eq!(rows.len(), compared().count());
        let thr = rows
            .iter()
            .find(|r| r.metric == "throughput_per_s")
            .expect("row");
        assert_eq!(thr.verdict, Verdict::Regressed);
        assert!(rows
            .iter()
            .filter(|r| r.metric != "throughput_per_s")
            .all(|r| r.verdict == Verdict::Unchanged));
        let rows = compare(&file(1000.0, ""), &file(600.0, "\"host_noisy\""));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));
        assert!(render_comparison(&rows).contains("unresolved"));
    }
}
