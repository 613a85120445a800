//! The structured run report: one JSON document describing a run.
//!
//! The observability counterpart of a `benchmark/` result file (which
//! holds the wall-clock numbers): which configuration ran (with a stable fingerprint),
//! on what host, and everything the metrics registry accumulated —
//! counters, histograms, per-`(stage, worker)` span timings, and
//! a `per_day` rollup of every counter series carrying a `day` label.
//!
//! The document validates against
//! `crates/obs/schemas/run_report.schema.json` (CI enforces this via the
//! `obs_validate` binary). Field order is stable (`BTreeMap` keys), so
//! two reports from identical runs differ only in wall-clock fields.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::registry::Snapshot;

/// Schema version of the emitted document.
pub const REPORT_VERSION: u64 = 2;

/// FNV-1a over the parts, rendered as 16 hex digits: the config
/// fingerprint. Stable across runs and platforms for equal inputs.
pub fn fingerprint(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so ["ab","c"] and ["a","bc"] differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What ran: the configuration half of the report.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// The producing tool (`"figures"`).
    pub tool: String,
    /// Experiment scale (`"small"` / `"paper"`).
    pub scale: String,
    /// World seed.
    pub seed: u64,
    /// Configured worker threads.
    pub workers: usize,
    /// Artifact ids the run computed, in order.
    pub artifacts: Vec<String>,
}

impl RunMeta {
    /// The config fingerprint: a stable hash of every field.
    pub fn fingerprint(&self) -> String {
        let mut parts: Vec<&str> = vec![&self.tool, &self.scale];
        let seed = self.seed.to_string();
        let workers = self.workers.to_string();
        parts.push(&seed);
        parts.push(&workers);
        for a in &self.artifacts {
            parts.push(a);
        }
        fingerprint(&parts)
    }
}

/// Host metadata: a report is only comparable to one from the same host.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Parallelism the host offers.
    pub cores: usize,
    /// `std::env::consts::OS`.
    pub os: &'static str,
    /// `std::env::consts::ARCH`.
    pub arch: &'static str,
}

impl HostInfo {
    /// Probes the current host.
    pub fn current() -> HostInfo {
        HostInfo {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
        }
    }
}

/// A complete run report, ready to serialize.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Configuration metadata.
    pub meta: RunMeta,
    /// Host metadata.
    pub host: HostInfo,
    /// The metrics recorded during the run.
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Assembles a report for the current host.
    pub fn new(meta: RunMeta, snapshot: Snapshot) -> RunReport {
        RunReport {
            meta,
            host: HostInfo::current(),
            snapshot,
        }
    }

    /// The report as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut root = BTreeMap::new();
        root.insert("report".into(), Value::Str("anycast-obs-run".into()));
        root.insert("version".into(), Value::Num(REPORT_VERSION as f64));

        let mut config = BTreeMap::new();
        config.insert("tool".into(), Value::Str(self.meta.tool.clone()));
        config.insert("scale".into(), Value::Str(self.meta.scale.clone()));
        config.insert("seed".into(), Value::Num(self.meta.seed as f64));
        config.insert("workers".into(), Value::Num(self.meta.workers as f64));
        config.insert(
            "artifacts".into(),
            Value::Arr(
                self.meta
                    .artifacts
                    .iter()
                    .map(|a| Value::Str(a.clone()))
                    .collect(),
            ),
        );
        config.insert("fingerprint".into(), Value::Str(self.meta.fingerprint()));
        root.insert("config".into(), Value::Obj(config));

        let mut host = BTreeMap::new();
        host.insert("cores".into(), Value::Num(self.host.cores as f64));
        host.insert("os".into(), Value::Str(self.host.os.into()));
        host.insert("arch".into(), Value::Str(self.host.arch.into()));
        root.insert("host".into(), Value::Obj(host));

        let counters: BTreeMap<String, Value> = self
            .snapshot
            .counters
            .iter()
            .map(|(k, &v)| (k.to_string(), Value::Num(v as f64)))
            .collect();
        root.insert("counters".into(), Value::Obj(counters));

        let histograms: BTreeMap<String, Value> = self
            .snapshot
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut m = BTreeMap::new();
                m.insert("count".into(), Value::Num(h.count() as f64));
                m.insert("sum_ms".into(), Value::Num(h.sum_ms()));
                m.insert(
                    "buckets".into(),
                    Value::Arr(
                        h.nonzero_buckets()
                            .into_iter()
                            .map(|(ub, n)| {
                                // The overflow bucket has no finite bound;
                                // encode it as -1 (JSON has no Infinity).
                                let bound = if ub.is_finite() { ub } else { -1.0 };
                                Value::Arr(vec![Value::Num(bound), Value::Num(n as f64)])
                            })
                            .collect(),
                    ),
                );
                (k.to_string(), Value::Obj(m))
            })
            .collect();
        root.insert("histograms".into(), Value::Obj(histograms));

        let spans: Vec<Value> = self
            .snapshot
            .spans
            .iter()
            .map(|(k, s)| {
                let mut m = BTreeMap::new();
                m.insert("stage".into(), Value::Str(k.name.clone()));
                m.insert(
                    "worker".into(),
                    Value::Str(k.label("worker").unwrap_or("main").into()),
                );
                m.insert("count".into(), Value::Num(s.count as f64));
                m.insert("total_ms".into(), Value::Num(s.total_ms()));
                m.insert("max_ms".into(), Value::Num(s.max_ns as f64 / 1e6));
                Value::Obj(m)
            })
            .collect();
        root.insert("spans".into(), Value::Arr(spans));

        // Per-day rollup: every counter series labeled day="N", grouped.
        let mut per_day: BTreeMap<String, BTreeMap<String, Value>> = BTreeMap::new();
        for (k, &v) in &self.snapshot.counters {
            if let Some(day) = k.label("day") {
                per_day
                    .entry(day.to_string())
                    .or_default()
                    .insert(k.name.clone(), Value::Num(v as f64));
            }
        }
        root.insert(
            "per_day".into(),
            Value::Obj(
                per_day
                    .into_iter()
                    .map(|(d, m)| (d, Value::Obj(m)))
                    .collect(),
            ),
        );

        Value::Obj(root)
    }

    /// The report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json_pretty()
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits `name{a="x",b="y"}` into the bare name and its label pairs,
/// collecting syntax complaints into `errors`.
fn split_sample_name<'a>(
    raw: &'a str,
    line_no: usize,
    errors: &mut Vec<String>,
) -> (&'a str, Vec<(String, String)>) {
    let Some(brace) = raw.find('{') else {
        return (raw, Vec::new());
    };
    let name = &raw[..brace];
    let rest = &raw[brace + 1..];
    let Some(body) = rest.strip_suffix('}') else {
        errors.push(format!("line {line_no}: unterminated label set in {raw:?}"));
        return (name, Vec::new());
    };
    let mut labels = Vec::new();
    for pair in body.split(',').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') => {
                if !valid_label_name(k) {
                    errors.push(format!("line {line_no}: bad label name {k:?}"));
                }
                labels.push((k.to_string(), v[1..v.len() - 1].to_string()));
            }
            _ => errors.push(format!(
                "line {line_no}: bad label pair {pair:?} in {raw:?}"
            )),
        }
    }
    (name, labels)
}

/// Validates Prometheus text-exposition output as produced by
/// [`Snapshot::to_prometheus`]. Returns human-readable complaints;
/// empty means valid. Checks:
///
/// * every sample line parses as `name[{labels}] value` with legal
///   metric/label names and a numeric value;
/// * every sample is covered by a preceding `# TYPE` declaration
///   (histogram samples match their base name's `_bucket`/`_sum`/
///   `_count` suffixes);
/// * each histogram's `le` buckets are cumulative (non-decreasing in
///   declaration order), end with an `+Inf` bucket, and agree with the
///   `_count` sample; `_sum` must be present.
pub fn validate_prometheus(text: &str) -> Vec<String> {
    // Per-histogram running state: (last bucket value, +Inf value, count, has_sum).
    type HistState = (Option<f64>, Option<f64>, Option<f64>, bool);
    let mut errors = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistState> = BTreeMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    errors.push(format!("line {line_no}: malformed TYPE line {line:?}"));
                    continue;
                };
                if !valid_metric_name(name) {
                    errors.push(format!("line {line_no}: bad metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    errors.push(format!("line {line_no}: unknown metric type {kind:?}"));
                }
                types.insert(name.to_string(), kind.to_string());
                if kind == "histogram" {
                    hists
                        .entry(name.to_string())
                        .or_insert((None, None, None, false));
                }
            }
            continue;
        }
        let Some((raw_name, raw_value)) = line.rsplit_once(' ') else {
            errors.push(format!(
                "line {line_no}: not a `name value` sample: {line:?}"
            ));
            continue;
        };
        let Ok(value) = raw_value.parse::<f64>() else {
            errors.push(format!("line {line_no}: non-numeric value {raw_value:?}"));
            continue;
        };
        let (name, labels) = split_sample_name(raw_name, line_no, &mut errors);
        if !valid_metric_name(name) {
            errors.push(format!("line {line_no}: bad metric name {name:?}"));
            continue;
        }
        samples += 1;
        // A histogram sample references its base name via suffix.
        let base = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
            name.strip_suffix(suf)
                .filter(|b| types.get(*b).map(String::as_str) == Some("histogram"))
        });
        match base {
            Some(b) => {
                let st = hists.get_mut(b).expect("declared histogram");
                if name.ends_with("_bucket") {
                    let le = labels.iter().find(|(k, _)| k == "le");
                    match le {
                        Some((_, bound)) if bound == "+Inf" => st.1 = Some(value),
                        Some((_, bound)) => {
                            if bound.parse::<f64>().is_err() {
                                errors.push(format!("line {line_no}: bad le bound {bound:?}"));
                            }
                            if st.0.is_some_and(|prev| value < prev) {
                                errors.push(format!(
                                    "line {line_no}: histogram {b} buckets not cumulative"
                                ));
                            }
                            st.0 = Some(value);
                        }
                        None => {
                            errors.push(format!("line {line_no}: {name} sample missing le label"))
                        }
                    }
                } else if name.ends_with("_sum") {
                    st.3 = true;
                } else {
                    st.2 = Some(value);
                }
            }
            None => {
                if !types.contains_key(name) {
                    errors.push(format!(
                        "line {line_no}: sample {name:?} has no preceding TYPE declaration"
                    ));
                }
            }
        }
    }
    for (name, (last, inf, count, has_sum)) in &hists {
        match (inf, count) {
            (None, _) => errors.push(format!("histogram {name}: missing +Inf bucket")),
            (Some(_), None) => errors.push(format!("histogram {name}: missing _count sample")),
            (Some(i), Some(c)) if i != c => errors.push(format!(
                "histogram {name}: +Inf bucket {i} disagrees with _count {c}"
            )),
            _ => {}
        }
        if let (Some(l), Some(i)) = (last, inf) {
            if l > i {
                errors.push(format!("histogram {name}: finite bucket exceeds +Inf"));
            }
        }
        if !has_sum {
            errors.push(format!("histogram {name}: missing _sum sample"));
        }
    }
    if samples == 0 {
        errors.push("no samples found".into());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::registry::Registry;

    fn meta() -> RunMeta {
        RunMeta {
            tool: "figures".into(),
            scale: "small".into(),
            seed: 7,
            workers: 2,
            artifacts: vec!["fig3".into(), "bench".into()],
        }
    }

    #[test]
    fn fingerprint_is_stable_and_separator_safe() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&[]).len(), 16);
        let m = meta();
        assert_eq!(m.fingerprint(), meta().fingerprint());
    }

    #[test]
    fn report_serializes_and_parses_back() {
        let r = Registry::new();
        r.counter("beacon_executions_total").add(12);
        r.counter_with("study_day_events_total", &[("day", "0")])
            .add(5);
        r.counter_with("study_day_events_total", &[("day", "1")])
            .add(6);
        r.histogram("beacon_reported_ms").observe(42.0);
        r.span("study.execute", "0").record_ns(1_000_000);
        let report = RunReport::new(meta(), r.snapshot());
        let doc = parse(&report.to_json()).expect("report is valid JSON");
        assert_eq!(doc.get("report").unwrap().as_str(), Some("anycast-obs-run"));
        assert_eq!(
            doc.get("config").unwrap().get("seed").unwrap().as_num(),
            Some(7.0)
        );
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("beacon_executions_total")
                .unwrap()
                .as_num(),
            Some(12.0)
        );
        // Per-day rollup groups labeled series by day.
        let day0 = doc.get("per_day").unwrap().get("0").unwrap();
        assert_eq!(
            day0.get("study_day_events_total").unwrap().as_num(),
            Some(5.0)
        );
        let hist = doc
            .get("histograms")
            .unwrap()
            .get("beacon_reported_ms")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_num(), Some(1.0));
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("stage").unwrap().as_str(),
            Some("study.execute")
        );
    }

    #[test]
    fn real_prometheus_export_validates_clean() {
        let r = Registry::new();
        r.counter("serve_udp_queries_total").add(12);
        r.counter_with("serve_answers_total", &[("addr", "10.0.0.1")])
            .add(3);
        let h = r.histogram("serve_batch_size");
        for v in [1.0, 8.0, 32.0, 32.0] {
            h.observe(v);
        }
        r.span("study.execute", "0").record_ns(1_000_000);
        let text = r.snapshot().to_prometheus();
        let errors = validate_prometheus(&text);
        assert!(errors.is_empty(), "unexpected complaints: {errors:?}");
    }

    #[test]
    fn validator_rejects_structural_corruption() {
        // Sample with no TYPE declaration.
        let errs = validate_prometheus("lonely_metric 5\n");
        assert!(errs.iter().any(|e| e.contains("no preceding TYPE")));
        // Non-cumulative histogram buckets.
        let bad_hist = "# TYPE h histogram\n\
                        h_bucket{le=\"1\"} 5\n\
                        h_bucket{le=\"2\"} 3\n\
                        h_bucket{le=\"+Inf\"} 5\n\
                        h_sum 9\nh_count 5\n";
        let errs = validate_prometheus(bad_hist);
        assert!(
            errs.iter().any(|e| e.contains("not cumulative")),
            "{errs:?}"
        );
        // +Inf bucket disagreeing with _count.
        let bad_count = "# TYPE h histogram\n\
                         h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n";
        let errs = validate_prometheus(bad_count);
        assert!(errs.iter().any(|e| e.contains("disagrees")), "{errs:?}");
        // Missing _sum.
        let no_sum = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n";
        let errs = validate_prometheus(no_sum);
        assert!(errs.iter().any(|e| e.contains("missing _sum")), "{errs:?}");
        // Garbage value and empty document.
        assert!(!validate_prometheus("# TYPE c counter\nc nope\n").is_empty());
        assert!(validate_prometheus("")
            .iter()
            .any(|e| e.contains("no samples")));
    }
}
