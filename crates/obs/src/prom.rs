//! The Prometheus text exposition format: the one way a [`Snapshot`]
//! leaves the process.
//!
//! [`Snapshot::to_prometheus`] renders it (the live CHAOS scrape serves
//! it, `figures --obs-prom` dumps it) and [`validate_prometheus`] checks
//! it (the `obs_validate` binary and the scrape tests). Each metric is
//! one family: its `# TYPE` line, then all of its samples.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

use crate::registry::{MetricKey, Snapshot};

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        // One TYPE line per name: a name's labeled series sort together.
        let mut last_name: Option<&str> = None;
        for (k, v) in &self.counters {
            if last_name != Some(k.name.as_str()) {
                out.push_str(&format!("# TYPE {} counter\n", k.name));
                last_name = Some(&k.name);
            }
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("# TYPE {} histogram\n", k.name));
            let mut cumulative = 0u64;
            for (ub, n) in h.nonzero_buckets() {
                cumulative += n;
                out.push_str(&format!("{}_bucket{{le=\"{ub}\"}} {cumulative}\n", k.name));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", k.name, h.count()));
            out.push_str(&format!("{}_sum {}\n", k.name, h.sum_ms()));
            out.push_str(&format!("{}_count {}\n", k.name, h.count()));
        }
        if !self.spans.is_empty() {
            out.push_str("# TYPE obs_span_milliseconds_total counter\n");
            for (k, s) in &self.spans {
                push_span_sample(&mut out, "obs_span_milliseconds_total", k, s.total_ms());
            }
            out.push_str("# TYPE obs_span_events_total counter\n");
            for (k, s) in &self.spans {
                push_span_sample(&mut out, "obs_span_events_total", k, s.count);
            }
        }
        out
    }
}

/// One span family's sample for the span keyed `k`.
fn push_span_sample(out: &mut String, family: &str, k: &MetricKey, value: impl Display) {
    let worker = k.label("worker").unwrap_or("main");
    out.push_str(&format!(
        "{family}{{stage=\"{}\",worker=\"{worker}\"}} {value}\n",
        k.name
    ));
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
///   `_count` suffixes), each name is declared once, and a counter's
///   name ends in `_total`;
/// * each family is one contiguous group: once another family's
///   `# TYPE` line or sample follows, no line of it may come again;
/// * each histogram's `le` buckets are cumulative (non-decreasing in
///   declaration order), end with an `+Inf` bucket, and agree with the
///   `_count` sample; `_sum` must be present.
pub fn validate_prometheus(text: &str) -> Vec<String> {
    // Per-histogram running state: (last bucket value, +Inf value, count, has_sum).
    type HistState = (Option<f64>, Option<f64>, Option<f64>, bool);
    let mut errors = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistState> = BTreeMap::new();
    // The family of the previous line, and every family entered so far.
    let mut current: Option<String> = None;
    let mut entered: BTreeSet<String> = BTreeSet::new();
    let mut enter = |family: &str, line_no: usize, errors: &mut Vec<String>| {
        if current.as_deref() != Some(family) {
            if !entered.insert(family.to_string()) {
                errors.push(format!(
                    "line {line_no}: family {family} is not one contiguous group"
                ));
            }
            current = Some(family.to_string());
        }
    };
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
                if kind == "counter" && !name.ends_with("_total") {
                    errors.push(format!(
                        "line {line_no}: counter {name} does not end in _total"
                    ));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    errors.push(format!("line {line_no}: second TYPE line for {name}"));
                }
                enter(name, line_no, &mut errors);
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
        enter(base.unwrap_or(name), line_no, &mut errors);
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
    use crate::registry::Registry;

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
        // Two spans: each span family must still be one group.
        r.span("study.execute", "0").record_ns(1_000_000);
        r.span("study.join", "main").record_ns(2_000_000);
        let text = r.snapshot().to_prometheus();
        let errors = validate_prometheus(&text);
        assert!(errors.is_empty(), "unexpected complaints: {errors:?}");
        assert!(
            text.ends_with(
                "# TYPE obs_span_milliseconds_total counter\n\
                 obs_span_milliseconds_total{stage=\"study.execute\",worker=\"0\"} 1\n\
                 obs_span_milliseconds_total{stage=\"study.join\",worker=\"main\"} 2\n\
                 # TYPE obs_span_events_total counter\n\
                 obs_span_events_total{stage=\"study.execute\",worker=\"0\"} 1\n\
                 obs_span_events_total{stage=\"study.join\",worker=\"main\"} 1\n"
            ),
            "{text}"
        );
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
        // A name declared twice.
        let twice = "# TYPE c_total counter\nc_total 1\n# TYPE c_total counter\n";
        let errs = validate_prometheus(twice);
        assert!(errs.iter().any(|e| e.contains("second TYPE")), "{errs:?}");
        // Two families' samples interleaved, as two spans once exported.
        let interleaved = "# TYPE a_total counter\n# TYPE b_total counter\n\
                           a_total{stage=\"x\"} 1\nb_total{stage=\"x\"} 1\n\
                           a_total{stage=\"y\"} 2\nb_total{stage=\"y\"} 2\n";
        let errs = validate_prometheus(interleaved);
        assert!(
            errs.iter().any(|e| e.contains("not one contiguous group")),
            "{errs:?}"
        );
        // A histogram's lines count as its family's.
        let split_hist = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n\
                          # TYPE c_total counter\nc_total 1\nh_sum 1\nh_count 1\n";
        let errs = validate_prometheus(split_hist);
        assert!(
            errs.iter().any(|e| e.contains("family h is not")),
            "{errs:?}"
        );
        // A counter must end in _total.
        let errs = validate_prometheus("# TYPE hits counter\nhits 3\n");
        assert!(errs.iter().any(|e| e.contains("_total")), "{errs:?}");
        // Garbage value and empty document.
        assert!(!validate_prometheus("# TYPE c_total counter\nc_total nope\n").is_empty());
        assert!(validate_prometheus("")
            .iter()
            .any(|e| e.contains("no samples")));
    }
}
