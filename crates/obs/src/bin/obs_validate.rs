//! Validates observability artifacts.
//!
//! ```text
//! obs_validate <schema.json> <document.json>   # JSON against a schema
//! obs_validate --prom <metrics.prom>           # Prometheus text export
//! ```
//!
//! Exit 0 when the artifact validates; exit 1 with one violation per
//! stderr line otherwise. CI runs the JSON mode over every emitted run
//! report against `crates/obs/schemas/run_report.schema.json`, and the
//! `--prom` mode over the `figures --obs-prom` dump. (The text a live
//! server serves on its in-band CHAOS endpoint is validated in-process
//! by the serve crate's `chaos_scrape_answers_live_prometheus_mid_replay`
//! test.)

use std::process::ExitCode;

use anycast_obs::{json, schema, validate_prometheus};

fn load(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn report(path: &str, what: &str, violations: &[String]) -> ExitCode {
    if violations.is_empty() {
        println!("{path}: valid {what}");
        ExitCode::SUCCESS
    } else {
        for v in violations {
            eprintln!("{path}: {v}");
        }
        eprintln!("{path}: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, prom_path] if flag == "--prom" => {
            let text = match std::fs::read_to_string(prom_path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: reading {prom_path}: {e}");
                    return ExitCode::from(2);
                }
            };
            report(prom_path, "Prometheus text", &validate_prometheus(&text))
        }
        [schema_path, doc_path] => {
            let (schema_doc, doc) = match (load(schema_path), load(doc_path)) {
                (Ok(s), Ok(d)) => (s, d),
                (s, d) => {
                    for e in [s.err(), d.err()].into_iter().flatten() {
                        eprintln!("error: {e}");
                    }
                    return ExitCode::from(2);
                }
            };
            report(
                doc_path,
                &format!("against {schema_path}"),
                &schema::validate(&doc, &schema_doc),
            )
        }
        _ => {
            eprintln!("usage: obs_validate <schema.json> <document.json>");
            eprintln!("       obs_validate --prom <metrics.prom>");
            ExitCode::from(2)
        }
    }
}
