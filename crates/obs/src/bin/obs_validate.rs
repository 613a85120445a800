//! Validates a Prometheus text export.
//!
//! ```text
//! obs_validate <metrics.prom>
//! ```
//!
//! Exit 0 when the file passes [`anycast_obs::validate_prometheus`];
//! exit 1 with one violation per stderr line otherwise. CI runs it over
//! the `figures --obs-prom` dump. (The text a live server serves on its
//! in-band CHAOS endpoint is validated in-process by the serve crate's
//! `chaos_scrape_answers_live_prometheus_mid_replay` test.)

use std::process::ExitCode;

use anycast_obs::validate_prometheus;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: obs_validate <metrics.prom>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let violations = validate_prometheus(&text);
    if violations.is_empty() {
        println!("{path}: valid Prometheus text");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("{path}: {v}");
    }
    eprintln!("{path}: {} violation(s)", violations.len());
    ExitCode::FAILURE
}
