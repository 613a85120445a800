//! Regenerates the paper's tables and figures from the simulated world.
//!
//! ```text
//! figures <artifact|all|ablations|extras|everything>
//!         [--scale small|paper] [--seed N] [--csv] [--out DIR]
//!         [--obs-prom FILE] [--quiet] [-v]
//! ```
//!
//! Output discipline: **stdout carries only machine-readable results**
//! (tables, CSV) — progress and diagnostics go to stderr as structured
//! `key=value` log lines, gated by `--quiet`/`-v`.
//! `--csv` emits long-form CSV to stdout, `--out DIR` writes per-artifact
//! `.csv` and `.txt` files. `--obs-prom` exports everything the metrics
//! registry accumulated across the run as Prometheus text. EXPERIMENTS.md records the paper-vs-measured
//! comparison produced by `figures all --scale paper`.

use std::process::ExitCode;

use anycast_bench::cli;
use anycast_obs::logging;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match cli::parse(&args) {
        Ok(inv) => inv,
        Err(e) => {
            if !e.0.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{}", cli::usage_text());
            return if e.0.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    logging::set_level(invocation.log_level);

    let workers = anycast_core::StudyConfig::default().workers;
    logging::info(
        "figures",
        "run start",
        &[
            ("artifacts", invocation.ids.len().to_string()),
            ("scale", format!("{:?}", invocation.scale).to_lowercase()),
            ("seed", invocation.seed.to_string()),
            ("workers", workers.to_string()),
        ],
    );

    for id in &invocation.ids {
        let id = *id;
        logging::debug("figures", "computing artifact", &[("id", id.to_string())]);
        let result = anycast_bench::compute(id, invocation.scale, invocation.seed)
            .expect("cli::parse only yields known ids");
        if let Some(dir) = &invocation.out_dir {
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join(format!("{id}.csv")), result.to_csv()))
                .and_then(|()| std::fs::write(dir.join(format!("{id}.txt")), result.render()))
            {
                logging::error(
                    "figures",
                    "write failed",
                    &[
                        ("id", id.to_string()),
                        ("dir", dir.display().to_string()),
                        ("error", e.to_string()),
                    ],
                );
                return ExitCode::FAILURE;
            }
            logging::info(
                "figures",
                "wrote artifact",
                &[("id", id.to_string()), ("dir", dir.display().to_string())],
            );
        } else if invocation.csv {
            print!("{}", result.to_csv());
        } else {
            println!("{}", result.render());
        }
    }

    if let Some(path) = &invocation.obs_prom {
        let text = anycast_obs::global().snapshot().to_prometheus();
        if let Err(e) = std::fs::write(path, text) {
            logging::error(
                "figures",
                "obs prometheus write failed",
                &[
                    ("path", path.display().to_string()),
                    ("error", e.to_string()),
                ],
            );
            return ExitCode::FAILURE;
        }
        logging::info(
            "figures",
            "wrote obs metrics",
            &[("path", path.display().to_string())],
        );
    }
    ExitCode::SUCCESS
}
