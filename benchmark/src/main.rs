//! The repository's benchmark: five pinned workloads over the beacon
//! campaign, the daily retrain and wire serving, measured end to end and —
//! in a separate traced run — layer by layer. See `README.md`.
//!
//! ```text
//! anycast-benchmark run --workload <name|all> --seed N [--seconds S]
//!                       [--trace 0|1 | --traced] [--quick] [--out FILE]
//! anycast-benchmark check [--seed N]
//! anycast-benchmark compare A.json B.json
//! anycast-benchmark repeat [--seed N] [--seconds S] [--quick] [--out PREFIX]
//! anycast-benchmark describe            # the text of BENCHMARK.json
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod adapter;
mod check;
mod layers;
mod loadgen;
mod procfs;
mod report;
mod stats;
mod synth;
mod trace;
mod wire;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use report::{Outcome, Verdict, WORKLOADS};
use workloads::RunArgs;

/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = report::RUN_SECONDS as f64;
/// `--quick` runs each workload at this share of its length.
const QUICK_SHARE: f64 = 0.1;
/// Exit code for a refused environment or bad usage.
const EXIT_REFUSED: u8 = 2;
/// Prefix of the line a child run hands its parent the run object on.
const RUN_OBJECT: &str = "@run ";

/// Parsed command line of `run` and `repeat`.
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    both: bool,
    out: Option<String>,
    emit_run_object: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  anycast-benchmark run --workload <name|all> --seed N [--seconds S] \
         [--trace 0|1 | --traced] [--quick] [--out FILE]\n  anycast-benchmark check [--seed N]\n  \
         anycast-benchmark compare A.json B.json\n  anycast-benchmark repeat [--seed N] \
         [--seconds S] [--quick] [--out PREFIX]\n  anycast-benchmark describe\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(EXIT_REFUSED)
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".to_string(),
        seed: 2015,
        seconds: DEFAULT_SECONDS,
        traced: false,
        both: false,
        out: None,
        emit_run_object: false,
    };
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            // With one workload: the traced run. With `all`: an end-to-end
            // run and then a traced run of each workload.
            "--traced" => {
                cli.traced = true;
                cli.both = true;
            }
            "--quick" => quick = true,
            "--out" => cli.out = Some(value()?.clone()),
            "--emit-run-object" => cli.emit_run_object = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", cli.seconds));
    }
    if quick {
        cli.seconds *= QUICK_SHARE;
    }
    if cli.workload != "all" && report::workload(&cli.workload).is_none() {
        return Err(format!("unknown workload {}", cli.workload));
    }
    Ok(cli)
}

/// Refuses hosts and environments the pinned load was not sized for.
fn guard() -> Result<(), String> {
    let host = procfs::host();
    if host.nproc < 2 {
        return Err(format!(
            "the load is pinned for 2 CPUs (1 server worker + 1 generator; 2 study workers); this host offers {}",
            host.nproc
        ));
    }
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("ANYCAST_"))
    {
        return Err(format!(
            "{} is set; ANYCAST_* overrides change the pinned configuration",
            k.to_string_lossy()
        ));
    }
    Ok(())
}

/// First line of a command's output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything pinned about the load, fingerprinted into each result file.
fn config_fingerprint(seconds: f64) -> String {
    let spec = synth::DaySpec::PINNED;
    adapter::fingerprint(&[
        &format!("seconds={seconds}"),
        &format!(
            "study_workers={} shard_workers={}",
            adapter::WORKERS,
            adapter::WORKERS
        ),
        "serve_workers=1 serve_batch=32 valve=off recorder=on",
        &format!(
            "closed_window={} send_batch={}",
            loadgen::CLOSED_WINDOW,
            loadgen::SEND_BATCH
        ),
        &format!("open_rate_qps={}", workloads::serve::OPEN_RATE_QPS),
        &format!("day={spec:?} pool={}", synth::POOL_LEN),
        &format!("setup_repeats={}", workloads::SETUP_REPEATS),
    ])
}

/// A result file: host metadata plus the runs' objects.
fn result_file(cli: &Cli, runs: &[String]) -> String {
    let host = procfs::host();
    format!(
        "{{\"schema\": \"anycast-benchmark/1\", \"seed\": {}, \"seconds\": {}, \
         \"config_fingerprint\": {}, \"traffic\": \"loopback interface, no real link\", \
         \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}}}, \"rustc\": {}, \
         \"git_commit\": {}, \"runs\": [\n{}\n]}}\n",
        cli.seed,
        report::number(cli.seconds),
        report::quote(&config_fingerprint(cli.seconds)),
        host.nproc,
        report::quote(&host.cpu_model),
        report::quote(&host.kernel),
        report::quote(&first_line_of("rustc", &["--version"])),
        report::quote(&first_line_of("git", &["rev-parse", "HEAD"])),
        runs.join(",\n")
    )
}

/// Runs one workload in this process and prints it.
fn run_here(cli: &Cli) -> std::io::Result<Outcome> {
    let name = report::workload(&cli.workload)
        .expect("checked by parse")
        .name;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
    };
    let outcome = workloads::run(name, &args)?;
    print!("{}", outcome.lines());
    if cli.emit_run_object {
        println!("{RUN_OBJECT}{}", outcome.to_json());
    }
    println!("{}", outcome.result_line());
    Ok(outcome)
}

/// Runs one workload in a child process, so its `peak_rss_mb` is its own.
/// Echoes the child's lines; returns the run object and whether the run
/// was correct.
fn run_child(cli: &Cli, workload: &str, traced: bool) -> std::io::Result<(String, bool)> {
    let exe = std::env::current_exe()?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--emit-run-object"])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut run = None;
    for line in text.lines() {
        match line.strip_prefix(RUN_OBJECT) {
            Some(object) => run = Some(object.to_string()),
            None => println!("{line}"),
        }
    }
    let run =
        run.ok_or_else(|| std::io::Error::other(format!("{workload}: the run printed no result")))?;
    Ok((run, output.status.success()))
}

/// Runs every workload (end-to-end, then traced when asked), one child
/// process each; returns the run objects and whether all were correct.
fn run_all(cli: &Cli) -> std::io::Result<(Vec<String>, bool)> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let modes: &[bool] = if cli.both {
            &[false, true]
        } else {
            &[cli.traced]
        };
        for &traced in modes {
            let (run, correct) = run_child(cli, w.name, traced)?;
            runs.push(run);
            all_correct &= correct;
        }
    }
    Ok((runs, all_correct))
}

fn write_out(path: &str, text: &str) -> std::io::Result<()> {
    std::fs::write(path, text)?;
    eprintln!("wrote {path}");
    Ok(())
}

fn cmd_run(cli: &Cli) -> std::io::Result<ExitCode> {
    let (runs, correct) = if cli.workload == "all" {
        run_all(cli)?
    } else {
        let outcome = run_here(cli)?;
        (vec![outcome.to_json()], outcome.correct())
    };
    if let Some(path) = &cli.out {
        write_out(path, &result_file(cli, &runs))?;
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_check(seed: u64) -> ExitCode {
    let mut ok = true;
    for f in check::run(seed) {
        match f.result {
            Ok(detail) => println!("ok    {}: {detail}", f.name),
            Err(why) => {
                ok = false;
                println!("FAIL  {}: {why}", f.name);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_json(path: &str) -> Result<adapter::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    adapter::json_parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// Prints the comparison; fails on a regression (`strict`: on a pair that
/// moved past its bound in either direction).
fn judge_files(before: &adapter::Json, after: &adapter::Json, strict: bool) -> ExitCode {
    let rows = report::compare(before, after);
    print!("{}", report::render_comparison(&rows));
    if rows.is_empty() {
        eprintln!("the files share no end-to-end run");
        return ExitCode::FAILURE;
    }
    // Two runs of one build disagree when either side is past the bound.
    let bad = |v: Verdict| v == Verdict::Regressed || (strict && v == Verdict::Improved);
    if rows.iter().any(|r| bad(r.verdict)) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_compare(a: &str, b: &str) -> ExitCode {
    match (read_json(a), read_json(b)) {
        (Ok(a), Ok(b)) => judge_files(&a, &b, false),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            ExitCode::from(EXIT_REFUSED)
        }
    }
}

/// Two full end-to-end sets of the same build; they must agree within
/// every metric's bound.
fn cmd_repeat(cli: &Cli) -> std::io::Result<ExitCode> {
    let mut files = Vec::new();
    for set in ["a", "b"] {
        println!("# set {set}");
        let (runs, _) = run_all(cli)?;
        let text = result_file(cli, &runs);
        if let Some(prefix) = &cli.out {
            write_out(&format!("{prefix}.{set}.json"), &text)?;
        }
        files
            .push(adapter::json_parse(&text).map_err(|e| std::io::Error::other(format!("{e:?}")))?);
    }
    println!("# set a against set b");
    Ok(judge_files(&files[0], &files[1], true))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    if command == "describe" {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if command == "compare" {
        return match rest {
            [a, b] => cmd_compare(a, b),
            _ => usage(),
        };
    }
    let cli = match parse(rest) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };
    if let Err(why) = guard() {
        eprintln!("refused: {why}");
        return ExitCode::from(EXIT_REFUSED);
    }
    let done = match command.as_str() {
        "run" => cmd_run(&cli),
        "check" => Ok(cmd_check(cli.seed)),
        "repeat" => cmd_repeat(&Cli {
            traced: false,
            both: false,
            ..cli
        }),
        _ => return usage(),
    };
    done.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let cli = parse(&args(
            "--workload serve_mixed_swap --seed 7 --seconds 15 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (
                cli.workload.as_str(),
                cli.seed,
                cli.seconds,
                cli.traced,
                cli.both
            ),
            ("serve_mixed_swap", 7, 15.0, true, false)
        );
        let cli = parse(&args("--workload all --seed 2015 --traced --out r.json")).expect("parses");
        assert!(cli.traced && cli.both);
        assert_eq!(cli.out.as_deref(), Some("r.json"));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seconds 61")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }

    #[test]
    fn quick_runs_a_tenth_of_the_length() {
        let cli = parse(&args("--quick")).expect("parses");
        assert_eq!(cli.seconds, DEFAULT_SECONDS * QUICK_SHARE);
        assert_eq!(cli.workload, "all");
        let cli = parse(&args("--seconds 20 --quick")).expect("parses");
        assert_eq!(cli.seconds, 2.0);
    }

    #[test]
    fn the_fingerprint_moves_with_the_configuration() {
        assert_eq!(config_fingerprint(15.0), config_fingerprint(15.0));
        assert_ne!(config_fingerprint(15.0), config_fingerprint(1.5));
    }

    /// `--quick`: each workload at a tenth of its length still prints
    /// every end-to-end name, with no failed operation.
    #[test]
    fn a_quick_run_of_every_workload_prints_every_end_to_end_name() {
        if guard().is_err() {
            eprintln!("skipped: the pinned load needs 2 CPUs and no ANYCAST_* variables");
            return;
        }
        for w in &WORKLOADS {
            let run = RunArgs {
                seed: 11,
                seconds: DEFAULT_SECONDS * QUICK_SHARE,
                traced: false,
            };
            let outcome = workloads::run(w.name, &run).expect("runs");
            assert!(outcome.correct(), "{}: {:?}", w.name, outcome.violations);
            let lines = outcome.lines();
            for m in report::compared() {
                let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
                assert!(value > 0.0, "{} {} = {value}", w.name, m.name);
                assert!(
                    lines.contains(&format!("{} {} ", w.name, m.name)),
                    "{lines}"
                );
            }
            assert_eq!(outcome.rows().len(), report::END_TO_END.len());
        }
    }
}
