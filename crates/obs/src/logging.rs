//! Structured, leveled stderr logging.
//!
//! The `figures` CLI reserves **stdout** for machine-readable results
//! (tables, CSV, JSON); everything a human operator reads — progress,
//! file paths written, failures — goes to **stderr** through this
//! module as `key=value` lines:
//!
//! ```text
//! obs t=0.123s level=info target=figures msg="wrote artifact" id=fig3
//! ```
//!
//! Levels are a process-global atomic: `--quiet` maps to
//! [`Level::Error`], the default to [`Level::Info`], `-v` to
//! [`Level::Debug`]. Logging never touches metrics or simulation state,
//! so it inherits the obs-neutrality contract for free. Each line is one
//! `eprintln!` with no rate limit, so log sites belong outside hot loops
//! (today: at most one line per artifact or output file).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Log severity, in increasing verbosity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures only (`--quiet`).
    Error = 0,
    /// Progress (the default).
    Info = 1,
    /// Everything (`-v`).
    Debug = 2,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Info,
            _ => Level::Debug,
        }
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static START: OnceLock<Instant> = OnceLock::new();

/// Sets the maximum level that prints.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current maximum level.
pub fn level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Whether `l` would print right now.
pub fn enabled(l: Level) -> bool {
    l <= level()
}

/// Quotes a field value when it contains spaces, quotes, or equals
/// signs, so lines stay machine-splittable.
fn field_value(v: &str) -> String {
    if v.is_empty() || v.contains([' ', '"', '=', '\n']) {
        format!("{:?}", v.replace('\n', " "))
    } else {
        v.to_string()
    }
}

/// Formats one log line (no trailing newline). Public for tests.
pub fn format_line(l: Level, target: &str, msg: &str, fields: &[(&str, String)]) -> String {
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    let mut line = format!(
        "obs t={t:.3}s level={} target={} msg={}",
        l.name(),
        field_value(target),
        field_value(msg)
    );
    for (k, v) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(&field_value(v));
    }
    line
}

/// Emits a line at `l` to stderr when the level allows.
pub fn log(l: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    if enabled(l) {
        eprintln!("{}", format_line(l, target, msg, fields));
    }
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, String)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, String)]) {
    log(Level::Info, target, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, String)]) {
    log(Level::Debug, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        assert!(Level::Error < Level::Info && Level::Info < Level::Debug);
        set_level(Level::Error);
        assert!(enabled(Level::Error));
        assert!(!enabled(Level::Info));
        set_level(Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }

    #[test]
    fn lines_are_key_value_structured() {
        let line = format_line(
            Level::Info,
            "figures",
            "wrote artifact",
            &[("id", "fig3".to_string()), ("n", "7".to_string())],
        );
        assert!(line.contains("level=info"));
        assert!(line.contains("target=figures"));
        assert!(line.contains("msg=\"wrote artifact\""));
        assert!(line.contains("id=fig3"));
        assert!(line.contains("n=7"));
        assert!(line.starts_with("obs t="));
    }

    #[test]
    fn awkward_values_get_quoted() {
        assert_eq!(field_value("plain"), "plain");
        assert_eq!(field_value("a b"), "\"a b\"");
        assert_eq!(field_value("a=b"), "\"a=b\"");
        assert_eq!(field_value(""), "\"\"");
    }
}
