//! Structured, leveled stderr logging.
//!
//! The `figures` CLI reserves **stdout** for machine-readable results
//! (tables, CSV, JSON); everything a human operator reads — progress,
//! file paths written, warnings — goes to **stderr** through this
//! module as `key=value` lines:
//!
//! ```text
//! obs t=0.123s level=info target=figures msg="wrote artifact" id=fig3
//! ```
//!
//! Levels are a process-global atomic: `--quiet` maps to
//! [`Level::Error`], the default to [`Level::Info`], `-v` to
//! [`Level::Debug`]. Logging never touches metrics or simulation state,
//! so it inherits the obs-neutrality contract for free.
//!
//! Emission is **rate-limited per `(target, msg)` key** with a token
//! bucket ([`LOG_BURST`] lines of burst, [`LOG_RATE`] lines/s sustained):
//! stderr is a pipe with a finite buffer, so an unthrottled log site
//! sitting near a hot loop under `-v` can block the loop on a slow
//! consumer. Errors always print.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Log severity, in increasing verbosity order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Failures only (`--quiet`).
    Error = 0,
    /// Unusual but non-fatal conditions.
    Warn = 1,
    /// Progress (the default).
    Info = 2,
    /// Everything (`-v`).
    Debug = 3,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
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

/// Burst capacity of each `(target, msg)` token bucket, in lines.
pub const LOG_BURST: f64 = 32.0;
/// Sustained refill rate of each bucket, in lines per second.
pub const LOG_RATE: f64 = 16.0;

/// One log site's token bucket. The math is pure — time comes in as a
/// caller-supplied seconds value — so refill behavior is unit-testable
/// without sleeping.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last_s: f64,
}

impl Bucket {
    fn new(now_s: f64) -> Bucket {
        Bucket {
            tokens: LOG_BURST,
            last_s: now_s,
        }
    }

    /// Refills by elapsed time, then spends one token if available.
    fn allow(&mut self, now_s: f64) -> bool {
        self.tokens = (self.tokens + (now_s - self.last_s).max(0.0) * LOG_RATE).min(LOG_BURST);
        self.last_s = now_s;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

static BUCKETS: OnceLock<Mutex<HashMap<(String, String), Bucket>>> = OnceLock::new();

/// Consults the per-key bucket at `now_s` seconds since process start.
/// Split from [`log`] so tests can drive the clock.
fn rate_limit_allow(target: &str, msg: &str, now_s: f64) -> bool {
    let buckets = BUCKETS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = buckets.lock().unwrap_or_else(|p| p.into_inner());
    let key = (target.to_string(), msg.to_string());
    map.entry(key)
        .or_insert_with(|| Bucket::new(now_s))
        .allow(now_s)
}

/// Emits a line at `l` to stderr when the level allows and the site's
/// token bucket has budget. [`Level::Error`] bypasses the limiter —
/// failures must never be shed.
pub fn log(l: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    if !enabled(l) {
        return;
    }
    if l != Level::Error {
        let now_s = START.get_or_init(Instant::now).elapsed().as_secs_f64();
        if !rate_limit_allow(target, msg, now_s) {
            return;
        }
    }
    eprintln!("{}", format_line(l, target, msg, fields));
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, String)]) {
    log(Level::Error, target, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, String)]) {
    log(Level::Warn, target, msg, fields);
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
        assert!(Level::Error < Level::Debug);
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(Level::Info);
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

    #[test]
    fn bucket_allows_burst_then_blocks_then_refills() {
        let mut b = Bucket::new(0.0);
        for _ in 0..LOG_BURST as usize {
            assert!(b.allow(0.0));
        }
        // Budget spent: same-instant lines are shed.
        assert!(!b.allow(0.0));
        assert!(!b.allow(0.01));
        // One second refills LOG_RATE tokens.
        for _ in 0..LOG_RATE as usize {
            assert!(b.allow(1.0));
        }
        assert!(!b.allow(1.0));
        // Tokens cap at the burst size no matter how long the gap.
        for _ in 0..LOG_BURST as usize {
            assert!(b.allow(1e6));
        }
        assert!(!b.allow(1e6));
    }

    #[test]
    fn limiter_is_per_key_and_counts_suppressions() {
        // Distinct keys get independent budgets.
        assert!(rate_limit_allow("tgt_a", "unique msg a", 0.0));
        assert!(rate_limit_allow("tgt_b", "unique msg b", 0.0));
        let suppressed = (0..LOG_BURST as usize + 5)
            .filter(|_| !rate_limit_allow("tgt_c", "spammy msg", 0.0))
            .count();
        assert_eq!(suppressed, 5);
        // The unrelated key still has budget.
        assert!(rate_limit_allow("tgt_d", "unique msg d", 0.0));
    }
}
