//! Determinism-safe observability for the anycast-CDN reproduction.
//!
//! The paper's operational story (§3.2, §6) depends on operators being
//! able to *see* the system — query volumes, per-front-end load, failed
//! measurements. This crate is the reproduction's equivalent: a
//! zero-dependency metrics layer every other crate reports into, built
//! around one non-negotiable invariant:
//!
//! > **Obs-neutrality.** Instrumentation never draws randomness, never
//! > feeds a value back into simulation state, and therefore never
//! > changes an output byte — whether obs is enabled, disabled, or the
//! > work is spread over any number of workers. Figures, ablations, and
//! > extras goldens are bit-identical either way; the tier-1 tests
//! > `crates/bench/tests/obs_neutral_figures.rs` and
//! > `crates/core/tests/obs_neutrality.rs` pin it.
//!
//! Obs is write-only, with no exception: no decision anywhere in the
//! workspace reads a metric back. Values a decision needs (the control
//! loop's per-front-end answer tallies, say) travel as plain data next to
//! the counters that mirror them.
//!
//! The pieces:
//!
//! * [`registry`] — thread-safe [`Registry`] of counters, histograms,
//!   and spans; handles are `Arc`s of atomics, so hot paths pay a
//!   couple of relaxed atomic ops and allocate nothing;
//! * [`hist`] — log-linear-bucket [`Histogram`]s whose merge is
//!   element-wise `u64` addition: bit-exactly commutative and
//!   associative, mirroring the pipeline crate's sketch-merge contract;
//! * [`mod@span`] — scoped wall-time aggregation per `(stage, worker)`;
//! * [`prom`] — the Prometheus text format, the one way a [`Snapshot`]
//!   leaves the process: the exporter ([`Snapshot::to_prometheus`]) and
//!   its checker ([`validate_prometheus`]);
//! * [`json`] — in-house JSON writing and parsing for the benchmark's
//!   result files;
//! * [`fingerprint`] — a stable hash of configuration strings;
//! * [`logging`] — structured `key=value` stderr logging behind
//!   `--quiet`/`-v` (stdout stays machine-readable).
//!
//! # Global registry and capture windows
//!
//! Library crates record into [`global`] through the [`counter!`],
//! [`histogram!`], and [`span!`] macros, which cache the handle in a
//! call-site `OnceLock` — after the first hit, recording is lock-free
//! and allocation-free. A loop that runs per event on several workers
//! goes further and touches no shared cache line per event: it tallies
//! into plain values — counts, a [`HistogramSnapshot`], a
//! [`SpanSnapshot`] — and adds them once per block with [`Counter::add`],
//! [`Histogram::merge`] and [`SpanAcc::merge`], which leave every value
//! where per-event recording would. Tests that assert exact counts use [`capture`],
//! which serializes capture windows process-wide and returns the
//! metrics delta for the closure; put such tests in their own
//! integration-test binary so unrelated parallel tests cannot inflate
//! the window.
//!
//! Set `ANYCAST_OBS=0` to disable recording process-wide (output bytes
//! stay the same: the two tier-1 tests above flip the same switch).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod logging;
pub mod prom;
pub mod registry;
pub mod span;

pub use hist::{Histogram, HistogramSnapshot};
pub use prom::validate_prometheus;
pub use registry::{Counter, MetricKey, Registry, Snapshot};
pub use span::{SpanAcc, SpanSnapshot, SpanTimer};

use std::sync::{Mutex, OnceLock};

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry every instrumented crate records into.
/// Initialized enabled unless the environment sets `ANYCAST_OBS=0`.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let r = Registry::new();
        if std::env::var("ANYCAST_OBS").is_ok_and(|v| v == "0") {
            r.set_enabled(false);
        }
        r
    })
}

/// Whether the global registry is recording.
pub fn enabled() -> bool {
    global().enabled()
}

/// Turns global recording on or off (the CLI and the neutrality tests
/// use this; simulation code never should).
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

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

static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result together with the *delta* of the
/// global registry across the call. Capture windows are serialized
/// process-wide so two captures can never pollute each other; other
/// concurrently running code in the same process still records into the
/// shared registry, so exact-count assertions belong in a dedicated
/// integration-test binary.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let _guard = CAPTURE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let before = global().snapshot();
    let out = f();
    let delta = global().snapshot().diff(&before);
    (out, delta)
}

/// A cached handle to an unlabeled counter in the [`global`] registry.
///
/// ```
/// anycast_obs::counter!("example_events_total").inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A cached handle to an unlabeled histogram in the [`global`] registry.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

/// A cached handle to a span accumulator in the [`global`] registry,
/// attributed to worker `"main"` unless a worker is given.
#[macro_export]
macro_rules! span {
    ($stage:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::SpanAcc>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().span($stage, "main"))
    }};
    ($stage:expr, $worker:expr) => {
        $crate::global().span($stage, $worker)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_cache_and_record_into_global() {
        let c = crate::counter!("obs_lib_test_total");
        let before = c.get();
        crate::counter!("obs_lib_test_total").add(2);
        assert_eq!(c.get(), before + 2);
        crate::histogram!("obs_lib_test_ms").observe(1.0);
        crate::span!("obs_lib_test.stage").time(|| ());
        crate::span!("obs_lib_test.stage", "3").record_ns(10);
        let snap = crate::global().snapshot();
        assert!(snap.counter("obs_lib_test_total") >= 2);
    }

    #[test]
    fn fingerprint_is_stable_and_separator_safe() {
        use crate::fingerprint;
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&[]).len(), 16);
    }

    #[test]
    fn capture_returns_the_delta() {
        let (out, delta) = crate::capture(|| {
            crate::counter!("obs_capture_test_total").add(5);
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(delta.counter("obs_capture_test_total"), 5);
    }
}
