//! Timing of the per-layer micro-probes: calls into one library function
//! at a time, made through the adapter and timed here.
//!
//! A probe runs its batch once to warm up and then [`REPEATS`] times; the
//! reported cost is the median batch divided by the batch size, so one
//! descheduled batch does not move the number.

use std::time::Instant;

use crate::stats;

/// Timed batches per probe.
pub const REPEATS: usize = 5;

/// Median ns per operation of `batch(n)`, which must do `n` operations.
pub fn ns_per_op<T>(n: usize, mut batch: impl FnMut(usize) -> T) -> f64 {
    std::hint::black_box(batch(n / 4 + 1));
    let runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(batch(n));
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median_or_zero(&runs)
}

/// Wall ms of one call.
pub fn ms_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// `100 * (a / b - 1)`, 0 when `b` is 0: how much larger `a` is than `b`.
pub fn pct_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        100.0 * (a / b - 1.0)
    } else {
        0.0
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_time_per_operation() {
        let ns = ns_per_op(2_000, |n| {
            (0..n as u64).map(std::hint::black_box).sum::<u64>()
        });
        assert!(ns > 0.0 && ns < 1_000.0, "{ns} ns per add");
        let (v, ms) = ms_of(|| 5);
        assert_eq!(v, 5);
        assert!(ms >= 0.0);
        assert!((pct_over(110.0, 100.0) - 10.0).abs() < 1e-9);
        assert_eq!(pct_over(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
