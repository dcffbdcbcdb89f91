//! Offline drop-in subset of the `criterion` API.
//!
//! The container this workspace builds in has no registry access, so the
//! real `criterion` crate cannot be downloaded. This shim implements the
//! slice its benches use — [`Criterion::bench_function`], `Bencher::iter`,
//! [`criterion_group!`] and [`criterion_main!`] — as a plain wall-clock
//! harness: calibrate an iteration count against a target measurement
//! time, run it, and print mean time per iteration. Invoked with `--test`
//! (as `cargo test --benches` does), each routine runs exactly once as a
//! smoke check instead of being measured.

use std::time::{Duration, Instant};

/// Re-export so benches can `use criterion::black_box`.
pub use std::hint::black_box;

/// The benchmark driver handed to every group function.
pub struct Criterion {
    measurement_time: Duration,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Self {
            measurement_time: Duration::from_millis(300),
            test_mode,
        }
    }
}

impl Criterion {
    /// Measures `f`'s routine and prints `name: <mean> per iter`.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };
        if self.test_mode {
            f(&mut b);
            println!("{name}: ok (test mode, 1 iteration)");
            return self;
        }
        // Calibrate: grow the iteration count until one batch costs at
        // least a tenth of the measurement budget.
        loop {
            b.elapsed = Duration::ZERO;
            f(&mut b);
            if b.elapsed >= self.measurement_time / 10 || b.iters >= 1 << 24 {
                break;
            }
            b.iters *= 8;
        }
        // Measure: scale to fill the budget.
        let per_iter = b.elapsed.as_secs_f64() / b.iters as f64;
        let target = (self.measurement_time.as_secs_f64() / per_iter.max(1e-12)) as u64;
        b.iters = target.clamp(1, 1 << 28);
        b.elapsed = Duration::ZERO;
        f(&mut b);
        let mean_ns = b.elapsed.as_secs_f64() * 1e9 / b.iters as f64;
        println!(
            "{name}: {} /iter ({} iterations)",
            format_ns(mean_ns),
            b.iters
        );
        self
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Times the routine a benchmark hands to [`Bencher::iter`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Runs `routine` for the calibrated iteration count and records the
    /// elapsed wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        #[expect(
            clippy::disallowed_methods,
            reason = "a benchmark harness measures host time"
        )]
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
    }
}

/// Declares a benchmark group function running each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Criterion benchmark group (generated by `criterion_group!`).
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares `main` for a bench binary built with `harness = false`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_accumulates_iterations() {
        let mut b = Bencher {
            iters: 100,
            elapsed: Duration::ZERO,
        };
        let mut count = 0u64;
        b.iter(|| count += 1);
        assert_eq!(count, 100);
        assert!(b.elapsed > Duration::ZERO);
    }

    #[test]
    fn format_scales_units() {
        assert!(format_ns(12.3).ends_with("ns"));
        assert!(format_ns(12_300.0).ends_with("us"));
        assert!(format_ns(12_300_000.0).ends_with("ms"));
    }
}
