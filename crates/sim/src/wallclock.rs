//! The workspace's sanctioned wall-clock access point.
//!
//! Simulated time lives in [`ladder_reram::Instant`] and must never depend
//! on the host clock — clippy's `disallowed_methods` (root `clippy.toml`)
//! denies `Instant::now()` / `SystemTime::now()` everywhere else, and the
//! one read below carries the workspace's only `#[expect]` for it outside
//! the criterion shim. Host-time measurement
//! is legitimate only for *reporting* (runner throughput, bench table
//! timings), and all of it flows through this module so a reader can audit
//! every wall-clock consumer in one place.

use std::time::{Duration, Instant};

/// A started wall-clock measurement.
///
/// Thin wrapper over [`std::time::Instant`] used for throughput and
/// elapsed-time *reporting*; never feed its output back into simulated
/// logic.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned wall-clock reader, for reporting"
    )]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Wall time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed wall time in seconds as `f64` (for rate computations).
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result together with the wall time it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        let d = sw.elapsed();
        assert!(d <= sw.elapsed());
        assert!(sw.elapsed_secs() >= 0.0);
    }

    #[test]
    fn time_returns_the_closure_result() {
        let (v, d) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
    }
}
