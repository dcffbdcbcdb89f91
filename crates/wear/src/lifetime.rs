//! Endurance tracking and lifetime estimation (paper Section 6.4).
//!
//! Lifetime is analysed on the worst-stressed line: the device fails when
//! the most-written cells exhaust their endurance, so lifetime scales with
//! `endurance / worst-line write rate`. Wear-leveling raises lifetime by
//! flattening the write distribution; LADDER lowers it only through its
//! (small) extra metadata write traffic.

use ladder_memctrl::AccessObserver;
use ladder_reram::{Instant, LineAddr, Picos};
use std::collections::BTreeMap;
use std::sync::PoisonError;

/// Per-line write-count tracker; plugs into the controller as an
/// [`AccessObserver`].
///
/// # Examples
///
/// ```
/// use ladder_memctrl::AccessObserver;
/// use ladder_reram::{Instant, LineAddr, Picos};
/// use ladder_wear::WearMap;
///
/// let mut w = WearMap::new();
/// for _ in 0..10 {
///     w.on_write(LineAddr::new(5), 100, 100);
/// }
/// w.on_write(LineAddr::new(6), 100, 100);
/// assert_eq!(w.worst_line_writes(), 10);
/// assert_eq!(w.total_writes(), 11);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WearMap {
    counts: BTreeMap<u64, u64>,
}

impl WearMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Highest write count on any single line.
    pub fn worst_line_writes(&self) -> u64 {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Total writes observed.
    pub fn total_writes(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Writes observed on one specific line.
    pub fn line_writes(&self, addr: LineAddr) -> u64 {
        self.counts.get(&addr.raw()).copied().unwrap_or(0)
    }

    /// Coefficient of unevenness: worst-line writes over the mean. 1.0
    /// means perfectly level wear.
    pub fn unevenness(&self) -> f64 {
        if self.counts.is_empty() {
            return 1.0;
        }
        let mean = self.total_writes() as f64 / self.counts.len() as f64;
        self.worst_line_writes() as f64 / mean
    }

    /// Estimated device lifetime in seconds, given per-cell `endurance`
    /// cycles and the simulated duration the counts were collected over.
    ///
    /// The worst line's write *rate* is extrapolated: lifetime =
    /// `endurance / rate`.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn lifetime_seconds(&self, endurance: u64, elapsed: Picos) -> f64 {
        assert!(elapsed > Picos::ZERO, "elapsed time must be positive");
        let worst = self.worst_line_writes();
        if worst == 0 {
            return f64::INFINITY;
        }
        let rate_per_s = worst as f64 / (elapsed.as_ps() as f64 * 1e-12);
        endurance as f64 / rate_per_s
    }

    /// Convenience: observe a batch of `n` writes to the same line.
    pub fn record(&mut self, addr: LineAddr, n: u64) {
        *self.counts.entry(addr.raw()).or_insert(0) += n;
    }
}

impl AccessObserver for WearMap {
    fn on_write(&mut self, addr: LineAddr, _bits_set: u32, _bits_reset: u32) {
        self.record(addr, 1);
    }
}

/// Shared wrapper so the simulator can keep reading a map that the
/// controller owns as its observer.
#[derive(Debug, Clone, Default)]
pub struct SharedWearMap(std::sync::Arc<std::sync::Mutex<WearMap>>);

impl SharedWearMap {
    /// Creates an empty shared map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` over the underlying map.
    pub fn with<R>(&self, f: impl FnOnce(&WearMap) -> R) -> R {
        // Poison recovery: a panic elsewhere is already propagating and
        // per-call mutation keeps the map consistent.
        f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl AccessObserver for SharedWearMap {
    fn on_write(&mut self, addr: LineAddr, bits_set: u32, bits_reset: u32) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .on_write(addr, bits_set, bits_reset);
    }
}

/// Lifetime of one scheme relative to a baseline, from their wear maps and
/// simulated durations.
pub fn relative_lifetime(
    baseline: (&WearMap, Instant),
    scheme: (&WearMap, Instant),
    endurance: u64,
) -> f64 {
    let base = baseline
        .0
        .lifetime_seconds(endurance, baseline.1.duration_since(Instant::ZERO));
    let s = scheme
        .0
        .lifetime_seconds(endurance, scheme.1.duration_since(Instant::ZERO));
    s / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_scales_inversely_with_worst_rate() {
        let mut even = WearMap::new();
        let mut skewed = WearMap::new();
        for i in 0..100u64 {
            even.record(LineAddr::new(i), 10);
        }
        skewed.record(LineAddr::new(0), 500);
        skewed.record(LineAddr::new(1), 500);
        let t = Picos::from_ns(1e9);
        let le = even.lifetime_seconds(1_000_000, t);
        let ls = skewed.lifetime_seconds(1_000_000, t);
        assert!(
            (le / ls - 50.0).abs() < 1e-9,
            "50× worse hot line → 50× shorter"
        );
    }

    #[test]
    fn unevenness_of_flat_distribution_is_one() {
        let mut w = WearMap::new();
        for i in 0..10u64 {
            w.record(LineAddr::new(i), 7);
        }
        assert!((w.unevenness() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn untouched_map_lives_forever() {
        let w = WearMap::new();
        assert_eq!(w.lifetime_seconds(1000, Picos::from_ps(1)), f64::INFINITY);
    }

    #[test]
    fn shared_map_aggregates_through_observer() {
        let shared = SharedWearMap::new();
        let mut obs = shared.clone();
        obs.on_write(LineAddr::new(1), 0, 0);
        obs.on_write(LineAddr::new(1), 0, 0);
        assert_eq!(shared.with(|w| w.worst_line_writes()), 2);
    }

    #[test]
    fn relative_lifetime_of_three_percent_more_writes() {
        // Evenly spread traffic with 3 % extra writes → ≈ 97 % lifetime.
        let mut base = WearMap::new();
        let mut sch = WearMap::new();
        for i in 0..1000u64 {
            base.record(LineAddr::new(i), 100);
            sch.record(LineAddr::new(i), 103);
        }
        let t = Instant::from_ps(1_000_000);
        let r = relative_lifetime((&base, t), (&sch, t), 1_000_000);
        assert!((r - 100.0 / 103.0).abs() < 1e-9);
    }
}
