//! Log-bucketed latency histogram for tail-latency reporting.
//!
//! The paper's motivation is that long RESETs block reads; averages hide
//! how bad the blocked reads get. The controller records every demand-read
//! latency here so experiments can report P50/P95/P99 alongside the mean.
//!
//! Bucket boundaries are hoisted to construction time (a compile-time
//! table), so recording a sample never re-derives them.

use crate::metrics::Mergeable;
use ladder_reram::Picos;

/// Number of logarithmic buckets (~1 ns to ~1 ms at 2 buckets/octave).
const BUCKETS: usize = 64;

/// Bucket index from which the bounds table saturates: `500 ps << 54`
/// would overflow `u64`, so buckets from here up are overflow buckets
/// whose precomputed bound no longer covers their samples.
const SATURATED: usize = 53;

/// Upper latency bound of every bucket, derived once: bucket `i` covers
/// latencies up to `500 ps << i` (half-nanosecond granularity at the low
/// end), with the overflow buckets absorbing everything larger.
const BOUNDS: [Picos; BUCKETS] = build_bounds();

const fn build_bounds() -> [Picos; BUCKETS] {
    let mut bounds = [Picos::ZERO; BUCKETS];
    let mut i = 0;
    while i < BUCKETS {
        // Cap the shift so the bound never overflows u64 picoseconds.
        let shift = if i < SATURATED { i } else { SATURATED };
        bounds[i] = Picos::from_ps(500u64 << shift);
        i += 1;
    }
    bounds
}

/// A latency histogram with logarithmic buckets.
///
/// # Examples
///
/// ```
/// use ladder_reram::Picos;
/// use ladder_trace::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for ns in [30.0, 35.0, 40.0, 600.0] {
///     h.record(Picos::from_ns(ns));
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.50).as_ns() < 100.0);
/// assert!(h.percentile(0.99).as_ns() > 300.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum: Picos,
    max: Picos,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            sum: Picos::ZERO,
            max: Picos::ZERO,
        }
    }

    /// Bucket index for a latency: the first precomputed bound that
    /// covers it; samples above every bound land in the last bucket
    /// rather than being dropped.
    fn bucket_of(lat: Picos) -> usize {
        let ns2 = (lat.as_ps() / 500).max(1); // half-nanoseconds
        let idx = (64 - ns2.leading_zeros()) as usize;
        idx.min(BUCKETS - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, lat: Picos) {
        self.counts[Self::bucket_of(lat)] += 1;
        self.total += 1;
        self.sum += lat;
        self.max = self.max.max(lat);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency.
    pub fn mean(&self) -> Picos {
        if self.total == 0 {
            Picos::ZERO
        } else {
            self.sum / self.total
        }
    }

    /// Largest sample.
    pub fn max(&self) -> Picos {
        self.max
    }

    /// Approximate percentile (`q` in `0..=1`): the upper bound of the
    /// bucket containing the q-quantile sample, clamped at the observed
    /// maximum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Picos {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return Picos::ZERO;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q is in [0, 1], so the rank lies in [1, total] and fits u64"
        )]
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // An overflow bucket's table bound does not cover its
                // samples; the observed max is the honest answer there.
                if i >= SATURATED {
                    return self.max;
                }
                return BOUNDS[i].min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (the [`Mergeable`] fold).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.merge_from(other);
    }
}

impl Mergeable for LatencyHistogram {
    fn merge_from(&mut self, other: &Self) {
        let LatencyHistogram {
            counts,
            total,
            sum,
            max,
        } = other;
        for (a, b) in self.counts.iter_mut().zip(counts) {
            a.merge_from(b);
        }
        self.total.merge_from(total);
        self.sum.merge_from(sum);
        self.max = self.max.max(*max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Picos::ZERO);
        assert_eq!(h.percentile(0.99), Picos::ZERO);
    }

    #[test]
    fn bounds_table_is_monotone_and_covers_every_bucket() {
        for w in BOUNDS.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // The precomputed bound of a sample's bucket covers the sample
        // (until the table saturates at the overflow bucket).
        for shift in 0..53u64 {
            for ps in [
                500u64 << shift,
                (500u64 << shift) - 1,
                (500u64 << shift) + 1,
            ] {
                let b = LatencyHistogram::bucket_of(Picos::from_ps(ps));
                if b < BUCKETS - 1 {
                    assert!(BOUNDS[b].as_ps() >= ps, "bound {b} misses {ps}");
                }
            }
        }
    }

    #[test]
    fn overflow_samples_count_in_the_last_bucket() {
        // Values above the largest bound must be counted, not dropped.
        let mut h = LatencyHistogram::new();
        let above_max_bound = BOUNDS[BUCKETS - 1] + Picos::from_ps(1);
        let huge = Picos::from_ps(1 << 62);
        assert!(huge > BOUNDS[BUCKETS - 1]);
        h.record(above_max_bound);
        h.record(huge);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), huge);
        // Both land in saturated overflow buckets, and the tail
        // percentile reports the observed max, not a stale bound.
        assert!(LatencyHistogram::bucket_of(huge) >= SATURATED);
        assert!(LatencyHistogram::bucket_of(above_max_bound) >= SATURATED);
        assert_eq!(h.percentile(1.0), huge);
        assert_eq!(h.percentile(0.5), huge);
    }

    #[test]
    fn percentiles_order_correctly() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Picos::from_ps(i * 1000)); // 1..1000 ns uniform
        }
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50.as_ns() >= 400.0 && p50.as_ns() <= 1024.0);
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    fn mean_is_exact_not_bucketed() {
        let mut h = LatencyHistogram::new();
        h.record(Picos::from_ps(100));
        h.record(Picos::from_ps(300));
        assert_eq!(h.mean(), Picos::from_ps(200));
    }

    #[test]
    fn bimodal_distribution_shows_in_the_tail() {
        // 95 % fast reads at ~35 ns, 5 % blocked behind a 658 ns write.
        let mut h = LatencyHistogram::new();
        for _ in 0..950 {
            h.record(Picos::from_ns(35.0));
        }
        for _ in 0..50 {
            h.record(Picos::from_ns(690.0));
        }
        assert!(h.percentile(0.50).as_ns() < 70.0);
        assert!(h.percentile(0.99).as_ns() > 500.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Picos::from_ns(10.0));
        b.record(Picos::from_ns(1000.0));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.percentile(1.0).as_ns() >= 1000.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(1.5);
    }
}
