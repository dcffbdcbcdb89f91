//! Per-tier coding-layer counters, folded across shards like every other
//! aggregate.

use ladder_trace::Mergeable;

/// Counter buckets: bucket 0 collects untiered (flat / local) resolves,
/// buckets 1..=3 collect tiers 0..=2 of a tiered scheme.
pub const CODING_BUCKETS: usize = 4;

/// What the coding layer corrected and lost, per protection tier.
///
/// Maintained by the fault model at resolve time and folded across shards
/// through [`Mergeable`]. `wa_millionths` is a property of the installed
/// scheme (not an event count), so it folds by `max` — every shard of a
/// run installs the same scheme, making the fold exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodingStats {
    /// Resolve calls routed to each bucket.
    pub resolves: [u64; CODING_BUCKETS],
    /// Residual bits corrected, per bucket.
    pub corrected_bits: [u64; CODING_BUCKETS],
    /// Uncorrectable lines, per bucket.
    pub uncorrectable: [u64; CODING_BUCKETS],
    /// Pages moved by the remap backend on coding-layer faults.
    pub remaps: u64,
    /// The scheme's parity write amplification, in millionths (an `f64`
    /// would break `Eq` and bit-exact folding).
    pub wa_millionths: u64,
}

impl CodingStats {
    /// Bucket index of a resolve at `tier` (see [`CODING_BUCKETS`]).
    pub fn bucket(tier: Option<u32>) -> usize {
        match tier {
            None => 0,
            Some(t) => ((t as usize) + 1).min(CODING_BUCKETS - 1),
        }
    }

    /// Folds one resolve outcome into the counters.
    pub fn note_resolve(&mut self, tier: Option<u32>, residual_bits: u32, corrected: bool) {
        let b = Self::bucket(tier);
        self.resolves[b] += 1;
        if corrected {
            self.corrected_bits[b] += u64::from(residual_bits);
        } else {
            self.uncorrectable[b] += 1;
        }
    }

    /// The scheme's parity write amplification as a fraction.
    pub fn write_amplification(&self) -> f64 {
        self.wa_millionths as f64 / 1e6
    }

    /// Total uncorrectable lines across buckets.
    pub fn total_uncorrectable(&self) -> u64 {
        self.uncorrectable.iter().sum()
    }

    /// Total corrected bits across buckets.
    pub fn total_corrected_bits(&self) -> u64 {
        self.corrected_bits.iter().sum()
    }

    /// One-line human-readable report.
    pub fn summary(&self) -> String {
        format!(
            "coding: {} corrected bits, {} uncorrectable lines, {} remaps, WA {:.3}",
            self.total_corrected_bits(),
            self.total_uncorrectable(),
            self.remaps,
            self.write_amplification()
        )
    }
}

impl Mergeable for CodingStats {
    fn merge_from(&mut self, other: &Self) {
        let CodingStats {
            resolves,
            corrected_bits,
            uncorrectable,
            remaps,
            wa_millionths,
        } = other;
        for i in 0..CODING_BUCKETS {
            self.resolves[i].merge_from(&resolves[i]);
            self.corrected_bits[i].merge_from(&corrected_bits[i]);
            self.uncorrectable[i].merge_from(&uncorrectable[i]);
        }
        self.remaps.merge_from(remaps);
        // Scheme property, identical across shards: max keeps the fold
        // associative/commutative with the all-zero identity.
        self.wa_millionths = self.wa_millionths.max(*wa_millionths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_trace::fold;

    #[test]
    fn buckets_route_tiers_and_untier() {
        assert_eq!(CodingStats::bucket(None), 0);
        assert_eq!(CodingStats::bucket(Some(0)), 1);
        assert_eq!(CodingStats::bucket(Some(2)), 3);
        assert_eq!(CodingStats::bucket(Some(99)), 3, "clamped");
    }

    #[test]
    fn note_resolve_splits_corrected_and_lost() {
        let mut s = CodingStats::default();
        s.note_resolve(Some(1), 5, true);
        s.note_resolve(Some(1), 40, false);
        s.note_resolve(None, 2, true);
        assert_eq!(s.resolves, [1, 0, 2, 0]);
        assert_eq!(s.corrected_bits, [2, 0, 5, 0]);
        assert_eq!(s.uncorrectable, [0, 0, 1, 0]);
        assert_eq!(s.total_corrected_bits(), 7);
        assert_eq!(s.total_uncorrectable(), 1);
        assert!(s.summary().contains("7 corrected"));
    }

    #[test]
    fn merge_adds_counters_and_maxes_wa() {
        let mut a = CodingStats {
            remaps: 1,
            wa_millionths: 125_000,
            ..CodingStats::default()
        };
        a.note_resolve(Some(0), 3, true);
        let mut b = CodingStats {
            remaps: 2,
            wa_millionths: 125_000,
            ..CodingStats::default()
        };
        b.note_resolve(Some(0), 4, true);
        let total: CodingStats = fold([a, b]);
        assert_eq!(total.corrected_bits[1], 7);
        assert_eq!(total.remaps, 3);
        assert_eq!(total.wa_millionths, 125_000);
        assert!((total.write_amplification() - 0.125).abs() < 1e-9);
        // Identity law.
        let mut c = total;
        c.merge_from(&CodingStats::default());
        assert_eq!(c, total);
    }
}
