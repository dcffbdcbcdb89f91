//! Order statistics over repeated measurements, and the FNV-1a hash the
//! stats fingerprints are built from.

/// Median, quartiles, extremes and sample count of one host metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    ///
    /// Quartiles follow Python's `statistics.quantiles(data, n=4)`
    /// (the default "exclusive" method), so a spread computed here reads
    /// the same as one computed from the printed samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let (q1, median, q3) = if v.len() == 1 {
            (min, min, min)
        } else {
            (quartile(&v, 1), quartile(&v, 2), quartile(&v, 3))
        };
        Some(Summary {
            median,
            q1,
            q3,
            min,
            max,
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th of the three cut points dividing sorted `v` (at least two
/// samples) into quarters, by the exclusive method.
fn quartile(v: &[f64], i: usize) -> f64 {
    let m = v.len() + 1;
    let j = (i * m / 4).clamp(1, v.len() - 1);
    // `i * m - 4 * j` may go negative after clamping, as in Python.
    let delta = (i * m) as f64 - (4 * j) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

/// 64-bit FNV-1a over a stream of little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes one word in.
    pub fn word(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes every word of `xs` in, in order.
    pub fn words(&mut self, xs: &[u64]) -> &mut Self {
        for &x in xs {
            self.word(x);
        }
        self
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // Odd count: the median is the middle sample.
        let s = Summary::of(&[5.0, 9.0, 1.0, 7.0, 3.0]).unwrap();
        assert_eq!(s.median, 5.0);
        assert!((s.spread() - (s.q3 - s.q1) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_samples() {
        assert!(Summary::of(&[]).is_none());
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vector_and_is_order_sensitive() {
        // FNV-1a 64 of the empty input is the offset basis.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let ab = Fnv::default().words(&[1, 2]).finish();
        let ba = Fnv::default().words(&[2, 1]).finish();
        assert_ne!(ab, ba);
        assert_eq!(ab, Fnv::default().word(1).word(2).finish());
    }
}
