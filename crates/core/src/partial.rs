//! Partial-counter estimation of `C^w_lrs` (LADDER-Est, paper Section 4.1)
//! and the 1-bit low-precision variant (LADDER-Hybrid, Section 4.2).
//!
//! For the wordline with the most LRS cells, each line's contribution is at
//! most the popcount of that line's *worst byte*. Splitting the mat group
//! into `N = 4` subgroups of 16 mats tightens the bound: per subgroup `j`,
//! `C^{w_j}_lrs ≤ Σ_i S^{M_j}_i` and `C^w_lrs ≤ max_j C^{w_j}_lrs`.
//! Each `S^{M_j}_i` is quantized to 2 bits (levels 1/3/5/8), so one byte of
//! metadata covers one line and one 64 B metadata line covers a whole 4 KB
//! page — no stale-block read is ever needed.

use ladder_reram::{bits, LineData, LINE_BYTES};

/// Subgroups per mat group in the 2-bit encoding (paper sets `N = 4`).
pub const SUBGROUPS: usize = 4;
/// Bytes of a line mapped to one subgroup.
pub const BYTES_PER_SUBGROUP: usize = LINE_BYTES / SUBGROUPS;

/// Upper-bound levels represented by each 2-bit code: code `c` covers byte
/// popcounts `RANGE_2BIT[c].0 ..= RANGE_2BIT[c].1` and decodes to the range
/// top.
const LEVELS_2BIT: [u16; 4] = [1, 3, 5, 8];

/// Decoded value of a 1-bit code (`0` → ≤ 5, `1` → ≤ 8).
const LEVELS_1BIT: [u16; 2] = [5, 8];

/// The four 2-bit partial counters of one line, packed in one byte
/// (subgroup 0 in the low bits).
///
/// # Examples
///
/// ```
/// use ladder_core::PartialCounters;
///
/// let mut line = [0u8; 64];
/// line[0] = 0xF0; // subgroup 0 worst byte has 4 ones → level 5 (code 2)
/// line[40] = 0xFF; // subgroup 2 worst byte has 8 ones → level 8 (code 3)
/// let pc = PartialCounters::from_line(&line);
/// assert_eq!(pc.decode(0), 5);
/// assert_eq!(pc.decode(1), 1);
/// assert_eq!(pc.decode(2), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialCounters(pub u8);

impl PartialCounters {
    /// Computes the partial counters of a line as it will be stored in
    /// memory (after shifting/Flip-N-Write, if enabled).
    pub fn from_line(data: &LineData) -> Self {
        let mut packed = 0u8;
        for j in 0..SUBGROUPS {
            let worst =
                bits::worst_byte_ones(&data[j * BYTES_PER_SUBGROUP..(j + 1) * BYTES_PER_SUBGROUP])
                    as u16;
            packed |= (encode_2bit(worst) as u8) << (2 * j);
        }
        Self(packed)
    }

    /// Decoded upper bound of subgroup `j`'s worst byte.
    ///
    /// # Panics
    ///
    /// Panics if `j >= 4`.
    pub fn decode(self, j: usize) -> u16 {
        assert!(j < SUBGROUPS, "subgroup index out of range");
        LEVELS_2BIT[((self.0 >> (2 * j)) & 0b11) as usize]
    }
}

/// The two 1-bit partial counters of one line (bottom-row encoding); bit 0
/// covers the first half of the line's bytes, bit 1 the second half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LowPrecisionCounters(pub u8);

impl LowPrecisionCounters {
    /// Computes the 1-bit counters directly from line contents.
    pub fn from_line(data: &LineData) -> Self {
        let mut packed = 0u8;
        for half in 0..2 {
            let worst = bits::worst_byte_ones(
                &data[half * (LINE_BYTES / 2)..(half + 1) * (LINE_BYTES / 2)],
            ) as u16;
            if worst > LEVELS_1BIT[0] {
                packed |= 1 << half;
            }
        }
        Self(packed)
    }

    /// Derives the 1-bit counters from 2-bit partial counters (paper
    /// Fig. 10b): each half covers two subgroups; the half's bit is set when
    /// either subgroup's level exceeds 5.
    pub fn from_partial(pc: PartialCounters) -> Self {
        let mut packed = 0u8;
        for half in 0..2 {
            let worst = pc.decode(2 * half).max(pc.decode(2 * half + 1));
            if worst > LEVELS_1BIT[0] {
                packed |= 1 << half;
            }
        }
        Self(packed)
    }

    /// Decoded upper bound of half `h`'s worst byte.
    ///
    /// # Panics
    ///
    /// Panics if `h >= 2`.
    pub fn decode(self, h: usize) -> u16 {
        assert!(h < 2, "half index out of range");
        LEVELS_1BIT[((self.0 >> h) & 1) as usize]
    }
}

fn encode_2bit(worst_byte_ones: u16) -> u16 {
    debug_assert!(worst_byte_ones <= 8);
    match worst_byte_ones {
        0..=1 => 0,
        2..=3 => 1,
        4..=5 => 2,
        _ => 3,
    }
}

/// Estimates `C^w_lrs` for a wordline group from the per-line 2-bit partial
/// counters: `max_j Σ_i decode(S_{i,j})`.
///
/// The iterator yields the partial-counter byte of every *resident* line of
/// the group (absent lines are all-zero and may be skipped — zero lines
/// contribute level 1 per subgroup, which `zero_lines` accounts for).
#[expect(clippy::expect_used, reason = "a fixed-size nonempty array has a max")]
pub fn estimate_cw_lrs(partials: impl Iterator<Item = PartialCounters>, zero_lines: usize) -> u16 {
    let mut sums = [0u16; SUBGROUPS];
    for pc in partials {
        for (j, sum) in sums.iter_mut().enumerate() {
            *sum += pc.decode(j);
        }
    }
    let zero_contrib = zero_lines as u16 * LEVELS_2BIT[0];
    sums.iter()
        .map(|&s| s + zero_contrib)
        .max()
        .expect("nonempty")
}

/// Estimates `C^w_lrs` from 1-bit low-precision counters.
#[expect(clippy::expect_used, reason = "a fixed-size nonempty array has a max")]
pub fn estimate_cw_lrs_low(
    counters: impl Iterator<Item = LowPrecisionCounters>,
    zero_lines: usize,
) -> u16 {
    let mut sums = [0u16; 2];
    for c in counters {
        for (h, sum) in sums.iter_mut().enumerate() {
            *sum += c.decode(h);
        }
    }
    let zero_contrib = zero_lines as u16 * LEVELS_1BIT[0];
    sums.iter()
        .map(|&s| s + zero_contrib)
        .max()
        .expect("nonempty")
}

/// Exact `C^w_lrs` of a set of lines, for comparing estimation accuracy
/// (paper Fig. 15).
#[expect(clippy::expect_used, reason = "a fixed-size nonempty array has a max")]
pub fn exact_cw_lrs<'a>(lines: impl Iterator<Item = &'a LineData>) -> u16 {
    let mut per_mat = [0u16; LINE_BYTES];
    for data in lines {
        for base in (0..LINE_BYTES).step_by(8) {
            let lanes = bits::lane_ones(bits::le_word(data, base)).to_le_bytes();
            for (slot, lane) in per_mat[base..base + 8].iter_mut().zip(lanes) {
                *slot += lane as u16;
            }
        }
    }
    *per_mat.iter().max().expect("fixed-size array")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encoding_levels_match_paper() {
        // '00','01','10','11' represent 1 (0–1), 3 (2–3), 5 (4–5), 8 (6–8).
        for (ones, expect) in [
            (0, 1),
            (1, 1),
            (2, 3),
            (3, 3),
            (4, 5),
            (5, 5),
            (6, 8),
            (8, 8),
        ] {
            let mut line = [0u8; LINE_BYTES];
            line[0] = (0xFFu16 >> (8 - ones)) as u8;
            assert_eq!(PartialCounters::from_line(&line).decode(0), expect);
        }
    }

    #[test]
    fn partial_counters_bound_exact_count() {
        // Deterministic pseudo-random lines: the estimation inequality
        // C^w ≤ max_j Σ S^{M_j} must always hold.
        let mut x = 12345u64;
        let mut lines = Vec::new();
        for _ in 0..64 {
            let mut l = [0u8; LINE_BYTES];
            for b in &mut l {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *b = (x >> 33) as u8;
            }
            lines.push(l);
        }
        let exact = exact_cw_lrs(lines.iter());
        let est = estimate_cw_lrs(lines.iter().map(PartialCounters::from_line), 0);
        assert!(est >= exact, "estimate {est} below exact {exact}");
        let est_low = estimate_cw_lrs_low(lines.iter().map(LowPrecisionCounters::from_line), 0);
        assert!(est_low >= exact);
        // Low precision is never tighter than 2-bit precision.
        assert!(est_low >= est);
    }

    #[test]
    fn zero_lines_contribute_base_level() {
        let est = estimate_cw_lrs(std::iter::empty(), 64);
        assert_eq!(est, 64); // 64 lines × level 1
        let est_low = estimate_cw_lrs_low(std::iter::empty(), 64);
        assert_eq!(est_low, 64 * 5);
    }

    #[test]
    fn low_precision_from_partial_is_conservative() {
        for packed in 0..=u8::MAX {
            let pc = PartialCounters(packed);
            let low = LowPrecisionCounters::from_partial(pc);
            for half in 0..2 {
                let pc_worst = pc.decode(2 * half).max(pc.decode(2 * half + 1));
                assert!(low.decode(half) >= pc_worst);
            }
        }
    }

    #[test]
    fn subgroup_isolation() {
        let mut line = [0u8; LINE_BYTES];
        line[17] = 0xFF; // subgroup 1
        let pc = PartialCounters::from_line(&line);
        assert_eq!(pc.decode(0), 1);
        assert_eq!(pc.decode(1), 8);
        assert_eq!(pc.decode(2), 1);
        assert_eq!(pc.decode(3), 1);
    }

    #[test]
    fn paper_figure7_example_shape() {
        // A line whose subgroup worst bytes have 4, 0, 5, 0 ones → partial
        // counters ⟨5, 1, 5, 1⟩ after encoding.
        let mut line = [0u8; LINE_BYTES];
        line[2] = 0x0F; // 4 ones in subgroup 0
        line[33] = 0x1F; // 5 ones in subgroup 2
        let pc = PartialCounters::from_line(&line);
        assert_eq!(
            [pc.decode(0), pc.decode(1), pc.decode(2), pc.decode(3)],
            [5, 1, 5, 1]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Per-subgroup counts go through the SWAR worst-byte kernel; they
        /// must equal the byte-wise definition, quantized.
        #[test]
        fn partial_counters_match_bytewise_definition(
            v in prop::collection::vec(any::<u8>(), LINE_BYTES),
        ) {
            let mut line = [0u8; LINE_BYTES];
            line.copy_from_slice(&v);
            let pc = PartialCounters::from_line(&line);
            for (j, sub) in line.chunks(BYTES_PER_SUBGROUP).enumerate() {
                let worst = sub.iter().map(|b| b.count_ones()).max().unwrap_or(0);
                let expect = match worst {
                    0..=1 => 1,
                    2..=3 => 3,
                    4..=5 => 5,
                    _ => 8,
                };
                prop_assert_eq!(pc.decode(j), expect);
            }
        }
    }
}
