//! Exact per-wordline LRS counters (LADDER-Basic, paper Section 3.3).
//!
//! One *LRS-counter group* holds 64 counters, one per mat of the mat group;
//! counter `i` counts the `1` bits on mat `i`'s wordline, i.e. the sum of
//! `popcount(byte i)` over the 64 lines of the wordline group. Counters
//! range 0–512 and are stored 10-bit-packed: 80 B, spanning two 64 B
//! metadata lines.

use ladder_reram::{bits, LineData, LineMap, WlgId, LINES_PER_WLG, LINE_BYTES};
use std::collections::hash_map::Entry;

/// Counters of one LRS-counter group (one per mat wordline).
///
/// # Examples
///
/// ```
/// use ladder_core::LrsCounterGroup;
///
/// let mut g = LrsCounterGroup::new();
/// let line = [0b1111_0000u8; 64];
/// g.apply_delta(&[0u8; 64], &line);
/// assert_eq!(g.max(), 4); // every byte contributes 4 ones to its mat
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LrsCounterGroup {
    counters: [u16; LINE_BYTES],
}

impl Default for LrsCounterGroup {
    fn default() -> Self {
        Self {
            counters: [0; LINE_BYTES],
        }
    }
}

/// Number of bytes the packed representation occupies (64 × 10 bits).
pub const PACKED_BYTES: usize = 80;
/// Metadata lines one packed counter group spans.
pub const LINES_PER_GROUP: usize = 2;
/// Maximum value of one counter (bits per mat wordline).
pub const COUNTER_MAX: u16 = 512;

impl LrsCounterGroup {
    /// All-zero counters (freshly formed array).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the exact counters for a wordline group from the current
    /// contents of its 64 lines (in block-slot order).
    pub fn from_lines<'a>(lines: impl Iterator<Item = &'a LineData>) -> Self {
        let mut g = Self::new();
        let mut seen = 0;
        for data in lines {
            for (counters, ones) in g.counters.chunks_exact_mut(8).zip(byte_ones(data)) {
                for (c, n) in counters.iter_mut().zip(ones) {
                    *c += n as u16;
                }
            }
            seen += 1;
        }
        debug_assert!(seen <= LINES_PER_WLG, "too many lines for one WLG");
        g
    }

    /// Applies the delta of one line write: `counter[i] +=
    /// popcount(new[i]) − popcount(old[i])`.
    ///
    /// This is the update LADDER-Basic performs using the stale-memory-block
    /// read. Results clamp to the 0–512 range; clamping only engages after
    /// a conservative crash-correction overwrite, where counters start
    /// saturated by design.
    pub fn apply_delta(&mut self, old: &LineData, new: &LineData) {
        let lanes = byte_ones(old).zip(byte_ones(new));
        for (counters, (old, new)) in self.counters.chunks_exact_mut(8).zip(lanes) {
            for ((c, o), n) in counters.iter_mut().zip(old).zip(new) {
                let v = *c as i32 + n as i32 - o as i32;
                *c = v.clamp(0, COUNTER_MAX as i32) as u16;
            }
        }
    }

    /// The worst-case counter `C^w_lrs = max_i C^i_lrs` that drives the
    /// RESET latency lookup.
    pub fn max(&self) -> u16 {
        // lint: allow(panic-policy) — invariant: counters is a fixed-size nonempty array, max() cannot be None
        *self.counters.iter().max().expect("fixed-size array")
    }

    /// Counter of mat `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    pub fn get(&self, i: usize) -> u16 {
        self.counters[i]
    }

    /// Packs to the 80-byte little-endian 10-bit representation.
    pub fn pack(&self) -> [u8; PACKED_BYTES] {
        let mut out = [0u8; PACKED_BYTES];
        for (i, &c) in self.counters.iter().enumerate() {
            debug_assert!(c <= COUNTER_MAX);
            let bit = i * 10;
            let (byte, off) = (bit / 8, bit % 8);
            let v = (c as u32) << off;
            out[byte] |= (v & 0xFF) as u8;
            out[byte + 1] |= ((v >> 8) & 0xFF) as u8;
            if off > 6 {
                out[byte + 2] |= ((v >> 16) & 0xFF) as u8;
            }
        }
        out
    }

    /// Unpacks from the 80-byte representation. Out-of-range fields (which
    /// can only appear after a conservative crash-correction overwrite)
    /// clamp to [`COUNTER_MAX`].
    pub fn unpack(bytes: &[u8; PACKED_BYTES]) -> Self {
        let mut g = Self::new();
        for i in 0..LINE_BYTES {
            let bit = i * 10;
            let (byte, off) = (bit / 8, bit % 8);
            let mut v = bytes[byte] as u32 | ((bytes[byte + 1] as u32) << 8);
            if off > 6 {
                v |= (bytes[byte + 2] as u32) << 16;
            }
            g.counters[i] = (((v >> off) & 0x3FF) as u16).min(COUNTER_MAX);
        }
        g
    }

    /// Splits the packed form over two metadata lines (the second is
    /// zero-padded past byte 16).
    pub fn to_metadata_lines(&self) -> [LineData; LINES_PER_GROUP] {
        let packed = self.pack();
        let mut lines = [[0u8; LINE_BYTES]; LINES_PER_GROUP];
        lines[0].copy_from_slice(&packed[..LINE_BYTES]);
        lines[1][..PACKED_BYTES - LINE_BYTES].copy_from_slice(&packed[LINE_BYTES..]);
        lines
    }

    /// Rebuilds counters from the two metadata lines.
    pub fn from_metadata_lines(lines: &[LineData; LINES_PER_GROUP]) -> Self {
        let mut packed = [0u8; PACKED_BYTES];
        packed[..LINE_BYTES].copy_from_slice(&lines[0]);
        packed[LINE_BYTES..].copy_from_slice(&lines[1][..PACKED_BYTES - LINE_BYTES]);
        Self::unpack(&packed)
    }
}

/// Per-byte popcounts of a line, eight bytes per step.
fn byte_ones(data: &LineData) -> impl Iterator<Item = [u8; 8]> + '_ {
    (0..LINE_BYTES)
        .step_by(8)
        .map(|base| bits::lane_ones(bits::le_word(data, base)).to_le_bytes())
}

/// Exact `C^w_lrs` of every wordline group a write stream has touched,
/// kept as per-mat LRS counts that move by each written line's delta — the
/// counters the Oracle (and the Fig. 15 accurate reference) assume for
/// free, instead of a 64-line recount per write.
///
/// A group is filled by one recount the first time it is written. The
/// counts stay exact only while nothing but the writes fed here changes
/// the group's lines; an owner whose store can change behind its back
/// (stuck-at faults) passes `faulted`, and every write recounts.
#[derive(Debug, Clone, Default)]
pub struct ExactCwCounts {
    groups: LineMap<LrsCounterGroup>,
}

impl ExactCwCounts {
    /// No group tracked yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `C^w_lrs` of `wlg` after a write changed one of its lines from
    /// `old` to `new`. `lines` yields the group's lines as they are after
    /// the write; it runs only for a recount — the group's first write,
    /// or any write while `faulted`.
    pub fn after_write(
        &mut self,
        wlg: WlgId,
        old: &LineData,
        new: &LineData,
        faulted: bool,
        lines: impl FnOnce() -> Vec<LineData>,
    ) -> u16 {
        if faulted {
            self.groups = LineMap::default();
            return LrsCounterGroup::from_lines(lines().iter()).max();
        }
        let group = match self.groups.entry(wlg.0) {
            Entry::Occupied(group) => {
                let group = group.into_mut();
                group.apply_delta(old, new);
                group
            }
            Entry::Vacant(slot) => slot.insert(LrsCounterGroup::from_lines(lines().iter())),
        };
        group.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_with(bytes: &[(usize, u8)]) -> LineData {
        let mut l = [0u8; LINE_BYTES];
        for &(i, v) in bytes {
            l[i] = v;
        }
        l
    }

    #[test]
    fn from_lines_counts_per_mat() {
        let a = line_with(&[(0, 0xFF), (5, 0x0F)]);
        let b = line_with(&[(0, 0x01), (63, 0xFF)]);
        let g = LrsCounterGroup::from_lines([&a, &b].into_iter());
        assert_eq!(g.get(0), 9);
        assert_eq!(g.get(5), 4);
        assert_eq!(g.get(63), 8);
        assert_eq!(g.max(), 9);
    }

    #[test]
    fn delta_update_matches_rebuild() {
        let old = line_with(&[(3, 0b1010)]);
        let new = line_with(&[(3, 0xFF), (10, 0x81)]);
        let mut g = LrsCounterGroup::from_lines([&old].into_iter());
        g.apply_delta(&old, &new);
        let rebuilt = LrsCounterGroup::from_lines([&new].into_iter());
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut g = LrsCounterGroup::new();
        for i in 0..LINE_BYTES {
            g.counters[i] = ((i * 37) % 513) as u16;
        }
        let packed = g.pack();
        assert_eq!(LrsCounterGroup::unpack(&packed), g);
    }

    #[test]
    fn pack_handles_full_range_boundaries() {
        let mut g = LrsCounterGroup::new();
        g.counters[0] = 512;
        g.counters[63] = 512;
        g.counters[31] = 1;
        let back = LrsCounterGroup::unpack(&g.pack());
        assert_eq!(back.get(0), 512);
        assert_eq!(back.get(63), 512);
        assert_eq!(back.get(31), 1);
    }

    #[test]
    fn metadata_line_roundtrip() {
        let mut g = LrsCounterGroup::new();
        for i in 0..LINE_BYTES {
            g.counters[i] = (512 - i * 8) as u16;
        }
        let lines = g.to_metadata_lines();
        assert_eq!(LrsCounterGroup::from_metadata_lines(&lines), g);
        // Packed tail must fit in the first 16 bytes of line 2.
        assert!(lines[1][16..].iter().all(|&b| b == 0));
    }

    #[test]
    fn max_of_empty_group_is_zero() {
        assert_eq!(LrsCounterGroup::new().max(), 0);
    }
}
