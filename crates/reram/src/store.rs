//! Sparse backing store for memory-line contents.
//!
//! LADDER's behaviour depends on the actual bits resident in memory (LRS
//! counters, Flip-N-Write decisions, compression). Simulated working sets
//! are far smaller than the module capacity, so contents are kept sparsely:
//! untouched lines read as all-zero (all-HRS), which is also the state of a
//! freshly formed ReRAM array.

use crate::address::LineAddr;
use crate::bits;
use crate::geometry::LINE_BYTES;
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only, never iterated; LineHasher is seed-free"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Contents of one 64 B memory line.
pub type LineData = [u8; LINE_BYTES];

/// Permanent stuck-at faults on one line.
///
/// `sa1` bits read as `1` regardless of what was programmed (cells stuck
/// in LRS); `sa0` bits read as `0` (stuck in HRS). A bit never appears in
/// both masks — [`LineStore::inject_stuck`] gives `sa0` precedence.
#[derive(Debug, Clone, Copy)]
pub struct FaultMask {
    /// Bits stuck at 1 (LRS).
    pub sa1: LineData,
    /// Bits stuck at 0 (HRS).
    pub sa0: LineData,
}

impl FaultMask {
    /// Applies the mask to programmed data: what a read actually returns.
    pub fn apply(&self, data: &LineData) -> LineData {
        let mut out = *data;
        for base in (0..LINE_BYTES).step_by(8) {
            let d = bits::le_word(data, base);
            let sa1 = bits::le_word(&self.sa1, base);
            let sa0 = bits::le_word(&self.sa0, base);
            bits::write_le_word(&mut out, base, (d | sa1) & !sa0);
        }
        out
    }

    /// Number of stuck cells in the mask.
    pub fn stuck_bits(&self) -> u32 {
        line_ones(&self.sa1) + line_ones(&self.sa0)
    }
}

/// Sparse map from line address to current contents.
///
/// # Examples
///
/// ```
/// use ladder_reram::{LineAddr, LineStore};
///
/// let mut store = LineStore::new();
/// let a = LineAddr::new(42);
/// assert_eq!(store.read(a), [0u8; 64]);
/// let old = store.write(a, [0xFF; 64]);
/// assert_eq!(old, [0u8; 64]);
/// assert_eq!(store.read(a)[0], 0xFF);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LineStore {
    lines: LineMap<LineData>,
    faults: LineMap<FaultMask>,
}

/// A map keyed by a raw line address or page number, hashed with
/// [`LineHasher`]. For maps nothing iterates: the hash only has to spread
/// simulator-generated keys, not resist adversaries.
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only, never iterated; LineHasher is seed-free"
)]
pub type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Multiplicative (Fibonacci) hash of one `u64` key, rotated so the
/// well-mixed high product bits land in the low bits the table indexes by.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

impl LineStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a line; untouched lines are all-zero. Stuck-at faults
    /// injected with [`LineStore::inject_stuck`] override the programmed
    /// value bit-for-bit, exactly as a real read of a faulted cell would.
    pub fn read(&self, addr: LineAddr) -> LineData {
        let data = self.read_raw(addr);
        if self.faults.is_empty() {
            return data;
        }
        match self.faults.get(&addr.raw()) {
            Some(mask) => mask.apply(&data),
            None => data,
        }
    }

    /// Reads the programmed (pre-fault-mask) contents of a line — what the
    /// write circuitry *intended* to store, for verify-read comparisons.
    pub fn read_raw(&self, addr: LineAddr) -> LineData {
        self.lines
            .get(&addr.raw())
            .copied()
            .unwrap_or([0; LINE_BYTES])
    }

    /// Writes a line, returning the previous contents (the "stale memory
    /// block" LADDER-Basic reads back).
    ///
    /// Writing all-zero data to an untouched line is a no-op on the sparse
    /// map: the line already reads as all-zero (all-HRS), so inserting the
    /// default value would only grow the map. Once a line is resident it
    /// stays resident, even when rewritten to all-zero.
    pub fn write(&mut self, addr: LineAddr, data: LineData) -> LineData {
        if data == [0; LINE_BYTES] && !self.lines.contains_key(&addr.raw()) {
            return [0; LINE_BYTES];
        }
        self.lines
            .insert(addr.raw(), data)
            .unwrap_or([0; LINE_BYTES])
    }

    /// Whether the line has ever been written.
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.lines.contains_key(&addr.raw())
    }

    /// Number of lines ever written.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Accumulates permanent stuck-at faults on a line. Set bits in `sa1`
    /// become stuck at 1 (LRS), set bits in `sa0` stuck at 0 (HRS); on
    /// conflict (a bit in both the new and the accumulated masks) `sa0`
    /// wins, modeling the heavily-cycled cell collapsing into HRS.
    pub fn inject_stuck(&mut self, addr: LineAddr, sa1: LineData, sa0: LineData) {
        let mask = self.faults.entry(addr.raw()).or_insert(FaultMask {
            sa1: [0; LINE_BYTES],
            sa0: [0; LINE_BYTES],
        });
        for i in 0..LINE_BYTES {
            mask.sa0[i] |= sa0[i];
            mask.sa1[i] = (mask.sa1[i] | sa1[i]) & !mask.sa0[i];
        }
    }

    /// The fault mask of a line, if it has any stuck cells.
    pub fn fault_mask(&self, addr: LineAddr) -> Option<&FaultMask> {
        self.faults.get(&addr.raw())
    }

    /// Number of stuck cells on a line.
    pub fn stuck_bits(&self, addr: LineAddr) -> u32 {
        self.fault_mask(addr).map_or(0, FaultMask::stuck_bits)
    }

    /// Number of lines carrying at least one stuck cell.
    pub fn faulted_lines(&self) -> usize {
        self.faults.len()
    }
}

/// Number of `1` bits in a line.
pub fn line_ones(data: &LineData) -> u32 {
    bits::ones(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reads_zero() {
        let store = LineStore::new();
        assert_eq!(store.read(LineAddr::new(7)), [0u8; LINE_BYTES]);
        assert!(!store.contains(LineAddr::new(7)));
    }

    #[test]
    fn write_returns_previous() {
        let mut store = LineStore::new();
        let a = LineAddr::new(1);
        let first = store.write(a, [1; LINE_BYTES]);
        assert_eq!(first, [0; LINE_BYTES]);
        let second = store.write(a, [2; LINE_BYTES]);
        assert_eq!(second, [1; LINE_BYTES]);
        assert_eq!(store.resident_lines(), 1);
    }

    #[test]
    fn all_zero_write_to_untouched_line_does_not_grow_the_map() {
        let mut store = LineStore::new();
        let a = LineAddr::new(5);
        // Functionally identical to before: previous contents are zero...
        assert_eq!(store.write(a, [0; LINE_BYTES]), [0; LINE_BYTES]);
        // ...reads still return zero...
        assert_eq!(store.read(a), [0; LINE_BYTES]);
        // ...but no entry equal to the default was materialized.
        assert_eq!(store.resident_lines(), 0);

        // A resident line rewritten to all-zero stays resident and keeps
        // returning its stale contents correctly.
        store.write(a, [9; LINE_BYTES]);
        assert_eq!(store.write(a, [0; LINE_BYTES]), [9; LINE_BYTES]);
        assert!(store.contains(a));
        assert_eq!(store.read(a), [0; LINE_BYTES]);
        assert_eq!(store.resident_lines(), 1);
    }

    #[test]
    fn stuck_bits_override_programmed_data() {
        let mut store = LineStore::new();
        let a = LineAddr::new(3);
        store.write(a, [0x0F; LINE_BYTES]);
        let mut sa1 = [0u8; LINE_BYTES];
        let mut sa0 = [0u8; LINE_BYTES];
        sa1[0] = 0b1000_0000; // stuck-at-1 in a programmed-0 position
        sa0[0] = 0b0000_0001; // stuck-at-0 in a programmed-1 position
        store.inject_stuck(a, sa1, sa0);
        assert_eq!(store.read(a)[0], 0b1000_1110);
        // The programmed image is unchanged: retry pulses re-verify
        // against what the controller intended to store.
        assert_eq!(store.read_raw(a)[0], 0x0F);
        assert_eq!(store.stuck_bits(a), 2);
        assert_eq!(store.faulted_lines(), 1);
        // Unfaulted lines are untouched.
        assert_eq!(store.stuck_bits(LineAddr::new(4)), 0);
    }

    #[test]
    fn sa0_wins_mask_conflicts() {
        let mut store = LineStore::new();
        let a = LineAddr::new(9);
        let mut sa1 = [0u8; LINE_BYTES];
        sa1[5] = 0b0110_0000;
        store.inject_stuck(a, sa1, [0; LINE_BYTES]);
        let mut sa0 = [0u8; LINE_BYTES];
        sa0[5] = 0b0100_0000; // collapses one of the stuck-at-1 cells
        store.inject_stuck(a, [0; LINE_BYTES], sa0);
        let mask = store.fault_mask(a).expect("mask present");
        assert_eq!(mask.sa1[5], 0b0010_0000);
        assert_eq!(mask.sa0[5], 0b0100_0000);
        assert_eq!(mask.stuck_bits(), 2);
    }

    #[test]
    fn masked_read_of_untouched_line() {
        let mut store = LineStore::new();
        let a = LineAddr::new(11);
        let mut sa1 = [0u8; LINE_BYTES];
        sa1[7] = 0xFF;
        store.inject_stuck(a, sa1, [0; LINE_BYTES]);
        // Never written: reads as all-zero except the stuck-at-1 byte.
        let r = store.read(a);
        assert_eq!(r[7], 0xFF);
        assert_eq!(line_ones(&r), 8);
        assert!(!store.contains(a));
    }

    #[test]
    fn ones_counting() {
        let mut data = [0u8; LINE_BYTES];
        data[0] = 0b1010_1010;
        data[63] = 0xFF;
        assert_eq!(line_ones(&data), 12);
    }
}
