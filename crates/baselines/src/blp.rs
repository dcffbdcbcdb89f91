//! BLP — bitline-pattern profiling (Wen et al., ICCAD'17 / TCAD'19).
//!
//! BLP adds profiling circuitry *inside the memory* that tracks the LRS
//! population of every bitline, and derives RESET latency from the worst
//! selected bitline (assuming worst-case wordline content) — the dual of
//! LADDER's wordline counters. Because the profiler sits next to the
//! arrays, BLP pays no metadata traffic; its costs are the extra circuitry
//! (the paper's criticism) and the weaker, bitline-only content model.
//!
//! The profiler here maintains exact per-bitline counters incrementally
//! from the write stream, which is what the in-memory circuit would
//! observe.

use ladder_reram::{AddressMap, LineAddr, LineData, LINE_BYTES};
use std::collections::HashMap;

/// Columns of one block slot inside each mat (8 bits of one byte).
const BITS_PER_BYTE: usize = 8;

/// Exact in-memory bitline LRS profiler.
///
/// Counters are keyed by `(mat-array id, block slot)`: a write to block
/// slot `s` selects the same 8 columns in each of the 64 mats of its mat
/// group, and only those 512 bitlines matter for that write's latency.
///
/// # Examples
///
/// ```
/// use ladder_baselines::BitlineProfiler;
/// use ladder_reram::{AddressMap, Geometry, LineAddr};
///
/// let map = AddressMap::new(Geometry::default());
/// let mut p = BitlineProfiler::new();
/// let addr = LineAddr::new(0);
/// assert_eq!(p.worst_selected_bitline(&map, addr), 0);
/// p.record_write(&map, addr, &[0u8; 64], &[0xFF; 64]);
/// assert_eq!(p.worst_selected_bitline(&map, addr), 1);
/// ```
#[derive(Debug, Default)]
pub struct BitlineProfiler {
    /// `(mat array id, slot)` → per-(mat, bit) LRS counts, 64 × 8 entries.
    counters: HashMap<(u64, usize), Box<[u16; LINE_BYTES * BITS_PER_BYTE]>>,
}

impl BitlineProfiler {
    /// Creates an empty profiler (all bitlines HRS).
    pub fn new() -> Self {
        Self::default()
    }

    /// Identifier of the physical mat group stack a line's bitlines belong
    /// to: every wordline of the same (channel, rank, bank, mat group)
    /// shares bitlines.
    fn array_of(map: &AddressMap, addr: LineAddr) -> u64 {
        let d = map.decode(addr);
        let g = map.geometry();
        (((d.channel * g.ranks_per_channel + d.rank) * g.banks_per_rank + d.bank)
            * g.mat_groups_per_bank()
            + d.mat_group) as u64
    }

    /// Updates the profile for a serviced write (old → new stored image).
    pub fn record_write(
        &mut self,
        map: &AddressMap,
        addr: LineAddr,
        old_stored: &LineData,
        new_stored: &LineData,
    ) {
        let key = (Self::array_of(map, addr), addr.block_slot());
        let counters = self
            .counters
            .entry(key)
            .or_insert_with(|| Box::new([0u16; LINE_BYTES * BITS_PER_BYTE]));
        // Branch-free per-byte update: a 0→1 bit adds one to its bitline,
        // a 1→0 bit takes one away (saturating at zero).
        for (mat, bitlines) in counters.chunks_exact_mut(BITS_PER_BYTE).enumerate() {
            let (old, new) = (old_stored[mat], new_stored[mat]);
            let (set, reset) = (new & !old, old & !new);
            for (bit, c) in bitlines.iter_mut().enumerate() {
                debug_assert!(
                    *c > 0 || (reset >> bit) & 1 == 0,
                    "bitline counter underflow"
                );
                *c = c.saturating_sub(u16::from((reset >> bit) & 1)) + u16::from((set >> bit) & 1);
            }
        }
    }

    /// The LRS population of the worst bitline a write to `addr` selects —
    /// the `C_b` input of BLP's timing table.
    pub fn worst_selected_bitline(&self, map: &AddressMap, addr: LineAddr) -> u16 {
        let key = (Self::array_of(map, addr), addr.block_slot());
        match self.counters.get(&key) {
            // lint: allow(panic-policy) — invariant: per-array counters are a fixed-size nonempty array, max() cannot be None
            Some(c) => *c.iter().max().expect("fixed-size array"),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_reram::Geometry;
    use proptest::prelude::*;

    /// The bit-serial update [`BitlineProfiler::record_write`] replaced:
    /// the oracle of its property test.
    #[deny(dead_code)]
    fn record_write_reference(
        counters: &mut [u16; LINE_BYTES * BITS_PER_BYTE],
        old_stored: &LineData,
        new_stored: &LineData,
    ) {
        for mat in 0..LINE_BYTES {
            let changed = old_stored[mat] ^ new_stored[mat];
            if changed == 0 {
                continue;
            }
            for bit in 0..BITS_PER_BYTE {
                if (changed >> bit) & 1 == 1 {
                    let c = &mut counters[mat * BITS_PER_BYTE + bit];
                    if (new_stored[mat] >> bit) & 1 == 1 {
                        *c += 1;
                    } else {
                        *c = c.saturating_sub(1);
                    }
                }
            }
        }
    }

    fn arb_line() -> impl Strategy<Value = LineData> {
        prop::collection::vec(any::<u8>(), LINE_BYTES).prop_map(|v| {
            let mut a = [0u8; LINE_BYTES];
            a.copy_from_slice(&v);
            a
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The branch-free update matches the bit-serial one on random
        /// write streams over a few lines sharing one array and slot,
        /// images chained old → new as the policy feeds them.
        #[test]
        fn record_write_matches_the_bit_serial_reference(
            writes in prop::collection::vec((0u64..4, arb_line()), 1..24),
        ) {
            let map = map();
            let pages_per_wl = map.geometry().total_banks() as u64;
            let mut p = BitlineProfiler::new();
            let mut reference = [0u16; LINE_BYTES * BITS_PER_BYTE];
            let mut images = [[0u8; LINE_BYTES]; 4];
            for (line, new) in writes {
                let addr = LineAddr::new(line * pages_per_wl * 64);
                let old = images[line as usize];
                p.record_write(&map, addr, &old, &new);
                record_write_reference(&mut reference, &old, &new);
                images[line as usize] = new;
            }
            let key = (BitlineProfiler::array_of(&map, LineAddr::new(0)), 0);
            prop_assert_eq!(&p.counters[&key][..], &reference[..]);
        }
    }

    fn map() -> AddressMap {
        AddressMap::new(Geometry::default())
    }

    #[test]
    fn counts_rise_and_fall_with_writes() {
        let map = map();
        let mut p = BitlineProfiler::new();
        let a = LineAddr::new(0);
        p.record_write(&map, a, &[0u8; 64], &[0b0000_0001; 64]);
        assert_eq!(p.worst_selected_bitline(&map, a), 1);
        // Another line on a different wordline of the same array and slot
        // deepens the same bitlines.
        let g = map.geometry().clone();
        let pages_per_wl = g.total_banks() as u64;
        let b = LineAddr::new(pages_per_wl * 64); // wordline 1, same slot 0
        assert_eq!(map.decode(b).wordline, 1);
        p.record_write(&map, b, &[0u8; 64], &[0b0000_0001; 64]);
        assert_eq!(p.worst_selected_bitline(&map, a), 2);
        // Clearing one line shrinks the count again.
        p.record_write(&map, a, &[0b0000_0001; 64], &[0u8; 64]);
        assert_eq!(p.worst_selected_bitline(&map, a), 1);
    }

    #[test]
    fn different_slots_do_not_interfere() {
        let map = map();
        let mut p = BitlineProfiler::new();
        let slot0 = LineAddr::new(0);
        let slot1 = LineAddr::new(1);
        p.record_write(&map, slot0, &[0u8; 64], &[0xFF; 64]);
        assert_eq!(p.worst_selected_bitline(&map, slot1), 0);
        assert_eq!(p.worst_selected_bitline(&map, slot0), 1);
    }

    #[test]
    fn different_banks_do_not_interfere() {
        let map = map();
        let mut p = BitlineProfiler::new();
        let a = LineAddr::new(0);
        let other_page = LineAddr::new(64); // different channel
        p.record_write(&map, a, &[0u8; 64], &[0xFF; 64]);
        assert_eq!(p.worst_selected_bitline(&map, other_page), 0);
    }

    #[test]
    fn worst_tracks_the_densest_bitline() {
        let map = map();
        let mut p = BitlineProfiler::new();
        let a = LineAddr::new(0);
        // Byte 3 carries two set bits; all other mats one.
        let mut img = [0b1u8; 64];
        img[3] = 0b11;
        p.record_write(&map, a, &[0u8; 64], &img);
        assert_eq!(p.worst_selected_bitline(&map, a), 1);
        // Stack a second wordline with the same dense bit.
        let g = map.geometry().clone();
        let pages_per_wl = g.total_banks() as u64;
        let b = LineAddr::new(pages_per_wl * 64);
        let mut img2 = [0u8; 64];
        img2[3] = 0b10;
        p.record_write(&map, b, &[0u8; 64], &img2);
        assert_eq!(p.worst_selected_bitline(&map, a), 2);
    }
}
