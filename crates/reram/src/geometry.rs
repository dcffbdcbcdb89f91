//! Physical organization of the ReRAM main memory (paper Table 2 / Fig. 3).
//!
//! A 64 B memory line is striped over one *mat group*: 8 bytes per ×8 chip,
//! each byte into its own mat, landing on one wordline. The 64 wordlines
//! (one per mat of the group) that jointly store the 64 lines of a 4 KB
//! page form a *wordline group* (WLG): LADDER's metadata unit.

/// Size of one memory line (cache block) in bytes.
pub const LINE_BYTES: usize = 64;
/// Lines per wordline group (= lines per 4 KB page).
pub const LINES_PER_WLG: usize = 64;
/// Bytes per page (one WLG stores exactly one page).
pub const PAGE_BYTES: usize = LINE_BYTES * LINES_PER_WLG;
/// Most banks one channel may have (`ranks_per_channel × banks_per_rank`).
pub const MAX_BANKS_PER_CHANNEL: usize = 64;

/// Geometry of the ReRAM module.
///
/// Defaults follow Table 2: dual channel, 2 ranks/channel, 8 banks/rank,
/// 256 mats per bank per chip, ×8 chips, 512×512 mats.
///
/// # Examples
///
/// ```
/// use ladder_reram::Geometry;
///
/// let g = Geometry::default();
/// assert_eq!(g.chips, 8);
/// assert_eq!(g.pages(), g.total_wlgs());
/// assert!(g.capacity_bytes() >= 1 << 31);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Mats per bank *per chip*.
    pub mats_per_bank: usize,
    /// ×8 chips per rank; each chip contributes 8 bytes of a line.
    pub chips: usize,
    /// Wordlines per mat.
    pub mat_rows: usize,
    /// Bitlines per mat.
    pub mat_cols: usize,
}

impl Default for Geometry {
    fn default() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            mats_per_bank: 256,
            chips: 8,
            mat_rows: 512,
            mat_cols: 512,
        }
    }
}

impl Geometry {
    /// Checks the structural constraints the rest of the stack assumes.
    ///
    /// The line-to-mat striping (one byte per mat), the 8-byte chip groups
    /// used by intra-line shifting, and the 64-slot wordline groups all
    /// require:
    ///
    /// * `chips` divides [`LINE_BYTES`] (each chip stores whole bytes);
    /// * `mats_per_bank` divides evenly into mat groups;
    /// * `mat_cols` is a multiple of [`LINES_PER_WLG`] (each line gets the
    ///   same number of adjacent bit columns per mat);
    /// * a channel has at most [`MAX_BANKS_PER_CHANNEL`] banks (the memory
    ///   controller tracks a channel's banks in 64-bit masks);
    /// * all dimensions are nonzero.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0
            || self.ranks_per_channel == 0
            || self.banks_per_rank == 0
            || self.mats_per_bank == 0
            || self.chips == 0
            || self.mat_rows == 0
            || self.mat_cols == 0
        {
            return Err("all geometry dimensions must be nonzero".into());
        }
        if !LINE_BYTES.is_multiple_of(self.chips) {
            return Err(format!(
                "{} chips do not evenly split a 64 B line",
                self.chips
            ));
        }
        if !self
            .mats_per_bank
            .is_multiple_of(self.mats_per_line_per_chip())
        {
            return Err(format!(
                "{} mats/bank do not form whole mat groups of {}",
                self.mats_per_bank,
                self.mats_per_line_per_chip()
            ));
        }
        let banks = self.ranks_per_channel.saturating_mul(self.banks_per_rank);
        if banks > MAX_BANKS_PER_CHANNEL {
            return Err(format!(
                "{banks} banks per channel exceed the supported {MAX_BANKS_PER_CHANNEL}"
            ));
        }
        if !self.mat_cols.is_multiple_of(LINES_PER_WLG) {
            return Err(format!(
                "{} bit columns do not evenly split across {} wordline-group slots",
                self.mat_cols, LINES_PER_WLG
            ));
        }
        Ok(())
    }

    /// Mats each chip contributes to one line (one byte per mat).
    pub fn mats_per_line_per_chip(&self) -> usize {
        LINE_BYTES / self.chips
    }

    /// Mat groups per bank: disjoint sets of `chips ×
    /// mats_per_line_per_chip` mats that jointly store whole lines.
    pub fn mat_groups_per_bank(&self) -> usize {
        self.mats_per_bank / self.mats_per_line_per_chip()
    }

    /// Total banks across the module.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Wordline groups (= 4 KB pages) in the whole module.
    pub fn total_wlgs(&self) -> usize {
        self.total_banks() * self.mat_groups_per_bank() * self.mat_rows
    }

    /// Number of 4 KB pages the module stores.
    pub fn pages(&self) -> usize {
        self.total_wlgs()
    }

    /// Number of 64 B lines the module stores.
    pub fn lines(&self) -> u64 {
        self.pages() as u64 * LINES_PER_WLG as u64
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.lines() * LINE_BYTES as u64
    }

    /// Blocks a line's byte `i` (0–63) to its chip index.
    pub fn chip_of_byte(&self, byte: usize) -> usize {
        debug_assert!(byte < LINE_BYTES);
        byte / self.mats_per_line_per_chip()
    }

    /// Blocks a line's byte `i` (0–63) to its mat index within the chip's
    /// share of the mat group.
    pub fn mat_of_byte(&self, byte: usize) -> usize {
        debug_assert!(byte < LINE_BYTES);
        byte % self.mats_per_line_per_chip()
    }

    /// Bit columns a line occupies inside each mat's wordline, for the line
    /// stored at slot `block_slot` (0–63) of its WLG: 8 adjacent columns.
    ///
    /// # Panics
    ///
    /// Panics if `block_slot` is out of range for the mat width.
    pub fn bit_columns_of_slot(&self, block_slot: usize) -> std::ops::Range<usize> {
        let bits = self.mat_cols / LINES_PER_WLG;
        assert!(block_slot < LINES_PER_WLG, "block slot out of range");
        block_slot * bits..(block_slot + 1) * bits
    }

    /// The worst (farthest from the wordline driver) bit column a line at
    /// `block_slot` touches — the column used for timing-table lookups.
    pub fn worst_column_of_slot(&self, block_slot: usize) -> usize {
        self.bit_columns_of_slot(block_slot).end - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_consistent() {
        let g = Geometry::default();
        assert_eq!(g.mats_per_line_per_chip(), 8);
        assert_eq!(g.mat_groups_per_bank(), 32);
        assert_eq!(g.total_banks(), 32);
        assert_eq!(g.total_wlgs(), 32 * 32 * 512);
        assert_eq!(g.capacity_bytes(), 32 * 32 * 512 * 4096);
    }

    #[test]
    fn byte_to_chip_and_mat_covers_all_mats() {
        let g = Geometry::default();
        let mut seen = std::collections::HashSet::new();
        for b in 0..LINE_BYTES {
            seen.insert((g.chip_of_byte(b), g.mat_of_byte(b)));
        }
        assert_eq!(seen.len(), LINE_BYTES, "each byte maps to a distinct mat");
        assert_eq!(g.chip_of_byte(0), 0);
        assert_eq!(g.chip_of_byte(63), 7);
    }

    #[test]
    fn slot_columns_partition_the_wordline() {
        let g = Geometry::default();
        let mut covered = vec![false; g.mat_cols];
        for slot in 0..LINES_PER_WLG {
            for c in g.bit_columns_of_slot(slot) {
                assert!(!covered[c], "column {c} covered twice");
                covered[c] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(g.worst_column_of_slot(0), 7);
        assert_eq!(g.worst_column_of_slot(63), 511);
    }

    #[test]
    fn default_geometry_validates() {
        assert!(Geometry::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_broken_geometries() {
        let broken = |f: fn(&mut Geometry)| {
            let mut g = Geometry::default();
            f(&mut g);
            g.validate().unwrap_err()
        };
        assert!(broken(|g| g.chips = 7).contains("chips"));
        assert!(broken(|g| g.mat_cols = 100).contains("bit columns"));
        assert!(broken(|g| g.mats_per_bank = 12).contains("mat groups"));
        assert!(broken(|g| g.channels = 0).contains("nonzero"));
        let too_many = broken(|g| {
            g.ranks_per_channel = 5;
            g.banks_per_rank = 13;
        });
        assert!(too_many.contains("65 banks per channel"), "{too_many}");
        assert!(broken(|g| g.ranks_per_channel = usize::MAX).contains("banks per channel"));
    }

    #[test]
    fn sixty_four_banks_per_channel_validate() {
        let g = Geometry {
            ranks_per_channel: 4,
            banks_per_rank: 16,
            ..Geometry::default()
        };
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        let g = Geometry::default();
        let _ = g.bit_columns_of_slot(64);
    }
}
