//! Wear-leveling mechanisms (paper Section 6.4, Fig. 18).
//!
//! * [`StartGap`] — line-granularity vertical wear-leveling (Qureshi et
//!   al., MICRO'09): one spare line per region, a gap that rotates through
//!   it every `gap_interval` writes. Scatters the lines of a page across
//!   wordline groups, which is exactly the metadata-locality hazard the
//!   paper warns about for line-based VWL.
//! * [`SegmentVwl`] — segment-granularity remapping (à la Zhou et al.,
//!   ISCA'09): whole multi-page segments swap periodically, preserving
//!   page→WLG contiguity and hence LADDER's metadata locality.
//! * [`RotateHwl`] — horizontal wear-leveling: rotates bytes within a line
//!   by a per-line offset; no address change, so LADDER needs no special
//!   handling (the metadata is simply computed on the rotated image).
//!
//! Migration traffic is modelled as extra physical writes; the content copy
//! itself is elided (no simulated reader ever checks data values — see
//! DESIGN.md §2 on substitutions).

use crate::rng_util::SplitMix64;
use ladder_reram::{LineAddr, LineData, LINES_PER_WLG, LINE_BYTES};
use std::collections::BTreeMap;

/// A vertical wear-leveling scheme: remaps line addresses and may emit
/// extra migration writes.
pub trait WearLeveler: std::fmt::Debug + Send {
    /// Current logical → physical mapping.
    fn map(&self, logical: LineAddr) -> LineAddr;

    /// Accounts one logical write; returns physical addresses of any extra
    /// migration writes this write triggered.
    fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr>;

    /// Scheme name for reports.
    fn name(&self) -> &'static str;
}

/// The identity leveler (wear-leveling disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLeveling;

impl WearLeveler for NoLeveling {
    fn map(&self, logical: LineAddr) -> LineAddr {
        logical
    }

    fn note_write(&mut self, _logical: LineAddr) -> Vec<LineAddr> {
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

/// Start-Gap line-level wear-leveling over a contiguous region.
///
/// The region holds `lines` logical lines in `lines + 1` physical slots;
/// the empty slot (the gap) moves down one position every `gap_interval`
/// writes, costing one migration write each time. After `lines + 1` gap
/// movements every line has shifted by one physical slot.
///
/// # Examples
///
/// ```
/// use ladder_wear::{StartGap, WearLeveler};
/// use ladder_reram::LineAddr;
///
/// let mut sg = StartGap::new(0, 16, 1);
/// let before = sg.map(LineAddr::new(5));
/// for i in 0..40u64 {
///     sg.note_write(LineAddr::new(i % 16));
/// }
/// let after = sg.map(LineAddr::new(5));
/// assert_ne!(before, after, "mapping must rotate as the gap moves");
/// ```
#[derive(Debug, Clone)]
pub struct StartGap {
    base: u64,
    lines: u64,
    gap: u64,
    start: u64,
    writes: u64,
    gap_interval: u64,
}

impl StartGap {
    /// Creates a region of `lines` logical lines starting at line `base`,
    /// moving the gap every `gap_interval` writes.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `gap_interval` is zero.
    pub fn new(base: u64, lines: u64, gap_interval: u64) -> Self {
        assert!(lines > 0 && gap_interval > 0, "degenerate start-gap region");
        Self {
            base,
            lines,
            gap: lines, // gap starts past the last line
            start: 0,
            writes: 0,
            gap_interval,
        }
    }
}

impl WearLeveler for StartGap {
    fn map(&self, logical: LineAddr) -> LineAddr {
        #[expect(
            clippy::expect_used,
            reason = "region-membership precondition, as the assert below"
        )]
        let rel = logical
            .raw()
            .checked_sub(self.base)
            .expect("address below region base");
        assert!(rel < self.lines, "address beyond region");
        let rotated = (rel + self.start) % self.lines;
        let phys = if rotated >= self.gap {
            rotated + 1
        } else {
            rotated
        };
        LineAddr::new(self.base + phys)
    }

    fn note_write(&mut self, _logical: LineAddr) -> Vec<LineAddr> {
        self.writes += 1;
        if !self.writes.is_multiple_of(self.gap_interval) {
            return Vec::new();
        }
        // Move the gap down one slot: the line currently in the slot below
        // the gap is copied into the gap slot (one migration write there).
        let migration_target = self.gap;
        if self.gap == 0 {
            self.gap = self.lines;
            self.start = (self.start + 1) % self.lines;
        } else {
            self.gap -= 1;
        }
        vec![LineAddr::new(self.base + migration_target)]
    }

    fn name(&self) -> &'static str {
        "start-gap"
    }
}

/// Segment-granularity vertical wear-leveling: every `swap_interval`
/// writes, two random segments swap their mappings.
#[derive(Debug)]
pub struct SegmentVwl {
    base_page: u64,
    segments: u64,
    pages_per_segment: u64,
    /// logical segment → physical segment (a permutation).
    table: Vec<u64>,
    writes: u64,
    swap_interval: u64,
    rng: SplitMix64,
    /// Pending migration writes amortized over subsequent calls.
    pending_migrations: u64,
}

impl SegmentVwl {
    /// Creates a leveler over `segments × pages_per_segment` pages starting
    /// at `base_page`, swapping two segments every `swap_interval` writes.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(
        base_page: u64,
        segments: u64,
        pages_per_segment: u64,
        swap_interval: u64,
        seed: u64,
    ) -> Self {
        assert!(
            segments > 0 && pages_per_segment > 0 && swap_interval > 0,
            "degenerate segment layout"
        );
        Self {
            base_page,
            segments,
            pages_per_segment,
            table: (0..segments).collect(),
            writes: 0,
            swap_interval,
            rng: SplitMix64::new(seed),
            pending_migrations: 0,
        }
    }

    fn lines_per_segment(&self) -> u64 {
        self.pages_per_segment * LINES_PER_WLG as u64
    }
}

impl WearLeveler for SegmentVwl {
    fn map(&self, logical: LineAddr) -> LineAddr {
        let base_line = self.base_page * LINES_PER_WLG as u64;
        #[expect(
            clippy::expect_used,
            reason = "region-membership precondition, as the assert below"
        )]
        let rel = logical
            .raw()
            .checked_sub(base_line)
            .expect("address below region base");
        let seg = rel / self.lines_per_segment();
        assert!(seg < self.segments, "address beyond region");
        let off = rel % self.lines_per_segment();
        LineAddr::new(base_line + self.table[seg as usize] * self.lines_per_segment() + off)
    }

    fn note_write(&mut self, logical: LineAddr) -> Vec<LineAddr> {
        self.writes += 1;
        if self.writes.is_multiple_of(self.swap_interval) && self.segments >= 2 {
            let a = self.rng.next_below(self.segments) as usize;
            let mut b = self.rng.next_below(self.segments) as usize;
            if a == b {
                b = (b + 1) % self.segments as usize;
            }
            self.table.swap(a, b);
            // A swap migrates both segments; amortize those writes over the
            // following traffic (one migration write surfaced per data
            // write) so queues are not flooded by a background copy.
            self.pending_migrations += 2 * self.lines_per_segment();
        }
        if self.pending_migrations > 0 {
            self.pending_migrations -= 1;
            // Migration lands in the destination segment of this write.
            return vec![self.map(logical)];
        }
        Vec::new()
    }

    fn name(&self) -> &'static str {
        "segment-vwl"
    }
}

/// Horizontal wear-leveling: rotate a line's bytes by a per-line counter.
#[derive(Debug, Default)]
pub struct RotateHwl {
    offsets: BTreeMap<u64, u8>,
}

impl RotateHwl {
    /// Creates the rotator with all offsets at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rotation offset currently applied to a line.
    pub fn offset(&self, addr: LineAddr) -> u8 {
        self.offsets.get(&addr.raw()).copied().unwrap_or(0)
    }

    /// Advances the line's rotation (called per write) and returns the
    /// rotated image to store.
    pub fn rotate_for_write(&mut self, addr: LineAddr, data: &LineData) -> LineData {
        let off = self.offsets.entry(addr.raw()).or_insert(0);
        *off = (*off + 1) % LINE_BYTES as u8;
        rotate(data, *off)
    }

    /// Undoes the rotation on a read.
    pub fn unrotate_for_read(&self, addr: LineAddr, stored: &LineData) -> LineData {
        let off = self.offset(addr);
        rotate(stored, (LINE_BYTES as u8 - off) % LINE_BYTES as u8)
    }
}

fn rotate(data: &LineData, off: u8) -> LineData {
    let mut out = [0u8; LINE_BYTES];
    for (i, &b) in data.iter().enumerate() {
        out[(i + off as usize) % LINE_BYTES] = b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_gap_mapping_is_injective() {
        let mut sg = StartGap::new(0, 256, 5);
        for _ in 0..1000 {
            sg.note_write(LineAddr::new(0));
            let mut seen = std::collections::BTreeSet::new();
            for l in 0..256u64 {
                let p = sg.map(LineAddr::new(l));
                assert!(p.raw() <= 256, "physical beyond region+gap");
                assert!(seen.insert(p), "collision at logical {l}");
            }
        }
    }

    #[test]
    fn start_gap_migration_rate_is_one_over_interval() {
        let mut sg = StartGap::new(0, 64, 10);
        let mut migrations = 0;
        for i in 0..10_000u64 {
            migrations += sg.note_write(LineAddr::new(i % 64)).len();
        }
        assert_eq!(migrations, 1000);
    }

    #[test]
    fn start_gap_rotates_every_line_eventually() {
        let mut sg = StartGap::new(0, 8, 1);
        let initial: Vec<_> = (0..8).map(|l| sg.map(LineAddr::new(l))).collect();
        // 9 gap movements = one full rotation step for every line.
        for _ in 0..9 {
            sg.note_write(LineAddr::new(0));
        }
        let rotated: Vec<_> = (0..8).map(|l| sg.map(LineAddr::new(l))).collect();
        for (a, b) in initial.iter().zip(&rotated) {
            assert_ne!(a, b, "every line must have moved");
        }
    }

    #[test]
    fn segment_vwl_preserves_page_contiguity() {
        let mut sv = SegmentVwl::new(0, 8, 16, 3, 77);
        for i in 0..100u64 {
            sv.note_write(LineAddr::new(i * 7 % (8 * 16 * 64)));
        }
        // All 64 lines of any page land in the same physical page.
        for page in 0..(8 * 16u64) {
            let first = sv.map(LineAddr::new(page * 64)).page();
            for slot in 1..64u64 {
                assert_eq!(sv.map(LineAddr::new(page * 64 + slot)).page(), first);
            }
        }
    }

    #[test]
    fn segment_vwl_is_a_permutation() {
        let mut sv = SegmentVwl::new(0, 6, 4, 2, 1);
        for i in 0..50u64 {
            sv.note_write(LineAddr::new(i % (6 * 4 * 64)));
        }
        let mut seen = std::collections::BTreeSet::new();
        for l in 0..(6 * 4 * 64u64) {
            assert!(seen.insert(sv.map(LineAddr::new(l))));
        }
    }

    #[test]
    fn hwl_rotation_roundtrips() {
        let mut hwl = RotateHwl::new();
        let addr = LineAddr::new(9);
        let mut data = [0u8; LINE_BYTES];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        for _ in 0..10 {
            let stored = hwl.rotate_for_write(addr, &data);
            assert_eq!(hwl.unrotate_for_read(addr, &stored), data);
        }
        assert_eq!(hwl.offset(addr), 10);
    }

    #[test]
    fn no_leveling_is_identity() {
        let mut n = NoLeveling;
        assert_eq!(n.map(LineAddr::new(123)), LineAddr::new(123));
        assert!(n.note_write(LineAddr::new(123)).is_empty());
    }
}
