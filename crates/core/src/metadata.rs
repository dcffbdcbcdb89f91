//! LRS-metadata storage layout and addressing (paper Sections 3.3, 4.1,
//! 4.2 and the storage-overhead analysis of Section 6.3).
//!
//! Metadata lives in a reserved physical range at the *bottom* of the
//! module (lowest pages); data pages start right after the reserved range.
//! Metadata slots are indexed by absolute page number, so the mapping is
//! closed-form and the reserved fraction matches the paper's quoted
//! overheads exactly.
//!
//! | Format | Metadata per 4 KB page | Reserved fraction |
//! |---|---|---|
//! | `Exact` (Basic) | 2 lines (64×10-bit counters) | 3.13 % |
//! | `Partial` (Est) | 1 line (64 × 1-byte partials) | 1.56 % |
//! | `MultiGranularity` (Hybrid) | 1 line, or ¼ line for bottom rows | 0.97–1.3 % |

use ladder_reram::{Geometry, LineAddr, WlgId, LINES_PER_WLG};

/// Metadata encoding used by a LADDER variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataFormat {
    /// Exact 10-bit counters (LADDER-Basic): two lines per page.
    Exact,
    /// 2-bit partial counters (LADDER-Est): one line per page.
    Partial,
    /// Partial counters, degraded to 1-bit for pages stored in the bottom
    /// `low_precision_rows` wordlines (LADDER-Hybrid): those pages pack
    /// four to a metadata line.
    MultiGranularity {
        /// Wordlines (from the bitline driver) that use 1-bit counters.
        /// The paper's evaluation uses 128; its quoted 0.97 % storage
        /// overhead corresponds to 256.
        low_precision_rows: usize,
    },
}

/// Where one wordline group's metadata lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataRef {
    /// Two full lines of packed 10-bit counters.
    Exact {
        /// First line (bytes 0–63 of the packed group).
        lo: LineAddr,
        /// Second line (bytes 64–79, rest unused).
        hi: LineAddr,
    },
    /// One full line of per-block partial-counter bytes.
    Partial {
        /// The metadata line.
        line: LineAddr,
    },
    /// A 16-byte quarter of a shared metadata line (1-bit counters).
    LowPrecision {
        /// The metadata line shared by four pages.
        line: LineAddr,
        /// Which 16 B quarter belongs to this page (0–3).
        quarter: usize,
    },
}

impl MetadataRef {
    /// The metadata line holding the latency-relevant counters; for the
    /// exact format this is the first of the two lines (both are fetched
    /// together; caching and queueing track the pair through `lines`).
    pub fn primary_line(&self) -> LineAddr {
        match *self {
            MetadataRef::Exact { lo, .. } => lo,
            MetadataRef::Partial { line } => line,
            MetadataRef::LowPrecision { line, .. } => line,
        }
    }

    /// Every memory line this reference touches.
    pub fn lines(&self) -> Vec<LineAddr> {
        match *self {
            MetadataRef::Exact { lo, hi } => vec![lo, hi],
            MetadataRef::Partial { line } => vec![line],
            MetadataRef::LowPrecision { line, .. } => vec![line],
        }
    }
}

/// Computed metadata layout for a module.
///
/// # Examples
///
/// ```
/// use ladder_core::{MetadataFormat, MetadataLayout};
/// use ladder_reram::Geometry;
///
/// let layout = MetadataLayout::new(&Geometry::default(), MetadataFormat::Partial);
/// let frac = layout.storage_overhead();
/// assert!((frac - 0.015625).abs() < 1e-4);
/// ```
#[derive(Debug, Clone)]
pub struct MetadataLayout {
    format: MetadataFormat,
    total_pages: u64,
    /// Pages per wordline step in the address map
    /// (`channels × ranks × banks`): page `p` sits on wordline
    /// `(p / wl_divisor) mod mat_rows`.
    wl_divisor: u64,
    mat_rows: u64,
    low_rows: u64,
    reserved_pages: u64,
}

impl MetadataLayout {
    /// Computes the layout for a geometry and format.
    ///
    /// # Panics
    ///
    /// Panics if `low_precision_rows` exceeds the mat height.
    pub fn new(geometry: &Geometry, format: MetadataFormat) -> Self {
        let total_pages = geometry.pages() as u64;
        let wl_divisor = geometry.total_banks() as u64;
        let mat_rows = geometry.mat_rows as u64;
        let low_rows = match format {
            MetadataFormat::MultiGranularity { low_precision_rows } => {
                assert!(
                    low_precision_rows <= geometry.mat_rows,
                    "low-precision rows exceed mat height"
                );
                low_precision_rows as u64
            }
            _ => 0,
        };
        let lines_needed = match format {
            MetadataFormat::Exact => 2 * total_pages,
            MetadataFormat::Partial => total_pages,
            MetadataFormat::MultiGranularity { .. } => {
                let low = total_pages * low_rows / mat_rows;
                let high = total_pages - low;
                low.div_ceil(4) + high
            }
        };
        let reserved_pages = lines_needed.div_ceil(LINES_PER_WLG as u64);
        Self {
            format,
            total_pages,
            wl_divisor,
            mat_rows,
            low_rows,
            reserved_pages,
        }
    }

    /// Metadata format of this layout.
    pub fn format(&self) -> MetadataFormat {
        self.format
    }

    /// First page usable for data.
    pub fn first_data_page(&self) -> u64 {
        self.reserved_pages
    }

    /// Number of pages usable for data.
    pub fn data_pages(&self) -> u64 {
        self.total_pages - self.reserved_pages
    }

    /// Fraction of the module reserved for metadata.
    pub fn storage_overhead(&self) -> f64 {
        self.reserved_pages as f64 / self.total_pages as f64
    }

    /// Whether a line belongs to the reserved metadata region.
    pub fn is_metadata(&self, line: LineAddr) -> bool {
        line.page() < self.reserved_pages
    }

    /// The wordline (row) a page's lines occupy under the standard address
    /// map.
    pub fn wordline_of_page(&self, page: u64) -> u64 {
        (page / self.wl_divisor) % self.mat_rows
    }

    /// Whether a data page uses the 1-bit low-precision encoding (it sits
    /// in one of the bottom `low_precision_rows` wordlines).
    pub fn is_low_precision(&self, wlg: WlgId) -> bool {
        matches!(self.format, MetadataFormat::MultiGranularity { .. })
            && self.wordline_of_page(wlg.0) < self.low_rows
    }

    /// First data page that uses the low-precision encoding (useful for
    /// tests and experiments targeting bottom rows), or `None` when the
    /// format has no low-precision region.
    pub fn first_low_precision_data_page(&self) -> Option<u64> {
        if self.low_rows == 0 {
            return None;
        }
        (self.reserved_pages..self.total_pages).find(|&p| self.wordline_of_page(p) < self.low_rows)
    }

    /// Rank of a low-precision page among all low-precision pages.
    fn low_rank(&self, page: u64) -> u64 {
        let block = page / self.wl_divisor;
        let wl = block % self.mat_rows;
        let cycle = block / self.mat_rows;
        debug_assert!(wl < self.low_rows);
        (cycle * self.low_rows + wl) * self.wl_divisor + page % self.wl_divisor
    }

    /// Rank of a full-precision page among all full-precision pages.
    fn high_rank(&self, page: u64) -> u64 {
        let block = page / self.wl_divisor;
        let wl = block % self.mat_rows;
        let cycle = block / self.mat_rows;
        let high_rows = self.mat_rows - self.low_rows;
        debug_assert!(wl >= self.low_rows);
        (cycle * high_rows + (wl - self.low_rows)) * self.wl_divisor + page % self.wl_divisor
    }

    /// Locates the metadata for a data page's wordline group.
    ///
    /// # Panics
    ///
    /// Panics if `wlg` refers to the reserved region (metadata has no
    /// metadata — it is written with location-only latency) or lies outside
    /// the module.
    pub fn metadata_for(&self, wlg: WlgId) -> MetadataRef {
        assert!(
            wlg.0 >= self.reserved_pages,
            "metadata of the reserved region is not maintained"
        );
        assert!(wlg.0 < self.total_pages, "page outside the module");
        let p = wlg.0;
        match self.format {
            MetadataFormat::Exact => MetadataRef::Exact {
                lo: LineAddr::new(2 * p),
                hi: LineAddr::new(2 * p + 1),
            },
            MetadataFormat::Partial => MetadataRef::Partial {
                line: LineAddr::new(p),
            },
            MetadataFormat::MultiGranularity { .. } => {
                if self.is_low_precision(wlg) {
                    let rank = self.low_rank(p);
                    MetadataRef::LowPrecision {
                        line: LineAddr::new(rank / 4),
                        quarter: (rank % 4) as usize,
                    }
                } else {
                    let low_lines = (self.total_pages * self.low_rows / self.mat_rows).div_ceil(4);
                    MetadataRef::Partial {
                        line: LineAddr::new(low_lines + self.high_rank(p)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn geo() -> Geometry {
        Geometry::default()
    }

    fn hybrid(rows: usize) -> MetadataLayout {
        MetadataLayout::new(
            &geo(),
            MetadataFormat::MultiGranularity {
                low_precision_rows: rows,
            },
        )
    }

    #[test]
    fn exact_overhead_matches_paper() {
        let layout = MetadataLayout::new(&geo(), MetadataFormat::Exact);
        assert!((layout.storage_overhead() - 0.03125).abs() < 1e-6);
    }

    #[test]
    fn partial_overhead_matches_paper() {
        let layout = MetadataLayout::new(&geo(), MetadataFormat::Partial);
        assert!((layout.storage_overhead() - 0.015625).abs() < 1e-6);
    }

    #[test]
    fn hybrid_overhead_between_bounds() {
        // 256 low rows (half the mat) reproduces the paper's 0.97 %.
        let oh256 = hybrid(256).storage_overhead();
        assert!((oh256 - 0.009766).abs() < 1e-4, "overhead {oh256}");
        // 128 low rows (the evaluation's setting) gives ≈ 1.27 %.
        let oh128 = hybrid(128).storage_overhead();
        assert!((oh128 - 0.012695).abs() < 1e-4, "overhead {oh128}");
        assert!(oh256 < oh128);
    }

    #[test]
    fn metadata_refs_are_disjoint_across_pages() {
        let layout = MetadataLayout::new(&geo(), MetadataFormat::Exact);
        let a = layout.metadata_for(WlgId(layout.first_data_page()));
        let b = layout.metadata_for(WlgId(layout.first_data_page() + 1));
        let la = a.lines();
        let lb = b.lines();
        assert!(la.iter().all(|x| !lb.contains(x)));
    }

    #[test]
    fn low_precision_follows_wordline_not_page_order() {
        let layout = hybrid(128);
        let divisor = geo().total_banks() as u64;
        // Pages in the first wordline block of the second cycle are low.
        let cycle2 = divisor * 512;
        assert!(layout.is_low_precision(WlgId(cycle2)));
        // Pages at wordline 200 are not.
        let high = cycle2 + 200 * divisor;
        assert_eq!(layout.wordline_of_page(high), 200);
        assert!(!layout.is_low_precision(WlgId(high)));
    }

    #[test]
    fn low_precision_pages_share_lines_four_ways() {
        let layout = hybrid(128);
        let start = layout
            .first_low_precision_data_page()
            .expect("hybrid has a low region");
        // Low ranks are consecutive within a wordline block, so aligning on
        // a rank multiple of four yields one shared line.
        let aligned = (start..start + 8)
            .find(|&p| layout.is_low_precision(WlgId(p)) && layout.low_rank(p).is_multiple_of(4))
            .expect("aligned low page");
        let refs: Vec<_> = (0..4)
            .map(|i| layout.metadata_for(WlgId(aligned + i)))
            .collect();
        let line0 = refs[0].primary_line();
        for (i, r) in refs.iter().enumerate() {
            match *r {
                MetadataRef::LowPrecision { line, quarter } => {
                    assert_eq!(line, line0);
                    assert_eq!(quarter, i);
                }
                _ => panic!("expected low-precision ref"),
            }
        }
    }

    #[test]
    fn hybrid_high_rows_use_full_lines() {
        let layout = hybrid(128);
        let divisor = geo().total_banks() as u64;
        let high_page = 400 * divisor; // wordline 400
        assert!(!layout.is_low_precision(WlgId(high_page)));
        assert!(matches!(
            layout.metadata_for(WlgId(high_page)),
            MetadataRef::Partial { .. }
        ));
    }

    #[test]
    fn hybrid_mapping_is_injective_across_precisions() {
        let layout = hybrid(128);
        let divisor = geo().total_banks() as u64;
        let mut seen: BTreeSet<(u64, usize)> = BTreeSet::new();
        // Probe pages across wordlines and cycles.
        for cycle in 0..3u64 {
            for wl in [0u64, 1, 127, 128, 129, 300, 511] {
                for within in [0u64, 1, 31] {
                    let p = (cycle * 512 + wl) * divisor + within;
                    if p < layout.first_data_page() {
                        continue;
                    }
                    let (line, q) = match layout.metadata_for(WlgId(p)) {
                        MetadataRef::LowPrecision { line, quarter } => (line.raw(), quarter),
                        MetadataRef::Partial { line } => (line.raw(), 4),
                        MetadataRef::Exact { .. } => unreachable!(),
                    };
                    assert!(seen.insert((line, q)), "collision at page {p}");
                }
            }
        }
    }

    #[test]
    fn every_data_page_maps_into_reserved_region() {
        for format in [
            MetadataFormat::Exact,
            MetadataFormat::Partial,
            MetadataFormat::MultiGranularity {
                low_precision_rows: 128,
            },
        ] {
            let layout = MetadataLayout::new(&geo(), format);
            let reserved_lines = layout.first_data_page() * LINES_PER_WLG as u64;
            let last = layout.data_pages() - 1;
            for rel in [0, 1, 2, 3, 1000, layout.data_pages() / 2, last] {
                let r = layout.metadata_for(WlgId(layout.first_data_page() + rel));
                for l in r.lines() {
                    assert!(
                        l.raw() < reserved_lines,
                        "{format:?}: metadata line {l} outside reserved region"
                    );
                }
            }
        }
    }

    #[test]
    fn metadata_region_lines_are_flagged() {
        let layout = MetadataLayout::new(&geo(), MetadataFormat::Partial);
        assert!(layout.is_metadata(LineAddr::new(0)));
        let first_data_line = layout.first_data_page() * LINES_PER_WLG as u64;
        assert!(!layout.is_metadata(LineAddr::new(first_data_line)));
    }

    #[test]
    #[should_panic(expected = "reserved region")]
    fn metadata_of_metadata_panics() {
        let layout = MetadataLayout::new(&geo(), MetadataFormat::Partial);
        let _ = layout.metadata_for(WlgId(0));
    }
}
