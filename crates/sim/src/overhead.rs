//! Hardware-overhead accounting (paper Section 6.3 and Table 4).
//!
//! Storage overheads and on-chip buffer sizes are computed exactly from
//! this repository's data structures. The logic area/power/latency figures
//! of Table 4 come from the paper's Synopsys DC synthesis at 45 nm — a flow
//! software cannot reproduce — so they are quoted verbatim and labelled as
//! such.

use ladder_core::{LadderConfig, LadderVariant, MetadataLayout};
use ladder_reram::Geometry;
use ladder_xbar::{TableConfig, TimingTable};

/// Storage overhead of one LADDER variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageOverhead {
    /// Variant measured.
    pub variant: LadderVariant,
    /// Fraction of the module reserved for LRS-metadata.
    pub fraction: f64,
}

/// Computes the memory storage overhead of every variant (the 3.12 % /
/// 1.56 % / ~1 % numbers of Section 6.3).
pub fn storage_overheads(geometry: &Geometry) -> Vec<StorageOverhead> {
    [
        LadderVariant::Basic,
        LadderVariant::Est,
        LadderVariant::Hybrid,
    ]
    .into_iter()
    .map(|variant| {
        let cfg = LadderConfig::for_variant(variant);
        let layout = MetadataLayout::new(
            geometry,
            match variant {
                LadderVariant::Basic => ladder_core::MetadataFormat::Exact,
                LadderVariant::Est => ladder_core::MetadataFormat::Partial,
                LadderVariant::Hybrid => ladder_core::MetadataFormat::MultiGranularity {
                    low_precision_rows: cfg.low_precision_rows,
                },
            },
        );
        StorageOverhead {
            variant,
            fraction: layout.storage_overhead(),
        }
    })
    .collect()
}

/// On-chip state LADDER adds to the memory controller (Section 6.3 text).
#[derive(Debug, Clone, PartialEq)]
pub struct OnChipState {
    /// Timing-table ROM bytes (8×8×8 entries, one byte each).
    pub timing_table_bytes: usize,
    /// LRS-metadata cache capacity in bytes.
    pub metadata_cache_bytes: usize,
    /// Spill-buffer entries.
    pub spill_entries: usize,
    /// Extra bits per write-queue entry (partial counters + Present flag).
    pub write_queue_bits_per_entry: usize,
    /// Extra bits per read-queue entry (read-type flag).
    pub read_queue_bits_per_entry: usize,
}

/// Computes the on-chip state of the optimized (Est/Hybrid) design.
pub fn on_chip_state(table: &TimingTable) -> OnChipState {
    OnChipState {
        timing_table_bytes: table.to_rom_bytes().len(),
        metadata_cache_bytes: ladder_core::MetadataCacheConfig::default().capacity_bytes,
        spill_entries: ladder_core::MetadataCacheConfig::default().spill_entries,
        // 8 bits of partial counters + 1 Present bit.
        write_queue_bits_per_entry: 9,
        // 2-bit read-type flag (data / metadata / stale-block).
        read_queue_bits_per_entry: 2,
    }
}

/// One row of Table 4 — quoted from the paper's 45 nm synthesis, not
/// measured by this reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// Module name.
    pub module: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
    /// Latency in ns.
    pub latency_ns: f64,
}

/// The paper's Table 4 values (quoted; see module docs).
pub fn table4_paper_values() -> [Table4Row; 3] {
    [
        Table4Row {
            module: "LRS-metadata Update Module",
            area_mm2: 0.0061,
            power_mw: 3.71,
            latency_ns: 0.17,
        },
        Table4Row {
            module: "Latency Query Module",
            area_mm2: 0.0047,
            power_mw: 6.57,
            latency_ns: 0.32,
        },
        Table4Row {
            module: "LRS-metadata Cache (64KB)",
            area_mm2: 0.2442,
            power_mw: 48.83,
            latency_ns: 0.81,
        },
    ]
}

/// Renders the full overhead report.
pub fn report() -> String {
    let geometry = Geometry::default();
    #[expect(
        clippy::expect_used,
        reason = "the default table config generates infallibly"
    )]
    let table = TimingTable::generate(&TableConfig::ladder_default()).expect("table");
    let mut out = String::new();
    out.push_str("Storage overhead (computed from metadata layouts):\n");
    for so in storage_overheads(&geometry) {
        out.push_str(&format!(
            "  {:?}: {:.3}%\n",
            so.variant,
            so.fraction * 100.0
        ));
    }
    let chip = on_chip_state(&table);
    out.push_str(&format!(
        "\nOn-chip state (computed):\n  timing-table ROM: {} B\n  \
         LRS-metadata cache: {} B\n  spill buffer: {} entries\n  \
         write-queue entry: +{} bits\n  read-queue entry: +{} bits\n",
        chip.timing_table_bytes,
        chip.metadata_cache_bytes,
        chip.spill_entries,
        chip.write_queue_bits_per_entry,
        chip.read_queue_bits_per_entry
    ));
    out.push_str("\nTable 4 (quoted from the paper's 45nm synthesis):\n");
    out.push_str(&format!(
        "  {:<28}{:>10}{:>10}{:>12}\n",
        "Module", "mm^2", "mW", "ns"
    ));
    for r in table4_paper_values() {
        out.push_str(&format!(
            "  {:<28}{:>10.4}{:>10.2}{:>12.2}\n",
            r.module, r.area_mm2, r.power_mw, r.latency_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_overheads_match_section_6_3() {
        let o = storage_overheads(&Geometry::default());
        assert!(
            (o[0].fraction - 0.03125).abs() < 0.0015,
            "Basic {}",
            o[0].fraction
        );
        assert!(
            (o[1].fraction - 0.015625).abs() < 0.0008,
            "Est {}",
            o[1].fraction
        );
        assert!(o[2].fraction < o[1].fraction, "Hybrid must be cheapest");
    }

    #[test]
    fn timing_table_rom_is_512_bytes() {
        let t = TimingTable::generate(&TableConfig::ladder_default()).expect("table");
        assert_eq!(on_chip_state(&t).timing_table_bytes, 512);
    }

    #[test]
    fn report_mentions_every_module() {
        let r = report();
        for row in table4_paper_values() {
            assert!(r.contains(row.module));
        }
        assert!(r.contains("512 B"));
    }
}
