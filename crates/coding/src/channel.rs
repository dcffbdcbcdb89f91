//! The location-dependent error channel: crossbar position + IR-drop
//! margin → per-line raw bit-error rate.

use ladder_reram::{line_ones, AddressMap, LineAddr, LineData, LINE_BYTES};
use ladder_xbar::TimingTable;

/// Bits in one line.
pub(crate) const LINE_BITS: u32 = (LINE_BYTES * 8) as u32;

/// The per-line error channel of a crossbar module.
///
/// The channel's failure-probability proxy is the LADDER timing table's
/// IR-drop *margin*: the normalized pulse latency the table demands for a
/// ⟨location, content⟩ corner, in `(0, 1]`. Far wordlines and LRS-heavy
/// lines need the longest pulses and therefore sit closest to the write
/// margin cliff — the channel charges them proportionally more raw errors,
/// matching the 1S1R channel models' position/resistance dependence.
///
/// The margin arithmetic is byte-identical to what the fault model used
/// before this crate existed, so a flat-ECC run over this channel
/// reproduces the legacy golden digests bit-for-bit.
///
/// # Examples
///
/// ```
/// use ladder_coding::LocationChannel;
/// use ladder_reram::{AddressMap, Geometry, LineAddr};
/// use ladder_xbar::{TableConfig, TimingTable};
///
/// let table = TimingTable::generate(&TableConfig::ladder_default()).unwrap();
/// let ch = LocationChannel::new(table, AddressMap::new(Geometry::default()));
/// let line = LineAddr::new(40_000 * 64);
/// // LRS-heavy content sits closer to the margin cliff.
/// assert!(ch.margin(line, &[0xFF; 64]) > ch.margin(line, &[0x00; 64]));
/// ```
#[derive(Debug, Clone)]
pub struct LocationChannel {
    table: TimingTable,
    map: AddressMap,
    worst_ps: u64,
}

impl LocationChannel {
    /// Builds the channel over the physical timing table and address map.
    /// The table should be the full location+content LADDER table
    /// regardless of the controller policy under test: it describes the
    /// *device*, so every scheme faces identical raw error pressure.
    pub fn new(table: TimingTable, map: AddressMap) -> Self {
        let worst_ps = table.worst_ps().max(1);
        Self {
            table,
            map,
            worst_ps,
        }
    }

    /// IR-drop failure margin of a write at `addr` carrying `data`: the
    /// normalized latency the timing table demands for this
    /// ⟨location, content⟩ corner, in `(0, 1]`. Far cells / LRS-heavy
    /// lines → 1.
    pub fn margin(&self, addr: LineAddr, data: &LineData) -> f64 {
        let (wl, col) = self.map.write_location(addr);
        let need = self.table.lookup_ps(wl, col, line_ones(data) as usize);
        need as f64 / self.worst_ps as f64
    }

    /// Location-only margin of `addr` under worst-case (all-LRS) content —
    /// the position axis alone, used to place a line into a protection
    /// tier before its content is known.
    pub fn position_margin(&self, addr: LineAddr) -> f64 {
        let (wl, col) = self.map.write_location(addr);
        let need = self.table.lookup_ps(wl, col, LINE_BITS as usize);
        need as f64 / self.worst_ps as f64
    }

    /// The smallest position margin any line of the module can have: the
    /// near corner under worst-case content. Tier thresholds span
    /// `[floor, 1]`.
    pub fn position_margin_floor(&self) -> f64 {
        // Line 0 decodes to wordline 0, block slot 0 — the nearest
        // ⟨WL, worst column⟩ corner `write_location` can produce.
        let (wl, col) = self.map.write_location(LineAddr::new(0));
        let need = self.table.lookup_ps(wl, col, LINE_BITS as usize);
        (need as f64 / self.worst_ps as f64).min(1.0)
    }

    /// Raw per-bit error probability of program pulse `attempt` at this
    /// corner: `base_ber × margin / 4^attempt` (escalated retry pulses
    /// quarter the probability each).
    pub fn raw_ber(&self, base_ber: f64, addr: LineAddr, data: &LineData, attempt: u32) -> f64 {
        base_ber * self.margin(addr, data) / 4f64.powi(attempt as i32)
    }

    /// Expected raw bit errors of one initial pulse at position margin
    /// `margin` — the Poisson rate λ a code budget is sized against.
    pub fn expected_errors(&self, base_ber: f64, margin: f64) -> f64 {
        base_ber * margin * f64::from(LINE_BITS)
    }

    /// Per-write stuck-at minting probability after `write_idx` writes of
    /// an `endurance`-rated cell: arrival scales linearly with consumed
    /// endurance (WoLFRaM's wear-driven permanent-fault channel).
    pub fn stuck_probability(&self, stuck_rate: f64, write_idx: u64, endurance: u64) -> f64 {
        let consumed = (write_idx as f64 / endurance as f64).min(1.0);
        stuck_rate * consumed
    }

    /// The address map the channel decodes positions with.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_reram::{Decoded, Geometry};
    use ladder_xbar::TableConfig;

    fn channel() -> LocationChannel {
        let table = TimingTable::generate(&TableConfig::ladder_default()).expect("table");
        LocationChannel::new(table, AddressMap::new(Geometry::default()))
    }

    fn at_wordline(ch: &LocationChannel, wordline: usize) -> LineAddr {
        ch.map().encode(&Decoded {
            channel: 0,
            rank: 0,
            bank: 0,
            mat_group: 0,
            wordline,
            block_slot: 63,
        })
    }

    #[test]
    fn far_positions_have_higher_margin() {
        let ch = channel();
        let near = ch.position_margin(at_wordline(&ch, 0));
        let far = ch.position_margin(at_wordline(&ch, ch.map().geometry().mat_rows - 1));
        assert!(far > near, "far {far} vs near {near}");
        assert!(far <= 1.0);
        assert!(near >= ch.position_margin_floor());
    }

    #[test]
    fn margin_floor_bounds_every_position() {
        let ch = channel();
        let floor = ch.position_margin_floor();
        assert!(floor > 0.0 && floor < 1.0);
        for wl in [0, 100, 300, 511] {
            assert!(ch.position_margin(at_wordline(&ch, wl)) >= floor);
        }
    }

    #[test]
    fn raw_ber_quarters_per_attempt() {
        let ch = channel();
        let a = at_wordline(&ch, 200);
        let data = [0xAB; LINE_BYTES];
        let p0 = ch.raw_ber(1e-3, a, &data, 0);
        let p2 = ch.raw_ber(1e-3, a, &data, 2);
        assert!((p0 / p2 - 16.0).abs() < 1e-9);
    }

    #[test]
    fn stuck_probability_saturates_at_endurance() {
        let ch = channel();
        assert_eq!(ch.stuck_probability(0.1, 0, 1_000), 0.0);
        assert!((ch.stuck_probability(0.1, 500, 1_000) - 0.05).abs() < 1e-12);
        assert_eq!(ch.stuck_probability(0.1, 5_000, 1_000), 0.1);
    }

    #[test]
    fn expected_errors_scale_with_margin() {
        let ch = channel();
        assert!((ch.expected_errors(1e-3, 1.0) - 0.512).abs() < 1e-9);
        assert!(ch.expected_errors(1e-3, 0.5) < ch.expected_errors(1e-3, 1.0));
    }
}
