//! The seeded, deterministic per-cell fault model.
//!
//! Two fault channels, per the papers the repo cites:
//!
//! * **Transient write failures** (variability channel models): each
//!   initial RESET pulse fails to program a cell with probability
//!   `transient_ber × margin`, where `margin` is the line's normalized
//!   IR-drop latency requirement from the LADDER timing table —
//!   `lookup(wl, worst column, line LRS count) / worst`. Far wordlines
//!   and LRS-heavy content, which need the longest pulses, fail the most;
//!   escalated retry pulses quarter the probability per attempt.
//! * **Permanent stuck-at faults** (WoLFRaM): each write can mint a new
//!   SA0/SA1 cell with probability `stuck_rate × consumed endurance`,
//!   where consumed endurance is the line's write count (tracked in a
//!   [`WearMap`]) over the endurance budget. Stuck cells are installed
//!   into the [`LineStore`] fault masks, so subsequent *reads* of the
//!   line really return corrupted data, and conflicting writes fail their
//!   verify on every attempt.
//!
//! Every random decision is a pure hash of `(seed, line, per-line write
//! index, attempt)`: no global RNG state, no dependence on scheduling or
//! thread count — the property the `--jobs`-determinism tests pin down.

use crate::FaultConfig;
use ladder_coding::{CodeScheme, CodingKind, CodingStats, FlatEcc, LocationChannel};
use ladder_memctrl::{FaultInjector, Resolution};
use ladder_reram::{AddressMap, LineAddr, LineData, LineStore, Picos, LINE_BYTES};
use ladder_trace::Mergeable;
use ladder_wear::{RemapBackend, SharedRetirePool, WearMap};
use ladder_xbar::TimingTable;
use std::collections::BTreeMap;
use std::sync::PoisonError;

const LINE_BITS: u32 = (LINE_BYTES * 8) as u32;

/// SplitMix64 finalizer: a high-quality stateless mixing hash.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Uniform draw in `[0, 1)` from a hash value.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Counters of everything the fault model observed and decided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Data writes the model sampled (initial pulses, not retries).
    pub data_writes: u64,
    /// Transient bit failures across all pulses (most are healed by
    /// retries).
    pub transient_bit_errors: u64,
    /// Permanent stuck-at cells minted.
    pub stuck_cells: u64,
    /// Residual failed bits absorbed by the per-line correction budget.
    pub corrected_bits: u64,
    /// Writes whose residue exceeded the correction budget (data loss).
    pub uncorrectable_lines: u64,
    /// Failed bits on uncorrectable lines — the raw data-loss magnitude.
    pub data_loss_bits: u64,
    /// Pages retired into spare frames.
    pub retired_pages: u64,
    /// Page retirements that found no spare frame left.
    pub retire_exhausted: u64,
}

impl FaultStats {
    /// One-line human-readable report.
    pub fn summary(&self) -> String {
        format!(
            "faults: {} transient bit errors, {} stuck cells, \
             {} corrected bits, {} uncorrectable lines ({} bits lost), \
             {} pages retired",
            self.transient_bit_errors,
            self.stuck_cells,
            self.corrected_bits,
            self.uncorrectable_lines,
            self.data_loss_bits,
            self.retired_pages
        )
    }

    /// Accumulates another model's counters into this one (the
    /// [`Mergeable`] fold).
    pub fn merge(&mut self, other: &FaultStats) {
        self.merge_from(other);
    }
}

impl Mergeable for FaultStats {
    fn merge_from(&mut self, other: &Self) {
        let FaultStats {
            data_writes,
            transient_bit_errors,
            stuck_cells,
            corrected_bits,
            uncorrectable_lines,
            data_loss_bits,
            retired_pages,
            retire_exhausted,
        } = other;
        self.data_writes.merge_from(data_writes);
        self.transient_bit_errors.merge_from(transient_bit_errors);
        self.stuck_cells.merge_from(stuck_cells);
        self.corrected_bits.merge_from(corrected_bits);
        self.uncorrectable_lines.merge_from(uncorrectable_lines);
        self.data_loss_bits.merge_from(data_loss_bits);
        self.retired_pages.merge_from(retired_pages);
        self.retire_exhausted.merge_from(retire_exhausted);
    }
}

/// The per-cell fault model (see the module docs for the two channels).
///
/// The raw error pressure comes from a [`LocationChannel`]; a
/// [`CodeScheme`] decides what the per-line correction budget (and retry
/// escalation) looks like at each position; an optional [`RemapBackend`]
/// moves faulty pages out of service. The defaults — flat ECC at
/// `ecc_correctable_bits` and no backend — reproduce the pre-coding-layer
/// behaviour bit-for-bit.
#[derive(Debug)]
pub struct CellFaultModel {
    cfg: FaultConfig,
    /// Location-dependent raw error channel (the IR-drop margin proxy).
    channel: LocationChannel,
    /// The correction scheme facing the channel.
    scheme: Box<dyn CodeScheme>,
    /// Per-line endurance consumed, fed by the pulses this model observes.
    wear: WearMap,
    /// Stuck cells accumulated per page, for the retirement threshold.
    page_stuck: BTreeMap<u64, u32>,
    remap: Option<RemapBackend>,
    stats: FaultStats,
    coding: CodingStats,
}

impl CellFaultModel {
    /// Creates a model over the physical timing table (the IR-drop margin
    /// proxy) and address map. The table should be the full
    /// location+content LADDER table regardless of the scheme under test:
    /// it describes the *device*, not the controller's policy, so every
    /// scheme faces identical raw fault pressure. The correction layer
    /// starts as flat ECC at `cfg.ecc_correctable_bits`; see
    /// [`Self::with_coding`].
    pub fn new(cfg: FaultConfig, table: TimingTable, map: AddressMap) -> Self {
        let channel = LocationChannel::new(table, map);
        let scheme: Box<dyn CodeScheme> = Box::new(FlatEcc::new(cfg.ecc_correctable_bits));
        let coding = CodingStats {
            wa_millionths: (scheme.write_amplification() * 1e6).round() as u64,
            ..CodingStats::default()
        };
        Self {
            cfg,
            channel,
            scheme,
            wear: WearMap::new(),
            page_stuck: BTreeMap::new(),
            remap: None,
            stats: FaultStats::default(),
            coding,
        }
    }

    /// Replaces the correction layer with `kind`, derived from the model's
    /// channel at the configured transient BER. [`CodingKind::Flat`]
    /// rebuilds the byte-compatible default.
    pub fn with_coding(mut self, kind: CodingKind) -> Self {
        self.scheme = kind.build(
            self.channel.clone(),
            self.cfg.ecc_correctable_bits,
            self.cfg.transient_ber,
        );
        self.coding.wa_millionths = (self.scheme.write_amplification() * 1e6).round() as u64;
        self
    }

    /// Wires in the remap backend that moves uncorrectable or
    /// stuck-saturated pages out of service.
    pub fn with_remap_backend(mut self, backend: RemapBackend) -> Self {
        self.remap = Some(backend);
        self
    }

    /// Wires in a retire pool — shorthand for
    /// [`Self::with_remap_backend`] with [`RemapBackend::Retire`], kept
    /// for the pre-backend callers.
    pub fn with_retire_pool(self, pool: SharedRetirePool) -> Self {
        self.with_remap_backend(RemapBackend::Retire(pool))
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Coding-layer counters so far.
    pub fn coding_stats(&self) -> CodingStats {
        self.coding
    }

    /// The installed scheme's name.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme.name()
    }

    /// The model's endurance-consumption map.
    pub fn wear(&self) -> &WearMap {
        &self.wear
    }

    /// Deterministic draw for one `(line, write, attempt, salt)` decision.
    fn draw(&self, line: u64, write_idx: u64, attempt: u32, salt: u64) -> u64 {
        mix(self.cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ mix(line)
            ^ mix(write_idx.wrapping_mul(0xd1b5_4a32_d192_ed03))
            ^ mix(u64::from(attempt).wrapping_add(salt << 32)))
    }

    /// IR-drop failure margin of a write at `addr` carrying `data` — the
    /// channel's normalized latency requirement, in `(0, 1]`.
    fn margin(&self, addr: LineAddr, data: &LineData) -> f64 {
        self.channel.margin(addr, data)
    }

    /// Transient failures of pulse `attempt`: a deterministic binomial
    /// approximation (expected count, plus a Bernoulli on the fraction).
    fn transient_failures(
        &mut self,
        addr: LineAddr,
        data: &LineData,
        write_idx: u64,
        attempt: u32,
    ) -> u32 {
        if self.cfg.transient_ber == 0.0 {
            return 0;
        }
        // Escalated retry pulses quarter the failure probability each.
        let p = self.cfg.transient_ber * self.margin(addr, data) / 4f64.powi(attempt as i32);
        let expected = f64::from(LINE_BITS) * p;
        let mut n = expected.floor() as u32;
        let h = self.draw(addr.raw(), write_idx, attempt, 1);
        if unit(h) < expected.fract() {
            n += 1;
        }
        n.min(LINE_BITS)
    }

    /// Stuck-at arrival on the initial pulse of a write: consumed
    /// endurance scales the per-write minting probability.
    fn maybe_mint_stuck(&mut self, addr: LineAddr, write_idx: u64, store: &mut LineStore) {
        if self.cfg.stuck_rate == 0.0 {
            return;
        }
        let consumed = (write_idx as f64 / self.cfg.endurance as f64).min(1.0);
        let p = self.cfg.stuck_rate * consumed;
        let h = self.draw(addr.raw(), write_idx, 0, 2);
        if unit(h) >= p {
            return;
        }
        let bit = (mix(h) % u64::from(LINE_BITS)) as usize;
        let mut mask = [0u8; LINE_BYTES];
        mask[bit / 8] = 1 << (bit % 8);
        // Worn-out cells mostly freeze in their low-resistance state:
        // bias 3:1 toward stuck-at-1 (LRS), as the WoLFRaM fault maps do.
        if mix(h) & 0b11 == 0 {
            store.inject_stuck(addr, [0; LINE_BYTES], mask);
        } else {
            store.inject_stuck(addr, mask, [0; LINE_BYTES]);
        }
        self.stats.stuck_cells += 1;
        let page = addr.page();
        let count = self.page_stuck.entry(page).or_insert(0);
        *count += 1;
        if *count >= self.cfg.retire_stuck_threshold {
            // Proactive retirement happens mid-program; there is no
            // resolve to attach the move to, so the pair is dropped.
            let _ = self.retire_page(page);
        }
    }

    /// Moves `page` out of service through the remap backend. Returns the
    /// `(page, frame)` pair for trace records when the move came from a
    /// non-default (PAD) backend — retire-pool moves return `None` so
    /// default-mode record streams stay byte-identical to the
    /// pre-backend era.
    fn retire_page(&mut self, page: u64) -> Option<(u64, u64)> {
        let Some(backend) = &self.remap else {
            return None;
        };
        match backend.on_fault(page) {
            Some(true) => {
                self.stats.retired_pages += 1;
                self.coding.remaps += 1;
                match backend {
                    RemapBackend::Retire(_) => None,
                    RemapBackend::Pad(_) => Some((page, backend.frame_of(page))),
                }
            }
            Some(false) => {
                self.stats.retire_exhausted += 1;
                None
            }
            None => None, // already out of service
        }
    }

    /// Bits whose stuck cells conflict with the programmed image — these
    /// fail the verify on *every* attempt.
    fn stuck_conflicts(addr: LineAddr, data: &LineData, store: &LineStore) -> u32 {
        match store.fault_mask(addr) {
            None => 0,
            Some(mask) => {
                let seen = mask.apply(data);
                ladder_reram::bits::xor_ones(&seen, data)
            }
        }
    }
}

impl FaultInjector for CellFaultModel {
    fn max_retries(&self) -> u32 {
        self.cfg.max_retries
    }

    fn retry_t_wr(&self, base: Picos, attempt: u32) -> Picos {
        let pct = 100 + u64::from(self.cfg.retry_escalation_pct) * u64::from(attempt);
        Picos::from_ps(base.as_ps() * pct / 100)
    }

    fn retry_t_wr_at(&self, addr: LineAddr, base: Picos, attempt: u32) -> Picos {
        // The scheme may escalate harder at margin-poor positions; the
        // flat scheme returns the base percentage, keeping the legacy
        // integer math (and digests) intact.
        let pct = 100
            + u64::from(
                self.scheme
                    .escalation_pct(self.cfg.retry_escalation_pct, addr),
            ) * u64::from(attempt);
        Picos::from_ps(base.as_ps() * pct / 100)
    }

    fn program(
        &mut self,
        addr: LineAddr,
        store: &mut LineStore,
        attempt: u32,
        _t_wr: Picos,
    ) -> u32 {
        let data = store.read_raw(addr);
        if attempt == 0 {
            self.stats.data_writes += 1;
            self.wear.record(addr, 1);
            let writes = self.wear.line_writes(addr);
            self.maybe_mint_stuck(addr, writes, store);
        }
        let write_idx = self.wear.line_writes(addr);
        let transient = self.transient_failures(addr, &data, write_idx, attempt);
        self.stats.transient_bit_errors += u64::from(transient);
        transient + Self::stuck_conflicts(addr, &data, store)
    }

    fn resolve(
        &mut self,
        addr: LineAddr,
        residual_bits: u32,
        _store: &mut LineStore,
    ) -> Resolution {
        let tier = self.scheme.tier(addr);
        let corrected = residual_bits <= self.scheme.correctable_bits(addr);
        self.coding.note_resolve(tier, residual_bits, corrected);
        if corrected {
            self.stats.corrected_bits += u64::from(residual_bits);
            Resolution {
                corrected: true,
                tier,
                remapped: None,
            }
        } else {
            self.stats.uncorrectable_lines += 1;
            self.stats.data_loss_bits += u64::from(residual_bits);
            let remapped = self.retire_page(addr.page());
            Resolution {
                corrected: false,
                tier,
                remapped,
            }
        }
    }
}

/// Shared handle so the simulator can read stats out of a model the
/// controller owns as its injector (the [`ladder_wear::SharedWearMap`]
/// idiom).
#[derive(Debug, Clone)]
pub struct SharedCellFaultModel(std::sync::Arc<std::sync::Mutex<CellFaultModel>>);

impl SharedCellFaultModel {
    /// Wraps a model for shared ownership.
    pub fn new(model: CellFaultModel) -> Self {
        Self(std::sync::Arc::new(std::sync::Mutex::new(model)))
    }

    /// Runs `f` over the underlying model.
    pub fn with<R>(&self, f: impl FnOnce(&CellFaultModel) -> R) -> R {
        // Poisoning means a sibling worker already panicked and the panic
        // is propagating; the model's state is still internally consistent
        // (all mutation is transactional per call), so recover the guard.
        f(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultStats {
        self.with(CellFaultModel::stats)
    }

    /// Coding-layer counters so far.
    pub fn coding_stats(&self) -> CodingStats {
        self.with(CellFaultModel::coding_stats)
    }
}

impl FaultInjector for SharedCellFaultModel {
    fn max_retries(&self) -> u32 {
        self.with(CellFaultModel::max_retries)
    }

    fn retry_t_wr(&self, base: Picos, attempt: u32) -> Picos {
        self.with(|m| m.retry_t_wr(base, attempt))
    }

    fn retry_t_wr_at(&self, addr: LineAddr, base: Picos, attempt: u32) -> Picos {
        self.with(|m| m.retry_t_wr_at(addr, base, attempt))
    }

    fn program(&mut self, addr: LineAddr, store: &mut LineStore, attempt: u32, t_wr: Picos) -> u32 {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .program(addr, store, attempt, t_wr)
    }

    fn resolve(&mut self, addr: LineAddr, residual_bits: u32, store: &mut LineStore) -> Resolution {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .resolve(addr, residual_bits, store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_reram::Geometry;
    use ladder_xbar::TableConfig;

    fn model(cfg: FaultConfig) -> CellFaultModel {
        let table = TimingTable::generate(&TableConfig::ladder_default()).expect("table");
        CellFaultModel::new(cfg, table, AddressMap::new(Geometry::default()))
    }

    #[test]
    fn inert_config_never_fails() {
        let mut m = model(FaultConfig::new(1));
        let mut store = LineStore::new();
        let a = LineAddr::new(40_000 * 64);
        store.write(a, [0xFF; LINE_BYTES]);
        for attempt in 0..4 {
            assert_eq!(
                m.program(a, &mut store, attempt, Picos::from_ps(100_000)),
                0
            );
        }
        assert_eq!(store.faulted_lines(), 0);
        assert_eq!(m.stats().transient_bit_errors, 0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let cfg = FaultConfig::with_ber(42, 1e-2);
        let run = || {
            let mut m = model(cfg);
            let mut store = LineStore::new();
            let mut failures = 0u64;
            for i in 0..400u64 {
                let a = LineAddr::new(40_000 * 64 + i % 64);
                store.write(a, [0xAB; LINE_BYTES]);
                failures += u64::from(m.program(a, &mut store, 0, Picos::from_ps(100_000)));
            }
            (failures, m.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn far_lines_fail_more_than_near_lines() {
        // Compare aggregate transient pressure on the nearest vs the
        // farthest wordline at identical content.
        let cfg = FaultConfig {
            transient_ber: 5e-3,
            ..FaultConfig::new(3)
        };
        let m = model(cfg);
        let map = AddressMap::new(Geometry::default());
        let data = [0xFF; LINE_BYTES];
        let at_wordline = |wordline: usize| {
            map.encode(&ladder_reram::Decoded {
                channel: 0,
                rank: 0,
                bank: 0,
                mat_group: 0,
                wordline,
                block_slot: 63,
            })
        };
        let near = m.margin(at_wordline(0), &data);
        let far = m.margin(at_wordline(map.geometry().mat_rows - 1), &data);
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn lrs_heavy_content_fails_more() {
        let m = model(FaultConfig {
            transient_ber: 5e-3,
            ..FaultConfig::new(3)
        });
        let a = LineAddr::new(40_000 * 64);
        assert!(m.margin(a, &[0xFF; LINE_BYTES]) > m.margin(a, &[0x00; LINE_BYTES]));
    }

    #[test]
    fn stuck_conflicts_persist_across_attempts() {
        let cfg = FaultConfig::new(5);
        let mut m = model(cfg);
        let mut store = LineStore::new();
        let a = LineAddr::new(40_000 * 64);
        store.write(a, [0x00; LINE_BYTES]);
        let mut sa1 = [0u8; LINE_BYTES];
        sa1[0] = 0b111; // three cells stuck at 1 under programmed 0s
        store.inject_stuck(a, sa1, [0; LINE_BYTES]);
        for attempt in 0..4 {
            assert_eq!(
                m.program(a, &mut store, attempt, Picos::from_ps(100_000)),
                3
            );
        }
    }

    #[test]
    fn resolve_applies_ecc_budget_and_counts_loss() {
        let mut m = model(FaultConfig::new(9));
        let mut store = LineStore::new();
        let a = LineAddr::new(40_000 * 64);
        let ok = m.resolve(a, 8, &mut store);
        assert!(ok.corrected, "within SEC-DED budget");
        assert_eq!(ok, Resolution::plain(true), "flat scheme adds no detail");
        let lost = m.resolve(a, 9, &mut store);
        assert!(!lost.corrected, "beyond budget is data loss");
        assert_eq!(lost, Resolution::plain(false));
        let s = m.stats();
        assert_eq!(s.corrected_bits, 8);
        assert_eq!(s.uncorrectable_lines, 1);
        assert_eq!(s.data_loss_bits, 9);
        assert!(s.summary().contains("1 uncorrectable"));
        let c = m.coding_stats();
        assert_eq!(c.resolves[0], 2, "flat resolves land in bucket 0");
        assert_eq!(c.total_corrected_bits(), 8);
        assert_eq!(c.total_uncorrectable(), 1);
    }

    #[test]
    fn uncorrectable_line_retires_its_page_into_a_spare() {
        let pool = SharedRetirePool::with_spares(vec![100, 101]);
        let mut m = model(FaultConfig::new(11)).with_retire_pool(pool.clone());
        let mut store = LineStore::new();
        let a = LineAddr::new(40_000 * 64 + 3);
        let r = m.resolve(a, 50, &mut store);
        assert!(!r.corrected);
        assert_eq!(r.remapped, None, "retire backend emits no remap record");
        assert_eq!(m.stats().retired_pages, 1);
        // Future accesses to the page land in the spare frame.
        assert_eq!(pool.map(a).page(), 101);
        assert_eq!(pool.map(a).block_slot(), 3);
        // Retiring the same page again is a no-op.
        assert!(!m.resolve(a, 50, &mut store).corrected);
        assert_eq!(m.stats().retired_pages, 1);
    }

    #[test]
    fn pad_backend_surfaces_the_remap_pair() {
        let pad = ladder_wear::SharedPadRemapper::new(vec![100, 101], 1_000_000);
        let mut m = model(FaultConfig::new(11)).with_remap_backend(RemapBackend::Pad(pad.clone()));
        let mut store = LineStore::new();
        let a = LineAddr::new(40_000 * 64 + 3);
        let r = m.resolve(a, 50, &mut store);
        assert!(!r.corrected);
        assert_eq!(r.remapped, Some((a.page(), 101)));
        assert_eq!(pad.map(a).page(), 101);
        assert_eq!(m.coding_stats().remaps, 1);
    }

    #[test]
    fn tiered_scheme_reports_its_tier_and_escalates_harder_near() {
        let cfg = FaultConfig {
            transient_ber: 1e-3,
            ..FaultConfig::new(11)
        };
        let mut m = model(cfg).with_coding(CodingKind::TieredBch);
        let mut store = LineStore::new();
        let near = LineAddr::new(0);
        let far = LineAddr::new(40_000 * 64);
        let r = m.resolve(far, 1, &mut store);
        assert!(r.corrected);
        assert!(r.tier.is_some(), "tiered scheme names its tier");
        // Margin-thin (near) tiers escalate retry pulses harder than the
        // generously-budgeted far tier.
        let base = Picos::from_ps(100_000);
        assert!(m.retry_t_wr_at(near, base, 1) >= m.retry_t_wr_at(far, base, 1));
        assert_eq!(m.scheme_name(), "tiered-bch");
    }

    #[test]
    fn escalated_pulses_quarter_transient_pressure() {
        let cfg = FaultConfig {
            transient_ber: 0.5, // enormous, so counts are deterministic
            ..FaultConfig::new(13)
        };
        let mut m = model(cfg);
        let mut store = LineStore::new();
        let a = LineAddr::new(40_000 * 64);
        store.write(a, [0xFF; LINE_BYTES]);
        let p0 = m.program(a, &mut store, 0, Picos::from_ps(100_000));
        let p2 = m.program(a, &mut store, 2, Picos::from_ps(100_000));
        assert!(p0 >= 8 * p2, "attempt 0: {p0}, attempt 2: {p2}");
    }

    #[test]
    fn retry_pulse_escalates_latency() {
        let m = model(FaultConfig::new(17));
        let base = Picos::from_ps(100_000);
        assert_eq!(m.retry_t_wr(base, 1).as_ps(), 150_000);
        assert_eq!(m.retry_t_wr(base, 2).as_ps(), 200_000);
    }
}
