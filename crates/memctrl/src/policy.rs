//! Write-latency policies: one implementation per scheme under comparison.
//!
//! A policy owns the scheme-specific state (tables, profilers, the LADDER
//! engine) and answers two questions for the controller: *what extra memory
//! traffic does this write need before dispatch?* ([`WritePolicy::prepare`])
//! and *how long must its RESET pulse be?* ([`WritePolicy::service`]).

use ladder_baselines::{BitlineProfiler, SplitReset};
use ladder_core::{
    apply_fnw, DependencyRead, ExactCwCounts, FnwOutcome, FnwPolicy, LadderConfig, LadderEngine,
    LadderVariant,
};
use ladder_reram::{AddressMap, LineAddr, LineData, LineStore, Picos};
use ladder_xbar::{ContentAxis, TableConfig, TimingTable};
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only, never iterated"
)]
use std::collections::HashMap;

/// Extra work a write needs when it enters the write queue.
#[derive(Debug, Clone, Default)]
pub struct PrepResult {
    /// Dependency reads to issue (the write is unready until they return).
    pub reads: Vec<DependencyRead>,
    /// Dirty metadata lines to write back to memory.
    pub writebacks: Vec<LineAddr>,
    /// The request must park in the spill buffer and re-prepare later.
    pub spilled: bool,
}

/// Latency decision and switching activity of one serviced write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceResult {
    /// Write-recovery time for this write.
    pub t_wr: Picos,
    /// Cells switched 0→1.
    pub bits_set: u32,
    /// Cells switched 1→0.
    pub bits_reset: u32,
    /// The content counter the scheme charged the write with (`C^w_lrs`
    /// for LADDER/oracle, `C_b` for BLP), when it tracks one.
    pub cw_lrs: Option<u16>,
}

/// Reference pulse widths for one write location, for trace-time
/// attribution: what an oblivious controller would charge (`worst`) and
/// what location awareness alone would charge (`location`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PulseBounds {
    /// Device worst-case pulse width.
    pub worst: Picos,
    /// This ⟨WL, BL⟩ under worst-case content.
    pub location: Picos,
}

/// Running sums for the estimation-accuracy experiment (paper Fig. 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CwTrace {
    /// Σ (estimated − exact) `C^w_lrs` over serviced writes.
    pub diff_sum: i64,
    /// Serviced writes sampled.
    pub samples: u64,
}

impl CwTrace {
    /// Mean estimated-minus-exact counter difference.
    pub fn mean_diff(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.diff_sum as f64 / self.samples as f64
        }
    }
}

/// A write-latency scheme, as seen by the memory controller.
pub trait WritePolicy: std::fmt::Debug + Send {
    /// Scheme name for reports (e.g. `"LADDER-Hybrid"`).
    fn name(&self) -> &'static str;

    /// Called when a data write enters the write queue. The default needs
    /// no extra traffic.
    fn prepare(&mut self, addr: LineAddr, store: &LineStore) -> PrepResult {
        let _ = (addr, store);
        PrepResult::default()
    }

    /// Called when a data write is dispatched: transforms and stores the
    /// data, updates scheme state, and returns the required `tWR`.
    fn service(&mut self, addr: LineAddr, data: LineData, store: &mut LineStore) -> ServiceResult;

    /// `tWR` for a metadata write-back (location-dependent only; metadata
    /// blocks have no counters of their own).
    fn metadata_write_latency(&self, addr: LineAddr) -> Picos {
        let _ = addr;
        Picos::ZERO
    }

    /// Cell-switching counts of a metadata write-back at `addr`, for
    /// energy/endurance accounting. Schemes without metadata return zero.
    fn metadata_writeback_bits(&mut self, addr: LineAddr, store: &LineStore) -> (u32, u32) {
        let _ = (addr, store);
        (0, 0)
    }

    /// Dirty metadata lines to write back at end of simulation.
    fn flush(&mut self) -> Vec<LineAddr> {
        Vec::new()
    }

    /// Estimation-accuracy trace, when the scheme tracks one.
    fn cw_trace(&self) -> Option<CwTrace> {
        None
    }

    /// Metadata-cache hit ratio, when the scheme has a metadata cache.
    fn cache_hit_ratio(&self) -> Option<f64> {
        None
    }

    /// Cumulative metadata-cache `(hits, misses)` counters, when the
    /// scheme has a metadata cache. The controller traces cache activity
    /// as before/after deltas of these, so trace totals reconcile exactly
    /// with the cache's own statistics.
    fn cache_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// Reference pulse widths for attribution at `addr`, when the scheme
    /// distinguishes them. `None` means the scheme has no
    /// location/content decomposition (its chosen pulse is its own
    /// bound).
    fn pulse_bounds(&self, addr: LineAddr) -> Option<PulseBounds> {
        let _ = addr;
        None
    }

    /// `(flips cancelled, flip opportunities)` under the counting-safe FNW
    /// variant, when the scheme tracks them.
    fn fnw_stats(&self) -> Option<(u64, u64)> {
        None
    }

    /// Simulates a power failure: volatile scheme state is lost and any
    /// recovery procedure (e.g. LADDER's lazy metadata correction, paper
    /// Section 7) runs against the persistent image. Default: stateless
    /// schemes survive crashes untouched.
    fn crash_recover(&mut self, store: &mut LineStore) {
        let _ = store;
    }
}

/// Attribution bounds of a location-aware scheme: the table's worst entry
/// vs. this write location under worst-case content.
fn location_bounds(table: &TimingTable, map: &AddressMap, addr: LineAddr) -> PulseBounds {
    let (wl, col) = map.write_location(addr);
    PulseBounds {
        worst: Picos::from_ps(table.worst_ps()),
        location: Picos::from_ps(table.lookup_ps(wl, col, usize::MAX)),
    }
}

/// Applies FNW against the stored image and persists the result.
fn store_with_fnw(
    addr: LineAddr,
    data: &LineData,
    store: &mut LineStore,
    policy: FnwPolicy,
) -> FnwOutcome {
    let old = store.read(addr);
    let out = apply_fnw(data, &old, policy);
    store.write(addr, out.stored);
    out
}

/// The pessimistic baseline: every write uses the device's worst-case
/// latency, with classical FNW.
#[derive(Debug)]
pub struct FixedWorstPolicy {
    t_worst: Picos,
}

impl FixedWorstPolicy {
    /// Builds the baseline from the shared timing table's worst entry.
    pub fn new(table: &TimingTable) -> Self {
        Self {
            t_worst: Picos::from_ps(table.worst_ps()),
        }
    }
}

impl WritePolicy for FixedWorstPolicy {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn service(&mut self, addr: LineAddr, data: LineData, store: &mut LineStore) -> ServiceResult {
        let out = store_with_fnw(addr, &data, store, FnwPolicy::Classic);
        ServiceResult {
            t_wr: self.t_worst,
            bits_set: out.bits_set,
            bits_reset: out.bits_reset,
            cw_lrs: None,
        }
    }

    fn pulse_bounds(&self, _addr: LineAddr) -> Option<PulseBounds> {
        // Oblivious on both axes: charged == location bound == worst.
        Some(PulseBounds {
            worst: self.t_worst,
            location: self.t_worst,
        })
    }
}

/// Location-aware writes assuming worst-case content (the middle bar of the
/// paper's Fig. 2 motivation study).
#[derive(Debug)]
pub struct LocationAwarePolicy {
    table: TimingTable,
    map: AddressMap,
}

impl LocationAwarePolicy {
    /// Builds the policy over the shared LADDER timing table.
    pub fn new(table: TimingTable, map: AddressMap) -> Self {
        Self { table, map }
    }
}

impl WritePolicy for LocationAwarePolicy {
    fn name(&self) -> &'static str {
        "location-aware"
    }

    fn service(&mut self, addr: LineAddr, data: LineData, store: &mut LineStore) -> ServiceResult {
        let out = store_with_fnw(addr, &data, store, FnwPolicy::Classic);
        let (wl, col) = self.map.write_location(addr);
        ServiceResult {
            t_wr: Picos::from_ps(self.table.lookup_ps(wl, col, usize::MAX)),
            bits_set: out.bits_set,
            bits_reset: out.bits_reset,
            cw_lrs: None,
        }
    }

    fn pulse_bounds(&self, addr: LineAddr) -> Option<PulseBounds> {
        Some(location_bounds(&self.table, &self.map, addr))
    }
}

/// The Oracle: exact `C^w_lrs` known for free (no metadata, no traffic) —
/// the upper bound for any data/location-aware scheme.
///
/// The exact counters move by each write's old → new delta
/// ([`ExactCwCounts`]); while the store holds stuck-at faults, which can
/// change what any line reads, every write recounts its wordline group.
#[derive(Debug)]
pub struct OraclePolicy {
    table: TimingTable,
    map: AddressMap,
    exact: ExactCwCounts,
}

impl OraclePolicy {
    /// Builds the oracle over the shared LADDER timing table.
    pub fn new(table: TimingTable, map: AddressMap) -> Self {
        Self {
            table,
            map,
            exact: ExactCwCounts::new(),
        }
    }
}

impl WritePolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn service(&mut self, addr: LineAddr, data: LineData, store: &mut LineStore) -> ServiceResult {
        let old = store.read(addr);
        let out = apply_fnw(&data, &old, FnwPolicy::Classic);
        store.write(addr, out.stored);
        let wlg = self.map.wlg_of(addr);
        let faulted = store.faulted_lines() > 0;
        let map = &self.map;
        let cw = self.exact.after_write(wlg, &old, &out.stored, faulted, || {
            map.lines_of_wlg(wlg).map(|l| store.read(l)).collect()
        });
        let (wl, col) = self.map.write_location(addr);
        ServiceResult {
            t_wr: Picos::from_ps(self.table.lookup_ps(wl, col, cw as usize)),
            bits_set: out.bits_set,
            bits_reset: out.bits_reset,
            cw_lrs: Some(cw),
        }
    }

    fn pulse_bounds(&self, addr: LineAddr) -> Option<PulseBounds> {
        Some(location_bounds(&self.table, &self.map, addr))
    }
}

/// BLP: exact bitline content from in-memory profiling circuitry,
/// worst-case wordline assumption.
#[derive(Debug)]
pub struct BlpPolicy {
    table: TimingTable,
    map: AddressMap,
    profiler: BitlineProfiler,
}

impl BlpPolicy {
    /// Builds BLP; `table` must use [`ContentAxis::Bitline`].
    ///
    /// # Panics
    ///
    /// Panics if the table's content axis is not the bitline axis.
    pub fn new(table: TimingTable, map: AddressMap) -> Self {
        assert_eq!(
            table.content_axis(),
            ContentAxis::Bitline,
            "BLP needs a bitline-content timing table"
        );
        Self {
            table,
            map,
            profiler: BitlineProfiler::new(),
        }
    }
}

impl WritePolicy for BlpPolicy {
    fn name(&self) -> &'static str {
        "BLP"
    }

    fn service(&mut self, addr: LineAddr, data: LineData, store: &mut LineStore) -> ServiceResult {
        let cb = self.profiler.worst_selected_bitline(&self.map, addr);
        let old = store.read(addr);
        let out = apply_fnw(&data, &old, FnwPolicy::Classic);
        store.write(addr, out.stored);
        self.profiler
            .record_write(&self.map, addr, &old, &out.stored);
        let (wl, col) = self.map.write_location(addr);
        ServiceResult {
            t_wr: Picos::from_ps(self.table.lookup_ps(wl, col, cb as usize)),
            bits_set: out.bits_set,
            bits_reset: out.bits_reset,
            cw_lrs: Some(cb),
        }
    }

    fn pulse_bounds(&self, addr: LineAddr) -> Option<PulseBounds> {
        Some(location_bounds(&self.table, &self.map, addr))
    }
}

/// Split-reset: one or two fixed-latency half-RESET stages, gated by FPC
/// compressibility.
#[derive(Debug)]
pub struct SplitResetPolicy {
    split: SplitReset,
}

impl SplitResetPolicy {
    /// Builds the policy from the scheme state.
    pub fn new(split: SplitReset) -> Self {
        Self { split }
    }
}

impl WritePolicy for SplitResetPolicy {
    fn name(&self) -> &'static str {
        "Split-reset"
    }

    fn service(&mut self, addr: LineAddr, data: LineData, store: &mut LineStore) -> ServiceResult {
        // Compressibility is judged on the logical data, before FNW.
        let t_wr = self.split.record_write(&data);
        let out = store_with_fnw(addr, &data, store, FnwPolicy::Classic);
        ServiceResult {
            t_wr,
            bits_set: out.bits_set,
            bits_reset: out.bits_reset,
            cw_lrs: None,
        }
    }
}

/// LADDER (any variant): the engine plus the wordline-content timing table.
#[derive(Debug)]
pub struct LadderPolicy {
    engine: LadderEngine,
    table: TimingTable,
    map: AddressMap,
    trace: CwTrace,
    /// Last-persisted metadata images, for write-back switching statistics.
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only, never iterated"
    )]
    persisted_meta: HashMap<u64, LineData>,
}

impl LadderPolicy {
    /// Builds a LADDER policy; `table` must use the wordline content axis.
    ///
    /// # Panics
    ///
    /// Panics if the table's content axis is not the wordline axis.
    pub fn new(config: LadderConfig, table: TimingTable, map: AddressMap) -> Self {
        assert_eq!(
            table.content_axis(),
            ContentAxis::Wordline,
            "LADDER needs a wordline-content timing table"
        );
        let engine = LadderEngine::new(config, map.clone());
        Self {
            engine,
            table,
            map,
            trace: CwTrace::default(),
            persisted_meta: Default::default(),
        }
    }

    /// Convenience constructor with the variant's default configuration.
    pub fn for_variant(variant: LadderVariant, table: TimingTable, map: AddressMap) -> Self {
        Self::new(LadderConfig::for_variant(variant), table, map)
    }

    /// The underlying engine (stats, layout).
    pub fn engine(&self) -> &LadderEngine {
        &self.engine
    }
}

impl WritePolicy for LadderPolicy {
    fn name(&self) -> &'static str {
        match self.engine.config().variant {
            LadderVariant::Basic => "LADDER-Basic",
            LadderVariant::Est => "LADDER-Est",
            LadderVariant::Hybrid => "LADDER-Hybrid",
        }
    }

    fn prepare(&mut self, addr: LineAddr, store: &LineStore) -> PrepResult {
        let _ = store;
        let out = self.engine.prepare_write(addr);
        PrepResult {
            reads: out.reads,
            writebacks: out.writebacks,
            spilled: out.spilled,
        }
    }

    fn service(&mut self, addr: LineAddr, data: LineData, store: &mut LineStore) -> ServiceResult {
        let out = self.engine.service_write(addr, data, store);
        if let Some(exact) = out.cw_exact {
            self.trace.diff_sum += out.cw_lrs as i64 - exact as i64;
            self.trace.samples += 1;
        }
        ServiceResult {
            t_wr: Picos::from_ps(self.table.lookup_ps(
                out.wordline,
                out.worst_col,
                out.cw_lrs as usize,
            )),
            bits_set: out.bits_set,
            bits_reset: out.bits_reset,
            cw_lrs: Some(out.cw_lrs),
        }
    }

    fn metadata_write_latency(&self, addr: LineAddr) -> Picos {
        let (wl, col) = self.map.write_location(addr);
        Picos::from_ps(self.table.lookup_ps(wl, col, usize::MAX))
    }

    fn flush(&mut self) -> Vec<LineAddr> {
        self.engine.flush_metadata()
    }

    fn cw_trace(&self) -> Option<CwTrace> {
        if self.trace.samples > 0 {
            Some(self.trace)
        } else {
            None
        }
    }

    fn cache_hit_ratio(&self) -> Option<f64> {
        Some(self.engine.cache().stats().hit_ratio())
    }

    fn cache_counters(&self) -> Option<(u64, u64)> {
        let s = self.engine.cache().stats();
        Some((s.hits, s.misses))
    }

    fn pulse_bounds(&self, addr: LineAddr) -> Option<PulseBounds> {
        Some(location_bounds(&self.table, &self.map, addr))
    }

    fn fnw_stats(&self) -> Option<(u64, u64)> {
        let s = self.engine.stats();
        Some((s.flips_cancelled, s.flip_opportunities))
    }

    fn crash_recover(&mut self, store: &mut LineStore) {
        self.engine.lazy_crash_correction(store);
    }

    fn metadata_writeback_bits(&mut self, addr: LineAddr, store: &LineStore) -> (u32, u32) {
        let new = store.read(addr);
        let old = self
            .persisted_meta
            .insert(addr.raw(), new)
            .unwrap_or([0; 64]);
        ladder_reram::bits::delta_ones(&new, &old)
    }
}

/// The two timing tables every scheme comparison shares: the wordline
/// content axis (LADDER and the location-aware baselines) and the bitline
/// content axis (BLP).
#[derive(Debug, Clone)]
pub struct Tables {
    /// Wordline-content-axis table (LADDER, location-aware, oracle,
    /// baseline worst case).
    pub ladder: TimingTable,
    /// Bitline-content-axis table (BLP).
    pub blp: TimingTable,
}

impl Tables {
    /// Both tables with their latency dynamic range shrunk by `factor`
    /// (the Section 7 process-variability study).
    pub fn shrink_dynamic_range(&self, factor: f64) -> Tables {
        Tables {
            ladder: self.ladder.shrink_dynamic_range(factor),
            blp: self.blp.shrink_dynamic_range(factor),
        }
    }
}

/// Builds the standard timing tables shared by every scheme in one
/// comparison.
///
/// # Panics
///
/// Panics if table generation fails. With the analytic source that happens
/// only when `cfg.law` puts an entry above `u32::MAX` ps
/// ([`ladder_xbar::MnaError::LatencyOverflow`]).
pub fn standard_tables(cfg: &TableConfig) -> Tables {
    #[expect(
        clippy::expect_used,
        reason = "# Panics contract: only an overflowing law fails"
    )]
    let ladder = TimingTable::generate(cfg).expect("wordline table");
    let mut blp_cfg = cfg.clone();
    blp_cfg.content_axis = ContentAxis::Bitline;
    #[expect(
        clippy::expect_used,
        reason = "# Panics contract: only an overflowing law fails"
    )]
    let blp = TimingTable::generate(&blp_cfg).expect("bitline table");
    Tables { ladder, blp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ladder_core::exact_cw_lrs;
    use ladder_reram::Geometry;
    use ladder_xbar::TableConfig;
    use proptest::prelude::*;

    /// The standard tables, built once per test binary: every proptest
    /// case calls this.
    fn setup() -> (TimingTable, TimingTable, AddressMap) {
        static TABLES: std::sync::OnceLock<Tables> = std::sync::OnceLock::new();
        let t = TABLES.get_or_init(|| standard_tables(&TableConfig::ladder_default()));
        let map = AddressMap::new(Geometry::default());
        (t.ladder.clone(), t.blp.clone(), map)
    }

    fn sparse_line() -> LineData {
        let mut l = [0u8; 64];
        l[0] = 1;
        l
    }

    #[test]
    fn baseline_always_uses_worst_case() {
        let (table, _, _) = setup();
        let worst = Picos::from_ps(table.worst_ps());
        let mut p = FixedWorstPolicy::new(&table);
        let mut store = LineStore::new();
        for addr in [0u64, 999, 123456] {
            let r = p.service(LineAddr::new(addr), sparse_line(), &mut store);
            assert_eq!(r.t_wr, worst);
        }
    }

    #[test]
    fn scheme_latency_ordering_holds() {
        // For any given write, oracle ≤ LADDER ≤ location-aware ≤ baseline.
        let (table, _, map) = setup();
        let mut store_a = LineStore::new();
        let mut store_b = LineStore::new();
        let mut store_c = LineStore::new();
        let mut baseline = FixedWorstPolicy::new(&table);
        let mut loc = LocationAwarePolicy::new(table.clone(), map.clone());
        let mut oracle = OraclePolicy::new(table.clone(), map.clone());
        let mut ladder = LadderPolicy::for_variant(LadderVariant::Est, table.clone(), map.clone());
        let mut store_d = LineStore::new();
        let first_data = ladder.engine().layout().first_data_page() * 64;
        for i in 0..200u64 {
            let addr = LineAddr::new(first_data + i * 37 % 10_000);
            let data = sparse_line();
            let b = baseline.service(addr, data, &mut store_a).t_wr;
            let l = loc.service(addr, data, &mut store_b).t_wr;
            let o = oracle.service(addr, data, &mut store_c).t_wr;
            ladder.prepare(addr, &store_d);
            let d = ladder.service(addr, data, &mut store_d).t_wr;
            assert!(o <= d, "oracle {o} must not exceed LADDER {d}");
            assert!(d <= l, "LADDER {d} must not exceed location-aware {l}");
            assert!(l <= b, "location-aware {l} must not exceed baseline {b}");
        }
    }

    #[test]
    fn blp_latency_tracks_bitline_content() {
        let (_, blp_table, map) = setup();
        let mut p = BlpPolicy::new(blp_table, map.clone());
        let mut store = LineStore::new();
        // Probe a far location (high wordline, last slot → far columns):
        // near the drivers the latency is content-insensitive by physics.
        let g = map.geometry().clone();
        let pages_per_wl = g.total_banks() as u64;
        let addr = LineAddr::new(400 * pages_per_wl * 64 + 63);
        let empty = p.service(addr, sparse_line(), &mut store).t_wr;
        // Fill many other wordlines of the same array/slot with data dense
        // enough to raise bitline counts but balanced enough (32 ones per
        // 64-bit word) that classical FNW stores it verbatim.
        for wl in 0..400u64 {
            let a = LineAddr::new(wl * pages_per_wl * 64 + 63);
            p.service(a, [0x0F; 64], &mut store);
        }
        let dense = p.service(addr, sparse_line(), &mut store).t_wr;
        assert!(dense > empty, "denser bitlines must slow RESET");
    }

    #[test]
    fn split_reset_two_grades_only() {
        let (table, _, _) = setup();
        let params = ladder_xbar::CrossbarParams::default();
        let law = table.law();
        let mut p = SplitResetPolicy::new(SplitReset::new(&params, law));
        let mut store = LineStore::new();
        let fast = p.service(LineAddr::new(0), [0u8; 64], &mut store).t_wr;
        let mut dense = [0u8; 64];
        let mut x = 5u64;
        for b in &mut dense {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (x >> 30) as u8;
        }
        let slow = p.service(LineAddr::new(1), dense, &mut store).t_wr;
        assert_eq!(slow, fast * 2);
    }

    #[test]
    fn ladder_metadata_write_latency_is_location_only() {
        let (table, _, map) = setup();
        let p = LadderPolicy::for_variant(LadderVariant::Est, table.clone(), map);
        // Metadata lives in the lowest pages → lowest wordlines → fast-ish,
        // but always assumes worst-case content for its band.
        let lat = p.metadata_write_latency(LineAddr::new(0));
        assert_eq!(lat, Picos::from_ps(table.lookup_ps(0, 7, usize::MAX)));
    }

    #[test]
    fn basic_variant_reports_exact_trace() {
        let (table, _, map) = setup();
        let mut cfg = LadderConfig::for_variant(LadderVariant::Basic);
        cfg.track_exact = true;
        let mut p = LadderPolicy::new(cfg, table, map);
        let mut store = LineStore::new();
        let first_data = p.engine().layout().first_data_page() * 64;
        for i in 0..20 {
            let addr = LineAddr::new(first_data + i);
            p.prepare(addr, &store);
            p.service(addr, [0x0F; 64], &mut store);
        }
        let trace = p.cw_trace().expect("tracking enabled");
        assert_eq!(trace.samples, 20);
        // Basic uses exact counters: estimate == exact at every step is not
        // guaranteed mid-page (the counter lags by the in-flight line), but
        // the mean difference must be tiny.
        assert!(trace.mean_diff().abs() <= 8.0);
    }

    fn arb_line() -> impl Strategy<Value = LineData> {
        let line = || {
            prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
                let mut a = [0u8; 64];
                a.copy_from_slice(&v);
                a
            })
        };
        (line(), line(), any::<bool>()).prop_map(|(a, b, sparse)| {
            if sparse {
                std::array::from_fn(|i| a[i] & b[i])
            } else {
                a
            }
        })
    }

    /// The Oracle's incremental `C^w_lrs` equals the full recount of the
    /// written group it replaced, on random writes over three groups; with
    /// `faults`, stuck-at cells appear mid-stream (they change what lines
    /// read behind the policy's back).
    fn check_oracle_counts(faults: bool, steps: Vec<(u64, u64, LineData, u32)>) {
        let (table, _, map) = setup();
        let mut p = OraclePolicy::new(table, map.clone());
        let mut store = LineStore::new();
        for (page, slot, data, kind) in steps {
            let addr = LineAddr::new(page * 64 + slot);
            if faults && kind == 0 {
                store.inject_stuck(addr, [0; 64], data);
                continue;
            }
            let r = p.service(addr, data, &mut store);
            let lines: Vec<LineData> = map
                .lines_of_wlg(map.wlg_of(addr))
                .map(|l| store.read(l))
                .collect();
            assert_eq!(r.cw_lrs, Some(exact_cw_lrs(lines.iter())));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn oracle_counts_match_a_recount(
            steps in prop::collection::vec((0u64..3, 0u64..64, arb_line(), 0u32..8), 1..64),
        ) {
            check_oracle_counts(false, steps);
        }

        #[test]
        fn oracle_counts_match_a_recount_under_stuck_at_faults(
            steps in prop::collection::vec((0u64..3, 0u64..64, arb_line(), 0u32..8), 1..64),
        ) {
            check_oracle_counts(true, steps);
        }
    }
}
