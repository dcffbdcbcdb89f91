//! Crash-consistency scenario (paper Section 7): after a power failure the
//! cached LRS-metadata is lost; lazy correction conservatively saturates
//! the metadata region so later writes use safe timings, and estimates
//! re-tighten as lines are rewritten.

use ladder::core::{LadderConfig, LadderEngine, LadderVariant};
use ladder::reram::{AddressMap, Geometry, LineAddr, LineStore};
use ladder::xbar::{TableConfig, TimingTable};

fn setup(variant: LadderVariant) -> (LadderEngine, LineStore, TimingTable) {
    let map = AddressMap::new(Geometry::default());
    let engine = LadderEngine::new(LadderConfig::for_variant(variant), map);
    #[expect(
        clippy::expect_used,
        reason = "the default table config generates infallibly"
    )]
    let table = TimingTable::generate(&TableConfig::ladder_default()).expect("table");
    (engine, LineStore::new(), table)
}

#[test]
fn recovery_is_conservative_then_converges() {
    let (mut engine, mut store, table) = setup(LadderVariant::Est);
    let base = engine.layout().first_data_page().max(100_000);
    // Steady state: a page of sparse data → fast writes.
    for slot in 0..64u64 {
        let addr = LineAddr::new(base * 64 + slot);
        engine.prepare_write(addr);
        engine.service_write(addr, [0b0000_0001; 64], &mut store);
    }
    let addr = LineAddr::new(base * 64);
    let cw_before = engine.peek_cw(addr, &store);
    assert!(
        cw_before <= 128,
        "sparse page should estimate low ({cw_before})"
    );

    // Crash: cache contents lost; metadata region conservatively saturated.
    engine.lazy_crash_correction(&mut store);
    let cw_crash = engine.peek_cw(addr, &store);
    assert_eq!(cw_crash, 512, "post-crash estimates must be worst-case");
    let (wl, col) = (0usize, 7usize);
    assert_eq!(
        table.lookup_ps(wl, col, cw_crash as usize),
        table.lookup_ps(wl, col, usize::MAX),
        "post-crash writes use worst-case-content latency"
    );

    // Rewriting the page's lines restores tight estimates.
    for slot in 0..64u64 {
        let a = LineAddr::new(base * 64 + slot);
        engine.prepare_write(a);
        engine.service_write(a, [0b0000_0001; 64], &mut store);
    }
    let cw_after = engine.peek_cw(addr, &store);
    assert!(
        cw_after <= cw_before,
        "estimates must converge back ({cw_after} vs {cw_before})"
    );
}

#[test]
fn recovery_never_underestimates_any_touched_page() {
    let (mut engine, mut store, _table) = setup(LadderVariant::Hybrid);
    let base = engine.layout().first_data_page().max(100_000);
    // Mixed-density pages.
    for page in 0..8u64 {
        for slot in 0..64u64 {
            let addr = LineAddr::new((base + page) * 64 + slot);
            let fill = if page % 2 == 0 { 0x0F } else { 0xFF };
            engine.prepare_write(addr);
            engine.service_write(addr, [fill; 64], &mut store);
        }
    }
    engine.lazy_crash_correction(&mut store);
    for page in 0..8u64 {
        let addr = LineAddr::new((base + page) * 64);
        let est = engine.peek_cw(addr, &store);
        assert_eq!(est, 512, "page {page}: recovery must saturate estimates");
    }
}

#[test]
fn basic_variant_recovers_conservatively_too() {
    let (mut engine, mut store, _table) = setup(LadderVariant::Basic);
    let base = engine.layout().first_data_page().max(100_000);
    let addr = LineAddr::new(base * 64);
    engine.prepare_write(addr);
    engine.service_write(addr, [0x01; 64], &mut store);
    engine.lazy_crash_correction(&mut store);
    assert_eq!(engine.peek_cw(addr, &store), 512);
    // Post-crash writes keep working (counters clamp instead of wrapping).
    engine.prepare_write(addr);
    let out = engine.service_write(addr, [0x00; 64], &mut store);
    assert!(out.cw_lrs == 512, "latency input right after crash is safe");
}
