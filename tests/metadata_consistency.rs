//! Long-haul metadata consistency: after many writes through the full
//! controller, the LRS-metadata must still bound (Est/Hybrid) or exactly
//! match (Basic) the true per-wordline LRS populations.

use ladder::core::{exact_cw_lrs, LadderConfig, LadderEngine, LadderVariant};
use ladder::cpu::{TraceOp, TraceSource};
use ladder::reram::{AddressMap, Geometry, LineData, LineStore};
use ladder::workloads::{profile_of, WorkloadGen};

fn run_writes(variant: LadderVariant, events: u64) -> (LadderEngine, LineStore, Vec<u64>) {
    let map = AddressMap::new(Geometry::default());
    let mut cfg = LadderConfig::for_variant(variant);
    // Disable the transforms so the stored image equals the logical data
    // and exact counters are directly comparable.
    cfg.fnw = ladder::core::FnwPolicy::Disabled;
    cfg.shifting = false;
    let mut engine = LadderEngine::new(cfg, map);
    let mut store = LineStore::new();
    let base = engine.layout().first_data_page().max(40_000);
    let mut gen = WorkloadGen::new(profile_of("cannl"), 99, base, 5_000, events);
    let mut touched = Vec::new();
    while let Some(ev) = gen.next_event() {
        if let TraceOp::Write { addr, data } = ev.op {
            let prep = engine.prepare_write(addr);
            assert!(!prep.spilled, "spills need the controller's retry loop");
            engine.service_write(addr, *data, &mut store);
            touched.push(addr.page());
        }
    }
    touched.sort_unstable();
    touched.dedup();
    (engine, store, touched)
}

fn exact_of_page(store: &LineStore, page: u64) -> u16 {
    let images: Vec<LineData> = (0..64)
        .map(|i| store.read(ladder::reram::LineAddr::new(page * 64 + i)))
        .collect();
    exact_cw_lrs(images.iter())
}

#[test]
fn basic_counters_stay_exact_over_thousands_of_writes() {
    let (engine, store, pages) = run_writes(LadderVariant::Basic, 20_000);
    assert!(pages.len() > 50, "workload should touch many pages");
    for &page in &pages {
        let addr = ladder::reram::LineAddr::new(page * 64);
        let counted = engine.peek_cw(addr, &store);
        let exact = exact_of_page(&store, page);
        assert_eq!(counted, exact, "page {page}: counter drift");
    }
}

#[test]
fn est_estimates_always_bound_exact_counts() {
    let (engine, store, pages) = run_writes(LadderVariant::Est, 20_000);
    for &page in &pages {
        let addr = ladder::reram::LineAddr::new(page * 64);
        let est = engine.peek_cw(addr, &store);
        let exact = exact_of_page(&store, page);
        assert!(
            est >= exact,
            "page {page}: estimate {est} below exact {exact}"
        );
    }
}

#[test]
fn hybrid_estimates_always_bound_exact_counts() {
    let (engine, store, pages) = run_writes(LadderVariant::Hybrid, 20_000);
    for &page in &pages {
        let addr = ladder::reram::LineAddr::new(page * 64);
        let est = engine.peek_cw(addr, &store);
        let exact = exact_of_page(&store, page);
        assert!(
            est >= exact,
            "page {page}: estimate {est} below exact {exact}"
        );
    }
}

#[test]
fn transforms_preserve_read_contents_over_a_long_run() {
    // Full transforms on: whatever is written must read back identically.
    let map = AddressMap::new(Geometry::default());
    let mut engine = LadderEngine::new(LadderConfig::for_variant(LadderVariant::Est), map);
    let mut store = LineStore::new();
    let base = engine.layout().first_data_page().max(40_000);
    let mut gen = WorkloadGen::new(profile_of("astar"), 7, base, 2_000, 8_000);
    let mut last_written: std::collections::BTreeMap<u64, LineData> =
        std::collections::BTreeMap::new();
    while let Some(ev) = gen.next_event() {
        if let TraceOp::Write { addr, data } = ev.op {
            engine.prepare_write(addr);
            engine.service_write(addr, *data, &mut store);
            last_written.insert(addr.raw(), *data);
        }
    }
    assert!(last_written.len() > 1000);
    for (&raw, expect) in &last_written {
        let addr = ladder::reram::LineAddr::new(raw);
        assert_eq!(
            &engine.read_line(addr, &store),
            expect,
            "line {raw:#x} corrupted"
        );
    }
}

#[test]
fn layout_wordline_agrees_with_the_address_map() {
    // The metadata layout computes page→wordline independently of the
    // address map; the two must agree everywhere or Hybrid would apply the
    // wrong counter precision.
    use ladder::core::{MetadataFormat, MetadataLayout};
    let geometry = Geometry::default();
    let map = AddressMap::new(geometry.clone());
    let layout = MetadataLayout::new(
        &geometry,
        MetadataFormat::MultiGranularity {
            low_precision_rows: 128,
        },
    );
    let mut x = 0xABCDu64;
    for _ in 0..5000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let page = x % geometry.pages() as u64;
        let decoded = map.decode(ladder::reram::LineAddr::new(page * 64)).wordline as u64;
        assert_eq!(
            layout.wordline_of_page(page),
            decoded,
            "page {page}: layout and address map disagree on the wordline"
        );
    }
}

#[test]
fn full_page_shifting_can_beat_accurate_counting() {
    // The Fig. 15b effect in steady state: on a fully-written page of
    // clustered data, the shifted estimate drops BELOW the accurate counter
    // of the unshifted layout, because shifting flattens the hot mats that
    // accurate counting faithfully reports.
    use ladder::core::{estimate_cw_lrs, shift_line, PartialCounters};
    use ladder::workloads::{generate_line, DataSpec, PagePattern, SplitMix64};

    let prof = profile_of("astar");
    let spec = DataSpec {
        bit_density: prof.bit_density,
        clustering: prof.clustering,
        compressible_fraction: 0.0, // pure clustered lines
    };
    let pattern = PagePattern::for_page(77, 1);
    let mut rng = SplitMix64::new(5);
    let lines: Vec<LineData> = (0..64)
        .map(|_| generate_line(&spec, &pattern, &mut rng))
        .collect();
    let accurate = exact_cw_lrs(lines.iter());
    let shifted: Vec<LineData> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| shift_line(l, i % 64))
        .collect();
    let est_shifted = estimate_cw_lrs(shifted.iter().map(PartialCounters::from_line), 0);
    assert!(
        est_shifted < accurate,
        "shifted estimate {est_shifted} must beat accurate {accurate} on clustered pages"
    );
    // And it still upper-bounds the exact count of what is actually stored.
    assert!(est_shifted >= exact_cw_lrs(shifted.iter()));
}
