//! Property-based tests (proptest) on the core data structures and the
//! invariants the paper's correctness argument rests on.

use ladder::coding::LocationChannel;
use ladder::core::{
    apply_fnw, estimate_cw_lrs, exact_cw_lrs, shift_line, undo_fnw, unshift_line, FnwPolicy,
    LrsCounterGroup, PartialCounters,
};
use ladder::cpu::VecTrace;
use ladder::reram::{
    AddressMap, Decoded, EventQueue, Geometry, Instant, Interleave, LineAddr, Topology,
};
use ladder::sim::{ArrivalKind, CodingKind, RemapKind};
use ladder::workloads::{parse_trace, serialize_trace};
use ladder::xbar::{analytic, ContentAxis, CrossbarParams, LatencyLaw, TableConfig, TimingTable};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::{Debug, Display};
use std::sync::OnceLock;

fn arb_line() -> impl Strategy<Value = [u8; 64]> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut a = [0u8; 64];
        a.copy_from_slice(&v);
        a
    })
}

/// A line whose bit density is skewed low (like real memory contents).
fn arb_sparse_line() -> impl Strategy<Value = [u8; 64]> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut a = [0u8; 64];
        for (i, x) in v.iter().enumerate() {
            a[i] = x & (x >> 3) & 0x7F;
        }
        a
    })
}

proptest! {
    #[test]
    fn shifting_is_a_bijection(line in arb_line(), slot in 0usize..64) {
        let stored = shift_line(&line, slot);
        prop_assert_eq!(unshift_line(&stored, slot), line);
        // Popcount is preserved per chip group.
        for g in 0..8 {
            let ones = |l: &[u8]| l.iter().map(|b| b.count_ones()).sum::<u32>();
            prop_assert_eq!(ones(&line[g * 8..(g + 1) * 8]), ones(&stored[g * 8..(g + 1) * 8]));
        }
    }

    #[test]
    fn fnw_roundtrips_and_respects_the_constraint(
        new in arb_line(),
        old in arb_line(),
    ) {
        let out = apply_fnw(&new, &old, FnwPolicy::Constrained);
        prop_assert_eq!(undo_fnw(&out.stored, out.flip_mask), new);
        // Per 8-byte word, the stored image never holds more ones than the
        // original data — the invariant that keeps LRS counters truthful.
        for w in 0..8 {
            let ones = |l: &[u8]| l.iter().map(|b| b.count_ones()).sum::<u32>();
            prop_assert!(
                ones(&out.stored[w * 8..(w + 1) * 8]) <= ones(&new[w * 8..(w + 1) * 8])
            );
        }
        // And flipping never increases the switched-cell count.
        let plain = apply_fnw(&new, &old, FnwPolicy::Disabled);
        prop_assert!(out.bits_changed <= plain.bits_changed);
    }

    #[test]
    fn estimation_upper_bounds_exact_counts(
        lines in prop::collection::vec(arb_sparse_line(), 1..64),
    ) {
        let exact = exact_cw_lrs(lines.iter());
        let zero_lines = 64 - lines.len();
        let est = estimate_cw_lrs(
            lines.iter().map(PartialCounters::from_line),
            zero_lines,
        );
        prop_assert!(est >= exact, "estimate {} below exact {}", est, exact);
    }

    #[test]
    fn counter_pack_roundtrips(values in prop::collection::vec(0u16..=512, 64)) {
        let mut g = LrsCounterGroup::new();
        let zeros = [0u8; 64];
        // Drive counters to arbitrary values through deltas.
        for (i, &v) in values.iter().enumerate() {
            let mut line = [0u8; 64];
            // v ones in byte position i, spread across writes of 8 ones.
            let full = (v / 8) as usize;
            for _ in 0..full {
                line[i] = 0xFF;
                g.apply_delta(&zeros, &line);
            }
            line[i] = (0xFFu16 >> (8 - (v % 8))) as u8;
            g.apply_delta(&zeros, &line);
        }
        let lines = g.to_metadata_lines();
        prop_assert_eq!(LrsCounterGroup::from_metadata_lines(&lines), g);
    }

    #[test]
    fn address_map_is_a_bijection(raw in 0u64..Geometry::default().lines()) {
        let map = AddressMap::new(Geometry::default());
        let a = LineAddr::new(raw);
        let d = map.decode(a);
        prop_assert_eq!(map.encode(&d), a);
    }

    #[test]
    fn address_encode_rejects_nothing_valid(
        channel in 0usize..2,
        rank in 0usize..2,
        bank in 0usize..8,
        mat_group in 0usize..32,
        wordline in 0usize..512,
        block_slot in 0usize..64,
    ) {
        let map = AddressMap::new(Geometry::default());
        let d = Decoded { channel, rank, bank, mat_group, wordline, block_slot };
        let a = map.encode(&d);
        prop_assert_eq!(map.decode(a), d);
    }

    #[test]
    fn latency_law_is_monotone(
        v1 in 0.0f64..3.0,
        v2 in 0.0f64..3.0,
    ) {
        let law = LatencyLaw::calibrate(2.9, 29.0, 1.0, 658.0);
        let (lo, hi) = if v1 < v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(law.latency_ns(hi) <= law.latency_ns(lo));
    }
}

/// Lowest estimated voltage across an 8-cell RESET on a 512×512 mat whose
/// target window ends at column `last`.
fn min_window_vd(wl: usize, last: usize, wl_ones: usize, bl_ones: usize) -> f64 {
    let op = analytic::OperatingPoint {
        target_wl: wl,
        target_bls: (last - 7..=last).collect(),
        wl_ones,
        bl_ones,
    };
    analytic::estimate_vd(&CrossbarParams::default(), &op)
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::INFINITY, f64::min)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    // Metamorphic line-resistance law (LADDER Figs. 4b and 11; Chen &
    // Dolecek's 1S1R channel models): moving the write one wordline or one
    // column farther from the drivers, or adding one LRS half-selected cell
    // on either line, never makes the target cells easier to write.
    #[test]
    fn estimated_vd_never_rises_with_distance_or_lrs_content(
        wl in 0usize..512,
        last in 7usize..512,
        wl_ones in 0usize..=512,
        bl_ones in 0usize..=512,
    ) {
        let vd = min_window_vd(wl, last, wl_ones, bl_ones);
        if wl + 1 < 512 {
            prop_assert!(min_window_vd(wl + 1, last, wl_ones, bl_ones) <= vd, "farther wordline");
        }
        if last + 1 < 512 {
            prop_assert!(min_window_vd(wl, last + 1, wl_ones, bl_ones) <= vd, "farther window");
        }
        if wl_ones < 512 {
            prop_assert!(min_window_vd(wl, last, wl_ones + 1, bl_ones) <= vd, "more wordline LRS");
        }
        if bl_ones < 512 {
            prop_assert!(min_window_vd(wl, last, wl_ones, bl_ones + 1) <= vd, "more bitline LRS");
        }
    }
}

// Table monotonicity is deterministic but expensive to set up, so it runs
// once over every band triple rather than via proptest.
#[test]
fn timing_table_is_monotone_and_conservative_under_banding() {
    let table = TimingTable::generate(&TableConfig::ladder_default()).expect("table");
    let p = CrossbarParams::default();
    for c in 0..8 {
        for w in 0..8 {
            for b in 0..8 {
                if c + 1 < 8 {
                    assert!(table.entry(c + 1, w, b) >= table.entry(c, w, b));
                }
                if w + 1 < 8 {
                    assert!(table.entry(c, w + 1, b) >= table.entry(c, w, b));
                }
                if b + 1 < 8 {
                    assert!(table.entry(c, w, b + 1) >= table.entry(c, w, b));
                }
            }
        }
    }
    // Within a band, the entry was generated at the band's worst point, so
    // looking up any exact coordinate in the band is conservative.
    let fine = table.lookup_ps(64, 64, 64);
    let coarse = table.lookup_ps(127, 127, 128);
    assert!(coarse >= fine);
    assert!(table.worst_ps() as f64 / 1000.0 <= 658.01);
    let _ = p;
}

/// Strings a CLI parser might see: `CxR` shapes with zero counts and
/// spaced separators, runs of CLI fragments (valid names, an overflowing
/// count, whitespace, a NUL, a multi-byte letter), and arbitrary `char`s.
fn arb_cli_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 10] = [
        "x",
        "-",
        " \t",
        "18446744073709551616",
        "poisson",
        "bank",
        "pad-remap",
        "lrc",
        "\u{e9}",
        "\u{0}",
    ];
    prop_oneof![
        (0u64..20, 0usize..3, 0u64..20)
            .prop_map(|(c, sep, r)| format!("{c}{}{r}", ["x", "X", " x "][sep])),
        prop::collection::vec(0usize..PIECES.len(), 0..4)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect()),
        prop::collection::vec(0u32..0x11_0000, 0..6)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect()),
    ]
}

/// `parse` must return rather than panic, and any value it accepts must
/// survive `Display` → `parse` unchanged.
fn check_parser<T: Display + PartialEq + Debug>(
    parse: impl Fn(&str) -> Result<T, String>,
    input: &str,
) {
    if let Ok(v) = parse(input) {
        assert_eq!(parse(&v.to_string()), Ok(v), "accepted {input:?}");
    }
}

proptest! {
    #[test]
    fn cli_parsers_never_panic(input in arb_cli_text()) {
        check_parser(Topology::parse, &input);
        check_parser(Interleave::parse, &input);
        check_parser(|s| s.parse::<ArrivalKind>(), &input);
        check_parser(|s| s.parse::<RemapKind>(), &input);
        check_parser(|s| s.parse::<CodingKind>(), &input);
    }
}

#[test]
fn every_cli_kind_round_trips_through_display() {
    for k in Interleave::ALL {
        assert_eq!(Interleave::parse(&k.to_string()), Ok(k));
    }
    for k in ArrivalKind::ALL {
        assert_eq!(k.to_string().parse(), Ok(k));
    }
    for k in RemapKind::ALL {
        assert_eq!(k.to_string().parse(), Ok(k));
    }
    for k in CodingKind::ALL {
        assert_eq!(k.to_string().parse(), Ok(k));
    }
}

/// One token of a trace-file line: well-formed fields, overflowing and
/// signed numbers, wrong ops, and 128-byte or 128-character data fields
/// that are not 128 hex digits (multibyte letters, one straddling a
/// hex-pair boundary, a leading `+`, one digit short).
fn trace_token(i: usize) -> String {
    let hex = "0123456789abcdef".repeat(8);
    match i {
        0 => "0".into(),
        1 => "17".into(),
        2 => "18446744073709551616".into(),
        3 => "-1".into(),
        4 => "R".into(),
        5 => "W".into(),
        6 => "r".into(),
        7 => "1".into(),
        8 => "ffffffffffffffffff".into(),
        9 => "0x10".into(),
        10 => hex,
        11 => "\u{e9}".repeat(128),
        12 => format!("+{}", &hex[1..]),
        13 => format!("a\u{e9}{}", &hex[3..]),
        14 => hex[1..].to_string(),
        15 => "#".into(),
        16 => "\n".into(),
        _ => "\u{3b1}".into(),
    }
}

/// Trace text: runs of [`trace_token`]s joined by spaces, tabs and
/// newlines, read lines, write lines whose data field is well-formed or
/// one of the malformed 128-wide tokens, or arbitrary `char`s.
fn arb_trace_text() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::collection::vec((0usize..18, 0usize..3), 0..16).prop_map(|toks| {
            toks.into_iter()
                .map(|(t, sep)| trace_token(t) + [" ", "\t", "\n"][sep])
                .collect()
        }),
        (any::<u64>(), any::<u64>(), 9usize..16, any::<u8>()).prop_map(
            |(gap, addr, data, byte)| match data {
                9 => format!("{gap} R {addr:x} {}\n", byte & 1),
                15 => format!("{gap} W {addr:x} {}\n", format!("{byte:02x}").repeat(64)),
                t => format!("{gap} W {addr:x} {}\n", trace_token(t)),
            }
        ),
        prop::collection::vec(0u32..0x11_0000, 0..64)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect()),
    ]
}

/// A ROM image: usually exactly `bands³` bytes, sometimes a wrong length,
/// with band counts up to ones whose cube overflows `usize`.
fn arb_rom() -> impl Strategy<Value = (Vec<u8>, usize)> {
    prop_oneof![
        (1usize..7).prop_flat_map(|bands| {
            prop::collection::vec(any::<u8>(), bands * bands * bands)
                .prop_map(move |bytes| (bytes, bands))
        }),
        (prop::collection::vec(any::<u8>(), 0..300), 0usize..9),
        (prop::collection::vec(any::<u8>(), 0..8), any::<usize>()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    // External inputs return errors, never panic; whatever parses
    // survives a serialize → parse round trip.
    #[test]
    fn trace_parser_never_panics(text in arb_trace_text()) {
        if let Ok(events) = parse_trace(&text) {
            prop_assert!(events.len() <= text.lines().count());
            let again = serialize_trace(VecTrace::new("prop", events.clone()));
            prop_assert_eq!(parse_trace(&again), Ok(events));
        }
    }

    #[test]
    fn rom_loader_never_panics(
        (bytes, bands) in arb_rom(),
        scale_ps in prop_oneof![0u64..5_000, any::<u64>()],
        bitline in any::<bool>(),
    ) {
        let axis = if bitline { ContentAxis::Bitline } else { ContentAxis::Wordline };
        let law = TableConfig::ladder_default().law;
        if let Ok(table) = TimingTable::from_rom_bytes(&bytes, bands, 512, 512, axis, law, scale_ps) {
            prop_assert_eq!(table.bands(), bands);
            let worst = bytes.iter().map(|&b| u64::from(b) * scale_ps).max();
            prop_assert_eq!(Some(table.worst_ps()), worst);
        }
    }
}

/// The module's coding channel over the default LADDER table, built once.
fn location_channel() -> &'static LocationChannel {
    static CHANNEL: OnceLock<LocationChannel> = OnceLock::new();
    CHANNEL.get_or_init(|| {
        let table = TimingTable::generate(&TableConfig::ladder_default()).expect("table");
        LocationChannel::new(table, AddressMap::new(Geometry::default()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    // Metamorphic law of the coding channel (Chen & Dolecek's 1S1R
    // channel models; LADDER Fig. 11): the raw bit-error rate never falls
    // when the write moves one wordline farther from the drivers, to a
    // slot with a farther worst column, or when the line holds one more
    // LRS bit. No line sits below the channel's position-margin floor.
    #[test]
    fn raw_ber_never_falls_with_distance_or_lrs_content(
        line in 0u64..Geometry::default().lines(),
        slots in (0usize..64, 0usize..64),
        data in arb_line(),
        bit in 0usize..512,
        attempt in 0u32..4,
    ) {
        let ch = location_channel();
        let map = ch.map();
        let g = map.geometry();
        let addr = LineAddr::new(line);
        prop_assert!(ch.position_margin_floor() <= ch.position_margin(addr));
        let d = map.decode(addr);
        let ber = |d: &Decoded, data: &[u8; 64]| ch.raw_ber(1e-4, map.encode(d), data, attempt);
        let here = ber(&d, &data);
        if d.wordline + 1 < g.mat_rows {
            let farther = Decoded { wordline: d.wordline + 1, ..d };
            prop_assert!(ber(&farther, &data) >= here, "farther wordline");
        }
        let (near, far) = (slots.0.min(slots.1), slots.0.max(slots.1));
        prop_assert!(g.worst_column_of_slot(near) <= g.worst_column_of_slot(far));
        prop_assert!(
            ber(&Decoded { block_slot: far, ..d }, &data)
                >= ber(&Decoded { block_slot: near, ..d }, &data),
            "farther column"
        );
        let mut more_lrs = data;
        more_lrs[bit / 8] |= 1 << (bit % 8);
        prop_assert!(ber(&d, &more_lrs) >= here, "one more LRS bit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    // The event queue's same-instant lane is a layout, not an ordering:
    // under any mix of pops and schedules (before the first pop, at the
    // instant just popped, later, earlier) it pops exactly what a plain
    // `(instant, sequence)` min-heap pops.
    #[test]
    fn event_queue_pops_in_heap_order(
        ops in prop::collection::vec((0u8..7, 0u64..40), 0..300),
    ) {
        let mut queue = EventQueue::new();
        let mut oracle = BinaryHeap::new();
        let mut last = Instant::ZERO;
        for (i, &(op, delta)) in ops.iter().enumerate() {
            let at = match op {
                0 | 1 => {
                    let want = oracle.pop().map(|Reverse((at, _, k))| (at, k));
                    prop_assert_eq!(queue.pop(), want, "pop {}", i);
                    if let Some((at, _)) = want {
                        last = last.max(at);
                    }
                    continue;
                }
                2..=4 => last,
                5 => Instant::from_ps(last.as_ps() + 1 + delta),
                _ => Instant::from_ps(last.as_ps().saturating_sub(delta)),
            };
            queue.schedule(at, i);
            oracle.push(Reverse((at, i, i)));
        }
        let rest: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
        let want: Vec<_> = std::iter::from_fn(|| oracle.pop())
            .map(|Reverse((at, _, k))| (at, k))
            .collect();
        prop_assert_eq!(rest, want);
    }
}
