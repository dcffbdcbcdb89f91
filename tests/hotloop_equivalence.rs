//! The hot-loop equivalence battery: every fast path introduced by the
//! performance overhaul (SWAR bit kernels, partial counters, shifting,
//! quantized timing-table lookup) is proven bit-identical to its retained
//! reference implementation on arbitrary inputs via the offline proptest
//! shim.
//!
//! See `DESIGN.md` §15 for the fast-path/reference-path discipline.

use ladder::core::PartialCounters;
use ladder::reram::bits;
use ladder::xbar::{TableConfig, TimingTable};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = [u8; 64]> {
    prop::collection::vec(any::<u8>(), 64).prop_map(|v| {
        let mut a = [0u8; 64];
        a.copy_from_slice(&v);
        a
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- SWAR kernels ≡ byte-wise reference on arbitrary LineData ----

    #[test]
    fn swar_popcount_matches_reference(line in arb_line()) {
        prop_assert_eq!(bits::ones(&line), bits::reference::ones(&line));
    }

    #[test]
    fn swar_xor_delta_matches_reference(a in arb_line(), b in arb_line()) {
        prop_assert_eq!(bits::xor_ones(&a, &b), bits::reference::xor_ones(&a, &b));
        prop_assert_eq!(bits::delta_ones(&a, &b), bits::reference::delta_ones(&a, &b));
        // The delta split is consistent with the Hamming distance.
        let (set, reset) = bits::delta_ones(&a, &b);
        prop_assert_eq!(set + reset, bits::xor_ones(&a, &b));
    }

    #[test]
    fn swar_worst_byte_matches_reference(line in arb_line()) {
        prop_assert_eq!(
            bits::worst_byte_ones(&line),
            bits::reference::worst_byte_ones(&line)
        );
    }

    // ---- unaligned tails: arbitrary lengths, not just whole lines ----

    #[test]
    fn swar_kernels_match_reference_on_unaligned_tails(
        a in prop::collection::vec(any::<u8>(), 0..100),
        b in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assert_eq!(bits::ones(&a), bits::reference::ones(&a));
        prop_assert_eq!(bits::worst_byte_ones(&a), bits::reference::worst_byte_ones(&a));
        let n = a.len().min(b.len());
        prop_assert_eq!(
            bits::xor_ones(&a[..n], &b[..n]),
            bits::reference::xor_ones(&a[..n], &b[..n])
        );
        prop_assert_eq!(
            bits::delta_ones(&a[..n], &b[..n]),
            bits::reference::delta_ones(&a[..n], &b[..n])
        );
    }

    // ---- per-mat partial counts go through the worst-byte kernel ----

    #[test]
    fn partial_counters_match_bytewise_definition(line in arb_line()) {
        let pc = PartialCounters::from_line(&line);
        for j in 0..4 {
            let worst = bits::reference::worst_byte_ones(&line[j * 16..(j + 1) * 16]);
            let expect = match worst {
                0..=1 => 1,
                2..=3 => 3,
                4..=5 => 5,
                _ => 8,
            };
            prop_assert_eq!(pc.decode(j), expect);
        }
    }

    #[test]
    fn swar_shift_group_matches_reference(group in any::<u64>(), offset in 0usize..8) {
        let fast = bits::shift_group(group, offset);
        prop_assert_eq!(fast, bits::reference::shift_group(group, offset));
        prop_assert_eq!(bits::unshift_group(fast, offset), group);
        prop_assert_eq!(
            bits::unshift_group(group, offset),
            bits::reference::unshift_group(group, offset)
        );
    }

    // ---- quantized table lookup ≡ legacy nested-division lookup ----

    #[test]
    fn quantized_table_lookup_matches_reference(
        wl in 0usize..512,
        bl in 0usize..512,
        c in prop_oneof![Just(0usize), 0usize..=512, Just(usize::MAX)],
    ) {
        let t = shared_table();
        prop_assert_eq!(t.lookup_ps(wl, bl, c), t.lookup_ps_reference(wl, bl, c));
    }
}

/// The default LADDER table, generated once per process (analytic source;
/// generating it per proptest case would dominate the suite's runtime).
fn shared_table() -> &'static TimingTable {
    use std::sync::OnceLock;
    static TABLE: OnceLock<TimingTable> = OnceLock::new();
    TABLE.get_or_init(|| TimingTable::generate(&TableConfig::ladder_default()).expect("generate"))
}
