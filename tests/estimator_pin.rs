//! Bit-exact pin of everything the analytic IR-drop estimator feeds.
//!
//! `analytic::estimate_vd` drives the LADDER and BLP timing tables, the
//! device-law calibration, the Split-reset half-RESET latency and the
//! Fig. 4b content curve. Each is folded here into a 64-bit FNV-1a hash
//! of its exact bit patterns and compared with a recorded constant, so a
//! restructuring of the estimator that changes a single rounding shows up
//! as a failure naming the output that moved. A deliberate model change
//! re-records the constants and says why.

use ladder::xbar::{
    latency_vs_wl_content, worst_latency_for_selected, ContentAxis, CrossbarParams, TableConfig,
    TableSource, TimingTable,
};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn table_hash(t: &TimingTable) -> u64 {
    let mut h = Fnv::new();
    let n = t.bands();
    for c in 0..n {
        for w in 0..n {
            for b in 0..n {
                h.word(t.entry(c, w, b) as u64);
            }
        }
    }
    h.word(t.law().c_ns.to_bits());
    h.word(t.law().k_per_volt.to_bits());
    h.0
}

#[test]
fn default_tables_are_bit_identical() {
    let mut cfg = TableConfig::ladder_default();
    let ladder = TimingTable::generate(&cfg).expect("wordline table");
    cfg.content_axis = ContentAxis::Bitline;
    let blp = TimingTable::generate(&cfg).expect("bitline table");
    assert_eq!(
        table_hash(&ladder),
        0x1ca5a6e8e609456b,
        "LADDER (wordline) table moved"
    );
    assert_eq!(
        table_hash(&blp),
        0x6cff8d5c1b221549,
        "BLP (bitline) table moved"
    );
}

#[test]
fn split_reset_latencies_are_bit_identical() {
    let cfg = TableConfig::ladder_default();
    let mut h = Fnv::new();
    for n in [4, 8] {
        h.word(worst_latency_for_selected(&cfg.params, cfg.law, n));
    }
    assert_eq!(h.0, 0xaa6f36c4a3bad0cf, "worst_latency_for_selected moved");
}

#[test]
fn fig4b_curve_is_bit_identical() {
    let cfg = TableConfig::ladder_default();
    let mut h = Fnv::new();
    for (pct, ns) in latency_vs_wl_content(&cfg.params, cfg.law, 480, 480, 10) {
        h.word(pct.to_bits());
        h.word(ns.to_bits());
    }
    assert_eq!(h.0, 0x717d638279cf2c4c, "latency_vs_wl_content moved");
}

#[test]
fn small_mat_table_is_bit_identical() {
    let cfg = TableConfig {
        params: CrossbarParams::with_size(32, 32),
        bands: 4,
        content_axis: ContentAxis::Wordline,
        source: TableSource::Analytic,
        law: TableConfig::ladder_default().law,
    };
    let t = TimingTable::generate(&cfg).expect("small table");
    assert_eq!(
        table_hash(&t),
        0xa6ae0132594b5340,
        "32x32 4-band table moved"
    );
}
