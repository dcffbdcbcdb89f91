//! Property-based tests (proptest) of the [`Mergeable`] contract the
//! observability layer rests on: merging is associative and commutative
//! with `Default` as identity, so a sharded fold over any partition of
//! per-worker parts equals the sequential fold — the reason `--jobs N`
//! reports the same aggregates as `--jobs 1`.

use ladder::reram::{Instant, Picos, Topology};
use ladder::sim::EventCounts;
use ladder::trace::{
    fold, DispatchKind, LatencyHistogram, Mergeable, TenantLatencies, TraceRecord, TraceRecorder,
    TraceTotals,
};
use proptest::prelude::*;

/// Merges by value, returning the result (proptest-friendly shape).
fn merged<M: Mergeable + Clone>(a: &M, b: &M) -> M {
    let mut out = a.clone();
    out.merge_from(b);
    out
}

fn assert_laws<M: Mergeable + Clone + PartialEq + std::fmt::Debug>(a: &M, b: &M, c: &M) {
    assert_eq!(merged(a, b), merged(b, a), "commutativity");
    assert_eq!(
        merged(&merged(a, b), c),
        merged(a, &merged(b, c)),
        "associativity"
    );
    assert_eq!(&merged(a, &M::default()), a, "identity");
}

// --------------------------------------------------------------------------
// Strategies
// --------------------------------------------------------------------------

/// Latency samples bounded so sums cannot overflow over any test fold.
fn arb_hist() -> impl Strategy<Value = LatencyHistogram> {
    prop::collection::vec(0u64..1 << 40, 0..32).prop_map(|samples| {
        let mut h = LatencyHistogram::default();
        for s in samples {
            h.record(Picos::from_ps(s));
        }
        h
    })
}

fn arb_counts() -> impl Strategy<Value = EventCounts> {
    prop::collection::vec(0u64..1 << 32, 9).prop_map(|v| EventCounts {
        core_wake: v[0],
        read_complete: v[1],
        ctrl_work_arrived: v[2],
        ctrl_bank_free: v[3],
        ctrl_queue_slot_free: v[4],
        ctrl_dep_ready: v[5],
        ctrl_mode_switch: v[6],
        ctrl_retry_pulse: v[7],
        request_arrival: v[8],
    })
}

/// Per-tenant latency groups over a tiny tenant space so merges collide.
fn arb_tenants() -> impl Strategy<Value = TenantLatencies> {
    let entry = (0usize..3, 0u64..1 << 40, any::<bool>());
    prop::collection::vec(entry, 0..24).prop_map(|entries| {
        const NAMES: [&str; 3] = ["t0", "t1", "t2"];
        let mut t = TenantLatencies::default();
        for (k, sample, is_read) in entries {
            t.ensure(NAMES[k], (k as u64 + 1) * 1000, k as u64 + 1);
            if is_read {
                t.record_read(NAMES[k], Picos::from_ps(sample));
            } else {
                t.note_write(NAMES[k]);
            }
        }
        t
    })
}

/// An arbitrary trace record with bounded payloads (sums stay in range).
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    let ps = 0u64..1 << 34;
    prop_oneof![
        (0usize..DispatchKind::ALL.len()).prop_map(|i| TraceRecord::KernelDispatch {
            kind: DispatchKind::ALL[i],
        }),
        (
            0u32..1024,
            0u32..1024,
            ps.clone(),
            ps.clone(),
            ps.clone(),
            ps.clone()
        )
            .prop_map(|(wl, bl, t_wr, wait, retry, extra)| {
                let t_wr = Picos::from_ps(t_wr);
                TraceRecord::ResetPulse {
                    kind: ladder::trace::PulseKind::Data,
                    wl,
                    bl,
                    c_lrs: wl % 512,
                    t_wr,
                    queue_wait: Picos::from_ps(wait),
                    retry_time: Picos::from_ps(retry),
                    service: t_wr + Picos::from_ps(retry),
                    t_worst: t_wr + Picos::from_ps(extra),
                    t_loc: t_wr,
                }
            }),
        ps.clone().prop_map(|l| TraceRecord::ReadComplete {
            class: ladder::trace::ReadClass::Demand,
            latency: Picos::from_ps(l),
        }),
        (0u32..64, 0u32..64, 0u32..8).prop_map(|(h, m, w)| TraceRecord::CacheAccess {
            hits: h,
            misses: m,
            writebacks: w,
        }),
        (1u32..4, 0u32..32, ps).prop_map(|(a, f, p)| TraceRecord::VerifyRetry {
            attempt: a,
            failed_bits: f,
            pulse: Picos::from_ps(p),
        }),
        (1u32..8).prop_map(|bits| TraceRecord::EccCorrection { bits }),
        Just(TraceRecord::Uncorrectable),
    ]
}

/// Totals accumulated the way production code accumulates them: through a
/// recorder.
fn totals_of(records: &[TraceRecord]) -> TraceTotals {
    let mut rec = TraceRecorder::with_capacity(4);
    for (i, &r) in records.iter().enumerate() {
        rec.record(Instant::from_ps(i as u64), r);
    }
    *rec.totals()
}

fn arb_totals() -> impl Strategy<Value = TraceTotals> {
    prop::collection::vec(arb_record(), 0..24).prop_map(|rs| totals_of(&rs))
}

// --------------------------------------------------------------------------
// Properties
// --------------------------------------------------------------------------

proptest! {
    #[test]
    fn counters_obey_the_merge_laws(a in 0u64..1 << 62, b in 0u64..1 << 62, c in 0u64..1 << 62) {
        assert_laws(&a, &b, &c);
    }

    #[test]
    fn histograms_obey_the_merge_laws(a in arb_hist(), b in arb_hist(), c in arb_hist()) {
        assert_laws(&a, &b, &c);
    }

    #[test]
    fn event_counts_obey_the_merge_laws(a in arb_counts(), b in arb_counts(), c in arb_counts()) {
        assert_laws(&a, &b, &c);
    }

    #[test]
    fn trace_totals_obey_the_merge_laws(a in arb_totals(), b in arb_totals(), c in arb_totals()) {
        assert_laws(&a, &b, &c);
    }

    #[test]
    fn tenant_latencies_obey_the_merge_laws(a in arb_tenants(), b in arb_tenants(), c in arb_tenants()) {
        assert_laws(&a, &b, &c);
    }

    /// The SLO quantiles read off a sharded fold equal the quantiles of
    /// the concatenated sample stream: partitioning reads across shards
    /// and merging the per-shard histograms loses nothing a percentile
    /// query can see.
    #[test]
    fn folded_histogram_quantiles_match_the_concatenated_stream(
        samples in prop::collection::vec(0u64..1 << 40, 1..96),
        shards in 1usize..6,
    ) {
        let mut whole = LatencyHistogram::default();
        for &s in &samples {
            whole.record(Picos::from_ps(s));
        }

        let mut parts = vec![LatencyHistogram::default(); shards];
        for (i, &s) in samples.iter().enumerate() {
            parts[i % shards].record(Picos::from_ps(s));
        }
        let folded: LatencyHistogram = fold(parts);

        for q in [0.5, 0.99, 0.999] {
            prop_assert_eq!(folded.percentile(q), whole.percentile(q), "q = {}", q);
        }
        prop_assert_eq!(folded.mean(), whole.mean());
        prop_assert_eq!(folded.max(), whole.max());
        prop_assert_eq!(folded.count(), whole.count());
    }

    /// `Topology`'s `Display` output parses back to the same value — the
    /// contract `--topology CxR` round-trips through logs and golden
    /// files.
    #[test]
    fn topology_display_parse_round_trips(channels in 1usize..64, ranks in 1usize..16) {
        let t = Topology::new(channels, ranks).expect("nonzero dimensions");
        let shown = t.to_string();
        prop_assert_eq!(shown.parse::<Topology>().expect("display output parses"), t);
    }

    /// A sharded fold over any partition equals the sequential fold — the
    /// `--jobs N == --jobs 1` determinism argument in one property. Shards
    /// are assigned round-robin, so every shard count exercises both
    /// orderings and interleavings.
    #[test]
    fn sharded_fold_equals_sequential_fold(
        records in prop::collection::vec(arb_record(), 0..64),
        shards in 1usize..6,
    ) {
        let sequential = totals_of(&records);

        let mut parts: Vec<Vec<TraceRecord>> = vec![Vec::new(); shards];
        for (i, &r) in records.iter().enumerate() {
            parts[i % shards].push(r);
        }
        let folded: TraceTotals = fold(parts.iter().map(|p| totals_of(p)));

        prop_assert_eq!(sequential, folded);

        // The same fold expressed through histograms: per-shard demand-read
        // latency histograms merge into the sequential one.
        let hist_of = |rs: &[TraceRecord]| {
            let mut h = LatencyHistogram::default();
            for r in rs {
                if let TraceRecord::ReadComplete { latency, .. } = r {
                    h.record(*latency);
                }
            }
            h
        };
        let merged_h: LatencyHistogram = fold(parts.iter().map(|p| hist_of(p)));
        prop_assert_eq!(hist_of(&records), merged_h);
    }
}
