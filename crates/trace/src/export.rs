//! Trace exporters: chrome://tracing JSON and the per-phase
//! time-attribution summary.

use crate::metrics::TraceTotals;
use crate::record::{PulseKind, TraceRecord, C_LRS_UNTRACKED};
use crate::recorder::Trace;
use ladder_reram::Picos;
use std::fmt::Write as _;

/// Simulated picoseconds rendered as the microseconds chrome://tracing
/// expects, at full picosecond resolution.
fn ts_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Renders an assembled [`Trace`] as chrome://tracing JSON (the
/// `traceEvents` object format, loadable in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev)).
///
/// Each part becomes one thread: RESET pulses and verify retries render
/// as complete (`"X"`) slices, reads as complete slices ending at their
/// completion time, and everything else as instant (`"i"`) events. The
/// trace digest and exact record counts ride along in `otherData`.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        // Deferred commas keep the array valid for any event count.
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    push(
        "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"ladder-sim\"}}"
            .to_string(),
        &mut first,
    );
    for (tid, part) in trace.parts.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                part.name
            ),
            &mut first,
        );
        for ev in &part.events {
            push(render_event(tid, ev.at.as_ps(), &ev.record), &mut first);
        }
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\
         \"digest\":\"{}\",\"records\":\"{}\",\"dropped\":\"{}\"",
        trace.digest, trace.records, trace.dropped
    );
    for (name, value) in trace.totals.counters() {
        let _ = write!(out, ",\"{name}\":\"{value}\"");
    }
    out.push_str("}}");
    out
}

fn render_event(tid: usize, at_ps: u64, record: &TraceRecord) -> String {
    match *record {
        TraceRecord::KernelDispatch { kind } => format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"name\":\"dispatch:{}\"}}",
            ts_us(at_ps),
            kind.name()
        ),
        TraceRecord::ResetPulse {
            kind,
            wl,
            bl,
            c_lrs,
            t_wr,
            queue_wait,
            retry_time,
            service,
            ..
        } => {
            let name = match kind {
                PulseKind::Data => "reset-pulse",
                PulseKind::Metadata => "metadata-writeback",
            };
            let c_lrs_str = if c_lrs == C_LRS_UNTRACKED {
                "\"untracked\"".to_string()
            } else {
                c_lrs.to_string()
            };
            format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"name\":\"{name}\",\"args\":{{\"wl\":{wl},\"bl\":{bl},\
                 \"c_lrs\":{c_lrs_str},\"t_wr_ns\":{},\"queue_wait_ns\":{},\
                 \"retry_ns\":{}}}}}",
                ts_us(at_ps),
                ts_us(service.as_ps()),
                t_wr.as_ns(),
                queue_wait.as_ns(),
                retry_time.as_ns()
            )
        }
        TraceRecord::ReadComplete { class, latency } => format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"name\":\"read:{}\"}}",
            // Reads are stamped at completion; the slice starts at enqueue.
            ts_us(at_ps.saturating_sub(latency.as_ps())),
            ts_us(latency.as_ps()),
            class.name()
        ),
        TraceRecord::CacheAccess {
            hits,
            misses,
            writebacks,
        } => format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"name\":\"cache\",\"args\":{{\"hits\":{hits},\"misses\":{misses},\
             \"writebacks\":{writebacks}}}}}",
            ts_us(at_ps)
        ),
        TraceRecord::VerifyRetry {
            attempt,
            failed_bits,
            pulse,
        } => format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\
             \"name\":\"verify-retry\",\"args\":{{\"attempt\":{attempt},\
             \"failed_bits\":{failed_bits}}}}}",
            ts_us(at_ps),
            ts_us(pulse.as_ps())
        ),
        TraceRecord::EccCorrection { bits } => format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"name\":\"ecc-correction\",\"args\":{{\"bits\":{bits}}}}}",
            ts_us(at_ps)
        ),
        TraceRecord::Uncorrectable => format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"name\":\"uncorrectable\"}}",
            ts_us(at_ps)
        ),
        TraceRecord::ShardTag { shard } => format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"p\",\
             \"name\":\"shard:{shard}\"}}",
            ts_us(at_ps)
        ),
        TraceRecord::TierEcc { tier, bits } => format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"name\":\"tier-ecc\",\"args\":{{\"tier\":{tier},\"bits\":{bits}}}}}",
            ts_us(at_ps)
        ),
        TraceRecord::PadRemap { page, frame } => format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
             \"name\":\"pad-remap\",\"args\":{{\"page\":{page},\"frame\":{frame}}}}}",
            ts_us(at_ps)
        ),
    }
}

fn pct(part: Picos, whole: Picos) -> f64 {
    if whole.as_ps() == 0 {
        0.0
    } else {
        100.0 * part.as_ps() as f64 / whole.as_ps() as f64
    }
}

/// Renders the per-phase time-attribution summary: where each nanosecond
/// of data-write latency went (queueing vs. pulse vs. retry vs.
/// controller overhead), and how the chosen pulse widths compare against
/// the worst-case and location-aware bounds (the paper's location
/// vs. content savings split).
pub fn time_attribution(totals: &TraceTotals) -> String {
    let mut s = String::new();
    let writes = totals.data_pulses.max(1);
    let end_to_end = totals.queue_wait + totals.service_time;
    let _ = writeln!(
        s,
        "write-latency attribution ({} data writes)",
        totals.data_pulses
    );
    for (label, t) in [
        ("queue wait", totals.queue_wait),
        ("RESET pulse", totals.pulse_time),
        ("verify/retry", totals.retry_time),
        ("ctrl overhead", totals.overhead_time()),
    ] {
        let _ = writeln!(
            s,
            "  {label:<14} {:>12.3} ns/write  ({:5.1} % of end-to-end)",
            (t / writes).as_ns(),
            pct(t, end_to_end)
        );
    }
    let _ = writeln!(
        s,
        "  {:<14} {:>12.3} ns/write",
        "end-to-end",
        (end_to_end / writes).as_ns()
    );
    let _ = writeln!(s, "pulse-width decomposition (vs. oblivious worst case)");
    for (label, t) in [
        ("worst-case", totals.worst_pulse_time),
        ("location saving", totals.location_saving()),
        ("content saving", totals.content_saving()),
        ("charged pulse", totals.pulse_time),
    ] {
        let _ = writeln!(
            s,
            "  {label:<16} {:>12.3} ns/write  ({:5.1} % of worst)",
            (t / writes).as_ns(),
            pct(t, totals.worst_pulse_time)
        );
    }
    let _ = writeln!(
        s,
        "metadata cache: {} hits, {} misses (hit ratio {:.4}), {} writebacks",
        totals.cache_hits,
        totals.cache_misses,
        totals.cache_hit_ratio(),
        totals.cache_writebacks
    );
    let _ = writeln!(
        s,
        "reliability: {} failed verifies, {} ECC-corrected bits, {} uncorrectable",
        totals.failed_verifies, totals.ecc_corrected_bits, totals.uncorrectable
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{DispatchKind, ReadClass};
    use crate::recorder::TraceRecorder;
    use ladder_reram::Instant;

    /// Minimal recursive-descent JSON checker: accepts exactly the RFC
    /// 8259 grammar (modulo numeric range). Returns the rest after one
    /// value.
    fn json_value(s: &[u8]) -> Result<&[u8], String> {
        let s = skip_ws(s);
        match s.first() {
            Some(b'{') => {
                let mut s = skip_ws(&s[1..]);
                if s.first() == Some(&b'}') {
                    return Ok(&s[1..]);
                }
                loop {
                    s = json_string(skip_ws(s))?;
                    s = skip_ws(s);
                    if s.first() != Some(&b':') {
                        return Err("expected ':'".into());
                    }
                    s = json_value(&s[1..])?;
                    s = skip_ws(s);
                    match s.first() {
                        Some(b',') => s = &s[1..],
                        Some(b'}') => return Ok(&s[1..]),
                        _ => return Err("expected ',' or '}'".into()),
                    }
                }
            }
            Some(b'[') => {
                let mut s = skip_ws(&s[1..]);
                if s.first() == Some(&b']') {
                    return Ok(&s[1..]);
                }
                loop {
                    s = json_value(s)?;
                    s = skip_ws(s);
                    match s.first() {
                        Some(b',') => s = &s[1..],
                        Some(b']') => return Ok(&s[1..]),
                        _ => return Err("expected ',' or ']'".into()),
                    }
                }
            }
            Some(b'"') => json_string(s),
            Some(b't') => s.strip_prefix(b"true" as &[u8]).ok_or("bad literal".into()),
            Some(b'f') => s
                .strip_prefix(b"false" as &[u8])
                .ok_or("bad literal".into()),
            Some(b'n') => s.strip_prefix(b"null" as &[u8]).ok_or("bad literal".into()),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut i = 0;
                while i < s.len()
                    && (s[i].is_ascii_digit() || matches!(s[i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    i += 1;
                }
                Ok(&s[i..])
            }
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn json_string(s: &[u8]) -> Result<&[u8], String> {
        if s.first() != Some(&b'"') {
            return Err("expected string".into());
        }
        let mut i = 1;
        while i < s.len() {
            match s[i] {
                b'"' => return Ok(&s[i + 1..]),
                b'\\' => i += 2,
                _ => i += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn skip_ws(mut s: &[u8]) -> &[u8] {
        while let Some(c) = s.first() {
            if c.is_ascii_whitespace() {
                s = &s[1..];
            } else {
                break;
            }
        }
        s
    }

    fn assert_valid_json(doc: &str) {
        let rest = json_value(doc.as_bytes()).unwrap_or_else(|e| panic!("{e} in {doc}"));
        assert!(
            skip_ws(rest).is_empty(),
            "trailing garbage: {:?}",
            String::from_utf8_lossy(rest)
        );
    }

    fn sample_trace() -> Trace {
        let mut k = TraceRecorder::with_capacity(64);
        let mut c = TraceRecorder::with_capacity(64);
        k.record(
            Instant::from_ps(1_000),
            TraceRecord::KernelDispatch {
                kind: DispatchKind::CoreWake,
            },
        );
        c.record(
            Instant::from_ps(2_000),
            TraceRecord::ResetPulse {
                kind: PulseKind::Data,
                wl: 7,
                bl: 120,
                c_lrs: 33,
                t_wr: Picos::from_ns(155.0),
                queue_wait: Picos::from_ns(12.0),
                retry_time: Picos::ZERO,
                service: Picos::from_ns(173.75),
                t_worst: Picos::from_ns(658.0),
                t_loc: Picos::from_ns(213.0),
            },
        );
        c.record(
            Instant::from_ps(3_000),
            TraceRecord::ResetPulse {
                kind: PulseKind::Data,
                wl: 1,
                bl: 2,
                c_lrs: C_LRS_UNTRACKED,
                t_wr: Picos::from_ns(658.0),
                queue_wait: Picos::ZERO,
                retry_time: Picos::from_ns(40.0),
                service: Picos::from_ns(700.0),
                t_worst: Picos::from_ns(658.0),
                t_loc: Picos::from_ns(658.0),
            },
        );
        c.record(
            Instant::from_ps(4_000),
            TraceRecord::ReadComplete {
                class: ReadClass::Demand,
                latency: Picos::from_ns(35.0),
            },
        );
        c.record(
            Instant::from_ps(4_500),
            TraceRecord::CacheAccess {
                hits: 1,
                misses: 1,
                writebacks: 1,
            },
        );
        c.record(
            Instant::from_ps(5_000),
            TraceRecord::VerifyRetry {
                attempt: 1,
                failed_bits: 3,
                pulse: Picos::from_ns(790.0),
            },
        );
        c.record(
            Instant::from_ps(6_000),
            TraceRecord::EccCorrection { bits: 2 },
        );
        c.record(Instant::from_ps(7_000), TraceRecord::Uncorrectable);
        Trace::assemble(vec![("kernel", k), ("memctrl", c)])
    }

    #[test]
    fn chrome_export_is_valid_json_covering_every_record_kind() {
        let trace = sample_trace();
        let doc = chrome_trace_json(&trace);
        assert_valid_json(&doc);
        assert!(doc.starts_with("{\"traceEvents\":["));
        for needle in [
            "dispatch:core-wake",
            "reset-pulse",
            "read:demand",
            "\"cache\"",
            "verify-retry",
            "ecc-correction",
            "uncorrectable",
            "\"untracked\"",
            "thread_name",
        ] {
            assert!(doc.contains(needle), "missing {needle}");
        }
        // otherData carries the digest for quick eyeballing.
        assert!(doc.contains(&format!("\"digest\":\"{}\"", trace.digest)));
    }

    /// The exact export bytes: event rendering, the always-emitted zero
    /// counters and the name order of the `otherData` keys.
    #[test]
    fn chrome_export_bytes_are_pinned() {
        let expected = concat!(
            r#"{"traceEvents":[{"ph":"M","pid":0,"name":"process_name","args":{"name":"ladder-sim"}},"#,
            r#"{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"kernel"}},"#,
            r#"{"ph":"i","pid":0,"tid":0,"ts":0.001000,"s":"t","name":"dispatch:core-wake"},"#,
            r#"{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"memctrl"}},"#,
            r#"{"ph":"X","pid":0,"tid":1,"ts":0.002000,"dur":0.173750,"name":"reset-pulse","args":{"wl":7,"bl":120,"c_lrs":33,"t_wr_ns":155,"queue_wait_ns":12,"retry_ns":0}},"#,
            r#"{"ph":"X","pid":0,"tid":1,"ts":0.003000,"dur":0.700000,"name":"reset-pulse","args":{"wl":1,"bl":2,"c_lrs":"untracked","t_wr_ns":658,"queue_wait_ns":0,"retry_ns":40}},"#,
            r#"{"ph":"X","pid":0,"tid":1,"ts":0.000000,"dur":0.035000,"name":"read:demand"},"#,
            r#"{"ph":"i","pid":0,"tid":1,"ts":0.004500,"s":"t","name":"cache","args":{"hits":1,"misses":1,"writebacks":1}},"#,
            r#"{"ph":"X","pid":0,"tid":1,"ts":0.005000,"dur":0.790000,"name":"verify-retry","args":{"attempt":1,"failed_bits":3}},"#,
            r#"{"ph":"i","pid":0,"tid":1,"ts":0.006000,"s":"t","name":"ecc-correction","args":{"bits":2}},"#,
            r#"{"ph":"i","pid":0,"tid":1,"ts":0.007000,"s":"t","name":"uncorrectable"}],"#,
            r#""displayTimeUnit":"ns","otherData":{"digest":"848e14a16af4b2e5","records":"8","dropped":"0","#,
            r#""cache.hits":"1","cache.misses":"1","cache.writebacks":"1","dispatch.core-wake":"1","#,
            r#""pulses.data":"2","pulses.metadata":"0","pv.ecc_corrected_bits":"2","pv.failed_verifies":"1","#,
            r#""pv.uncorrectable":"1","reads.demand":"1","reads.metadata":"0","reads.smb":"0","#,
            r#""time.metadata_pulse_ps":"0","time.pulse_ps":"813000","time.queue_wait_ps":"12000","#,
            r#""time.retry_ps":"40000","time.service_ps":"873750"}}"#,
        );
        assert_eq!(chrome_trace_json(&sample_trace()), expected);
    }

    /// Shard, tier-ECC and remap counters appear only when non-zero, and
    /// then in name order among the always-emitted ones.
    #[test]
    fn optional_counters_export_in_name_order() {
        let mut k = TraceRecorder::with_capacity(8);
        k.record(Instant::from_ps(1_000), TraceRecord::ShardTag { shard: 3 });
        k.record(
            Instant::from_ps(2_000),
            TraceRecord::TierEcc { tier: 2, bits: 5 },
        );
        k.record(
            Instant::from_ps(3_000),
            TraceRecord::PadRemap { page: 9, frame: 11 },
        );
        let doc = chrome_trace_json(&Trace::assemble(vec![("shard", k)]));
        let other_data = concat!(
            r#""otherData":{"digest":"b409d796335ff1be","records":"3","dropped":"0","#,
            r#""cache.hits":"0","cache.misses":"0","cache.writebacks":"0","#,
            r#""coding.remaps":"1","coding.tier_bits":"5","coding.tier_resolves":"1","#,
            r#""pulses.data":"0","pulses.metadata":"0","pv.ecc_corrected_bits":"0","#,
            r#""pv.failed_verifies":"0","pv.uncorrectable":"0","reads.demand":"0","#,
            r#""reads.metadata":"0","reads.smb":"0","shard.tags":"1","#,
            r#""time.metadata_pulse_ps":"0","time.pulse_ps":"0","time.queue_wait_ps":"0","#,
            r#""time.retry_ps":"0","time.service_ps":"0"}}"#,
        );
        assert!(doc.ends_with(other_data), "{doc}");
    }

    #[test]
    fn empty_trace_still_exports_valid_json() {
        let doc = chrome_trace_json(&Trace::assemble(vec![]));
        assert_valid_json(&doc);
    }

    #[test]
    fn ts_us_keeps_picosecond_resolution() {
        assert_eq!(ts_us(0), "0.000000");
        assert_eq!(ts_us(1), "0.000001");
        assert_eq!(ts_us(13_750), "0.013750");
        assert_eq!(ts_us(2_500_000), "2.500000");
    }

    #[test]
    fn attribution_summary_adds_up() {
        let trace = sample_trace();
        let text = time_attribution(&trace.totals);
        assert!(text.contains("2 data writes"));
        assert!(text.contains("queue wait"));
        assert!(text.contains("location saving"));
        assert!(text.contains("1 hits, 1 misses"));
        assert!(text.contains("1 failed verifies, 2 ECC-corrected bits, 1 uncorrectable"));
        // The four phases partition end-to-end time exactly.
        let t = &trace.totals;
        assert_eq!(
            t.queue_wait + t.pulse_time + t.retry_time + t.overhead_time(),
            t.queue_wait + t.service_time
        );
        // And the pulse decomposition partitions the worst-case budget.
        assert_eq!(
            t.location_saving() + t.content_saving() + t.pulse_time,
            t.worst_pulse_time
        );
    }
}
