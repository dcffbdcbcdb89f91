//! Trace recording and replay.
//!
//! Generated traces can be captured to a plain-text file and replayed
//! later, pinning an experiment's memory-event stream independently of the
//! generator's implementation (useful for regression baselines, for
//! sharing workloads, or for feeding externally captured traces in).
//!
//! Format: one event per line.
//!
//! ```text
//! <gap> R <line-addr-hex> <0|1 critical>
//! <gap> W <line-addr-hex> <128 hex chars of line data>
//! ```

use ladder_cpu::{MemEvent, TraceOp, TraceSource, VecTrace};
use ladder_reram::{LineAddr, LINE_BYTES};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;

/// Serializes a trace source to the text format.
pub fn serialize_trace(mut source: impl TraceSource) -> String {
    let mut out = String::new();
    while let Some(ev) = source.next_event() {
        match ev.op {
            TraceOp::Read { addr, critical } => {
                let _ = writeln!(
                    out,
                    "{} R {:x} {}",
                    ev.gap_instructions,
                    addr.raw(),
                    u8::from(critical)
                );
            }
            TraceOp::Write { addr, data } => {
                let mut hex = String::with_capacity(LINE_BYTES * 2);
                for b in data.iter() {
                    let _ = write!(hex, "{b:02x}");
                }
                let _ = writeln!(out, "{} W {:x} {hex}", ev.gap_instructions, addr.raw());
            }
        }
    }
    out
}

/// Parses the text format back into events.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_trace(text: &str) -> Result<Vec<MemEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| format!("line {}: {what}", lineno + 1);
        let gap: u64 = parts
            .next()
            .ok_or_else(|| err("missing gap"))?
            .parse()
            .map_err(|_| err("bad gap"))?;
        let kind = parts.next().ok_or_else(|| err("missing op"))?;
        let addr = u64::from_str_radix(parts.next().ok_or_else(|| err("missing addr"))?, 16)
            .map_err(|_| err("bad addr"))?;
        let op = match kind {
            "R" => {
                let critical = parts.next().ok_or_else(|| err("missing critical flag"))? == "1";
                TraceOp::Read {
                    addr: LineAddr::new(addr),
                    critical,
                }
            }
            "W" => {
                let hex = parts.next().ok_or_else(|| err("missing data"))?;
                if hex.len() != LINE_BYTES * 2 {
                    return Err(err("data must be 128 hex chars"));
                }
                // Checked per byte before slicing: a multibyte character
                // would split a char boundary below, and `from_str_radix`
                // alone accepts a leading `+`.
                if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(err("bad hex byte"));
                }
                let mut data = [0u8; LINE_BYTES];
                for (i, b) in data.iter_mut().enumerate() {
                    *b = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
                        .map_err(|_| err("bad hex byte"))?;
                }
                TraceOp::Write {
                    addr: LineAddr::new(addr),
                    data: Box::new(data),
                }
            }
            other => return Err(err(&format!("unknown op {other:?}"))),
        };
        events.push(MemEvent {
            gap_instructions: gap,
            op,
        });
    }
    Ok(events)
}

/// Records a trace source into a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn record_trace(path: &Path, source: impl TraceSource) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(serialize_trace(source).as_bytes())
}

/// Loads a recorded trace for replay.
///
/// # Errors
///
/// Propagates I/O errors and reports malformed lines as
/// `io::ErrorKind::InvalidData`.
pub fn load_trace(path: &Path, label: impl Into<String>) -> std::io::Result<VecTrace> {
    let mut text = String::new();
    for line in BufReader::new(std::fs::File::open(path)?).lines() {
        text.push_str(&line?);
        text.push('\n');
    }
    let events =
        parse_trace(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(VecTrace::new(label, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadGen;
    use crate::profile::profile_of;

    fn collect(mut t: impl TraceSource) -> Vec<MemEvent> {
        let mut v = Vec::new();
        while let Some(e) = t.next_event() {
            v.push(e);
        }
        v
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let gen = WorkloadGen::new(profile_of("astar"), 3, 100, 1000, 300);
        let original = collect(WorkloadGen::new(profile_of("astar"), 3, 100, 1000, 300));
        let text = serialize_trace(gen);
        let parsed = parse_trace(&text).expect("parse");
        assert_eq!(parsed, original);
    }

    #[test]
    fn file_roundtrip() {
        let path = std::env::temp_dir().join("ladder_trace_io_test.trace");
        let gen = WorkloadGen::new(profile_of("lbm"), 9, 0, 500, 150);
        record_trace(&path, gen).expect("record");
        let replay = collect(load_trace(&path, "replay").expect("load"));
        let original = collect(WorkloadGen::new(profile_of("lbm"), 9, 0, 500, 150));
        assert_eq!(replay, original);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# a comment\n\n10 R ff 1\n";
        let events = parse_trace(text).expect("parse");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].gap_instructions, 10);
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        assert!(parse_trace("10 R").unwrap_err().contains("line 1"));
        assert!(parse_trace("10 R zz 1\nx W 0 00")
            .unwrap_err()
            .contains("bad addr"));
        let short_data = "5 W 40 aabb";
        assert!(parse_trace(short_data).unwrap_err().contains("128 hex"));
        assert!(parse_trace("1 Q 0 0").unwrap_err().contains("unknown op"));
        // 128 bytes, but not 128 hex digits: a multibyte character and a
        // sign are rejected, not sliced through or parsed.
        let multibyte = format!("5 W 40 0\u{e9}{}", "0".repeat(125));
        assert_eq!(multibyte.split(' ').nth(3).map(str::len), Some(128));
        assert_eq!(parse_trace(&multibyte).unwrap_err(), "line 1: bad hex byte");
        let signed = format!("1 R 0 1\n5 W 40 +f{}", "0".repeat(126));
        assert_eq!(parse_trace(&signed).unwrap_err(), "line 2: bad hex byte");
    }
}
