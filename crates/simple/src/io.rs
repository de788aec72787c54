//! Trace import/export.
//!
//! The real SIMPLE package worked on trace *files* shipped from the
//! monitor agents' disks. This module provides the equivalent
//! interchange format: a plain CSV with one event per line,
//!
//! ```text
//! ts_ns,channel,token,param
//! 1200,0,0x0101,1
//! ```
//!
//! so traces can be archived, diffed, or processed by external tooling.

use std::fmt::Write as _;

use crate::trace::{Event, Trace};

/// Error parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    message: String,
}

impl ParseTraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseTraceError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based line the error occurred on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes a trace to CSV (with header).
///
/// # Examples
///
/// ```
/// use simple::io::{from_csv, to_csv};
/// use simple::{Event, Trace};
///
/// let trace = Trace::from_unsorted(vec![Event::new(1200, 0, 0x0101, 1)]);
/// let text = to_csv(&trace);
/// assert_eq!(from_csv(&text).unwrap(), trace);
/// ```
pub fn to_csv(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 24 + 32);
    out.push_str("ts_ns,channel,token,param\n");
    for e in trace.events() {
        let _ = writeln!(
            out,
            "{},{},0x{:04X},{}",
            e.ts_ns,
            e.channel,
            e.token.value(),
            e.param.value()
        );
    }
    out
}

/// Parses a CSV trace (header optional). Events are sorted on load, as
/// the CEC would re-merge them.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming the offending line for malformed
/// rows.
pub fn from_csv(text: &str) -> Result<Trace, ParseTraceError> {
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("ts_ns") || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let mut next = |name: &str| {
            fields
                .next()
                .map(str::trim)
                .ok_or_else(|| ParseTraceError::new(line_no, format!("missing field '{name}'")))
        };
        let ts: u64 = next("ts_ns")?
            .parse()
            .map_err(|_| ParseTraceError::new(line_no, "bad ts_ns"))?;
        let channel: usize = next("channel")?
            .parse()
            .map_err(|_| ParseTraceError::new(line_no, "bad channel"))?;
        let token_str = next("token")?;
        let token = if let Some(hex) = token_str.strip_prefix("0x") {
            u16::from_str_radix(hex, 16)
                .map_err(|_| ParseTraceError::new(line_no, "bad hex token"))?
        } else {
            token_str
                .parse()
                .map_err(|_| ParseTraceError::new(line_no, "bad token"))?
        };
        let param: u32 = next("param")?
            .parse()
            .map_err(|_| ParseTraceError::new(line_no, "bad param"))?;
        if let Some(extra) = fields.next() {
            return Err(ParseTraceError::new(
                line_no,
                format!("unexpected field '{extra}'"),
            ));
        }
        events.push(Event::new(ts, channel, token, param));
    }
    Ok(Trace::from_unsorted(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_small() {
        let t = Trace::from_unsorted(vec![
            Event::new(100, 0, 0x0101, 1),
            Event::new(50, 3, 0x0203, 0xFFFF_FFFF),
        ]);
        let parsed = from_csv(&to_csv(&t)).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn accepts_decimal_tokens_and_comments() {
        let text = "# archived trace\n100,1,257,9\n";
        let t = from_csv(text).unwrap();
        assert_eq!(t.events()[0].token.value(), 257);
        assert_eq!(t.events()[0].channel, 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_csv("ts_ns,channel,token,param\n1,2\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("missing field"));
        let err = from_csv("abc,0,1,2\n").unwrap_err();
        assert!(err.to_string().contains("bad ts_ns"));
        let err = from_csv("1,0,1,2,3\n").unwrap_err();
        assert!(err.to_string().contains("unexpected field"));
    }

    proptest! {
        #[test]
        fn roundtrip_random(
            rows in proptest::collection::vec(
                (any::<u64>(), 0usize..64, any::<u16>(), any::<u32>()),
                0..100,
            )
        ) {
            let t = Trace::from_unsorted(
                rows.iter().map(|&(ts, ch, tok, p)| Event::new(ts, ch, tok, p)).collect(),
            );
            prop_assert_eq!(from_csv(&to_csv(&t)).unwrap(), t);
        }

        #[test]
        fn garbage_rows_are_refused_with_their_line(
            rows in proptest::collection::vec(proptest::collection::vec(0usize..12, 0..7), 1..6),
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            const FIELDS: [&str; 12] = [
                "0", "1200", "0x0101", "0xFFFF", "0x10000", "18446744073709551616", "-1",
                "4294967296", "", " ", "x", "#",
            ];
            let text: String = rows
                .iter()
                .map(|row| row.iter().map(|&i| FIELDS[i]).collect::<Vec<_>>().join(",") + "\n")
                .collect();
            for text in [text, String::from_utf8_lossy(&bytes).into_owned()] {
                if let Err(e) = from_csv(&text) {
                    prop_assert!((1..=text.lines().count()).contains(&e.line()), "{e}");
                }
            }
        }
    }
}
