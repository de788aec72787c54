//! Hybrid-monitoring instrumentation layer.
//!
//! This crate implements the paper's central contribution: the protocol by
//! which an instrumented program running on a SUPRENUM node emits 48-bit
//! measurement events through the node's *seven-segment display* socket to
//! an external hardware monitor.
//!
//! The instrumentation call is
//!
//! ```text
//! hybrid_mon(p1, p2)
//! ```
//!
//! where `p1` is a 16-bit [`EventToken`] identifying the event and `p2` a
//! 32-bit [`EventParam`] carrying additional data (a job id, a pixel
//! index, …). The display can show only 16 distinct patterns, so the 48
//! bits are serialized as 16 pairs
//!
//! ```text
//! T m0  T m1  ...  T m15
//! ```
//!
//! where `T` is a reserved *triggerword* pattern and each `mᵢ` encodes
//! 3 bits of the payload ([`encode::encode`]). The external event detector
//! reassembles the original 48 bits with a small state machine
//! ([`decode::Decoder`]), which is also the reference implementation used
//! by the ZM4 simulation.
//!
//! Two essential protocol conditions from the paper are enforced and
//! testable here:
//!
//! 1. the triggerword is reserved — ordinary display traffic never uses it;
//! 2. each `(T, mᵢ)` pair is output atomically — no foreign pattern may be
//!    interleaved between `T` and its `mᵢ`.
//!
//! [`cost`] provides the intrusion cost models for the three monitoring
//! techniques the paper compares (hybrid, serial terminal, pure software),
//! anchored to the published numbers (< 120 µs per `hybrid_mon` call versus
//! > 2.4 ms via the V.24 terminal interface). [`software::SoftwareMonitor`]
//! > implements the in-memory software-monitoring baseline with local
//! > (skewed) timestamps.
//!
//! # Examples
//!
//! ```
//! use hybridmon::{decode::Decoder, encode::encode, MonEvent};
//!
//! let ev = MonEvent::new(0x0102, 0xDEAD_BEEF);
//! let mut decoder = Decoder::new();
//! let mut out = None;
//! for pattern in encode(ev) {
//!     if let Some(decoded) = decoder.feed(pattern) {
//!         out = Some(decoded);
//!     }
//! }
//! assert_eq!(out, Some(ev));
//! ```

pub mod cost;
pub mod decode;
pub mod encode;
pub mod event;
pub mod pattern;
pub mod software;

pub use cost::{IntrusionReport, MonitorCosts, MonitoringMode};
pub use decode::Decoder;
pub use event::{EventParam, EventToken, MonEvent};
pub use pattern::Pattern;
