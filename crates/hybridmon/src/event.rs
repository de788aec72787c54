//! Measurement events: a 16-bit token plus a 32-bit parameter.
//!
//! The paper's `hybrid_mon(p1, p2)` call outputs 48 bits per event: `p1`
//! identifies the instrumentation point ([`EventToken`]) and `p2` carries
//! point-specific data ([`EventParam`]) such as a job sequence number. The
//! 48-bit wire representation packs the token into the high 16 bits.

use std::fmt;

/// A 16-bit identifier for an instrumentation point.
///
/// # Examples
///
/// ```
/// use hybridmon::EventToken;
///
/// let t = EventToken::new(0x0102);
/// assert_eq!(t.value(), 0x0102);
/// assert_eq!(format!("{t}"), "0x0102");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventToken(u16);

impl EventToken {
    /// Creates a token from its raw 16-bit value.
    pub const fn new(value: u16) -> Self {
        EventToken(value)
    }

    /// The raw 16-bit value.
    pub const fn value(self) -> u16 {
        self.0
    }
}

impl From<u16> for EventToken {
    fn from(v: u16) -> Self {
        EventToken(v)
    }
}

impl fmt::Display for EventToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:04X}", self.0)
    }
}

/// The 32-bit parameter field accompanying an event.
///
/// # Examples
///
/// ```
/// use hybridmon::EventParam;
///
/// let p = EventParam::new(7);
/// assert_eq!(p.value(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventParam(u32);

impl EventParam {
    /// Creates a parameter from its raw 32-bit value.
    pub const fn new(value: u32) -> Self {
        EventParam(value)
    }

    /// The raw 32-bit value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl From<u32> for EventParam {
    fn from(v: u32) -> Self {
        EventParam(v)
    }
}

impl fmt::Display for EventParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One 48-bit measurement event as emitted by `hybrid_mon(p1, p2)`.
///
/// # Examples
///
/// ```
/// use hybridmon::MonEvent;
///
/// let ev = MonEvent::new(0xBEEF, 42);
/// assert_eq!(ev.raw48(), 0xBEEF_0000_002A);
/// assert_eq!(MonEvent::from_raw48(ev.raw48()), ev);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MonEvent {
    /// Event identifier (`p1` in the paper).
    pub token: EventToken,
    /// Additional data (`p2` in the paper).
    pub param: EventParam,
}

impl MonEvent {
    /// Creates an event from raw token and parameter values.
    pub const fn new(token: u16, param: u32) -> Self {
        MonEvent {
            token: EventToken::new(token),
            param: EventParam::new(param),
        }
    }

    /// Packs the event into its 48-bit wire representation (token in the
    /// high 16 bits, parameter in the low 32).
    pub const fn raw48(self) -> u64 {
        ((self.token.value() as u64) << 32) | self.param.value() as u64
    }

    /// Unpacks an event from its 48-bit wire representation.
    ///
    /// Bits above 47 are ignored.
    pub const fn from_raw48(raw: u64) -> Self {
        MonEvent::new(((raw >> 32) & 0xFFFF) as u16, (raw & 0xFFFF_FFFF) as u32)
    }
}

impl fmt::Display for MonEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.token, self.param)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn raw48_layout() {
        let ev = MonEvent::new(0xFFFF, 0xFFFF_FFFF);
        assert_eq!(ev.raw48(), 0xFFFF_FFFF_FFFF);
        let ev = MonEvent::new(0x8000, 0x0000_0001);
        assert_eq!(ev.raw48(), 0x8000_0000_0001);
    }

    #[test]
    fn from_raw48_masks_high_bits() {
        let ev = MonEvent::from_raw48(0xDEAD_1234_0000_0042);
        assert_eq!(ev.token.value(), 0x1234);
        assert_eq!(ev.param.value(), 0x42);
    }

    #[test]
    fn display_formats() {
        let ev = MonEvent::new(0x00AB, 9);
        assert_eq!(format!("{ev}"), "0x00AB(9)");
    }

    proptest! {
        #[test]
        fn raw48_roundtrip(token in any::<u16>(), param in any::<u32>()) {
            let ev = MonEvent::new(token, param);
            prop_assert_eq!(MonEvent::from_raw48(ev.raw48()), ev);
            prop_assert!(ev.raw48() < (1u64 << 48));
        }
    }
}
