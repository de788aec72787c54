//! Display emissions: the compact form of a hybrid-monitoring
//! instrumentation event, before its 32-pattern display sequence exists.
//!
//! The kernel records one [`EmissionRecord`] per emission — the start
//! time, pattern spacing, node, and 48-bit payload — and nothing else:
//! materializing every [`DisplayWrite`] would multiply the run's
//! display traffic by [`WRITES_PER_EVENT`]. The monitor pipeline
//! decodes fault-free runs straight from the records; the pattern-level
//! path (fault injection, and every reader of
//! [`Machine::signals`](crate::Machine::signals)) expands them with
//! [`EmissionRecord::writes`].

use des::time::{SimDuration, SimTime};
use hybridmon::encode::{encode, WRITES_PER_EVENT};
use hybridmon::MonEvent;

use crate::ids::NodeId;
use crate::signals::DisplayWrite;

/// One hybrid-monitoring emission in compact (unexpanded) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmissionRecord {
    /// When the node's display became available for this emission (the
    /// per-node serialization point; the first pattern lands one
    /// `spacing` later).
    pub start: SimTime,
    /// Time between consecutive pattern writes of this emission.
    pub spacing: SimDuration,
    /// The emitting node (= monitor channel).
    pub node: NodeId,
    /// Event token.
    pub token: u16,
    /// Event parameter.
    pub param: u32,
}

impl EmissionRecord {
    /// Time of the last display write of this emission — the pattern
    /// that completes the event at the detector. Per node, emissions
    /// never overlap: the kernel's display serializer starts the next
    /// one no earlier than `spacing` after this write.
    pub fn last_write_at(&self) -> SimTime {
        self.start + self.spacing * WRITES_PER_EVENT as u64
    }

    /// The event this emission encodes.
    pub fn event(&self) -> MonEvent {
        MonEvent::new(self.token, self.param)
    }

    /// Expands the emission into its display-write sequence: pattern
    /// `i` of the encoding lands at `start + spacing × (i + 1)`.
    pub fn writes(&self) -> impl Iterator<Item = DisplayWrite> + '_ {
        encode(self.event())
            .into_iter()
            .enumerate()
            .map(move |(i, pattern)| DisplayWrite {
                time: self.start + self.spacing * (i as u64 + 1),
                node: self.node,
                pattern,
            })
    }

    /// Number of display writes this record expands to.
    pub const fn write_count() -> usize {
        WRITES_PER_EVENT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_matches_inline_arithmetic() {
        let rec = EmissionRecord {
            start: SimTime::from_micros(10),
            spacing: SimDuration::from_nanos(250),
            node: NodeId::new(3),
            token: 0x42,
            param: 7,
        };
        let writes: Vec<DisplayWrite> = rec.writes().collect();
        assert_eq!(writes.len(), WRITES_PER_EVENT);
        assert_eq!(rec.last_write_at(), writes[WRITES_PER_EVENT - 1].time);
        for (i, w) in writes.iter().enumerate() {
            assert_eq!(
                w.time,
                rec.start + rec.spacing * (i as u64 + 1),
                "write {i} off the inline grid"
            );
            assert_eq!(w.node, rec.node);
        }
        // The pattern sequence is the canonical encoding.
        let expected = encode(MonEvent::new(0x42, 7));
        for (w, p) in writes.iter().zip(expected) {
            assert_eq!(w.pattern, p);
        }
    }
}
