//! Hardware signal logs observable from outside the machine.
//!
//! These are the streams an external hardware monitor can probe without
//! perturbing the object system: every pattern written to each node's
//! seven-segment display and every byte leaving each node's V.24 terminal
//! interface, with exact (true) global timestamps. The pattern-level ZM4
//! simulation consumes these logs; nothing inside the machine reads them
//! back.

use des::time::SimTime;
use hybridmon::Pattern;

use crate::ids::NodeId;

/// One pattern written to a node's seven-segment display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisplayWrite {
    /// True global time of the write.
    pub time: SimTime,
    /// The node whose display was written.
    pub node: NodeId,
    /// The pattern shown.
    pub pattern: Pattern,
}

/// One byte transmitted on a node's V.24 terminal interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TerminalWrite {
    /// True global time the byte finished transmitting.
    pub time: SimTime,
    /// The transmitting node.
    pub node: NodeId,
    /// The byte value.
    pub byte: u8,
}

/// All externally probed signals of one run.
#[derive(Debug, Clone, Default)]
pub struct SignalLog {
    display: Vec<DisplayWrite>,
    terminal: Vec<TerminalWrite>,
}

impl SignalLog {
    /// Builds a log from display writes and terminal bytes in emission
    /// order. Each stream is stably sorted by time: the kernel emits the
    /// writes of one event at increasing future timestamps, so streams
    /// of concurrent nodes interleave, and equal times keep emission
    /// order.
    pub fn from_streams<D, T>(display: D, terminal: T) -> Self
    where
        D: IntoIterator<Item = DisplayWrite>,
        T: IntoIterator<Item = TerminalWrite>,
    {
        let mut display: Vec<DisplayWrite> = display.into_iter().collect();
        let mut terminal: Vec<TerminalWrite> = terminal.into_iter().collect();
        display.sort_by_key(|w| w.time);
        terminal.sort_by_key(|w| w.time);
        SignalLog { display, terminal }
    }

    /// All display writes in time order.
    pub fn display_writes(&self) -> &[DisplayWrite] {
        &self.display
    }

    /// All terminal bytes in time order.
    pub fn terminal_writes(&self) -> &[TerminalWrite] {
        &self.terminal
    }

    /// Display writes of one node, in time order.
    pub fn display_writes_for(&self, node: NodeId) -> Vec<DisplayWrite> {
        self.display
            .iter()
            .copied()
            .filter(|w| w.node == node)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dw(ns: u64, node: u16, pattern: u8) -> DisplayWrite {
        DisplayWrite {
            time: SimTime::from_nanos(ns),
            node: NodeId::new(node),
            pattern: Pattern::new(pattern).unwrap(),
        }
    }

    #[test]
    fn filter_by_node_sorts() {
        let log = SignalLog::from_streams([dw(30, 0, 1), dw(10, 1, 2), dw(20, 0, 3)], []);
        let n0 = log.display_writes_for(NodeId::new(0));
        assert_eq!(n0.len(), 2);
        assert!(n0[0].time < n0[1].time);
        assert_eq!(log.display_writes_for(NodeId::new(1)).len(), 1);
        assert!(log.display_writes_for(NodeId::new(9)).is_empty());
    }

    #[test]
    fn sort_orders_globally() {
        let terminal = TerminalWrite {
            time: SimTime::from_nanos(5),
            node: NodeId::new(0),
            byte: 0xAA,
        };
        // Equal times keep emission order.
        let log = SignalLog::from_streams([dw(30, 0, 1), dw(10, 1, 2), dw(10, 0, 4)], [terminal]);
        assert_eq!(log.display_writes()[0], dw(10, 1, 2));
        assert_eq!(log.display_writes()[1], dw(10, 0, 4));
        assert_eq!(log.terminal_writes()[0].byte, 0xAA);
    }
}
