//! Deterministic priority event queue.
//!
//! Events are ordered by timestamp; events with equal timestamps pop in the
//! order they were pushed (FIFO tie-break by a monotonically increasing
//! sequence number). This is what makes the whole simulation deterministic:
//! a plain heap alone gives no guarantee for equal keys.
//!
//! [`EventQueue`] is a binary heap ordered by `(time, seq)`. Every event's
//! sequence number is unique, so the pop order depends only on the pushes.
//! The kernel keeps few events pending (a few dozen on the stock
//! workloads), where the heap's `O(log n)` push and pop and its `O(1)`
//! peek are hard to beat.
//!
//! # Sequence numbers and [`EventQueue::clear`]
//!
//! `clear()` discards pending events but deliberately does **not** reset
//! the internal sequence counter: FIFO tie-breaking only ever compares
//! events that coexist in the queue, so a monotonically continuing counter
//! yields the same pop order as a reset one, while making every event's
//! sequence number unique across the whole run — replays that clear the
//! queue mid-run (e.g. on application termination) stay deterministic and
//! their event identities stay unambiguous. [`EventQueue::events_pushed`]
//! exposes the counter so this persistence is testable.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A timestamp-ordered queue of pending events with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use des::queue::EventQueue;
/// use des::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(5), "late");
/// q.push(SimTime::from_nanos(1), "early");
/// q.push(SimTime::from_nanos(5), "late-second");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "late")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "late-second")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Enqueues `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    ///
    /// The sequence counter is **not** reset (see the module
    /// documentation): events pushed after a `clear()` continue the
    /// global FIFO numbering, which changes nothing about pop order but
    /// keeps event identities unique across the whole run.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Total events ever pushed onto this queue — the next event's FIFO
    /// sequence number. Monotonic for the queue's whole lifetime,
    /// *including across [`clear`](Self::clear)*.
    pub fn events_pushed(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = q.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_cross_the_window() {
        let mut q = EventQueue::new();
        // Seconds apart, pushed out of order.
        q.push(SimTime::from_secs(10), "far");
        q.push(SimTime::from_nanos(1), "near");
        q.push(SimTime::from_secs(3), "mid");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "mid")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(10)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(100), 0);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 0)));
        // Push "into the past" relative to the last pop: the queue
        // API permits it and must still pop in (time, seq) order.
        q.push(SimTime::from_nanos(50), 1);
        q.push(SimTime::from_nanos(150), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(150), 2)));
    }

    #[test]
    fn sequence_counter_persists_across_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), "a");
        q.push(SimTime::from_nanos(2), "b");
        assert_eq!(q.events_pushed(), 2);
        q.clear();
        assert!(q.is_empty());
        // The counter continues — clearing must not recycle sequence
        // numbers (replays from a cleared queue stay deterministic and
        // event identities stay unique).
        assert_eq!(q.events_pushed(), 2);
        q.push(SimTime::from_nanos(1), "c");
        assert_eq!(q.events_pushed(), 3);
        // FIFO ordering among post-clear events is unaffected.
        q.push(SimTime::from_nanos(1), "d");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "c")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "d")));
    }

    #[test]
    fn equal_time_burst_spanning_clear_stays_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        for i in 0..10 {
            q.push(t, i);
        }
        q.clear();
        for i in 10..20 {
            q.push(t, i);
        }
        for i in 10..20 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    /// A far-horizon sentinel (e.g. an "unreachable" timeout near
    /// `u64::MAX`) must never overtake a much earlier event, including
    /// one pushed after the sentinel.
    #[test]
    fn far_horizon_sentinel_does_not_overtake_earlier_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::MAX, "sentinel");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        // Lands between the last pop and the sentinel.
        q.push(SimTime::from_nanos(1 << 50), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1 << 50), "b")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "sentinel")));
        assert_eq!(q.pop(), None);
    }

    /// FIFO must also survive the boundary itself: equal-timestamp events
    /// at `u64::MAX` interleaved with near events.
    #[test]
    fn equal_time_fifo_at_the_u64_boundary() {
        let mut q = EventQueue::new();
        q.push(SimTime::MAX, 0);
        q.push(SimTime::from_nanos(5), 1);
        q.push(SimTime::MAX, 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 1)));
        q.push(SimTime::MAX, 3);
        assert_eq!(q.pop(), Some((SimTime::MAX, 0)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 2)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 3)));
        assert_eq!(q.pop(), None);
    }

    /// One step of a random workload checked against the model.
    #[derive(Debug, Clone)]
    enum Op {
        /// Push at a delay after the last popped time.
        Push(u64),
        /// Push at an absolute time near the `u64::MAX` horizon.
        PushFar(u64),
        Pop,
    }

    /// Decodes a `(selector, value)` pair into an [`Op`], weighting the
    /// mix the way a simulation behaves: mostly short-delay pushes, some
    /// equal-timestamp bursts, some pushes seconds past the last pop, a
    /// few far-horizon sentinels near `u64::MAX`, and pops.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..10, 0u64..10_000_000_000).prop_map(|(sel, v)| match sel {
            0..=3 => Op::Push(v % 5_000),
            4 | 5 => Op::Push(1_000),
            6 => Op::Push(1_000_000 + v % 9_999_000_000),
            7 => Op::PushFar(u64::MAX - v % 50_000),
            _ => Op::Pop,
        })
    }

    /// An [`EventQueue`] driven in lockstep with its specification: a
    /// map keyed by `(time, push index)`, whose first entry is by
    /// definition the event the queue must pop next.
    struct Checked {
        queue: EventQueue<usize>,
        model: BTreeMap<(SimTime, u64), usize>,
        /// Pushes ever made, across `clear` — the next push index.
        pushed: u64,
        /// Time of the last pop; [`Op::Push`] delays count from it, so
        /// the workload walks forward as a simulation does.
        base: u64,
    }

    impl Checked {
        fn new() -> Self {
            Checked {
                queue: EventQueue::new(),
                model: BTreeMap::new(),
                pushed: 0,
                base: 0,
            }
        }

        fn push(&mut self, nanos: u64, payload: usize) {
            let t = SimTime::from_nanos(nanos);
            self.queue.push(t, payload);
            self.model.insert((t, self.pushed), payload);
            self.pushed += 1;
        }

        /// Applies `op` (tagged `payload` if it pushes) to both sides,
        /// then checks every observable against the model.
        fn apply(&mut self, payload: usize, op: &Op) -> Result<(), TestCaseError> {
            match *op {
                // Saturating: a popped far-horizon sentinel can leave
                // `base` near the u64 ceiling.
                Op::Push(delay) => self.push(self.base.saturating_add(delay), payload),
                Op::PushFar(t) => self.push(t, payload),
                Op::Pop => {
                    let popped = self.queue.pop();
                    let expected = self.model.pop_first().map(|((t, _), v)| (t, v));
                    prop_assert_eq!(popped, expected);
                    if let Some((t, _)) = popped {
                        self.base = t.as_nanos();
                    }
                }
            }
            prop_assert_eq!(
                self.queue.peek_time(),
                self.model.first_key_value().map(|(&(t, _), _)| t)
            );
            prop_assert_eq!(self.queue.len(), self.model.len());
            prop_assert_eq!(self.queue.is_empty(), self.model.is_empty());
            prop_assert_eq!(self.queue.events_pushed(), self.pushed);
            Ok(())
        }

        fn run(&mut self, ops: &[Op]) -> Result<(), TestCaseError> {
            for (i, op) in ops.iter().enumerate() {
                self.apply(i, op)?;
            }
            Ok(())
        }

        /// Pops until both sides are empty, checking each pop.
        fn drain(&mut self) -> Result<(), TestCaseError> {
            while !self.model.is_empty() {
                self.apply(0, &Op::Pop)?;
            }
            prop_assert_eq!(self.queue.pop(), None);
            Ok(())
        }
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and for
        /// equal times the original insertion order.
        #[test]
        fn pop_sequence_is_sorted_and_stable(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut prev: Option<(SimTime, usize)> = None;
            while let Some((t, i)) = q.pop() {
                if let Some((pt, pi)) = prev {
                    prop_assert!(t >= pt);
                    if t == pt {
                        prop_assert!(i > pi, "FIFO violated for equal timestamps");
                    }
                }
                prev = Some((t, i));
            }
        }

        /// For arbitrary interleaved push/pop workloads — equal-timestamp
        /// bursts, delays seconds long, sentinels at the `u64` horizon —
        /// every pop, `peek_time`, `len` and `events_pushed` matches the
        /// `(time, push index)` model.
        #[test]
        fn matches_ordered_map_model(ops in proptest::collection::vec(op_strategy(), 0..400)) {
            let mut checked = Checked::new();
            checked.run(&ops)?;
            checked.drain()?;
        }

        /// The same check with a `clear()` mid-run: both sides empty, and
        /// the queue's push count carries on from where it was.
        #[test]
        fn matches_ordered_map_model_across_clear(
            before in proptest::collection::vec(op_strategy(), 0..200),
            after in proptest::collection::vec(op_strategy(), 0..200),
        ) {
            let mut checked = Checked::new();
            checked.run(&before)?;
            checked.queue.clear();
            checked.model.clear();
            prop_assert_eq!(checked.queue.events_pushed(), checked.pushed);
            checked.run(&after)?;
            checked.drain()?;
        }
    }
}
