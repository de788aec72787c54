//! Deterministic priority event queue.
//!
//! Events are ordered by timestamp; events with equal timestamps pop in the
//! order they were pushed (FIFO tie-break by a monotonically increasing
//! sequence number). This is what makes the whole simulation deterministic:
//! ordering by time alone says nothing about equal timestamps.
//!
//! [`EventQueue`] keeps 16-byte keys, `(time, seq << 24 | slot)`, in a
//! vector sorted latest first, and the payloads apart in a slab of slots
//! with a free list, so an insertion moves keys, never an event. Every
//! event's sequence number is unique, so the pop order depends only on
//! the pushes. A pop takes the last key; a push finds its place by binary
//! search, and one that becomes the new earliest event goes on the end.
//!
//! The kernel keeps few events pending. On the stock workloads they
//! average 3.6 / 6.0 on fig10's V1 / V2, 14 per Jacobi shard and 15 on
//! sched-faults, with a maximum of 56, so the queue reserves room for 64
//! when it is built, and an insertion shifts a few keys at most. The
//! share of pushes that become the new earliest event is 57 % on fig10's
//! V1 and V2, 31 % on sched-faults and 2–5 % per Jacobi shard.
//!
//! A key has 40 bits for the sequence number and 24 for the slot: the
//! queue asserts that fewer than 2^40 events are ever pushed and fewer
//! than 2^24 are pending at once, and never wraps silently.
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

use crate::time::SimTime;

/// Bits of a key's tag that hold the payload slot; the sequence number
/// has the other 40.
const SLOT_BITS: u32 = 24;
/// Payload slots a key can address: events pending at once.
const MAX_SLOTS: usize = 1 << SLOT_BITS;
/// Sequence numbers a key can hold: events pushed in the queue's life.
const MAX_SEQ: u64 = 1 << (u64::BITS - SLOT_BITS);
/// Pending events the queue holds before its vectors first grow.
const RESERVED: usize = 64;

/// A pending event's order key: its time in the high 64 bits and its
/// tag, `seq << 24 | slot`, in the low 64. As an integer it orders by
/// `(time, seq)`; sequence numbers are unique, so the slot bits never
/// decide.
type Key = u128;

/// Packs an event's key.
///
/// # Panics
///
/// Panics if `seq` or `slot` does not fit its field.
fn pack(time: SimTime, seq: u64, slot: usize) -> Key {
    assert!(
        seq < MAX_SEQ,
        "event queue overflow: sequence number {seq} does not fit the key's 40 bits"
    );
    assert!(
        slot < MAX_SLOTS,
        "event queue overflow: slot {slot} does not fit the key's 24 bits \
         (2^24 events pending at once)"
    );
    u128::from(time.as_nanos()) << 64 | u128::from(seq << SLOT_BITS | slot as u64)
}

fn time_of(key: Key) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

fn slot_of(key: Key) -> usize {
    (key as u64 & (MAX_SLOTS as u64 - 1)) as usize
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
    /// The pending events' keys, sorted latest first: the last is the
    /// next to pop.
    keys: Vec<Key>,
    /// Payloads, indexed by a key's slot; `None` in a free slot.
    slots: Vec<Option<E>>,
    /// Free slots, reused last-freed first.
    free: Vec<usize>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with room for 64 pending events.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::with_capacity(RESERVED),
            slots: Vec::with_capacity(RESERVED),
            free: Vec::with_capacity(RESERVED),
            next_seq: 0,
        }
    }

    /// Enqueues `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics on the 2^40-th push of the queue's life, or when 2^24
    /// events are already pending.
    pub fn push(&mut self, time: SimTime, event: E) {
        let slot = self.free.pop().unwrap_or(self.slots.len());
        let key = pack(time, self.next_seq, slot);
        self.next_seq += 1;
        if slot == self.slots.len() {
            self.slots.push(Some(event));
        } else {
            self.slots[slot] = Some(event);
        }
        let at = self.keys.partition_point(|&k| k > key);
        self.keys.insert(at, key);
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let key = self.keys.pop()?;
        let slot = slot_of(key);
        let event = self.slots[slot]
            .take()
            .expect("a pending key's slot holds its event");
        self.free.push(slot);
        Some((time_of(key), event))
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.last().copied().map(time_of)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Removes all pending events.
    ///
    /// The sequence counter is **not** reset (see the module
    /// documentation): events pushed after a `clear()` continue the
    /// global FIFO numbering, which changes nothing about pop order but
    /// keeps event identities unique across the whole run.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.free.clear();
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

    /// Slots are reused: a long run with few events pending never grows
    /// the slab past its high-water mark, and every payload comes back
    /// with its own time.
    #[test]
    fn slots_are_reused_across_many_pushes() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.push(SimTime::from_nanos(i), i);
        }
        let mut last = 0;
        for i in 5..100_000u64 {
            let (t, v) = q.pop().expect("five events stay pending");
            assert_eq!(t.as_nanos(), v);
            assert!(v >= last);
            last = v;
            // Alternately the next earliest event (the vector's end) and
            // one far behind it.
            let at = if i % 2 == 0 { v } else { v + 7 };
            q.push(SimTime::from_nanos(at), at);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.slots.len(), 5, "pops free slots and pushes reuse them");
        assert_eq!(q.events_pushed(), 100_000);
    }

    #[test]
    #[should_panic(expected = "sequence number 1099511627776 does not fit")]
    fn sequence_overflow_is_an_assertion() {
        let mut q = EventQueue::new();
        q.next_seq = MAX_SEQ;
        q.push(SimTime::ZERO, ());
    }

    #[test]
    #[should_panic(expected = "slot 16777216 does not fit")]
    fn slot_overflow_is_an_assertion() {
        pack(SimTime::ZERO, 0, MAX_SLOTS);
    }

    #[test]
    fn keys_pack_time_sequence_and_slot() {
        let key = pack(SimTime::MAX, MAX_SEQ - 1, MAX_SLOTS - 1);
        assert_eq!(time_of(key), SimTime::MAX);
        assert_eq!(slot_of(key), MAX_SLOTS - 1);
        assert_eq!(key, u128::MAX, "the fields fill all 128 bits");
        assert!(pack(SimTime::from_nanos(1), 0, 9) > pack(SimTime::ZERO, 5, 0));
        assert!(pack(SimTime::ZERO, 1, 0) > pack(SimTime::ZERO, 0, 9));
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
