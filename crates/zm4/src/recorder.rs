//! The event recorder: timestamping, FIFO buffering, disk drain.
//!
//! Upon the detector's request signal the recorder latches the event data
//! together with a timestamp from its local 100 ns clock and a flag field
//! into a 32K × 96-bit FIFO. The FIFO drains continuously onto the
//! monitor agent's disk at roughly 10 000 events/s; its input side
//! tolerates bursts of up to 10 million events/s. When the FIFO is full,
//! events are **lost** and counted — exactly the failure mode the paper's
//! sizing argument is about.
//!
//! The drain is modelled as a deterministic single-server queue: each
//! stored record departs `drain_service_time` after the previous
//! departure (or after its own arrival, whichever is later); a record
//! occupies a FIFO slot until its departure. "Disk" is a
//! `Vec<StoredRecord>`: the recorder's local trace.

use std::collections::VecDeque;

use des::clock::ClockModel;
use des::time::SimTime;

use crate::detector::DetectedEvent;

/// A record as written to the monitor agent's disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredRecord {
    /// The local-clock timestamp (nanoseconds on this recorder's clock).
    /// Globally valid when the MTG drives the clock.
    pub local_ts: u64,
    /// The source channel.
    pub channel: usize,
    /// The 48-bit event.
    pub event: hybridmon::MonEvent,
    /// True global arrival time (simulation ground truth, for
    /// validation only — the real hardware has no such column).
    pub true_time: SimTime,
}

/// Health counters of one event recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Events recorded (accepted into the FIFO).
    pub recorded: u64,
    /// Events lost to FIFO overflow.
    pub lost: u64,
    /// Peak FIFO occupancy observed.
    pub max_fifo_occupancy: usize,
}

/// One event recorder with its clock, FIFO and disk drain.
///
/// # Examples
///
/// ```
/// use des::clock::ClockModel;
/// use des::time::{SimDuration, SimTime};
/// use hybridmon::MonEvent;
/// use zm4::{DetectedEvent, EventRecorder};
///
/// let clock = ClockModel::synchronized(SimDuration::from_nanos(100));
/// let mut rec = EventRecorder::new(clock, 4, SimDuration::from_micros(100));
/// rec.record(DetectedEvent {
///     time: SimTime::from_nanos(1_234),
///     channel: 0,
///     event: MonEvent::new(1, 2),
/// });
/// let (stored, stats) = rec.finish();
/// assert_eq!(stored.len(), 1);
/// assert_eq!(stored[0].local_ts, 1_200); // quantized to 100 ns
/// assert_eq!(stats.lost, 0);
/// ```
#[derive(Debug)]
pub struct EventRecorder {
    clock: ClockModel,
    capacity: usize,
    service: des::time::SimDuration,
    /// Records in the FIFO with their scheduled departure times.
    fifo: VecDeque<(StoredRecord, SimTime)>,
    last_departure: SimTime,
    stored: Vec<StoredRecord>,
    stats: RecorderStats,
}

impl EventRecorder {
    /// Creates a recorder draining to a `Vec<StoredRecord>`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `service` is zero.
    pub fn new(clock: ClockModel, capacity: usize, service: des::time::SimDuration) -> Self {
        assert!(capacity > 0, "FIFO capacity must be nonzero");
        assert!(!service.is_zero(), "drain service time must be nonzero");
        EventRecorder {
            clock,
            capacity,
            service,
            fifo: VecDeque::new(),
            last_departure: SimTime::ZERO,
            stored: Vec::new(),
            stats: RecorderStats::default(),
        }
    }

    /// The recorder's clock model.
    pub fn clock(&self) -> &ClockModel {
        &self.clock
    }

    /// Records one detected event arriving at its true time.
    ///
    /// Events must arrive in non-decreasing true-time order.
    #[inline]
    pub fn record(&mut self, ev: DetectedEvent) {
        self.drain_until(ev.time);
        if self.fifo.len() >= self.capacity {
            self.stats.lost += 1;
            return;
        }
        let record = StoredRecord {
            local_ts: self.clock.stamp(ev.time),
            channel: ev.channel,
            event: ev.event,
            true_time: ev.time,
        };
        let departure = ev.time.max(self.last_departure) + self.service;
        self.last_departure = departure;
        self.fifo.push_back((record, departure));
        self.stats.recorded += 1;
        self.stats.max_fifo_occupancy = self.stats.max_fifo_occupancy.max(self.fifo.len());
    }

    /// Current FIFO occupancy.
    pub fn fifo_occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// Moves every record whose departure time has passed to disk.
    #[inline]
    fn drain_until(&mut self, now: SimTime) {
        while let Some(&(_, dep)) = self.fifo.front() {
            if dep <= now {
                let (rec, _) = self.fifo.pop_front().expect("checked front");
                self.stored.push(rec);
            } else {
                break;
            }
        }
    }

    /// Ends the measurement: drains the remaining FIFO contents to disk
    /// and returns the stored records plus statistics.
    pub fn finish(mut self) -> (Vec<StoredRecord>, RecorderStats) {
        while let Some((rec, _)) = self.fifo.pop_front() {
            self.stored.push(rec);
        }
        (self.stored, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::time::SimDuration;
    use hybridmon::MonEvent;
    use proptest::prelude::*;

    fn sync_clock() -> ClockModel {
        ClockModel::synchronized(SimDuration::from_nanos(100))
    }

    fn ev(ns: u64, token: u16) -> DetectedEvent {
        DetectedEvent {
            time: SimTime::from_nanos(ns),
            channel: 0,
            event: MonEvent::new(token, 0),
        }
    }

    #[test]
    fn slow_stream_never_loses() {
        // 10k ev/s drain; events every 1 ms are comfortably sustained.
        let mut rec = EventRecorder::new(sync_clock(), 8, SimDuration::from_micros(100));
        for i in 0..1000u64 {
            rec.record(ev(i * 1_000_000, i as u16));
        }
        let (stored, stats) = rec.finish();
        assert_eq!(stored.len(), 1000);
        assert_eq!(stats.lost, 0);
        assert!(
            stats.max_fifo_occupancy <= 1,
            "steady stream should not queue"
        );
    }

    #[test]
    fn burst_within_fifo_capacity_survives() {
        // Burst of `cap` events in 1 us (10M ev/s-ish): FIFO absorbs it.
        let cap = 1000;
        let mut rec = EventRecorder::new(sync_clock(), cap, SimDuration::from_micros(100));
        for i in 0..cap as u64 {
            rec.record(ev(1_000 + i, i as u16));
        }
        let (stored, stats) = rec.finish();
        assert_eq!(stored.len(), cap);
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.max_fifo_occupancy, cap);
    }

    #[test]
    fn burst_beyond_capacity_loses_excess() {
        let cap = 100;
        let mut rec = EventRecorder::new(sync_clock(), cap, SimDuration::from_micros(100));
        for i in 0..(cap as u64 + 50) {
            rec.record(ev(1_000 + i, i as u16));
        }
        let (_, stats) = rec.finish();
        assert_eq!(stats.recorded, cap as u64);
        assert_eq!(stats.lost, 50);
    }

    #[test]
    fn fifo_drains_between_bursts() {
        let cap = 10;
        let mut rec = EventRecorder::new(sync_clock(), cap, SimDuration::from_micros(100));
        // First burst fills the FIFO.
        for i in 0..cap as u64 {
            rec.record(ev(1_000 + i, 0));
        }
        assert_eq!(rec.fifo_occupancy(), cap);
        // 2 ms later everything has drained (10 records x 100 us = 1 ms).
        rec.record(ev(2_001_000, 1));
        assert_eq!(rec.fifo_occupancy(), 1);
        let (stored, stats) = rec.finish();
        assert_eq!(stored.len(), cap + 1);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn stamps_quantize_and_skew() {
        let skewed = ClockModel::free_running(1_000, 0.0, SimDuration::from_nanos(100));
        let mut rec = EventRecorder::new(skewed, 4, SimDuration::from_micros(100));
        rec.record(ev(5_030, 7));
        let (stored, _) = rec.finish();
        // 5030 + 1000 offset = 6030 -> quantized 6000.
        assert_eq!(stored[0].local_ts, 6_000);
        assert_eq!(stored[0].true_time, SimTime::from_nanos(5_030));
    }

    proptest! {
        /// Conservation: recorded + lost equals offered, and stored
        /// records preserve arrival order.
        #[test]
        fn conservation_and_order(gaps in proptest::collection::vec(0u64..200_000, 1..300)) {
            let mut rec = EventRecorder::new(sync_clock(), 64, SimDuration::from_micros(100));
            let mut t = 0u64;
            for (i, g) in gaps.iter().enumerate() {
                t += g;
                rec.record(ev(t, i as u16));
            }
            let offered = gaps.len() as u64;
            let (stored, stats) = rec.finish();
            prop_assert_eq!(stats.recorded + stats.lost, offered);
            prop_assert_eq!(stored.len() as u64, stats.recorded);
            prop_assert!(stored.windows(2).all(|w| w[0].true_time <= w[1].true_time));
            prop_assert!(stored.windows(2).all(|w| w[0].local_ts <= w[1].local_ts));
        }
    }
}
