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
//! occupies a FIFO slot until its departure. The FIFO drains in arrival
//! order, so the disk receives the accepted records in the order they
//! arrived. The simulation therefore keeps only the FIFO's departure
//! times: [`EventRecorder::record`] hands an accepted event's timestamp
//! back at once, and the caller writes the record out in arrival order.

use std::collections::VecDeque;

use des::clock::ClockModel;
use des::time::{SimDuration, SimTime};

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
/// use zm4::EventRecorder;
///
/// let clock = ClockModel::synchronized(SimDuration::from_nanos(100));
/// let mut rec = EventRecorder::new(clock, 1, SimDuration::from_micros(100));
/// // Accepted: stamped on the local clock, quantized to 100 ns.
/// assert_eq!(rec.record(SimTime::from_nanos(1_234)), Some(1_200));
/// // The one-slot FIFO is still draining the first record: lost.
/// assert_eq!(rec.record(SimTime::from_nanos(5_000)), None);
/// assert_eq!(rec.stats().recorded, 1);
/// assert_eq!(rec.stats().lost, 1);
/// ```
#[derive(Debug)]
pub struct EventRecorder {
    clock: ClockModel,
    capacity: usize,
    service: SimDuration,
    /// Departure times of the records in the FIFO, oldest first.
    fifo: VecDeque<SimTime>,
    last_departure: SimTime,
    stats: RecorderStats,
}

impl EventRecorder {
    /// Creates a recorder with an empty FIFO of `capacity` records that
    /// drains one record every `service`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `service` is zero.
    pub fn new(clock: ClockModel, capacity: usize, service: SimDuration) -> Self {
        assert!(capacity > 0, "FIFO capacity must be nonzero");
        assert!(!service.is_zero(), "drain service time must be nonzero");
        EventRecorder {
            clock,
            capacity,
            service,
            fifo: VecDeque::new(),
            last_departure: SimTime::ZERO,
            stats: RecorderStats::default(),
        }
    }

    /// The recorder's clock model.
    pub fn clock(&self) -> &ClockModel {
        &self.clock
    }

    /// Offers one event whose request signal fires at true time `time`.
    /// Returns its local timestamp when the FIFO accepts it, `None` when
    /// the FIFO is full and the event is lost.
    ///
    /// Events must arrive in non-decreasing true-time order.
    #[inline]
    pub fn record(&mut self, time: SimTime) -> Option<u64> {
        while self
            .fifo
            .front()
            .is_some_and(|&departure| departure <= time)
        {
            self.fifo.pop_front();
        }
        if self.fifo.len() >= self.capacity {
            self.stats.lost += 1;
            return None;
        }
        let departure = time.max(self.last_departure) + self.service;
        self.last_departure = departure;
        self.fifo.push_back(departure);
        self.stats.recorded += 1;
        self.stats.max_fifo_occupancy = self.stats.max_fifo_occupancy.max(self.fifo.len());
        Some(self.clock.stamp(time))
    }

    /// Current FIFO occupancy.
    pub fn fifo_occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// The counters so far.
    pub fn stats(&self) -> RecorderStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sync_clock() -> ClockModel {
        ClockModel::synchronized(SimDuration::from_nanos(100))
    }

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn slow_stream_never_loses() {
        // 10k ev/s drain; events every 1 ms are comfortably sustained.
        let mut rec = EventRecorder::new(sync_clock(), 8, SimDuration::from_micros(100));
        let stored = (0..1000u64)
            .filter_map(|i| rec.record(at(i * 1_000_000)))
            .count();
        let stats = rec.stats();
        assert_eq!(stored, 1000);
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
        let stored = (0..cap as u64)
            .filter_map(|i| rec.record(at(1_000 + i)))
            .count();
        let stats = rec.stats();
        assert_eq!(stored, cap);
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.max_fifo_occupancy, cap);
    }

    #[test]
    fn burst_beyond_capacity_loses_excess() {
        let cap = 100;
        let mut rec = EventRecorder::new(sync_clock(), cap, SimDuration::from_micros(100));
        for i in 0..(cap as u64 + 50) {
            rec.record(at(1_000 + i));
        }
        let stats = rec.stats();
        assert_eq!(stats.recorded, cap as u64);
        assert_eq!(stats.lost, 50);
    }

    #[test]
    fn fifo_drains_between_bursts() {
        let cap = 10;
        let mut rec = EventRecorder::new(sync_clock(), cap, SimDuration::from_micros(100));
        // First burst fills the FIFO.
        for i in 0..cap as u64 {
            assert!(rec.record(at(1_000 + i)).is_some());
        }
        assert_eq!(rec.fifo_occupancy(), cap);
        // 2 ms later everything has drained (10 records x 100 us = 1 ms).
        assert!(rec.record(at(2_001_000)).is_some());
        assert_eq!(rec.fifo_occupancy(), 1);
        let stats = rec.stats();
        assert_eq!(stats.recorded, cap as u64 + 1);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn stamps_quantize_and_skew() {
        let skewed = ClockModel::free_running(1_000, 0.0, SimDuration::from_nanos(100));
        let mut rec = EventRecorder::new(skewed, 4, SimDuration::from_micros(100));
        // 5030 + 1000 offset = 6030 -> quantized 6000.
        assert_eq!(rec.record(at(5_030)), Some(6_000));
    }

    proptest! {
        /// Conservation: recorded + lost equals offered, and the accepted
        /// records' stamps follow their arrival order.
        #[test]
        fn conservation_and_order(gaps in proptest::collection::vec(0u64..200_000, 1..300)) {
            let mut rec = EventRecorder::new(sync_clock(), 64, SimDuration::from_micros(100));
            let mut t = 0u64;
            let mut stamps = Vec::new();
            for g in &gaps {
                t += g;
                stamps.extend(rec.record(at(t)));
            }
            let offered = gaps.len() as u64;
            let stats = rec.stats();
            prop_assert_eq!(stats.recorded + stats.lost, offered);
            prop_assert_eq!(stamps.len() as u64, stats.recorded);
            prop_assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(stats.max_fifo_occupancy <= 64);
        }
    }
}
