//! Imperfect local clocks.
//!
//! Real distributed systems lack a shared high-resolution clock — the
//! central problem motivating the ZM4's measure tick generator. A
//! [`ClockModel`] converts true (global, simulated) time into what a local
//! clock would *report*: quantized to the clock's resolution and, if the
//! clock is free-running, displaced by a constant offset plus linear drift.
//!
//! A perfectly synchronized clock ([`ClockModel::synchronized`]) has zero
//! offset and drift and models an event-recorder clock locked to the tick
//! channel.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Models a local clock reading derived from true global time.
///
/// # Examples
///
/// ```
/// use des::clock::ClockModel;
/// use des::time::{SimDuration, SimTime};
///
/// // A synchronized 100ns-resolution clock (ZM4 event recorder).
/// let clock = ClockModel::synchronized(SimDuration::from_nanos(100));
/// let stamp = clock.stamp(SimTime::from_nanos(1234));
/// assert_eq!(stamp, 1200);
///
/// // A free-running clock that is 5us ahead and gains 50 ppm.
/// let skewed = ClockModel::free_running(5_000, 50.0, SimDuration::from_nanos(100));
/// assert!(skewed.stamp(SimTime::from_millis(1)) > 1_000_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClockModel {
    offset_ns: i64,
    drift_ppm: f64,
    resolution: SimDuration,
}

impl ClockModel {
    /// A clock perfectly locked to global time with the given resolution.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn synchronized(resolution: SimDuration) -> Self {
        assert!(!resolution.is_zero(), "clock resolution must be nonzero");
        ClockModel {
            offset_ns: 0,
            drift_ppm: 0.0,
            resolution,
        }
    }

    /// A free-running clock with a fixed `offset_ns` at t = 0 and a linear
    /// drift of `drift_ppm` parts per million.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn free_running(offset_ns: i64, drift_ppm: f64, resolution: SimDuration) -> Self {
        assert!(!resolution.is_zero(), "clock resolution must be nonzero");
        ClockModel {
            offset_ns,
            drift_ppm,
            resolution,
        }
    }

    /// Draws a plausible unsynchronized clock: offset uniform in
    /// `±max_offset`, drift uniform in `±max_drift_ppm`.
    pub fn random_skew(
        rng: &mut DetRng,
        max_offset: SimDuration,
        max_drift_ppm: f64,
        resolution: SimDuration,
    ) -> Self {
        let bound = max_offset.as_nanos() as f64;
        let offset = if bound > 0.0 {
            rng.symmetric(bound)
        } else {
            0.0
        };
        let drift = if max_drift_ppm > 0.0 {
            rng.symmetric(max_drift_ppm)
        } else {
            0.0
        };
        ClockModel::free_running(offset as i64, drift, resolution)
    }

    /// Returns `true` if the clock tracks global time exactly (before
    /// quantization).
    pub fn is_synchronized(&self) -> bool {
        self.offset_ns == 0 && self.drift_ppm == 0.0
    }

    /// Clock resolution (quantization step).
    pub fn resolution(&self) -> SimDuration {
        self.resolution
    }

    /// The local reading, in local nanoseconds, for true global time `now`.
    ///
    /// Readings are clamped at zero (a hardware counter cannot go
    /// negative) and quantized down to the clock resolution. A clock
    /// without drift reads in integers, exact at every time; only a
    /// drifting clock goes through `f64`.
    #[inline]
    pub fn stamp(&self, now: SimTime) -> u64 {
        let raw = if self.drift_ppm == 0.0 {
            now.as_nanos().saturating_add_signed(self.offset_ns)
        } else {
            let true_ns = now.as_nanos() as f64;
            let drifted = true_ns * (1.0 + self.drift_ppm * 1e-6) + self.offset_ns as f64;
            drifted.max(0.0) as u64
        };
        raw - raw % self.resolution.as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronized_quantizes_only() {
        let c = ClockModel::synchronized(SimDuration::from_nanos(100));
        assert!(c.is_synchronized());
        assert_eq!(c.stamp(SimTime::from_nanos(999)), 900);
        assert_eq!(c.stamp(SimTime::from_nanos(1000)), 1000);
    }

    #[test]
    fn offset_shifts_reading() {
        let c = ClockModel::free_running(500, 0.0, SimDuration::from_nanos(1));
        assert_eq!(c.stamp(SimTime::from_nanos(1000)), 1500);
        assert!(!c.is_synchronized());
    }

    #[test]
    fn negative_offset_clamps_at_zero() {
        let c = ClockModel::free_running(-10_000, 0.0, SimDuration::from_nanos(1));
        assert_eq!(c.stamp(SimTime::from_nanos(100)), 0);
    }

    #[test]
    fn drift_accumulates() {
        // +100 ppm over one second = +100us.
        let c = ClockModel::free_running(0, 100.0, SimDuration::from_nanos(1));
        let reading = c.stamp(SimTime::from_secs(1));
        let expected = 1_000_000_000u64 + 100_000;
        assert!(
            (reading as i64 - expected as i64).abs() < 100,
            "reading {reading}"
        );
    }

    #[test]
    fn synchronized_stamps_are_exact_past_f64_precision() {
        // Past 2^53 ns an f64 reading rounds before it quantizes.
        let c = ClockModel::synchronized(SimDuration::from_nanos(100));
        assert_eq!(
            c.stamp(SimTime::from_nanos(18_014_398_509_481_999)),
            18_014_398_509_481_900
        );
        assert_eq!(
            c.stamp(SimTime::from_nanos(u64::MAX)),
            u64::MAX - u64::MAX % 100
        );
        assert_eq!(
            c.stamp(SimTime::from_nanos(u64::MAX - 15)),
            u64::MAX - u64::MAX % 100
        );
        assert_eq!(
            c.stamp(SimTime::from_nanos(u64::MAX - 16)),
            u64::MAX - u64::MAX % 100 - 100
        );
    }

    #[test]
    fn offset_without_drift_saturates_at_both_ends() {
        let ahead = ClockModel::free_running(1_000, 0.0, SimDuration::from_nanos(1));
        assert_eq!(ahead.stamp(SimTime::from_nanos(u64::MAX - 10)), u64::MAX);
        assert_eq!(
            ahead.stamp(SimTime::from_nanos(18_014_398_509_481_999)),
            18_014_398_509_482_999
        );
        let behind = ClockModel::free_running(-1_000, 0.0, SimDuration::from_nanos(1));
        assert_eq!(
            behind.stamp(SimTime::from_nanos(u64::MAX)),
            u64::MAX - 1_000
        );
        assert_eq!(behind.stamp(SimTime::from_nanos(999)), 0);
    }

    #[test]
    fn random_skew_is_bounded_and_deterministic() {
        let mut r1 = DetRng::new(5).derive("clock");
        let mut r2 = DetRng::new(5).derive("clock");
        let a = ClockModel::random_skew(
            &mut r1,
            SimDuration::from_millis(5),
            50.0,
            SimDuration::from_nanos(100),
        );
        let b = ClockModel::random_skew(
            &mut r2,
            SimDuration::from_millis(5),
            50.0,
            SimDuration::from_nanos(100),
        );
        assert_eq!(a, b);
        assert!(a.offset_ns.abs() <= 5_000_000);
        assert!(a.drift_ppm.abs() <= 50.0);
    }
}
