//! ZM4 configuration, anchored to the published hardware parameters.

use des::time::SimDuration;

/// Configuration of a ZM4 monitor system.
///
/// Defaults are the paper's hardware figures:
///
/// * event-recorder clock resolution **100 ns**;
/// * FIFO buffer of **32 K** records (32K × 96 bit);
/// * sustained drain to the monitor-agent disk of about
///   **10 000 events/s**;
/// * up to **4 event streams per recorder** and **4 DPUs per agent**.
///
/// # Examples
///
/// ```
/// use zm4::Zm4Config;
///
/// let cfg = Zm4Config { mtg_synchronized: false, ..Zm4Config::default() };
/// assert!(!cfg.mtg_synchronized);
/// assert_eq!(cfg.fifo_capacity, 32 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zm4Config {
    /// Independent event streams multiplexed onto one event recorder.
    pub streams_per_recorder: usize,
    /// DPUs hosted by one monitor agent.
    pub dpus_per_agent: usize,
    /// FIFO capacity in records.
    pub fifo_capacity: usize,
    /// Local clock resolution.
    pub clock_resolution: SimDuration,
    /// Sustained FIFO→disk drain rate, events per second.
    pub disk_drain_rate: u64,
    /// Latency of the event-detector state machine from the last pattern
    /// of an event to the recorder's request signal.
    pub detector_latency: SimDuration,
    /// Whether the measure tick generator drives all recorder clocks
    /// (globally valid timestamps). When `false`, each recorder clock
    /// free-runs with a random offset/drift — the ablation that shows why
    /// the MTG exists.
    pub mtg_synchronized: bool,
    /// Maximum clock offset drawn for free-running recorders.
    pub skew_max_offset: SimDuration,
    /// Maximum clock drift (ppm) drawn for free-running recorders.
    pub skew_max_drift_ppm: f64,
    /// Seed for skew draws (overwritten by [`crate::Zm4::new`]).
    pub seed: u64,
}

impl Default for Zm4Config {
    fn default() -> Self {
        Zm4Config {
            streams_per_recorder: 4,
            dpus_per_agent: 4,
            fifo_capacity: 32 * 1024,
            clock_resolution: SimDuration::from_nanos(100),
            disk_drain_rate: 10_000,
            detector_latency: SimDuration::from_nanos(500),
            mtg_synchronized: true,
            skew_max_offset: SimDuration::from_millis(5),
            skew_max_drift_ppm: 50.0,
            seed: 0,
        }
    }
}

impl Zm4Config {
    /// Peak burst rate one event recorder can absorb, events/s
    /// (paper §3.1: "bursts of up to 10 million events/s").
    pub const BURST_RATE_HZ: u64 = 10_000_000;

    /// Fastest drain rate whose service time is still a whole
    /// nanosecond: any faster rate rounds it to zero, which the
    /// recorder refuses.
    const MAX_DRAIN_RATE: u64 = 1_000_000_000;

    /// Checks that a monitor can be built from this configuration: the
    /// conditions [`crate::Zm4::observe`] and its recorders assert,
    /// reported as an error naming the field instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self) -> Result<(), String> {
        if self.streams_per_recorder == 0 {
            return Err("streams_per_recorder must be at least 1".into());
        }
        if self.dpus_per_agent == 0 {
            return Err("dpus_per_agent must be at least 1".into());
        }
        if self.fifo_capacity == 0 {
            return Err("fifo_capacity must be at least 1".into());
        }
        if self.clock_resolution.is_zero() {
            return Err("clock_resolution must be positive".into());
        }
        if !(1..=Self::MAX_DRAIN_RATE).contains(&self.disk_drain_rate) {
            return Err(format!(
                "disk_drain_rate must be in 1..={} events/s",
                Self::MAX_DRAIN_RATE
            ));
        }
        Ok(())
    }

    /// Service time of one FIFO→disk record.
    ///
    /// # Panics
    ///
    /// Panics if the drain rate is zero.
    pub fn drain_service_time(&self) -> SimDuration {
        assert!(self.disk_drain_rate > 0, "drain rate must be nonzero");
        SimDuration::from_nanos(1_000_000_000 / self.disk_drain_rate)
    }

    /// Builds the monitor this configuration describes, observing
    /// `channels` event streams with determinism seed `seed` (the
    /// configured seed field is overwritten — see [`crate::Zm4::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn build(&self, channels: usize, seed: u64) -> crate::Zm4 {
        crate::Zm4::new(self.clone(), channels, seed)
    }

    /// How long a recorder sustains an arrival rate of `arrival_hz`
    /// events/s before its FIFO overflows and events are lost, assuming
    /// the FIFO starts empty. `None` when the disk drain keeps up
    /// (`arrival_hz <= disk_drain_rate`) — the FIFO never fills.
    ///
    /// This is the closed-form counterpart of the recorder's dynamic
    /// FIFO model, used for static overload prediction.
    pub fn overflow_horizon(&self, arrival_hz: f64) -> Option<SimDuration> {
        let excess = arrival_hz - self.disk_drain_rate as f64;
        if excess <= 0.0 {
            return None;
        }
        let seconds = self.fifo_capacity as f64 / excess;
        Some(SimDuration::from_nanos((seconds * 1e9) as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_anchors() {
        let cfg = Zm4Config::default();
        assert_eq!(cfg.clock_resolution, SimDuration::from_nanos(100));
        assert_eq!(cfg.fifo_capacity, 32_768);
        assert_eq!(cfg.disk_drain_rate, 10_000);
        assert_eq!(cfg.drain_service_time(), SimDuration::from_micros(100));
        assert!(cfg.mtg_synchronized);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_drain_rate_panics() {
        Zm4Config {
            disk_drain_rate: 0,
            ..Zm4Config::default()
        }
        .drain_service_time();
    }

    #[test]
    fn overflow_horizon_matches_fifo_arithmetic() {
        let cfg = Zm4Config::default();
        // Drain keeps up: never overflows.
        assert_eq!(cfg.overflow_horizon(9_999.0), None);
        assert_eq!(cfg.overflow_horizon(10_000.0), None);
        // 42 768 ev/s arrival: 32 768 excess events/s fill the 32K FIFO
        // in exactly one second.
        let horizon = cfg.overflow_horizon(42_768.0).unwrap();
        assert_eq!(horizon, SimDuration::from_secs(1));
        // The paper's burst figure drowns the FIFO in ~3.3 ms.
        let burst = cfg
            .overflow_horizon(Zm4Config::BURST_RATE_HZ as f64)
            .unwrap();
        assert!(burst < SimDuration::from_millis(4));
    }
}
