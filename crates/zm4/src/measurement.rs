//! The result of one ZM4 measurement.

use des::time::SimTime;
use hybridmon::decode::DecodeStats;
use hybridmon::MonEvent;

use crate::recorder::RecorderStats;

/// One entry of the merged global trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Timestamp, in nanoseconds on the (claimed-global) recorder clock.
    pub ts_ns: u64,
    /// Object-system channel (node) the event came from.
    pub channel: usize,
    /// Which event recorder stored it.
    pub recorder: usize,
    /// The 48-bit event.
    pub event: MonEvent,
    /// True global time of the event (simulation oracle; absent on real
    /// hardware).
    pub true_time: SimTime,
}

/// Everything a measurement produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// The merged global trace, sorted by claimed timestamp.
    pub trace: Vec<TraceRecord>,
    /// Per-recorder FIFO/loss statistics.
    pub recorder_stats: Vec<RecorderStats>,
    /// Per-channel detector protocol statistics.
    pub detector_stats: Vec<DecodeStats>,
}

impl Measurement {
    /// Total events lost across all recorders.
    pub fn total_lost(&self) -> u64 {
        self.recorder_stats.iter().map(|s| s.lost).sum()
    }

    /// Total events recorded across all recorders.
    pub fn total_recorded(&self) -> u64 {
        self.recorder_stats.iter().map(|s| s.recorded).sum()
    }

    /// Counts adjacent trace pairs whose *true* times contradict their
    /// merged order — zero when the MTG provides globally valid
    /// timestamps, positive with free-running clocks.
    pub fn causality_violations(&self) -> u64 {
        self.trace
            .windows(2)
            .filter(|w| w[1].true_time < w[0].true_time)
            .count() as u64
    }

    /// Worst absolute timestamp error versus true time, in nanoseconds.
    pub fn max_timestamp_error_ns(&self) -> u64 {
        self.trace
            .iter()
            .map(|r| r.ts_ns.abs_diff(r.true_time.as_nanos()))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderStats;

    fn rec(ts: u64, true_ns: u64) -> TraceRecord {
        TraceRecord {
            ts_ns: ts,
            channel: 0,
            recorder: 0,
            event: MonEvent::new(0, 0),
            true_time: SimTime::from_nanos(true_ns),
        }
    }

    #[test]
    fn violation_counting() {
        let m = Measurement {
            trace: vec![rec(10, 10), rec(20, 5), rec(30, 30)],
            recorder_stats: vec![],
            detector_stats: vec![],
        };
        assert_eq!(m.causality_violations(), 1);
        assert_eq!(m.max_timestamp_error_ns(), 15);
    }

    #[test]
    fn totals_sum_over_recorders() {
        let m = Measurement {
            trace: vec![],
            recorder_stats: vec![
                RecorderStats {
                    recorded: 10,
                    lost: 2,
                    max_fifo_occupancy: 5,
                },
                RecorderStats {
                    recorded: 7,
                    lost: 0,
                    max_fifo_occupancy: 1,
                },
            ],
            detector_stats: vec![],
        };
        assert_eq!(m.total_recorded(), 17);
        assert_eq!(m.total_lost(), 2);
        assert_eq!(m.causality_violations(), 0);
        assert_eq!(m.max_timestamp_error_ns(), 0);
    }
}
