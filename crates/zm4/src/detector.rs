//! The probe + event-detector front end of a DPU.
//!
//! The probes are clipped into the seven-segment display socket; the
//! event detector is the recognition state machine (realized in
//! programmable logic on the real interface) that spots the triggerword
//! and reassembles 48-bit events. The protocol state machine itself is
//! [`hybridmon::Decoder`] — the same logic the instrumentation side was
//! designed against.

use des::time::{SimDuration, SimTime};
use hybridmon::decode::DecodeStats;
use hybridmon::{Decoder, MonEvent, Pattern};

/// One probed display write: what the interface sees on its 7-bit input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSample {
    /// True global time of the write.
    pub time: SimTime,
    /// The monitor channel (object node) the probe is attached to.
    pub channel: usize,
    /// The displayed pattern.
    pub pattern: Pattern,
}

/// A fully assembled 48-bit event, ready for the event recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedEvent {
    /// When the recorder's request signal fires (last pattern time plus
    /// detector latency).
    pub time: SimTime,
    /// The source channel.
    pub channel: usize,
    /// The decoded event.
    pub event: MonEvent,
}

/// Per-channel event detector.
///
/// # Examples
///
/// ```
/// use des::time::{SimDuration, SimTime};
/// use hybridmon::{encode::encode, MonEvent};
/// use zm4::{EventDetector, ProbeSample};
///
/// let mut det = EventDetector::new(0, SimDuration::from_nanos(500));
/// let samples: Vec<ProbeSample> = encode(MonEvent::new(3, 4))
///     .into_iter()
///     .enumerate()
///     .map(|(i, p)| ProbeSample {
///         time: SimTime::from_micros(i as u64),
///         channel: 0,
///         pattern: p,
///     })
///     .collect();
/// let events = det.detect(&samples);
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].event, MonEvent::new(3, 4));
/// // Request fires detector-latency after the 32nd pattern.
/// assert_eq!(events[0].time, SimTime::from_micros(31) + SimDuration::from_nanos(500));
/// ```
#[derive(Debug)]
pub struct EventDetector {
    channel: usize,
    latency: SimDuration,
    decoder: Decoder,
}

impl EventDetector {
    /// Creates a detector for `channel` with the given request latency.
    pub fn new(channel: usize, latency: SimDuration) -> Self {
        EventDetector {
            channel,
            latency,
            decoder: Decoder::new(),
        }
    }

    /// Feeds one probed pattern; returns a detected event if this pattern
    /// completed one.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the sample belongs to another channel.
    #[inline]
    pub fn feed(&mut self, sample: ProbeSample) -> Option<DetectedEvent> {
        debug_assert_eq!(sample.channel, self.channel, "sample fed to wrong detector");
        self.feed_pattern(sample.pattern, || sample.time)
    }

    /// [`feed`](Self::feed) for a write of this channel given by its
    /// pattern, with its time read from `stamp` only if the pattern
    /// completes an event.
    #[inline]
    pub(crate) fn feed_pattern(
        &mut self,
        pattern: Pattern,
        stamp: impl FnOnce() -> SimTime,
    ) -> Option<DetectedEvent> {
        self.decoder.feed(pattern).map(|event| DetectedEvent {
            time: stamp() + self.latency,
            channel: self.channel,
            event,
        })
    }

    /// Processes a whole time-ordered sample stream.
    pub fn detect(&mut self, samples: &[ProbeSample]) -> Vec<DetectedEvent> {
        samples.iter().filter_map(|&s| self.feed(s)).collect()
    }

    /// The protocol-health counters accumulated so far.
    pub fn stats(&self) -> DecodeStats {
        self.decoder.stats()
    }

    /// Consumes the detector, returning its final counters.
    pub fn into_stats(self) -> DecodeStats {
        self.decoder.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmon::encode::encode;

    fn stream(
        channel: usize,
        events: &[MonEvent],
        start_us: u64,
        spacing_ns: u64,
    ) -> Vec<ProbeSample> {
        let mut t = start_us * 1_000;
        let mut out = Vec::new();
        for &ev in events {
            for p in encode(ev) {
                out.push(ProbeSample {
                    time: SimTime::from_nanos(t),
                    channel,
                    pattern: p,
                });
                t += spacing_ns;
            }
        }
        out
    }

    #[test]
    fn detects_sequence_in_order() {
        let events = [
            MonEvent::new(1, 10),
            MonEvent::new(2, 20),
            MonEvent::new(3, 30),
        ];
        let mut det = EventDetector::new(0, SimDuration::from_nanos(500));
        let detected = det.detect(&stream(0, &events, 5, 3_400));
        assert_eq!(detected.len(), 3);
        for (d, e) in detected.iter().zip(events) {
            assert_eq!(d.event, e);
            assert_eq!(d.channel, 0);
        }
        assert!(detected.windows(2).all(|w| w[0].time < w[1].time));
        assert_eq!(det.stats().events, 3);
    }

    #[test]
    fn tolerates_firmware_noise() {
        let ev = MonEvent::new(0xFF, 0xFF);
        let mut samples = stream(0, &[ev], 0, 1_000);
        // Inject a firmware pattern between two pairs (offset after the
        // 2nd pair = after sample index 3).
        samples.insert(
            4,
            ProbeSample {
                time: SimTime::from_nanos(3_500),
                channel: 0,
                pattern: Pattern::new(10).unwrap(),
            },
        );
        let mut det = EventDetector::new(0, SimDuration::ZERO);
        let detected = det.detect(&samples);
        assert_eq!(detected.len(), 1);
        assert_eq!(detected[0].event, ev);
        assert_eq!(det.stats().stray_patterns, 1);
    }

    #[test]
    fn empty_stream_detects_nothing() {
        let mut det = EventDetector::new(3, SimDuration::ZERO);
        assert!(det.detect(&[]).is_empty());
        assert_eq!(det.into_stats().events, 0);
    }
}
