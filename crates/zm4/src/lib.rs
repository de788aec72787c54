//! Simulation of the ZM4 distributed hardware monitor.
//!
//! The ZM4 (paper §3) is a scalable monitor built from:
//!
//! * **dedicated probe units (DPUs)** — probes clipped onto the object
//!   system plus an *event detector* (the only object-system-specific
//!   parts) and an *event recorder*;
//! * **event recorders** — plug-in boards with a 100 ns clock and a
//!   32K × 96-bit FIFO, able to record up to four independent event
//!   streams; the FIFO drains to the monitor agent's disk at about
//!   10 000 events/s while absorbing bursts of up to 10 million events/s;
//! * **monitor agents** — PC/AT hosts carrying up to four DPUs;
//! * the **measure tick generator (MTG)** — master of the global clock:
//!   it starts all recorder clocks simultaneously and a continuously
//!   transmitted Manchester-coded signal on the tick channel prevents
//!   skew, giving *globally valid* timestamps;
//! * the **control and evaluation computer (CEC)** — merges the local
//!   traces into one global trace by sorting on those timestamps.
//!
//! The simulation consumes the probe-visible signal stream of the object
//! system (seven-segment display writes, as [`ProbeSample`]s) and
//! produces the merged, timestamped global trace — including event loss
//! when the FIFO model overflows and timestamp error when the MTG is
//! disabled (free-running, skewed recorder clocks). When the caller
//! already knows which events the detectors would assemble — a
//! fault-free display whose pattern pairs never interleave —
//! [`Zm4::observe_decoded`] skips the pattern stream and runs the same
//! recorders and merge on those events directly.
//!
//! # Examples
//!
//! ```
//! use des::time::SimTime;
//! use hybridmon::{encode::encode, MonEvent};
//! use zm4::{ProbeSample, Zm4, Zm4Config};
//!
//! // One node emitting one event, patterns spaced 3.4 us apart.
//! let mut samples = Vec::new();
//! for (i, p) in encode(MonEvent::new(0x42, 7)).into_iter().enumerate() {
//!     samples.push(ProbeSample {
//!         time: SimTime::from_nanos(10_000 + 3_400 * i as u64),
//!         channel: 0,
//!         pattern: p,
//!     });
//! }
//! let zm4 = Zm4::new(Zm4Config::default(), 1, 1234);
//! let m = zm4.observe(&samples);
//! assert_eq!(m.trace.len(), 1);
//! assert_eq!(m.trace[0].event.token.value(), 0x42);
//! assert_eq!(m.total_lost(), 0);
//! ```

pub mod cec;
pub mod config;
pub mod detector;
pub mod dpu;
pub mod measurement;
pub mod recorder;
pub mod serial;

pub use cec::merge_traces;
pub use config::Zm4Config;
pub use detector::{DetectedEvent, EventDetector, ProbeSample};
pub use dpu::Dpu;
pub use measurement::{Measurement, TraceRecord};
pub use recorder::{DigestSink, EventRecorder, RecordSink, RecorderStats, StoredRecord};
pub use serial::{detect_serial, SerialProbe, SerialSample};

use des::rng::DetRng;
use des::time::SimTime;
use hybridmon::decode::DecodeStats;

/// The assembled monitor system: one probe/detector per monitored
/// channel, channels grouped onto event recorders, recorders onto
/// monitor agents, all recorder clocks driven by the MTG (or free
/// running, for the ablation).
#[derive(Debug)]
pub struct Zm4 {
    config: Zm4Config,
    channels: usize,
}

impl Zm4 {
    /// Builds a monitor for `channels` object-system channels (one per
    /// monitored node). `seed` drives the clock-skew draws of the
    /// unsynchronized ablation.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(config: Zm4Config, channels: usize, seed: u64) -> Self {
        assert!(channels > 0, "monitor needs at least one channel");
        let mut zm4 = Zm4 { config, channels };
        zm4.config.seed = seed;
        zm4
    }

    /// Number of monitored channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The monitor configuration (with the seed applied).
    pub fn config(&self) -> &Zm4Config {
        &self.config
    }

    /// Number of event recorders required
    /// ([`Zm4Config::streams_per_recorder`] channels share one recorder).
    pub fn recorders(&self) -> usize {
        self.channels.div_ceil(self.config.streams_per_recorder)
    }

    /// Number of monitor agents required.
    pub fn agents(&self) -> usize {
        self.recorders().div_ceil(self.config.dpus_per_agent)
    }

    /// The recorder a channel is wired to.
    pub fn recorder_of(&self, channel: usize) -> usize {
        channel / self.config.streams_per_recorder
    }

    /// Runs the measurement: decodes the pattern stream per channel,
    /// records events per recorder (FIFO + clock model), and merges the
    /// local traces on the CEC.
    ///
    /// `samples` may be in any order; when every channel's subsequence
    /// is already time-sorted (the case for a simulation's signal log),
    /// the stream is fed through [`Zm4::observe_iter`] in a single pass
    /// with no partition copies; otherwise the samples are sorted by
    /// time per channel first. Both paths produce identical
    /// measurements.
    ///
    /// # Panics
    ///
    /// Panics if a sample references a channel the monitor was not built
    /// for.
    pub fn observe(&self, samples: &[ProbeSample]) -> Measurement {
        // O(n) sortedness probe: per-channel non-decreasing times are
        // exactly what the partition-and-stable-sort path would produce,
        // so streaming is bit-identical whenever the probe passes.
        let mut last = vec![SimTime::ZERO; self.channels];
        let sorted = samples.iter().all(|s| {
            assert!(
                s.channel < self.channels,
                "sample for unwired channel {}",
                s.channel
            );
            let ok = s.time >= last[s.channel];
            last[s.channel] = s.time;
            ok
        });
        if sorted {
            return self.observe_iter(samples.iter().copied());
        }

        // Sort samples per channel, preserving global time order within
        // each channel, then stream the channels one after another
        // (per-channel order is all that matters downstream).
        let mut per_channel: Vec<Vec<ProbeSample>> = vec![Vec::new(); self.channels];
        for s in samples {
            assert!(
                s.channel < self.channels,
                "sample for unwired channel {}",
                s.channel
            );
            per_channel[s.channel].push(*s);
        }
        for ch in &mut per_channel {
            ch.sort_by_key(|s| s.time);
        }
        self.observe_iter(per_channel.into_iter().flatten())
    }

    /// Runs the measurement over a streamed sample sequence in a single
    /// pass: no sample is retained, partitioned, or copied. Detected
    /// events flow straight from each channel's detector into its
    /// recorder's DPU queue.
    ///
    /// Each channel's subsequence must be in non-decreasing time order
    /// (channels may interleave arbitrarily); [`Zm4::observe`] falls
    /// back to sorting when that precondition does not hold.
    ///
    /// # Panics
    ///
    /// Panics if a sample references a channel the monitor was not built
    /// for.
    pub fn observe_iter<I>(&self, samples: I) -> Measurement
    where
        I: IntoIterator<Item = ProbeSample>,
    {
        let mut dpus = self.dpus();
        let mut detectors: Vec<EventDetector> = (0..self.channels)
            .map(|ch| EventDetector::new(ch, self.config.detector_latency))
            .collect();

        for s in samples {
            assert!(
                s.channel < self.channels,
                "sample for unwired channel {}",
                s.channel
            );
            if let Some(event) = detectors[s.channel].feed(s) {
                dpus[self.recorder_of(s.channel)].queue_event(event);
            }
        }

        let detector_stats = detectors.into_iter().map(|d| d.into_stats()).collect();
        Self::record(dpus, detector_stats)
    }

    /// Runs the measurement over events the detectors have already
    /// assembled, skipping the pattern stream: each event is queued on
    /// its channel's DPU and counted as one clean detection, then the
    /// recorders and the CEC merge run exactly as in
    /// [`Zm4::observe_iter`].
    ///
    /// This equals `observe_iter` over the events' pattern sequences
    /// whenever every sequence reaches its detector whole and
    /// uninterleaved — then the detector assembles each event at its
    /// last pattern, with no stray patterns or atomicity violations.
    /// Each channel's events must be in non-decreasing time order.
    ///
    /// # Panics
    ///
    /// Panics if an event references a channel the monitor was not
    /// built for.
    pub fn observe_decoded<I>(&self, events: I) -> Measurement
    where
        I: IntoIterator<Item = DetectedEvent>,
    {
        let mut dpus = self.dpus();
        let mut detector_stats = vec![DecodeStats::default(); self.channels];
        for event in events {
            assert!(
                event.channel < self.channels,
                "event for unwired channel {}",
                event.channel
            );
            detector_stats[event.channel].events += 1;
            dpus[self.recorder_of(event.channel)].queue_event(event);
        }
        Self::record(dpus, detector_stats)
    }

    /// One DPU per recorder, serving its channels.
    fn dpus(&self) -> Vec<Dpu> {
        let rng = DetRng::new(self.config.seed);
        (0..self.recorders())
            .map(|i| Dpu::new(i, &self.config, &rng))
            .collect()
    }

    /// The shared tail of every measurement: each DPU runs its
    /// FIFO/drain model, then the CEC merges the local traces.
    fn record(dpus: Vec<Dpu>, detector_stats: Vec<DecodeStats>) -> Measurement {
        let mut local_traces = Vec::with_capacity(dpus.len());
        let mut recorder_stats = Vec::with_capacity(dpus.len());
        for dpu in dpus {
            let (stored, stats) = dpu.record();
            local_traces.push(stored);
            recorder_stats.push(stats);
        }

        let trace = merge_traces(&local_traces);
        Measurement {
            trace,
            recorder_stats,
            detector_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmon::encode::encode;
    use hybridmon::MonEvent;

    /// Interleaved multi-channel traffic: each channel writes its own
    /// events back to back, channels overlapping in time. Returns the
    /// time-sorted pattern stream and the events a detector assembles
    /// from it, stamped with their last pattern's time.
    fn workload(
        channels: usize,
        events_per_channel: usize,
        latency: des::time::SimDuration,
    ) -> (Vec<ProbeSample>, Vec<DetectedEvent>) {
        let mut samples = Vec::new();
        let mut decoded = Vec::new();
        for ch in 0..channels {
            let mut t = 1_000 + (ch as u64) * 137;
            for k in 0..events_per_channel {
                let event = MonEvent::new((ch * 100 + k) as u16 & 0xFF, k as u32 & 0xFF);
                for p in encode(event) {
                    samples.push(ProbeSample {
                        time: SimTime::from_nanos(t),
                        channel: ch,
                        pattern: p,
                    });
                    t += 3_400 + (ch as u64 % 5) * 17;
                }
                decoded.push(DetectedEvent {
                    time: samples.last().expect("just pushed").time + latency,
                    channel: ch,
                    event,
                });
            }
        }
        samples.sort_by_key(|s| s.time);
        (samples, decoded)
    }

    fn assert_decoded_matches_patterns(cfg: Zm4Config, channels: usize, per_channel: usize) {
        let (samples, decoded) = workload(channels, per_channel, cfg.detector_latency);
        for seed in [1, 77] {
            let zm4 = Zm4::new(cfg.clone(), channels, seed);
            let oracle = zm4.observe(&samples);
            let direct = zm4.observe_decoded(decoded.iter().copied());
            assert!(!oracle.trace.is_empty());
            assert_eq!(direct.trace, oracle.trace);
            assert_eq!(direct.recorder_stats, oracle.recorder_stats);
            assert_eq!(direct.detector_stats, oracle.detector_stats);
        }
    }

    #[test]
    fn decoded_observation_matches_pattern_level_bit_for_bit() {
        assert_decoded_matches_patterns(Zm4Config::default(), 10, 6);
    }

    #[test]
    fn decoded_matches_even_with_free_running_clocks() {
        // Skewed recorder clocks reorder the merged trace; both paths
        // must reorder it identically.
        let cfg = Zm4Config {
            mtg_synchronized: false,
            streams_per_recorder: 1,
            ..Zm4Config::default()
        };
        assert_decoded_matches_patterns(cfg, 8, 4);
    }

    #[test]
    fn decoded_matches_under_fifo_overflow() {
        let cfg = Zm4Config {
            fifo_capacity: 4,
            ..Zm4Config::default()
        };
        let (samples, _) = workload(8, 32, cfg.detector_latency);
        assert!(
            Zm4::new(cfg.clone(), 8, 9).observe(&samples).total_lost() > 0,
            "workload must overflow"
        );
        assert_decoded_matches_patterns(cfg, 8, 32);
    }
}
