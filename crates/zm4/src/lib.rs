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
//! recorders and merge on those events directly. [`Zm4::probes`] opens
//! the pattern-level front end itself, for a caller that feeds one
//! channel's burst of writes at a time.
//!
//! Every measurement ends in one tail that moves each event through
//! memory once. The detectors' request signals of all DPUs form one
//! stream, put in signal order by a stable sort that is linear on the
//! nearly sorted stream they produce. Each event then passes its
//! recorder: the FIFO keeps only departure times, and an accepted event
//! goes straight to the output, stamped on the recorder's clock. The
//! FIFO drains in arrival order, so this is the order the recorder's
//! disk would hold. The CEC's sort on global timestamps is the same
//! stable sort over that output ([`cec::merge`]).
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
pub mod measurement;
pub mod recorder;
pub mod serial;

pub use config::Zm4Config;
pub use detector::{DetectedEvent, EventDetector, ProbeSample};
pub use measurement::{Measurement, TraceRecord};
pub use recorder::{EventRecorder, RecorderStats};
pub use serial::{detect_serial, SerialProbe, SerialSample};

use des::clock::ClockModel;
use des::rng::DetRng;
use des::time::SimTime;
use hybridmon::decode::DecodeStats;
use hybridmon::Pattern;

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
    /// events flow straight from each channel's detector into the
    /// recorders' request stream.
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
        let mut probes = self.probes();
        for s in samples {
            match probes.channel(s.channel) {
                Some(mut probe) => probe.feed(s),
                None => panic!("sample for unwired channel {}", s.channel),
            }
        }
        probes.finish()
    }

    /// The probe front end of one measurement: an event detector per
    /// channel and the recorders' request stream, fed one channel's
    /// samples at a time through [`Probes::channel`] and closed by
    /// [`Probes::finish`]. [`Zm4::observe_iter`] is a loop over it; a
    /// caller whose samples arrive in per-channel bursts looks each
    /// channel up once per burst instead of once per sample.
    pub fn probes(&self) -> Probes<'_> {
        Probes {
            zm4: self,
            detectors: (0..self.channels)
                .map(|ch| EventDetector::new(ch, self.config.detector_latency))
                .collect(),
            requests: Vec::new(),
        }
    }

    /// Runs the measurement over events the detectors have already
    /// assembled, skipping the pattern stream: each event joins the
    /// recorders' request stream as one clean detection, then the
    /// recorders and the CEC merge run exactly as in
    /// [`Zm4::observe_iter`].
    ///
    /// This equals `observe_iter` over the events' pattern sequences
    /// whenever every sequence reaches its detector whole and
    /// uninterleaved — then the detector assembles each event at its
    /// last pattern, with no stray patterns or atomicity violations.
    /// The events may come in any order: the recorders serve them in
    /// `(time, channel)` order, and events that tie on both in the
    /// order given.
    ///
    /// # Panics
    ///
    /// Panics if an event references a channel the monitor was not
    /// built for.
    pub fn observe_decoded<I>(&self, events: I) -> Measurement
    where
        I: IntoIterator<Item = DetectedEvent>,
    {
        let events = events.into_iter();
        let (lower, upper) = events.size_hint();
        let mut requests = Vec::with_capacity(upper.unwrap_or(lower));
        let mut detector_stats = vec![DecodeStats::default(); self.channels];
        for event in events {
            assert!(
                event.channel < self.channels,
                "event for unwired channel {}",
                event.channel
            );
            detector_stats[event.channel].events += 1;
            requests.push(event);
        }
        self.record(requests, detector_stats)
    }

    /// One event recorder per DPU. Its clock is locked to the MTG, or
    /// free running with a skew drawn from the seed's `recorder-clock`
    /// stream for that DPU.
    fn event_recorders(&self) -> Vec<EventRecorder> {
        let cfg = &self.config;
        let rng = DetRng::new(cfg.seed);
        (0..self.recorders())
            .map(|index| {
                let clock = if cfg.mtg_synchronized {
                    ClockModel::synchronized(cfg.clock_resolution)
                } else {
                    ClockModel::random_skew(
                        &mut rng.derive_indexed("recorder-clock", index as u64),
                        cfg.skew_max_offset,
                        cfg.skew_max_drift_ppm,
                        cfg.clock_resolution,
                    )
                };
                EventRecorder::new(clock, cfg.fifo_capacity, cfg.drain_service_time())
            })
            .collect()
    }

    /// The shared tail of every measurement. The recorders serve the
    /// request stream in signal order — `(time, channel)`, a DPU's
    /// request lines in the order they fired — each accepted event goes
    /// out stamped on its recorder's clock, and the CEC sorts the output
    /// on the stamps.
    fn record(
        &self,
        mut requests: Vec<DetectedEvent>,
        detector_stats: Vec<DecodeStats>,
    ) -> Measurement {
        cec::sort_by_key(&mut requests, |e| (e.time, e.channel));
        // A table lookup per event, not a division.
        let recorder_of: Vec<usize> = (0..self.channels).map(|ch| self.recorder_of(ch)).collect();
        let mut recorders = self.event_recorders();
        let mut trace = Vec::with_capacity(requests.len());
        for request in requests {
            let recorder = recorder_of[request.channel];
            if let Some(ts_ns) = recorders[recorder].record(request.time) {
                trace.push(TraceRecord {
                    ts_ns,
                    channel: request.channel,
                    recorder,
                    event: request.event,
                    true_time: request.time,
                });
            }
        }
        cec::merge(&mut trace);
        Measurement {
            trace,
            recorder_stats: recorders.iter().map(EventRecorder::stats).collect(),
            detector_stats,
        }
    }
}

/// One measurement in progress: the detectors that [`Zm4::probes`]
/// wired up and the request stream they feed, waiting for probe samples.
#[derive(Debug)]
pub struct Probes<'a> {
    zm4: &'a Zm4,
    detectors: Vec<EventDetector>,
    requests: Vec<DetectedEvent>,
}

impl Probes<'_> {
    /// Reserves room for `events` more detected events.
    pub fn reserve(&mut self, events: usize) {
        self.requests.reserve(events);
    }

    /// The probe clipped onto `channel`: its event detector, feeding the
    /// recorders' request stream. `None` when the monitor was not built
    /// for that channel.
    #[inline]
    pub fn channel(&mut self, channel: usize) -> Option<ChannelProbe<'_>> {
        let detector = self.detectors.get_mut(channel)?;
        Some(ChannelProbe {
            detector,
            requests: &mut self.requests,
        })
    }

    /// Ends the measurement: the recorders serve the detected events,
    /// then the CEC merges their output.
    pub fn finish(self) -> Measurement {
        let detector_stats = self
            .detectors
            .into_iter()
            .map(EventDetector::into_stats)
            .collect();
        self.zm4.record(self.requests, detector_stats)
    }
}

/// One channel of a [`Probes`] front end (see [`Probes::channel`]).
#[derive(Debug)]
pub struct ChannelProbe<'a> {
    detector: &'a mut EventDetector,
    requests: &'a mut Vec<DetectedEvent>,
}

impl ChannelProbe<'_> {
    /// Feeds one probed write of this channel to its detector and
    /// queues the event it completes, if any, for the recorders.
    /// The channel's samples must arrive in non-decreasing time order.
    #[inline]
    pub fn feed(&mut self, sample: ProbeSample) {
        if let Some(event) = self.detector.feed(sample) {
            self.requests.push(event);
        }
    }

    /// [`feed`](Self::feed) for a write given by its pattern, with its
    /// time stamped lazily: `stamp` is called at most once, and only if
    /// this write completes an event. It must return the time `feed`
    /// would be given, and those times must be non-decreasing in feed
    /// order over the channel's writes, whether read or not; the
    /// measurement is then the same as with `feed`. A caller whose
    /// write times cost work (a drifting recorder clock, say) pays for
    /// them only on the writes that complete events.
    #[inline]
    pub fn feed_pattern(&mut self, pattern: Pattern, stamp: impl FnOnce() -> SimTime) {
        if let Some(event) = self.detector.feed_pattern(pattern, stamp) {
            self.requests.push(event);
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

    fn ev(ns: u64, channel: usize) -> DetectedEvent {
        DetectedEvent {
            time: SimTime::from_nanos(ns),
            channel,
            event: MonEvent::new(channel as u16, 0),
        }
    }

    #[test]
    fn merges_channels_in_time_order() {
        let zm4 = Zm4::new(Zm4Config::default(), 2, 1);
        let m = zm4.observe_decoded([ev(3_000, 0), ev(9_000, 0), ev(1_000, 1), ev(6_000, 1)]);
        assert_eq!(m.recorder_stats[0].recorded, 4);
        let channels: Vec<usize> = m.trace.iter().map(|r| r.channel).collect();
        assert_eq!(channels, vec![1, 0, 1, 0]);
        assert!(m.trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn synchronized_dpus_share_perfect_clock() {
        let zm4 = Zm4::new(Zm4Config::default(), 8, 7);
        let recorders = zm4.event_recorders();
        assert_eq!(recorders.len(), 2);
        assert!(recorders.iter().all(|r| r.clock().is_synchronized()));
    }

    #[test]
    fn free_running_dpus_have_distinct_skews() {
        let cfg = Zm4Config {
            mtg_synchronized: false,
            ..Zm4Config::default()
        };
        let recorders = Zm4::new(cfg, 8, 7).event_recorders();
        let (a, b) = (recorders[0].clock(), recorders[1].clock());
        assert!(!a.is_synchronized() || !b.is_synchronized());
        // Same event time stamps differently on the two recorders.
        let t = SimTime::from_millis(100);
        assert_ne!(a.stamp(t), b.stamp(t));
    }

    #[test]
    fn probes_exist_only_on_wired_channels() {
        let zm4 = Zm4::new(Zm4Config::default(), 3, 1);
        let mut probes = zm4.probes();
        assert!(probes.channel(2).is_some());
        assert!(probes.channel(3).is_none());
        let m = probes.finish();
        assert_eq!(m.detector_stats.len(), 3);
        assert!(m.trace.is_empty());
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
