//! Deterministic fault injection on the probe plane.
//!
//! The monitor hardware the paper describes is passive and assumed
//! perfect; the scheduling-fuzz studies need the opposite assumption —
//! probes that drop writes, corrupt patterns, and recorders whose
//! clocks drift. [`FaultConfig`] injects exactly those failures into
//! each display write *between* the machine's display emissions and
//! the ZM4 detectors, so the simulated machine itself stays untouched
//! and bit-identical.
//!
//! Every decision is a pure function of the write and the fault seed
//! (an FNV-1a hash of `(channel, time, pattern, seed)`), never of
//! iteration order — so faulted measurements are reproducible per seed,
//! identical across engine-shard counts, and the same whether the
//! writes arrive as the time-sorted signal log, one sample at a time
//! ([`FaultConfig::apply`]), or one emission's burst at a time
//! ([`observe`](crate::observe)), exactly like the un-faulted pipeline.
//! A burst's 32 verdicts are hashed in one pass, at the width of its
//! latest write time; a write's drifted clock reading is worked out
//! only when that write completes an event at the detector, the one
//! place it is read.

use des::digest::Fnv64;
use des::time::{SimDuration, SimTime};
use hybridmon::encode::WRITES_PER_EVENT;
use hybridmon::Pattern;
use zm4::ProbeSample;

/// Probe-plane fault knobs. The default injects nothing and is
/// behaviourally invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// Per-mille probability that a display write never reaches the
    /// detector (a dropped probe sample). `0..=1000`.
    pub probe_drop_permille: u16,
    /// Per-mille probability that a display write arrives with some of
    /// its pattern bits flipped (the decoder then sees a different —
    /// still valid — pattern word). `0..=1000`.
    pub probe_corrupt_permille: u16,
    /// Recorder clock drift in parts per million. Each channel's
    /// recorder clock runs fast or slow by its own per-channel fraction
    /// of this bound, scaling timestamps linearly — monotone per
    /// channel, so the detector's feed-order precondition still holds.
    pub clock_drift_ppm: u32,
    /// Seed of the fault pattern. Two runs with equal seeds inject
    /// identical faults; changing the seed moves every fault site.
    pub seed: u64,
}

impl FaultConfig {
    /// `true` when no fault can ever fire — the pipeline then behaves
    /// exactly as if no fault layer existed.
    pub fn is_noop(&self) -> bool {
        self.probe_drop_permille == 0
            && self.probe_corrupt_permille == 0
            && self.clock_drift_ppm == 0
    }

    /// Checks the knobs are in range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.probe_drop_permille > 1000 {
            return Err("probe_drop_permille must be at most 1000".into());
        }
        if self.probe_corrupt_permille > 1000 {
            return Err("probe_corrupt_permille must be at most 1000".into());
        }
        if self.clock_drift_ppm >= 500_000 {
            return Err(
                "clock_drift_ppm must stay below 500000 (clocks must keep running forward)".into(),
            );
        }
        Ok(())
    }

    /// Applies the fault model to one probe sample: `None` when the
    /// write is dropped, otherwise the (possibly corrupted and
    /// clock-shifted) sample. Pure per sample — the verdict depends
    /// only on the sample's identity and the fault seed.
    ///
    /// Works out the sample's per-channel state on every call;
    /// [`observe`](crate::observe) works it out once per channel.
    pub fn apply(&self, sample: ProbeSample) -> Option<ProbeSample> {
        if self.is_noop() {
            return Some(sample);
        }
        self.channel(sample.channel).apply(sample)
    }

    /// The fault model's state for one channel: the FNV-1a hash of
    /// `(seed, channel)` that every sample's verdict continues, and the
    /// channel's clock-drift rate.
    pub(crate) fn channel(&self, channel: usize) -> ChannelFaults {
        let mut verdict = Fnv64::new();
        verdict.write_u64(self.seed);
        verdict.write_u64(channel as u64);
        // Channel `c` reads `t × (1 + f(c) × ppm / 1e6)` where
        // `f(c) ∈ [-1, 1]` is a pure hash of the channel and the seed.
        let mut h = Fnv64::new();
        h.write_u64(self.seed ^ 0x5eed_c10c);
        h.write_u64(channel as u64);
        let span = i64::from(self.clock_drift_ppm) * 2 + 1;
        let drift_rate = (h.finish() % span as u64) as i64 - i64::from(self.clock_drift_ppm);
        ChannelFaults {
            faults: *self,
            verdict,
            drift_rate,
        }
    }
}

/// One channel's share of a [`FaultConfig`], built once per channel by
/// [`FaultConfig::channel`]. A write's verdict continues the channel's
/// hash with only its time and pattern: one sample at a time in
/// [`apply`](Self::apply), or a whole burst's in one pass in
/// [`verdicts`](Self::verdicts). Its [`fate`](Self::fate) follows from
/// the verdict; its clock reading, [`stamp`](Self::stamp), from its
/// true time alone.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChannelFaults {
    faults: FaultConfig,
    /// FNV-1a state after the seed and the channel.
    verdict: Fnv64,
    /// Signed clock-drift rate in ppm, in `[-clock_drift_ppm,
    /// +clock_drift_ppm]`.
    drift_rate: i64,
}

impl ChannelFaults {
    /// [`FaultConfig::apply`] for a sample on this channel.
    pub(crate) fn apply(&self, sample: ProbeSample) -> Option<ProbeSample> {
        let mut h = self.verdict;
        h.write_u64(sample.time.as_nanos());
        h.write_u64(u64::from(sample.pattern.index()));
        let pattern = self.fate(h.finish(), sample.pattern)?;
        Some(ProbeSample {
            time: self.stamp(sample.time),
            pattern,
            ..sample
        })
    }

    /// The verdicts of a burst of writes on this channel: write `k`
    /// shows `patterns[k]` at `start + spacing × (k + 1)`, and its
    /// verdict is the one [`apply`](Self::apply) hashes for it.
    ///
    /// The latest write has the most significant bytes, so every time
    /// of the burst fits its width `N`, and absorbing the `N` low bytes
    /// of a time equals absorbing all eight. With `N` fixed for the
    /// burst, the 32 hash chains have no branch and run side by side.
    ///
    /// # Panics
    ///
    /// Panics if the latest write time overflows [`SimTime`].
    pub(crate) fn verdicts(
        &self,
        start: SimTime,
        spacing: SimDuration,
        patterns: &[Pattern; WRITES_PER_EVENT],
    ) -> [u64; WRITES_PER_EVENT] {
        let last = start + spacing * WRITES_PER_EVENT as u64;
        let (start, spacing) = (start.as_nanos(), spacing.as_nanos());
        match 8 - last.as_nanos().leading_zeros() / 8 {
            0 => self.verdicts_of_width::<0>(start, spacing, patterns),
            1 => self.verdicts_of_width::<1>(start, spacing, patterns),
            2 => self.verdicts_of_width::<2>(start, spacing, patterns),
            3 => self.verdicts_of_width::<3>(start, spacing, patterns),
            4 => self.verdicts_of_width::<4>(start, spacing, patterns),
            5 => self.verdicts_of_width::<5>(start, spacing, patterns),
            6 => self.verdicts_of_width::<6>(start, spacing, patterns),
            7 => self.verdicts_of_width::<7>(start, spacing, patterns),
            _ => self.verdicts_of_width::<8>(start, spacing, patterns),
        }
    }

    /// [`verdicts`](Self::verdicts) for a burst whose times all have at
    /// most `N` significant bytes. A pattern index is below `2^8`, so
    /// it is absorbed at width 1, index 0 included.
    #[inline(always)]
    fn verdicts_of_width<const N: usize>(
        &self,
        start: u64,
        spacing: u64,
        patterns: &[Pattern; WRITES_PER_EVENT],
    ) -> [u64; WRITES_PER_EVENT] {
        let mut verdicts = [0; WRITES_PER_EVENT];
        for (k, (verdict, pattern)) in verdicts.iter_mut().zip(patterns).enumerate() {
            let mut h = self.verdict;
            h.write_u64_fixed::<N>(start + spacing * (k as u64 + 1));
            h.write_u64_fixed::<1>(u64::from(pattern.index()));
            *verdict = h.finish();
        }
        verdicts
    }

    /// The fate of a write of `pattern` whose verdict is `verdict`:
    /// `None` when the probe drops it, otherwise the pattern the
    /// detector sees.
    #[inline]
    pub(crate) fn fate(&self, verdict: u64, pattern: Pattern) -> Option<Pattern> {
        if verdict % 1000 < u64::from(self.faults.probe_drop_permille) {
            return None;
        }
        if (verdict >> 16) % 1000 < u64::from(self.faults.probe_corrupt_permille) {
            // A nonzero 4-bit XOR mask: the corrupted word is always a
            // *different* valid pattern (possibly the trigger word —
            // exactly the failure a real flaky probe line produces).
            let mask = ((verdict >> 32) % 15 + 1) as u8;
            return Some(
                Pattern::new(pattern.index() ^ mask)
                    .expect("xor of two 4-bit pattern indices is a 4-bit pattern index"),
            );
        }
        Some(pattern)
    }

    /// The channel's recorder clock reading of a write at true `time`.
    #[inline]
    pub(crate) fn stamp(&self, time: SimTime) -> SimTime {
        if self.faults.clock_drift_ppm > 0 {
            SimTime::from_nanos(self.drifted_nanos(time.as_nanos()))
        } else {
            time
        }
    }

    /// The drifted clock reading: linear in `nanos` with positive slope,
    /// so the channel's samples stay in feed order. The shift rounds
    /// toward zero; it is computed in `i64` whenever `nanos × rate`
    /// fits, which is every time below about 5 hours at the largest
    /// drift, and in `i128` otherwise.
    fn drifted_nanos(&self, nanos: u64) -> u64 {
        let shift = match i64::try_from(nanos)
            .ok()
            .and_then(|n| n.checked_mul(self.drift_rate))
        {
            Some(product) => product / 1_000_000,
            None => (i128::from(nanos) * i128::from(self.drift_rate) / 1_000_000) as i64,
        };
        nanos.saturating_add_signed(shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fault model as first written, every hash recomputed per
    /// sample: the oracle [`FaultConfig::apply`] must equal.
    fn apply_reference(f: &FaultConfig, sample: ProbeSample) -> Option<ProbeSample> {
        if f.is_noop() {
            return Some(sample);
        }
        let mut h = Fnv64::new();
        h.write_u64(f.seed);
        h.write_u64(sample.channel as u64);
        h.write_u64(sample.time.as_nanos());
        h.write_u64(u64::from(sample.pattern.index()));
        let verdict = h.finish();
        if verdict % 1000 < u64::from(f.probe_drop_permille) {
            return None;
        }
        let mut out = sample;
        if (verdict >> 16) % 1000 < u64::from(f.probe_corrupt_permille) {
            let mask = ((verdict >> 32) % 15 + 1) as u8;
            out.pattern = Pattern::new(sample.pattern.index() ^ mask).unwrap();
        }
        if f.clock_drift_ppm > 0 {
            let mut h = Fnv64::new();
            h.write_u64(f.seed ^ 0x5eed_c10c);
            h.write_u64(out.channel as u64);
            let span = i64::from(f.clock_drift_ppm) * 2 + 1;
            let rate = (h.finish() % span as u64) as i64 - i64::from(f.clock_drift_ppm);
            let nanos = out.time.as_nanos();
            let shift = (nanos as i128 * i128::from(rate) / 1_000_000) as i64;
            out.time = SimTime::from_nanos(nanos.saturating_add_signed(shift));
        }
        Some(out)
    }

    /// A per-mille rate, at either bound one time in four each.
    fn permille() -> impl Strategy<Value = u16> {
        (0u16..=1000, 0u8..4).prop_map(|(rate, edge)| match edge {
            0 => 0,
            1 => 1000,
            _ => rate,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The per-channel state changes nothing: every pattern at any
        /// time (above `i64::MAX` too) on channels 0..=300 meets the
        /// fate the per-sample formula gives it.
        #[test]
        fn per_channel_state_matches_the_per_sample_formula(
            seed in any::<u64>(),
            channel in 0usize..=300,
            time in (any::<u64>(), 0u32..64).prop_map(|(t, shift)| t >> shift),
            drop in permille(),
            corrupt in permille(),
            drift in (0u32..500_000, 0u8..4).prop_map(|(ppm, edge)| match edge {
                0 => 0,
                1 => 499_999,
                _ => ppm,
            }),
        ) {
            let f = FaultConfig {
                probe_drop_permille: drop,
                probe_corrupt_permille: corrupt,
                clock_drift_ppm: drift,
                seed,
            };
            prop_assert!(f.validate().is_ok());
            for pattern in 0..16 {
                let s = sample(channel, time, pattern);
                prop_assert_eq!(f.apply(s), apply_reference(&f, s));
            }
        }

        /// A burst's verdicts, hashed in one pass at the width of its
        /// latest write time, equal the verdicts the per-sample formula
        /// hashes write by write. The burst ends near `2^(8k)` ns for a
        /// `k` in 1..=7, so most bursts straddle that byte boundary and
        /// their early writes have fewer significant bytes than the
        /// burst's width; at `k = 8` it ends just below `u64::MAX` ns.
        #[test]
        fn burst_verdicts_match_the_per_write_verdicts(
            seed in any::<u64>(),
            channel in 0usize..=300,
            spacing in (0u64..=200_000, 0u32..18).prop_map(|(ns, shift)| ns >> shift),
            boundary in 1u32..=8,
            lead in any::<u64>(),
            indices in proptest::collection::vec(0u8..16, WRITES_PER_EVENT),
        ) {
            let span = spacing * WRITES_PER_EVENT as u64;
            // Writes land `spacing` to `span` after the start, so a start
            // up to `span + spacing` below the boundary puts it anywhere
            // from before the first write to after the last.
            let lead = lead % (span + spacing + 1);
            let start = match boundary {
                8 => u64::MAX - span - lead,
                k => (1u64 << (8 * k)).saturating_sub(lead),
            };
            let patterns: [Pattern; WRITES_PER_EVENT] =
                std::array::from_fn(|k| Pattern::new(indices[k]).unwrap());
            let f = FaultConfig {
                seed,
                ..FaultConfig::default()
            };
            let verdicts = f.channel(channel).verdicts(
                SimTime::from_nanos(start),
                SimDuration::from_nanos(spacing),
                &patterns,
            );
            for (k, (pattern, verdict)) in patterns.iter().zip(verdicts).enumerate() {
                let mut h = Fnv64::new();
                h.write_u64(seed);
                h.write_u64(channel as u64);
                h.write_u64(start + spacing * (k as u64 + 1));
                h.write_u64(u64::from(pattern.index()));
                prop_assert_eq!((k, verdict), (k, h.finish()));
            }
        }
    }

    fn sample(channel: usize, nanos: u64, pattern: u8) -> ProbeSample {
        ProbeSample {
            time: SimTime::from_nanos(nanos),
            channel,
            pattern: Pattern::new(pattern).unwrap(),
        }
    }

    #[test]
    fn noop_config_is_identity() {
        let f = FaultConfig::default();
        assert!(f.is_noop());
        let s = sample(3, 1234, 7);
        assert_eq!(f.apply(s), Some(s));
    }

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let f = FaultConfig {
            probe_drop_permille: 300,
            probe_corrupt_permille: 300,
            clock_drift_ppm: 500,
            seed: 42,
        };
        let samples: Vec<ProbeSample> = (0..500)
            .map(|i| sample(i % 7, 1000 * i as u64, (i % 16) as u8))
            .collect();
        let once: Vec<_> = samples.iter().map(|&s| f.apply(s)).collect();
        let twice: Vec<_> = samples.iter().map(|&s| f.apply(s)).collect();
        assert_eq!(once, twice, "fault decisions must be pure");
        assert!(once.iter().any(Option::is_none), "some samples drop");
        assert!(
            once.iter()
                .flatten()
                .zip(&samples)
                .any(|(out, orig)| out.pattern != orig.pattern),
            "some samples corrupt"
        );
        let other = FaultConfig { seed: 43, ..f };
        let moved: Vec<_> = samples.iter().map(|&s| other.apply(s)).collect();
        assert_ne!(once, moved, "a different seed moves the fault sites");
    }

    #[test]
    fn clock_drift_is_monotone_per_channel() {
        let f = FaultConfig {
            clock_drift_ppm: 400_000,
            seed: 9,
            ..FaultConfig::default()
        };
        for channel in 0..16 {
            let mut last = 0u64;
            for nanos in [0u64, 10, 1_000, 1_000_000, 5_000_000_000] {
                let out = f.apply(sample(channel, nanos, 1)).unwrap();
                assert!(
                    out.time.as_nanos() >= last,
                    "channel {channel} went backwards at {nanos}"
                );
                last = out.time.as_nanos();
            }
        }
    }

    #[test]
    fn validation_bounds_the_knobs() {
        assert!(FaultConfig::default().validate().is_ok());
        let bad = FaultConfig {
            probe_drop_permille: 1001,
            ..FaultConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = FaultConfig {
            clock_drift_ppm: 600_000,
            ..FaultConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("clock_drift_ppm"));
    }
}
