//! Utilization and duration statistics over activity tracks.
//!
//! These are the numbers behind the paper's headline results: "the
//! servants are only working about 15 % of the total time" (Fig. 8) and
//! the 15 % → 29 % → 46 % → 60 % ladder of Fig. 10.

use std::ops::Range;

use des::stats::Accumulator;
use des::time::SimDuration;

use crate::activity::{ActivityModel, ActivityTrack};
use crate::trace::Event;

/// The fraction of `[from_ns, to_ns)` a track spends in `state`.
///
/// A zero-width window (`from_ns == to_ns`) has spent no time in any
/// state and reports 0.0 — the finite answer, not `0.0 / 0.0 = NaN`.
/// Instantaneous windows arise naturally from degenerate runs (a single
/// trace event, or a phase that begins and ends on the same timestamp)
/// and must not poison downstream run records.
///
/// # Panics
///
/// Panics if the window is inverted (`from_ns > to_ns`).
///
/// # Examples
///
/// ```
/// use simple::{utilization, ActivityTrack, Interval};
///
/// let t = ActivityTrack::from_intervals(
///     "servant",
///     vec![Interval { start_ns: 0, end_ns: 300, state: "Work".into() }],
/// );
/// assert_eq!(utilization(&t, "Work", 0, 1_000), 0.3);
/// assert_eq!(utilization(&t, "Work", 100, 100), 0.0);
/// ```
pub fn utilization(track: &ActivityTrack, state: &str, from_ns: u64, to_ns: u64) -> f64 {
    fraction(
        track.time_in_state_within(state, from_ns, to_ns),
        from_ns,
        to_ns,
    )
}

/// `in_state_ns` as a fraction of `[from_ns, to_ns)`; see [`utilization`].
fn fraction(in_state_ns: u64, from_ns: u64, to_ns: u64) -> f64 {
    assert!(from_ns <= to_ns, "utilization window must not be inverted");
    if from_ns == to_ns {
        return 0.0;
    }
    in_state_ns as f64 / (to_ns - from_ns) as f64
}

/// One channel's activity, folded from a trace by [`channel_activity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelActivity {
    /// Nanoseconds the channel spends in the measured states, clipped
    /// to the window.
    pub in_states_ns: u64,
    /// The span of the channel's track, as [`ActivityTrack::span`]
    /// reports it: `(0, 0)` when no event of the channel begins a state.
    pub span: (u64, u64),
}

/// Folds `events` (chronological) into the activity of each channel in
/// `channels`, in one pass and without building a track.
///
/// Entry `i` is what the track `model.derive_track(_, events of channel
/// channels.start + i, end_ns)` reports: the time it spends in any of
/// `states` clipped to `window` (its
/// [`time_in_state_within`](ActivityTrack::time_in_state_within), summed
/// over the states), and its span. As in the track, a state lasts until
/// the channel's next event that begins one, undeclared tokens are
/// skipped, and the last state closes at `end_ns`.
pub fn channel_activity(
    events: &[Event],
    model: &ActivityModel,
    states: &[&str],
    channels: Range<usize>,
    window: (u64, u64),
    end_ns: u64,
) -> Vec<ChannelActivity> {
    let (from_ns, to_ns) = window;
    let clip = |start: u64, end: u64| end.min(to_ns).saturating_sub(start.max(from_ns));
    // Whether each declared token begins a measured state.
    let tokens: Vec<_> = model
        .declared()
        .map(|(token, state)| (token, states.contains(&state)))
        .collect();
    let mut lanes = vec![ChannelActivity::default(); channels.len()];
    // Each lane's open state: its start and whether it is measured.
    let mut open: Vec<Option<(u64, bool)>> = vec![None; channels.len()];
    for e in events {
        if !channels.contains(&e.channel) {
            continue;
        }
        let Some(&(_, measured)) = tokens.iter().find(|(token, _)| *token == e.token) else {
            continue;
        };
        let lane = e.channel - channels.start;
        match open[lane] {
            Some((start, true)) => lanes[lane].in_states_ns += clip(start, e.ts_ns.max(start)),
            Some((_, false)) => {}
            None => lanes[lane].span.0 = e.ts_ns,
        }
        open[lane] = Some((e.ts_ns, measured));
    }
    for (lane, open) in lanes.iter_mut().zip(open) {
        if let Some((start, measured)) = open {
            let end = end_ns.max(start);
            if measured {
                lane.in_states_ns += clip(start, end);
            }
            lane.span.1 = end;
        }
    }
    lanes
}

/// Distribution of the durations of every visit to `state`.
pub fn state_durations(track: &ActivityTrack, state: &str) -> Accumulator {
    let mut acc = Accumulator::new();
    for iv in track.intervals().iter().filter(|iv| iv.state == state) {
        acc.record_duration(SimDuration::from_nanos(iv.duration_ns()));
    }
    acc
}

/// Utilization of one state across a group of tracks — e.g. "Work"
/// across all servants, the paper's servant-utilization metric.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// The state measured.
    pub state: String,
    /// Per-track utilization in `[0, 1]`, in track order.
    pub per_track: Vec<(String, f64)>,
    /// Mean utilization across tracks.
    pub mean: f64,
    /// The measurement window.
    pub window: (u64, u64),
}

impl UtilizationReport {
    /// Measures `state` across `tracks` over `[from_ns, to_ns)`.
    ///
    /// A zero-width window reports 0.0 everywhere (see [`utilization`]).
    ///
    /// # Panics
    ///
    /// Panics if `tracks` is empty or the window is inverted.
    pub fn measure(
        tracks: &[ActivityTrack],
        state: &str,
        from_ns: u64,
        to_ns: u64,
    ) -> UtilizationReport {
        let per_track = tracks
            .iter()
            .map(|t| (t.name().to_owned(), utilization(t, state, from_ns, to_ns)))
            .collect();
        UtilizationReport::new(state, per_track, (from_ns, to_ns))
    }

    /// Measures `state` on each channel of `channels` over `[from_ns,
    /// to_ns)` in one pass over `events` ([`channel_activity`]), naming
    /// the channel's track `name(channel)`.
    ///
    /// The report equals what [`measure`](Self::measure) gives for the
    /// tracks `model` derives from each channel's events, closed at
    /// `to_ns`, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty or the window is inverted.
    pub fn measure_channels(
        events: &[Event],
        model: &ActivityModel,
        state: &str,
        channels: Range<usize>,
        name: impl Fn(usize) -> String,
        from_ns: u64,
        to_ns: u64,
    ) -> UtilizationReport {
        let activity = channel_activity(
            events,
            model,
            &[state],
            channels.clone(),
            (from_ns, to_ns),
            to_ns,
        );
        let per_track = channels
            .zip(activity)
            .map(|(channel, a)| (name(channel), fraction(a.in_states_ns, from_ns, to_ns)))
            .collect();
        UtilizationReport::new(state, per_track, (from_ns, to_ns))
    }

    fn new(state: &str, per_track: Vec<(String, f64)>, window: (u64, u64)) -> UtilizationReport {
        assert!(
            !per_track.is_empty(),
            "utilization needs at least one track"
        );
        let mean = per_track.iter().map(|(_, u)| u).sum::<f64>() / per_track.len() as f64;
        UtilizationReport {
            state: state.to_owned(),
            per_track,
            mean,
            window,
        }
    }

    /// Mean utilization as a percentage.
    pub fn mean_percent(&self) -> f64 {
        self.mean * 100.0
    }
}

impl std::fmt::Display for UtilizationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "utilization of '{}' over [{:.4}s, {:.4}s): mean {:.1}%",
            self.state,
            self.window.0 as f64 / 1e9,
            self.window.1 as f64 / 1e9,
            self.mean_percent()
        )?;
        for (name, u) in &self.per_track {
            writeln!(f, "  {name:<20} {:5.1}%", u * 100.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Interval;

    fn work_track(name: &str, busy: &[(u64, u64)]) -> ActivityTrack {
        let mut intervals = Vec::new();
        for &(a, b) in busy {
            intervals.push(Interval {
                start_ns: a,
                end_ns: b,
                state: "Work".into(),
            });
        }
        ActivityTrack::from_intervals(name, intervals)
    }

    #[test]
    fn utilization_clips_to_window() {
        let t = work_track("s", &[(0, 500), (900, 1_200)]);
        // Window [100, 1000): Work covers 100..500 and 900..1000 = 500.
        assert!((utilization(&t, "Work", 100, 1_000) - 500.0 / 900.0).abs() < 1e-12);
        assert_eq!(utilization(&t, "Idle", 0, 1_000), 0.0);
    }

    #[test]
    fn report_means_across_tracks() {
        let tracks = vec![
            work_track("s1", &[(0, 300)]),
            work_track("s2", &[(0, 600)]),
            work_track("s3", &[(0, 900)]),
        ];
        let r = UtilizationReport::measure(&tracks, "Work", 0, 1_000);
        assert!((r.mean - 0.6).abs() < 1e-12);
        assert_eq!(r.per_track.len(), 3);
        assert!((r.mean_percent() - 60.0).abs() < 1e-9);
        let text = r.to_string();
        assert!(text.contains("60.0%"));
        assert!(text.contains("s2"));
    }

    #[test]
    fn durations_distribution() {
        let t = work_track("s", &[(0, 100), (200, 500), (600, 800)]);
        let acc = state_durations(&t, "Work");
        assert_eq!(acc.count(), 3);
        assert!((acc.mean() - 200e-9).abs() < 1e-15);
        assert_eq!(acc.max(), Some(300e-9));
    }

    /// The zero-width-window regression: empty and instantaneous windows
    /// must yield finite (zero) statistics, never `0/0 = NaN` — a NaN
    /// here used to propagate into run-record utilization fields.
    #[test]
    fn zero_width_window_is_finite() {
        let t = work_track("s", &[(0, 500)]);
        let u = utilization(&t, "Work", 100, 100);
        assert!(u.is_finite());
        assert_eq!(u, 0.0);
        // Same through the report aggregation path.
        let r = UtilizationReport::measure(&[t], "Work", 100, 100);
        assert!(r.mean.is_finite());
        assert_eq!(r.mean, 0.0);
        assert_eq!(r.mean_percent(), 0.0);
        // And for a track with no intervals at all.
        let empty = utilization(&work_track("e", &[]), "Work", 10, 10);
        assert_eq!(empty, 0.0);
    }

    /// Tokens 1–4 begin states (4 begins "A" again), 0 and 5 are
    /// undeclared: another process's tokens on the same channel.
    fn model() -> ActivityModel {
        let mut m = ActivityModel::new();
        m.state(1, "A").state(2, "B").state(3, "C").state(4, "A");
        m
    }

    /// The reference for [`channel_activity`]: one derived track per
    /// channel, from that channel's events.
    fn tracks(events: &[Event], channels: Range<usize>, end_ns: u64) -> Vec<ActivityTrack> {
        channels
            .map(|c| {
                model().derive_track(
                    format!("ch{c}"),
                    events.iter().filter(|e| e.channel == c),
                    end_ns,
                )
            })
            .collect()
    }

    #[test]
    fn channel_activity_folds_each_channel_once() {
        let events = [
            Event::new(10, 1, 1, 0),
            Event::new(20, 0, 2, 0), // outside the channels
            Event::new(30, 1, 5, 0), // undeclared: A goes on
            Event::new(40, 2, 3, 0),
            Event::new(50, 1, 2, 0),
            Event::new(60, 2, 4, 0), // channel 2's A, still open
        ];
        let lanes = channel_activity(&events, &model(), &["A"], 1..4, (15, 100), 80);
        assert_eq!(
            lanes,
            vec![
                // A over 10..50, clipped to start at 15.
                ChannelActivity {
                    in_states_ns: 35,
                    span: (10, 80),
                },
                // A from 60, closed at 80.
                ChannelActivity {
                    in_states_ns: 20,
                    span: (40, 80),
                },
                // No event at all.
                ChannelActivity::default(),
            ]
        );
        let report = UtilizationReport::measure_channels(
            &events,
            &model(),
            "A",
            1..4,
            |c| format!("ch{c}"),
            15,
            100,
        );
        let reference = UtilizationReport::measure(&tracks(&events, 1..4, 100), "A", 15, 100);
        assert_eq!(report, reference);
    }

    #[test]
    #[should_panic(expected = "at least one track")]
    fn measuring_no_channel_panics() {
        UtilizationReport::measure_channels(&[], &model(), "A", 2..2, |c| c.to_string(), 0, 10);
    }

    proptest::proptest! {
        /// The one-pass fold reports what the derived tracks report, bit
        /// for bit: random channels inside and outside the range,
        /// undeclared tokens, channels without events, zero-width
        /// windows, windows that end inside an open state, and states
        /// still open at the end.
        #[test]
        fn one_pass_matches_derived_tracks(
            steps in proptest::collection::vec((0u64..40, 0usize..6, 0u16..6), 0..120),
            first in 0usize..3,
            count in 1usize..4,
            cuts in (0u64..2_000, 0u64..2_000, 0u64..3),
            end_ns in 0u64..2_000,
        ) {
            let mut ts = 0;
            let events: Vec<Event> = steps
                .iter()
                .map(|&(gap, channel, token)| {
                    ts += gap;
                    Event::new(ts, channel, token, 0)
                })
                .collect();
            let channels = first..first + count;
            let (a, b, zero) = cuts;
            let (from, to) = (a.min(b), if zero == 0 { a.min(b) } else { a.max(b) });

            let reference = UtilizationReport::measure(&tracks(&events, channels.clone(), to), "A", from, to);
            let report = UtilizationReport::measure_channels(
                &events, &model(), "A", channels.clone(), |c| format!("ch{c}"), from, to,
            );
            proptest::prop_assert_eq!(report.mean.to_bits(), reference.mean.to_bits());
            proptest::prop_assert_eq!(report.per_track.len(), reference.per_track.len());
            for ((name, u), (ref_name, ref_u)) in report.per_track.iter().zip(&reference.per_track) {
                proptest::prop_assert_eq!(name, ref_name);
                proptest::prop_assert_eq!(u.to_bits(), ref_u.to_bits());
            }

            // Several states, any end and an unbounded window.
            let lanes = channel_activity(&events, &model(), &["A", "C"], channels.clone(), (0, u64::MAX), end_ns);
            for (lane, track) in lanes.iter().zip(tracks(&events, channels, end_ns)) {
                proptest::prop_assert_eq!(lane.span, track.span());
                proptest::prop_assert_eq!(
                    lane.in_states_ns,
                    track.time_in_state("A") + track.time_in_state("C")
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_window_panics() {
        utilization(&work_track("s", &[]), "Work", 20, 10);
    }

    #[test]
    #[should_panic(expected = "at least one track")]
    fn empty_tracks_panics() {
        UtilizationReport::measure(&[], "Work", 0, 10);
    }
}
