//! Deriving program activities from instrumentation events.
//!
//! The paper instruments *phase beginnings* (Figure 6: "Distribute Jobs
//! Begin", "Work Begin", …): each event token switches its track into a
//! new state, which lasts until the next event on the same track. An
//! [`ActivityModel`] maps tokens to state names; [`ActivityModel::derive_track`]
//! turns a token stream into the state intervals a Gantt chart plots.

use std::collections::BTreeMap;

use hybridmon::EventToken;

use crate::trace::Event;

/// One state interval on a track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Interval start (ns).
    pub start_ns: u64,
    /// Interval end (ns); `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Name of the state.
    pub state: String,
}

impl Interval {
    /// Interval length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Token → state mapping for activity derivation.
///
/// # Examples
///
/// ```
/// use simple::{ActivityModel, Event};
///
/// let mut model = ActivityModel::new();
/// model.state(0x20, "Work").state(0x21, "Wait for Job");
/// let events = [Event::new(100, 0, 0x20, 0), Event::new(400, 0, 0x21, 0)];
/// let track = model.derive_track("Servant 1", events.iter(), 600);
/// assert_eq!(track.intervals()[0].state, "Work");
/// assert_eq!(track.intervals()[0].duration_ns(), 300);
/// assert_eq!(track.intervals()[1].duration_ns(), 200);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ActivityModel {
    states: BTreeMap<EventToken, String>,
}

impl ActivityModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        ActivityModel::default()
    }

    /// Declares that `token` begins state `name`. Returns `self` for
    /// chaining.
    pub fn state(&mut self, token: u16, name: impl Into<String>) -> &mut Self {
        self.states.insert(EventToken::new(token), name.into());
        self
    }

    /// The state a token begins, if declared.
    pub fn state_of(&self, token: EventToken) -> Option<&str> {
        self.states.get(&token).map(String::as_str)
    }

    /// Every declared token with the state it begins.
    pub(crate) fn declared(&self) -> impl Iterator<Item = (EventToken, &str)> {
        self.states
            .iter()
            .map(|(&token, name)| (token, name.as_str()))
    }

    /// Number of declared states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if no states are declared.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Derives the state intervals of one track from its events
    /// (chronological). Events whose token is not declared are skipped —
    /// they belong to other tracks sharing the same channel. The final
    /// state is closed at `end_ns`.
    pub fn derive_track<'a, I>(
        &self,
        name: impl Into<String>,
        events: I,
        end_ns: u64,
    ) -> ActivityTrack
    where
        I: IntoIterator<Item = &'a Event>,
    {
        let mut intervals: Vec<Interval> = Vec::new();
        let mut current: Option<(u64, &str)> = None;
        for ev in events {
            let Some(state) = self.state_of(ev.token) else {
                continue;
            };
            if let Some((start, prev)) = current.take() {
                intervals.push(Interval {
                    start_ns: start,
                    end_ns: ev.ts_ns.max(start),
                    state: prev.to_owned(),
                });
            }
            current = Some((ev.ts_ns, state));
        }
        if let Some((start, prev)) = current {
            intervals.push(Interval {
                start_ns: start,
                end_ns: end_ns.max(start),
                state: prev.to_owned(),
            });
        }
        ActivityTrack {
            name: name.into(),
            intervals,
        }
    }
}

/// The derived state timeline of one track (one process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityTrack {
    name: String,
    intervals: Vec<Interval>,
}

impl ActivityTrack {
    /// Builds a track directly from intervals (for tests and synthetic
    /// charts).
    ///
    /// # Panics
    ///
    /// Panics if intervals are not chronological and non-overlapping.
    pub fn from_intervals(name: impl Into<String>, intervals: Vec<Interval>) -> Self {
        assert!(
            intervals.windows(2).all(|w| w[0].end_ns <= w[1].start_ns),
            "intervals must be chronological and non-overlapping"
        );
        ActivityTrack {
            name: name.into(),
            intervals,
        }
    }

    /// The track's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state intervals, chronological.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// All distinct state names, in first-appearance order.
    pub fn states(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for iv in &self.intervals {
            if !seen.contains(&iv.state.as_str()) {
                seen.push(iv.state.as_str());
            }
        }
        seen
    }

    /// Total nanoseconds spent in `state`.
    pub fn time_in_state(&self, state: &str) -> u64 {
        self.intervals
            .iter()
            .filter(|iv| iv.state == state)
            .map(Interval::duration_ns)
            .sum()
    }

    /// Total nanoseconds spent in `state` clipped to `[from_ns, to_ns)`.
    pub fn time_in_state_within(&self, state: &str, from_ns: u64, to_ns: u64) -> u64 {
        self.intervals
            .iter()
            .filter(|iv| iv.state == state)
            .map(|iv| {
                iv.end_ns
                    .min(to_ns)
                    .saturating_sub(iv.start_ns.max(from_ns))
            })
            .sum()
    }

    /// The state active at `t`, if any.
    pub fn state_at(&self, t: u64) -> Option<&str> {
        self.intervals
            .iter()
            .find(|iv| iv.start_ns <= t && t < iv.end_ns)
            .map(|iv| iv.state.as_str())
    }

    /// Track span `(first start, last end)`, or `(0, 0)` when empty.
    pub fn span(&self) -> (u64, u64) {
        match (self.intervals.first(), self.intervals.last()) {
            (Some(a), Some(b)) => (a.start_ns, b.end_ns),
            _ => (0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn model() -> ActivityModel {
        let mut m = ActivityModel::new();
        m.state(1, "A").state(2, "B").state(3, "C");
        m
    }

    #[test]
    fn derives_closed_intervals() {
        let evs = [
            Event::new(10, 0, 1, 0),
            Event::new(30, 0, 2, 0),
            Event::new(60, 0, 1, 0),
        ];
        let track = model().derive_track("t", evs.iter(), 100);
        assert_eq!(track.intervals().len(), 3);
        assert_eq!(track.time_in_state("A"), 20 + 40);
        assert_eq!(track.time_in_state("B"), 30);
        assert_eq!(track.state_at(5), None);
        assert_eq!(track.state_at(35), Some("B"));
        assert_eq!(track.span(), (10, 100));
        assert_eq!(track.states(), vec!["A", "B"]);
    }

    #[test]
    fn skips_foreign_tokens() {
        // Token 99 belongs to a different process on the same channel.
        let evs = [
            Event::new(10, 0, 1, 0),
            Event::new(20, 0, 99, 0),
            Event::new(30, 0, 2, 0),
        ];
        let track = model().derive_track("t", evs.iter(), 50);
        assert_eq!(track.intervals().len(), 2);
        assert_eq!(
            track.time_in_state("A"),
            20,
            "foreign token must not cut A short"
        );
    }

    #[test]
    fn empty_events_empty_track() {
        let track = model().derive_track("t", [].iter(), 100);
        assert!(track.intervals().is_empty());
        assert_eq!(track.span(), (0, 0));
        assert_eq!(track.time_in_state("A"), 0);
    }

    #[test]
    fn clipped_time_in_state() {
        let evs = [Event::new(10, 0, 1, 0), Event::new(110, 0, 2, 0)];
        let track = model().derive_track("t", evs.iter(), 200);
        // "A" spans 10..110; clipped to [50, 80) gives 30.
        assert_eq!(track.time_in_state_within("A", 50, 80), 30);
        // Window fully outside.
        assert_eq!(track.time_in_state_within("A", 150, 180), 0);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn from_intervals_rejects_overlap() {
        ActivityTrack::from_intervals(
            "x",
            vec![
                Interval {
                    start_ns: 0,
                    end_ns: 10,
                    state: "A".into(),
                },
                Interval {
                    start_ns: 5,
                    end_ns: 15,
                    state: "B".into(),
                },
            ],
        );
    }

    proptest! {
        /// Derived intervals tile the time axis from the first event to
        /// the end: chronological, gap-free and non-overlapping.
        #[test]
        fn intervals_tile_without_gaps(times in proptest::collection::vec(0u64..10_000, 1..100)) {
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let evs: Vec<Event> =
                sorted.iter().enumerate().map(|(i, &t)| Event::new(t, 0, 1 + (i % 3) as u16, 0)).collect();
            let end = sorted.last().unwrap() + 100;
            let track = model().derive_track("t", evs.iter(), end);
            prop_assert_eq!(track.intervals().len(), evs.len());
            for w in track.intervals().windows(2) {
                prop_assert_eq!(w[0].end_ns, w[1].start_ns);
            }
            prop_assert_eq!(track.intervals().last().unwrap().end_ns, end);
            let total: u64 = track.intervals().iter().map(Interval::duration_ns).sum();
            prop_assert_eq!(total, end - sorted[0]);
        }
    }
}
