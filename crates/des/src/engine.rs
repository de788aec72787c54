//! A minimal event-loop driver over [`EventQueue`].
//!
//! [`EventLoop`] owns the queue and the simulated clock. A handler closure
//! is invoked for each popped event and may schedule further events. The
//! loop terminates when the queue drains, when a step budget is exhausted,
//! or when a time horizon is reached — whichever comes first.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Why an [`EventLoop`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained completely.
    Drained,
    /// The configured time horizon was reached before the queue drained.
    Horizon,
    /// The step budget was exhausted (usually indicates a livelock bug).
    StepBudget,
}

/// An event loop with a simulated clock.
///
/// # Examples
///
/// ```
/// use des::engine::EventLoop;
/// use des::time::{SimDuration, SimTime};
///
/// let mut sim: EventLoop<u32> = EventLoop::new();
/// sim.schedule(SimTime::ZERO, 0);
/// let mut count = 0;
/// sim.run(|sim, _now, n| {
///     count += 1;
///     if n < 9 {
///         sim.schedule_in(SimDuration::from_nanos(1), n + 1);
///     }
/// });
/// assert_eq!(count, 10);
/// assert_eq!(sim.now(), SimTime::from_nanos(9));
/// ```
#[derive(Debug)]
pub struct EventLoop<E> {
    queue: EventQueue<E>,
    now: SimTime,
    steps: u64,
}

impl<E> EventLoop<E> {
    /// Creates an empty event loop with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventLoop {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns the number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total events handled across all `run*` calls on this loop.
    pub fn steps_handled(&self) -> u64 {
        self.steps
    }

    /// Total events ever scheduled on this loop, across
    /// [`clear`](Self::clear).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.events_pushed()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the simulated past — such an event would
    /// silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    ///
    /// # Panics
    ///
    /// Panics (naming the offending event) if `now + delay` would
    /// overflow the `u64` nanosecond ceiling — before this check the
    /// wrapped sum landed in the simulated past and either corrupted
    /// event ordering or tripped the past-scheduling assertion with no
    /// hint of the real cause.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E)
    where
        E: std::fmt::Debug,
    {
        let at = self.now.checked_add(delay).unwrap_or_else(|| {
            panic!(
                "scheduling {event:?} at now={} + delay={delay} overflows simulated time",
                self.now
            )
        });
        self.queue.push(at, event);
    }

    /// Discards all pending events. The clock keeps its current value.
    ///
    /// Used to halt a simulation immediately, e.g. when the application's
    /// initial process exits and the whole run terminates.
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Runs until the queue drains, invoking `handler` for every event.
    pub fn run<F>(&mut self, handler: F) -> StopReason
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        self.run_bounded(SimTime::MAX, u64::MAX, handler)
    }

    /// Runs until the queue drains, `horizon` is passed, or `max_steps`
    /// events have been handled.
    ///
    /// Events scheduled *after* `horizon` are left in the queue; the clock
    /// never advances beyond the last handled event.
    pub fn run_bounded<F>(&mut self, horizon: SimTime, max_steps: u64, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Self, SimTime, E),
    {
        let mut steps = 0u64;
        loop {
            match self.queue.peek_time() {
                None => return StopReason::Drained,
                Some(t) if t > horizon => return StopReason::Horizon,
                Some(_) => {}
            }
            if steps >= max_steps {
                return StopReason::StepBudget;
            }
            let (t, ev) = self.queue.pop().expect("peeked nonempty queue");
            debug_assert!(t >= self.now, "event queue went backwards in time");
            self.now = t;
            self.steps += 1;
            handler(self, t, ev);
            steps += 1;
        }
    }
}

impl<E> Default for EventLoop<E> {
    fn default() -> Self {
        EventLoop::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_time_order() {
        let mut sim = EventLoop::new();
        sim.schedule(SimTime::from_nanos(10), "b");
        sim.schedule(SimTime::from_nanos(5), "a");
        let mut seen = Vec::new();
        let reason = sim.run(|_, now, ev| seen.push((now.as_nanos(), ev)));
        assert_eq!(reason, StopReason::Drained);
        assert_eq!(seen, vec![(5, "a"), (10, "b")]);
    }

    #[test]
    fn horizon_stops_early_and_preserves_future_events() {
        let mut sim = EventLoop::new();
        sim.schedule(SimTime::from_nanos(1), 1);
        sim.schedule(SimTime::from_nanos(100), 2);
        let reason = sim.run_bounded(SimTime::from_nanos(50), u64::MAX, |_, _, _| {});
        assert_eq!(reason, StopReason::Horizon);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(1));
    }

    #[test]
    fn step_budget_detects_livelock() {
        let mut sim = EventLoop::new();
        sim.schedule(SimTime::ZERO, ());
        // A handler that perpetually reschedules at the same instant.
        let reason = sim.run_bounded(SimTime::MAX, 1000, |sim, now, ()| {
            sim.schedule(now, ());
        });
        assert_eq!(reason, StopReason::StepBudget);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_past_panics() {
        let mut sim = EventLoop::new();
        sim.schedule(SimTime::from_nanos(10), ());
        sim.run(|sim, _, ()| {
            sim.schedule(SimTime::from_nanos(1), ());
        });
    }

    #[test]
    fn counters_track_schedules_and_steps() {
        let mut sim = EventLoop::new();
        sim.schedule(SimTime::from_nanos(1), 0u32);
        sim.schedule(SimTime::from_nanos(100), 1u32);
        let reason = sim.run_bounded(SimTime::from_nanos(50), u64::MAX, |sim, _, n| {
            if n == 0 {
                sim.schedule_in(SimDuration::from_nanos(1), 9);
            }
        });
        assert_eq!(reason, StopReason::Horizon);
        // Handled: the nanos-1 event and its nanos-2 child; the nanos-100
        // event stays pending past the horizon.
        assert_eq!(sim.steps_handled(), 2);
        assert_eq!(sim.events_scheduled(), 3);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "overflows simulated time")]
    fn schedule_in_overflow_names_event() {
        let mut sim = EventLoop::new();
        sim.schedule(SimTime::from_nanos(u64::MAX - 1), "tail");
        sim.run(|sim, _, _| {
            sim.schedule_in(SimDuration::from_secs(1), "wrapping-event");
        });
    }

    #[test]
    fn handler_can_cascade() {
        let mut sim = EventLoop::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut total = 0u32;
        sim.run(|sim, _, n| {
            total += n;
            if n < 5 {
                sim.schedule_in(SimDuration::from_micros(1), n + 1);
            }
        });
        assert_eq!(total, 15);
        assert_eq!(sim.now(), SimTime::from_micros(5));
    }
}
