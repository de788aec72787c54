//! Conservative-lookahead sharded event execution.
//!
//! [`ShardedEventLoop`] splits a simulation into `K` shards, each owning
//! its own calendar [`EventQueue`] and local clock. Shards advance
//! independently inside a **lookahead window**: every epoch the engine
//! computes the global minimum next-event time `W` and lets each shard
//! execute all events in `[W, W + L)` in parallel, where `L` is the
//! uniform lookahead (for SUPRENUM, the inter-cluster bus latency floor).
//! Cross-shard sends become timestamped messages buffered in a per-shard
//! outbox and **released at the barrier** that ends the epoch; because a
//! send may not arrive earlier than the window end, no message can affect
//! an event inside the window that produced it — the classic conservative
//! (YAWNS-style) synchronization argument.
//!
//! Determinism is preserved by construction:
//!
//! * within a shard, events pop in `(time, seq)` order exactly as in the
//!   sequential [`EventLoop`](crate::engine::EventLoop);
//! * at each barrier, buffered messages are merged in `(arrival time,
//!   send time, source shard, send order)` order before being pushed to
//!   their destination queues, so the FIFO sequence numbers a
//!   destination assigns never depend on thread timing — nor on how
//!   many worker threads the logical shards are packed onto
//!   ([`ShardedEventLoop::run_threaded`]).
//!
//! The handler schedules everything, as with the sequential engine
//! ([`ShardedEventLoop::run_bounded`]); [`ShardedEventLoop::run_threaded`]
//! additionally packs the logical shards onto a chosen number of worker
//! threads.

use std::sync::mpsc;

use crate::engine::StopReason;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A cross-shard message waiting for the end-of-epoch barrier.
#[derive(Debug)]
struct Outgoing<E> {
    time: SimTime,
    /// Shard-local time of the event that issued the send. Part of the
    /// barrier merge key so that messages with equal arrival times are
    /// delivered in causal send order, independent of shard layout.
    sent_at: SimTime,
    src: usize,
    dst: usize,
    event: E,
}

/// Per-shard engine state: the shard's calendar queue and local clock.
#[derive(Debug)]
struct ShardState<E> {
    queue: EventQueue<E>,
    now: SimTime,
    steps: u64,
}

impl<E> ShardState<E> {
    fn new() -> Self {
        ShardState {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
        }
    }
}

/// Handler-side view of one shard during a window.
///
/// Mirrors the sequential engine's scheduling API, split into **local**
/// scheduling (any time at or after `now`) and **cross-shard sends**,
/// which must respect the lookahead window: a message may not arrive
/// before [`ShardCtx::window_end`].
#[derive(Debug)]
pub struct ShardCtx<'a, E> {
    shard: usize,
    num_shards: usize,
    now: SimTime,
    window_end: SimTime,
    lookahead: SimDuration,
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut Vec<Outgoing<E>>,
}

impl<E> ShardCtx<'_, E> {
    /// The index of the shard this handler invocation runs on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards in the engine.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard-local simulated time of the event being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// End (exclusive) of the current lookahead window. Cross-shard
    /// messages may not arrive before this instant.
    pub fn window_end(&self) -> SimTime {
        self.window_end
    }

    /// The engine's uniform lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Schedules `event` on this shard at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the shard's simulated past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < {})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` on this shard `delay` after the current time.
    ///
    /// # Panics
    ///
    /// Panics if `now + delay` overflows simulated time.
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

    /// Sends `event` to shard `dst`, arriving at absolute time `at`.
    ///
    /// The message is buffered and released at the end-of-epoch barrier;
    /// all barriers merge messages in `(arrival, send time, source
    /// shard, send order)` order, so delivery is deterministic and does
    /// not depend on how logical shards are packed onto worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or if `at` is earlier than
    /// [`ShardCtx::window_end`] — a conservative engine cannot accept a
    /// message into the window that produced it.
    pub fn send(&mut self, dst: usize, at: SimTime, event: E) {
        assert!(dst < self.num_shards, "shard {dst} out of range");
        assert!(
            at >= self.window_end,
            "cross-shard send arriving at {at} violates the lookahead window \
             (window ends at {})",
            self.window_end
        );
        self.outbox.push(Outgoing {
            time: at,
            sent_at: self.now,
            src: self.shard,
            dst,
            event,
        });
    }

    /// Discards every event still pending on this shard's local queue.
    ///
    /// Used to halt a shard immediately (e.g. when the simulated
    /// application terminates): later-arriving cross-shard messages are
    /// still delivered and popped, but a halted handler can ignore them.
    pub fn clear_local(&mut self) {
        self.queue.clear();
    }

    /// Sends `event` to shard `dst`, arriving `delay` after the current
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is shorter than the engine lookahead (the
    /// conservative contract every cross-shard link must satisfy), or on
    /// simulated-time overflow.
    pub fn send_in(&mut self, dst: usize, delay: SimDuration, event: E)
    where
        E: std::fmt::Debug,
    {
        assert!(
            delay >= self.lookahead,
            "cross-shard send with delay {delay} below the lookahead {}",
            self.lookahead
        );
        let at = self.now.checked_add(delay).unwrap_or_else(|| {
            panic!(
                "sending {event:?} at now={} + delay={delay} overflows simulated time",
                self.now
            )
        });
        self.send(dst, at, event);
    }
}

/// A conservative-lookahead parallel event loop over `K` shards.
///
/// # Examples
///
/// ```
/// use des::shard::ShardedEventLoop;
/// use des::time::{SimDuration, SimTime};
///
/// // Two shards ping-ponging across a 10 µs link.
/// let lookahead = SimDuration::from_micros(10);
/// let mut sim: ShardedEventLoop<u32> = ShardedEventLoop::new(2, lookahead);
/// sim.schedule(0, SimTime::ZERO, 0);
/// let mut counts = vec![0u32; 2];
/// sim.run(&mut counts, |count, ctx, _now, hop| {
///     *count += 1;
///     if hop < 4 {
///         ctx.send_in(1 - ctx.shard(), ctx.lookahead(), hop + 1);
///     }
/// });
/// assert_eq!(counts, vec![3, 2]);
/// ```
#[derive(Debug)]
pub struct ShardedEventLoop<E> {
    shards: Vec<ShardState<E>>,
    lookahead: SimDuration,
    epochs: u64,
    scheduled: u64,
}

impl<E: Send> ShardedEventLoop<E> {
    /// Creates an engine with `num_shards` empty shards and the given
    /// uniform lookahead.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or `lookahead` is zero — a
    /// conservative engine with zero lookahead cannot make progress.
    pub fn new(num_shards: usize, lookahead: SimDuration) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(
            !lookahead.is_zero(),
            "conservative lookahead must be nonzero"
        );
        ShardedEventLoop {
            shards: (0..num_shards).map(|_| ShardState::new()).collect(),
            lookahead,
            epochs: 0,
            scheduled: 0,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The engine's uniform lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Total events handled across all shards and all `run*` calls.
    pub fn steps_handled(&self) -> u64 {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// Events handled per shard, in shard order — the engine's load
    /// profile. `total / max` bounds the speedup any thread packing
    /// could extract from this run's event distribution.
    pub fn shard_steps(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.steps).collect()
    }

    /// Total events ever scheduled (including delivered messages).
    pub fn events_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Number of lookahead windows executed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Schedules `event` on `shard` at absolute time `at` (initial
    /// population; handlers use [`ShardCtx`]).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `at` lies in that shard's
    /// simulated past.
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: E) {
        let s = &mut self.shards[shard];
        assert!(
            at >= s.now,
            "cannot schedule event in the past ({at} < {})",
            s.now
        );
        self.scheduled += 1;
        s.queue.push(at, event);
    }

    /// Runs until every shard drains, invoking `handler` for each event.
    ///
    /// `states` provides one mutable per-shard state slot (logs,
    /// accumulators, model state); each shard's handler invocations see
    /// only that shard's slot, so no locking is needed.
    pub fn run<S, F>(&mut self, states: &mut [S], handler: F) -> StopReason
    where
        S: Send,
        F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E) + Sync,
    {
        self.run_bounded(states, SimTime::MAX, u64::MAX, handler)
    }

    /// Runs until every shard drains, `horizon` is passed, or the global
    /// step budget is exhausted.
    ///
    /// Semantics match the sequential engine with two caveats inherent to
    /// windowed execution: the horizon and budget are checked at epoch
    /// granularity (a shard may finish its window before stopping), and
    /// the budget is therefore approximate — the engine stops at the
    /// first epoch boundary at or after `max_steps` total events.
    ///
    /// # Panics
    ///
    /// Panics if `states` does not provide exactly one slot per shard.
    pub fn run_bounded<S, F>(
        &mut self,
        states: &mut [S],
        horizon: SimTime,
        max_steps: u64,
        handler: F,
    ) -> StopReason
    where
        S: Send,
        F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E) + Sync,
    {
        let threads = self.shards.len();
        self.run_threaded(states, horizon, max_steps, threads, handler)
    }

    /// Like [`run_bounded`](Self::run_bounded), but with the worker
    /// thread count decoupled from the logical shard count.
    ///
    /// Logical shards are packed onto `threads` **persistent** worker
    /// threads in contiguous ranges (with `threads <= 1` everything runs
    /// inline on the caller's thread). The execution — pop order, FIFO
    /// sequence assignment, barrier merge order — is *identical for
    /// every thread count*: windows are computed globally and cross-shard
    /// messages always pass through the barrier in `(arrival, send time,
    /// source shard, send order)` order, even between shards sharing a
    /// worker. The thread count is purely a parallelism knob.
    ///
    /// # Panics
    ///
    /// Panics if `states` does not provide exactly one slot per shard.
    pub fn run_threaded<S, F>(
        &mut self,
        states: &mut [S],
        horizon: SimTime,
        max_steps: u64,
        threads: usize,
        handler: F,
    ) -> StopReason
    where
        S: Send,
        F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E) + Sync,
    {
        assert_eq!(
            states.len(),
            self.shards.len(),
            "need exactly one state slot per shard"
        );
        let num_shards = self.shards.len();
        let lookahead = self.lookahead;
        if threads <= 1 || num_shards == 1 {
            return self.run_inline(states, horizon, max_steps, &handler);
        }

        let chunk = num_shards.div_ceil(threads.min(num_shards));
        let mut epochs = 0u64;
        let mut scheduled = 0u64;
        let mut peeks: Vec<Option<SimTime>> =
            self.shards.iter().map(|s| s.queue.peek_time()).collect();
        // Messages merged at a barrier but not yet flushed to their
        // worker, per destination shard, in global merge order.
        let mut pending: Vec<Vec<(SimTime, E)>> = (0..num_shards).map(|_| Vec::new()).collect();

        let stop = std::thread::scope(|scope| {
            let mut cmd_txs: Vec<mpsc::Sender<EpochCmd<E>>> = Vec::new();
            let mut res_rxs: Vec<mpsc::Receiver<EpochOut<E>>> = Vec::new();
            let mut handles = Vec::new();
            for (w, (shard_chunk, state_chunk)) in self
                .shards
                .chunks_mut(chunk)
                .zip(states.chunks_mut(chunk))
                .enumerate()
            {
                let (tx, rx) = mpsc::channel::<EpochCmd<E>>();
                let (res_tx, res_rx) = mpsc::channel::<EpochOut<E>>();
                cmd_txs.push(tx);
                res_rxs.push(res_rx);
                let handler = &handler;
                let base = w * chunk;
                let handle = std::thread::Builder::new()
                    .name(format!("engine-shard-{w}"))
                    .spawn_scoped(scope, move || {
                        worker_loop(
                            base,
                            shard_chunk,
                            state_chunk,
                            num_shards,
                            lookahead,
                            horizon,
                            &rx,
                            &res_tx,
                            handler,
                        );
                    })
                    .expect("spawn engine shard worker");
                handles.push(Some(handle));
            }
            let mut handled = 0u64;

            // Earliest relevant time for a shard: its queue head or its
            // oldest undelivered barrier message, whichever is first.
            // (`pending` entries are merge-ordered with arrival time as
            // the primary key, so the first entry is the earliest.)
            let next_time = |peeks: &[Option<SimTime>], pending: &[Vec<(SimTime, E)>], i: usize| {
                let queued = peeks[i];
                let buffered = pending[i].first().map(|&(t, _)| t);
                match (queued, buffered) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            };

            loop {
                let window_start = (0..num_shards)
                    .filter_map(|i| next_time(&peeks, &pending, i))
                    .min();
                let window_start = match window_start {
                    None => break StopReason::Drained,
                    Some(w) if w > horizon => break StopReason::Horizon,
                    Some(w) => w,
                };
                if handled >= max_steps {
                    break StopReason::StepBudget;
                }
                let budget = max_steps - handled;
                let window_end = window_start.saturating_add(lookahead);
                let inclusive = window_start == SimTime::MAX;
                epochs += 1;

                // Dispatch only workers that have something to do this
                // window; the rest stay parked with no round-trip.
                let mut dispatched = Vec::new();
                for (w, tx) in cmd_txs.iter().enumerate() {
                    let range = (w * chunk)..(((w + 1) * chunk).min(num_shards));
                    let active = range.clone().any(|i| {
                        next_time(&peeks, &pending, i)
                            .is_some_and(|t| t <= horizon && (t < window_end || inclusive))
                    });
                    if !active {
                        continue;
                    }
                    let mut deliveries = Vec::new();
                    for i in range {
                        for (t, ev) in pending[i].drain(..) {
                            deliveries.push((i, t, ev));
                        }
                    }
                    tx.send(EpochCmd {
                        window_end,
                        inclusive,
                        budget,
                        deliveries,
                    })
                    .expect("engine shard worker hung up");
                    dispatched.push(w);
                }

                let mut budget_hit = false;
                let mut messages: Vec<Outgoing<E>> = Vec::new();
                for &w in &dispatched {
                    let out = match recv_spin(&res_rxs[w]) {
                        Ok(out) => out,
                        // The worker died mid-window: join it to recover
                        // the original panic payload so the caller sees
                        // the handler's message, not a channel error.
                        Err(_) => {
                            let handle = handles[w].take().expect("worker result channel reused");
                            match handle.join() {
                                Err(payload) => std::panic::resume_unwind(payload),
                                Ok(()) => unreachable!("worker exited while coordinator live"),
                            }
                        }
                    };
                    handled += out.steps;
                    budget_hit |= out.budget_hit;
                    messages.extend(out.outbox);
                    for (i, p) in out.peeks {
                        peeks[i] = p;
                    }
                }
                // Barrier: merge in (arrival, send time, source shard,
                // send order) order — identical for every thread count.
                messages.sort_by_key(|m| (m.time, m.sent_at, m.src));
                for m in messages {
                    scheduled += 1;
                    pending[m.dst].push((m.time, m.event));
                }
                if budget_hit {
                    break StopReason::StepBudget;
                }
            }
        });
        self.epochs += epochs;
        self.scheduled += scheduled;
        stop
    }

    /// The single-threaded twin of the worker protocol: same windows,
    /// same merge order, no threads.
    fn run_inline<S, F>(
        &mut self,
        states: &mut [S],
        horizon: SimTime,
        max_steps: u64,
        handler: &F,
    ) -> StopReason
    where
        F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E),
    {
        let num_shards = self.shards.len();
        let lookahead = self.lookahead;
        let mut handled = 0u64;
        loop {
            let window_start = match self.shards.iter().filter_map(|s| s.queue.peek_time()).min() {
                None => return StopReason::Drained,
                Some(w) if w > horizon => return StopReason::Horizon,
                Some(w) => w,
            };
            if handled >= max_steps {
                return StopReason::StepBudget;
            }
            let budget = max_steps - handled;
            let window_end = window_start.saturating_add(lookahead);
            // Saturation corner: once every remaining event sits at the
            // u64 ceiling, `[W, W + L)` is empty and the window must
            // become inclusive or the engine would spin forever. No send
            // can target an earlier time, so inclusivity is safe.
            let inclusive = window_start == SimTime::MAX;
            self.epochs += 1;

            let mut budget_hit = false;
            let mut messages: Vec<Outgoing<E>> = Vec::new();
            for (i, (shard, state)) in self.shards.iter_mut().zip(states.iter_mut()).enumerate() {
                let (outbox, steps, hit) = run_window(
                    shard, state, i, num_shards, window_end, inclusive, horizon, budget, lookahead,
                    handler,
                );
                handled += steps;
                budget_hit |= hit;
                messages.extend(outbox);
            }
            // Stable sort keeps each source's send order for equal keys.
            messages.sort_by_key(|m| (m.time, m.sent_at, m.src));
            for m in messages {
                self.scheduled += 1;
                self.shards[m.dst].queue.push(m.time, m.event);
            }
            if budget_hit {
                return StopReason::StepBudget;
            }
        }
    }
}

/// One epoch's marching orders for a worker.
struct EpochCmd<E> {
    window_end: SimTime,
    inclusive: bool,
    budget: u64,
    /// Barrier messages for this worker's shards, in global merge order:
    /// `(global destination shard, arrival time, event)`.
    deliveries: Vec<(usize, SimTime, E)>,
}

/// One epoch's results from a worker.
struct EpochOut<E> {
    outbox: Vec<Outgoing<E>>,
    steps: u64,
    budget_hit: bool,
    /// Refreshed queue-head times for every shard this worker owns.
    peeks: Vec<(usize, Option<SimTime>)>,
}

/// Spin briefly before parking on the channel: epochs are short enough
/// that a blocking receive's wake-up latency would dominate.
fn recv_spin<T>(rx: &mpsc::Receiver<T>) -> Result<T, mpsc::RecvError> {
    for _ in 0..10_000 {
        match rx.try_recv() {
            Ok(v) => return Ok(v),
            Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
        }
    }
    rx.recv()
}

/// A persistent worker: owns a contiguous range of logical shards for
/// the whole run and executes one lookahead window per command.
#[allow(clippy::too_many_arguments)]
fn worker_loop<E, S, F>(
    base: usize,
    shards: &mut [ShardState<E>],
    states: &mut [S],
    num_shards: usize,
    lookahead: SimDuration,
    horizon: SimTime,
    rx: &mpsc::Receiver<EpochCmd<E>>,
    tx: &mpsc::Sender<EpochOut<E>>,
    handler: &F,
) where
    F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E),
{
    while let Ok(cmd) = recv_spin(rx) {
        for (dst, t, ev) in cmd.deliveries {
            shards[dst - base].queue.push(t, ev);
        }
        let mut outbox: Vec<Outgoing<E>> = Vec::new();
        let mut steps = 0u64;
        let mut budget_hit = false;
        for (i, (shard, state)) in shards.iter_mut().zip(states.iter_mut()).enumerate() {
            let (out, s, hit) = run_window(
                shard,
                state,
                base + i,
                num_shards,
                cmd.window_end,
                cmd.inclusive,
                horizon,
                cmd.budget,
                lookahead,
                handler,
            );
            steps += s;
            budget_hit |= hit;
            outbox.extend(out);
        }
        let peeks = shards
            .iter()
            .enumerate()
            .map(|(i, s)| (base + i, s.queue.peek_time()))
            .collect();
        if tx
            .send(EpochOut {
                outbox,
                steps,
                budget_hit,
                peeks,
            })
            .is_err()
        {
            break;
        }
    }
}

/// Executes one shard's share of a lookahead window. Returns the shard's
/// outbox, the number of events it handled, and whether the step budget
/// was exhausted mid-window.
#[allow(clippy::too_many_arguments)]
fn run_window<E, S, F>(
    shard: &mut ShardState<E>,
    state: &mut S,
    index: usize,
    num_shards: usize,
    window_end: SimTime,
    inclusive: bool,
    horizon: SimTime,
    budget: u64,
    lookahead: SimDuration,
    handler: &F,
) -> (Vec<Outgoing<E>>, u64, bool)
where
    F: Fn(&mut S, &mut ShardCtx<'_, E>, SimTime, E),
{
    let mut outbox = Vec::new();
    let mut steps = 0u64;
    while let Some(t) = shard.queue.peek_time() {
        if t > horizon || !(t < window_end || inclusive) {
            break;
        }
        if steps >= budget {
            return (outbox, steps, true);
        }
        let (t, event) = shard.queue.pop().expect("peeked nonempty queue");
        debug_assert!(t >= shard.now, "shard queue went backwards in time");
        shard.now = t;
        shard.steps += 1;
        steps += 1;
        let mut ctx = ShardCtx {
            shard: index,
            num_shards,
            now: t,
            window_end,
            lookahead,
            queue: &mut shard.queue,
            outbox: &mut outbox,
        };
        handler(state, &mut ctx, t, event);
    }
    (outbox, steps, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventLoop;
    use proptest::prelude::*;

    /// A deterministic toy protocol shared by the sequential oracle and
    /// the sharded engine: each event carries a unique id; the handler
    /// derives follow-up work purely from `(id, shard)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ev {
        id: u64,
        hops: u8,
    }

    /// Pure derivation of the follow-up actions for an event. Times are
    /// id-salted so every event in a run has a distinct timestamp, which
    /// makes the sequential/sharded comparison exact (no cross-engine
    /// tie-break ambiguity; FIFO ties are covered by the directed tests).
    fn follow_ups(ev: Ev, shard: usize, num_shards: usize) -> Vec<(usize, SimDuration, Ev)> {
        if ev.hops == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let next = Ev {
            id: ev.id * 7 + 1,
            hops: ev.hops - 1,
        };
        // A local follow-up with an id-salted short delay.
        out.push((shard, SimDuration::from_nanos(1 + (ev.id % 977)), next));
        if num_shards > 1 && ev.id.is_multiple_of(3) {
            let dst = (shard + 1 + (ev.id as usize % (num_shards - 1))) % num_shards;
            let remote = Ev {
                id: ev.id * 7 + 2,
                hops: ev.hops - 1,
            };
            out.push((
                dst,
                LOOKAHEAD + SimDuration::from_nanos(ev.id % 977),
                remote,
            ));
        }
        out
    }

    const LOOKAHEAD: SimDuration = SimDuration::from_micros(10);

    /// Runs the toy protocol on the sequential engine, tagging events
    /// with their logical shard. Returns the per-shard execution logs.
    fn run_sequential(num_shards: usize, seeds: &[(usize, u64, Ev)]) -> Vec<Vec<(u64, Ev)>> {
        let mut sim: EventLoop<(usize, Ev)> = EventLoop::new();
        for &(shard, at, ev) in seeds {
            sim.schedule(SimTime::from_nanos(at), (shard, ev));
        }
        let mut logs = vec![Vec::new(); num_shards];
        sim.run(|sim, now, (shard, ev)| {
            logs[shard].push((now.as_nanos(), ev));
            for (dst, delay, next) in follow_ups(ev, shard, num_shards) {
                sim.schedule(now + delay, (dst, next));
            }
        });
        logs
    }

    /// Runs the same protocol on the sharded engine.
    fn run_sharded(num_shards: usize, seeds: &[(usize, u64, Ev)]) -> Vec<Vec<(u64, Ev)>> {
        let mut sim: ShardedEventLoop<Ev> = ShardedEventLoop::new(num_shards, LOOKAHEAD);
        for &(shard, at, ev) in seeds {
            sim.schedule(shard, SimTime::from_nanos(at), ev);
        }
        let mut logs: Vec<Vec<(u64, Ev)>> = vec![Vec::new(); num_shards];
        let reason = sim.run(&mut logs, |log, ctx, now, ev| {
            log.push((now.as_nanos(), ev));
            for (dst, delay, next) in follow_ups(ev, ctx.shard(), ctx.num_shards()) {
                if dst == ctx.shard() {
                    ctx.schedule_in(delay, next);
                } else {
                    ctx.send_in(dst, delay, next);
                }
            }
        });
        assert_eq!(reason, StopReason::Drained);
        logs
    }

    #[test]
    fn single_shard_matches_sequential_engine_exactly() {
        let seeds = [
            (0, 0, Ev { id: 1, hops: 6 }),
            (0, 500, Ev { id: 2, hops: 5 }),
        ];
        assert_eq!(run_sequential(1, &seeds), run_sharded(1, &seeds));
    }

    #[test]
    fn ping_pong_respects_lookahead() {
        let mut sim: ShardedEventLoop<u32> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::ZERO, 0);
        let mut logs: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 2];
        sim.run(&mut logs, |log, ctx, now, hop| {
            log.push((now.as_nanos(), hop));
            if hop < 5 {
                ctx.send_in(1 - ctx.shard(), ctx.lookahead(), hop + 1);
            }
        });
        let l = LOOKAHEAD.as_nanos();
        assert_eq!(logs[0], vec![(0, 0), (2 * l, 2), (4 * l, 4)]);
        assert_eq!(logs[1], vec![(l, 1), (3 * l, 3), (5 * l, 5)]);
        // Each hop needs its own window: 6 events, 6 epochs.
        assert_eq!(sim.epochs(), 6);
        assert_eq!(sim.steps_handled(), 6);
    }

    /// The directed boundary case from the issue: a cross-shard message
    /// arriving **exactly at the lookahead-window end** must not execute
    /// in the window that produced it, and must merge FIFO-after local
    /// events already queued at the same instant.
    #[test]
    fn message_on_window_boundary_lands_in_next_epoch() {
        let l = LOOKAHEAD.as_nanos();
        let mut sim: ShardedEventLoop<&'static str> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::ZERO, "sender");
        // Shard 1 has a local event just inside the first window and one
        // exactly at its end, queued before the message arrives.
        sim.schedule(1, SimTime::from_nanos(l - 1), "local-inside");
        sim.schedule(1, SimTime::from_nanos(l), "local-at-boundary");
        let mut logs: Vec<Vec<(u64, &'static str)>> = vec![Vec::new(); 2];
        sim.run(&mut logs, |log, ctx, now, ev| {
            log.push((now.as_nanos(), ev));
            if ev == "sender" {
                // Arrival == window_end: legal, and released at the
                // barrier into the *next* window.
                let boundary = ctx.window_end();
                assert_eq!(boundary.as_nanos(), l);
                ctx.send(1, boundary, "message-at-boundary");
            }
        });
        assert_eq!(logs[0], vec![(0, "sender")]);
        // The message ties with "local-at-boundary" at t = L; barrier
        // merge assigns its FIFO sequence after the already-queued local
        // event, deterministically.
        assert_eq!(
            logs[1],
            vec![
                (l - 1, "local-inside"),
                (l, "local-at-boundary"),
                (l, "message-at-boundary"),
            ]
        );
    }

    /// A `send_in` at exactly the lookahead delay lands exactly on the
    /// window edge — the earliest legal arrival — and is delivered in
    /// the next epoch, never the producing one.
    #[test]
    fn send_in_at_exact_lookahead_delivers_at_window_edge() {
        let l = LOOKAHEAD.as_nanos();
        let mut sim: ShardedEventLoop<&'static str> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::ZERO, "sender");
        let mut logs: Vec<Vec<(u64, &'static str)>> = vec![Vec::new(); 2];
        sim.run(&mut logs, |log, ctx, _now, ev| {
            log.push((ctx.now().as_nanos(), ev));
            if ev == "sender" {
                ctx.send_in(1, ctx.lookahead(), "edge");
            }
        });
        assert_eq!(logs[0], vec![(0, "sender")]);
        assert_eq!(logs[1], vec![(l, "edge")]);
        // The edge arrival needed its own epoch.
        assert_eq!(sim.epochs(), 2);
    }

    #[test]
    #[should_panic(expected = "lookahead must be nonzero")]
    fn zero_lookahead_is_rejected() {
        let _: ShardedEventLoop<u8> = ShardedEventLoop::new(2, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "violates the lookahead window")]
    fn send_inside_window_panics() {
        let mut sim: ShardedEventLoop<u8> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::ZERO, 0);
        sim.run(&mut [(), ()], |_, ctx, now, _| {
            ctx.send(1, now, 1);
        });
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    fn send_in_below_lookahead_panics() {
        let mut sim: ShardedEventLoop<u8> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::ZERO, 0);
        sim.run(&mut [(), ()], |_, ctx, _, _| {
            ctx.send_in(1, SimDuration::from_nanos(1), 1);
        });
    }

    /// Two messages arriving at the same instant from different shards
    /// merge in *send time* order first, then source shard — the key
    /// that keeps delivery independent of shard-to-thread packing.
    #[test]
    fn equal_arrival_ties_merge_in_send_time_order() {
        let mut sim: ShardedEventLoop<&'static str> = ShardedEventLoop::new(3, LOOKAHEAD);
        sim.schedule(0, SimTime::from_nanos(5), "a");
        sim.schedule(1, SimTime::ZERO, "b");
        let target = SimTime::ZERO + LOOKAHEAD + LOOKAHEAD;
        let mut logs: Vec<Vec<&'static str>> = vec![Vec::new(); 3];
        sim.run(&mut logs, |log, ctx, _, ev| {
            log.push(ev);
            match ev {
                "a" => ctx.send(2, target, "from-a"),
                "b" => ctx.send(2, target, "from-b"),
                _ => {}
            }
        });
        // Shard 1 sent at t=0, shard 0 at t=5: the earlier send wins the
        // equal-arrival tie even though its source index is higher.
        assert_eq!(logs[2], vec!["from-b", "from-a"]);
    }

    #[test]
    fn horizon_stops_at_epoch_boundary() {
        let mut sim: ShardedEventLoop<u32> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::from_nanos(1), 1);
        sim.schedule(1, SimTime::from_secs(5), 2);
        let mut logs: Vec<Vec<u32>> = vec![Vec::new(); 2];
        let reason = sim.run_bounded(
            &mut logs,
            SimTime::from_secs(1),
            u64::MAX,
            |log, _, _, v| log.push(v),
        );
        assert_eq!(reason, StopReason::Horizon);
        assert_eq!(logs, vec![vec![1], Vec::new()]);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn step_budget_detects_livelock() {
        let mut sim: ShardedEventLoop<()> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::ZERO, ());
        let reason = sim.run_bounded(&mut [(), ()], SimTime::MAX, 1000, |_, ctx, now, ()| {
            ctx.schedule(now, ());
        });
        assert_eq!(reason, StopReason::StepBudget);
    }

    #[test]
    fn saturated_window_still_drains() {
        // All events at the u64 ceiling: [W, W + L) saturates empty; the
        // inclusive corner must still execute them.
        let mut sim: ShardedEventLoop<u8> = ShardedEventLoop::new(2, LOOKAHEAD);
        sim.schedule(0, SimTime::MAX, 1);
        sim.schedule(1, SimTime::MAX, 2);
        let mut logs: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let reason = sim.run(&mut logs, |log, _, _, v| log.push(v));
        assert_eq!(reason, StopReason::Drained);
        assert_eq!(logs, vec![vec![1], vec![2]]);
    }

    /// Runs the toy protocol through `run_threaded` with an explicit
    /// worker-thread count.
    fn run_threaded_case(
        num_shards: usize,
        threads: usize,
        seeds: &[(usize, u64, Ev)],
    ) -> Vec<Vec<(u64, Ev)>> {
        let mut sim: ShardedEventLoop<Ev> = ShardedEventLoop::new(num_shards, LOOKAHEAD);
        for &(shard, at, ev) in seeds {
            sim.schedule(shard, SimTime::from_nanos(at), ev);
        }
        let mut logs: Vec<Vec<(u64, Ev)>> = vec![Vec::new(); num_shards];
        let reason = sim.run_threaded(
            &mut logs,
            SimTime::MAX,
            u64::MAX,
            threads,
            |log: &mut Vec<(u64, Ev)>, ctx, now, ev| {
                log.push((now.as_nanos(), ev));
                for (dst, delay, next) in follow_ups(ev, ctx.shard(), ctx.num_shards()) {
                    if dst == ctx.shard() {
                        ctx.schedule_in(delay, next);
                    } else {
                        ctx.send_in(dst, delay, next);
                    }
                }
            },
        );
        assert_eq!(reason, StopReason::Drained);
        logs
    }

    /// FNV digest of per-shard execution logs.
    fn log_digest(logs: &[Vec<(u64, Ev)>]) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        for (i, log) in logs.iter().enumerate() {
            h.write_u64(i as u64);
            for &(t, ev) in log {
                h.write_u64(t);
                h.write_u64(ev.id);
                h.write_u64(u64::from(ev.hops));
            }
        }
        h.finish()
    }

    proptest! {
        /// Digest invariance across both the shard count and the worker
        /// thread count: for every `(num_shards, threads)` pair the
        /// execution digest equals the sequential oracle's.
        #[test]
        fn digests_invariant_across_shards_and_threads(
            num_shards in 1usize..6,
            threads in 1usize..5,
            seeds in proptest::collection::vec((0usize..6, 0u64..1_000_000, 1u64..1000, 0u8..5), 1..10),
        ) {
            let seeds: Vec<(usize, u64, Ev)> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(shard, at, id, hops))| {
                    (shard % num_shards, at, Ev { id: id * 1000 + i as u64, hops })
                })
                .collect();
            let oracle = log_digest(&run_sequential(num_shards, &seeds));
            let threaded = log_digest(&run_threaded_case(num_shards, threads, &seeds));
            prop_assert_eq!(oracle, threaded);
        }

        /// For arbitrary seed workloads, every shard's execution log on
        /// the sharded engine is identical to the same logical process's
        /// log under the sequential oracle.
        #[test]
        fn sharded_matches_sequential_oracle(
            num_shards in 1usize..5,
            seeds in proptest::collection::vec((0usize..5, 0u64..1_000_000, 1u64..1000, 0u8..5), 1..12),
        ) {
            let seeds: Vec<(usize, u64, Ev)> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(shard, at, id, hops))| {
                    // Unique ids and id-salted times keep timestamps
                    // distinct across the whole cascade.
                    (shard % num_shards, at, Ev { id: id * 1000 + i as u64, hops })
                })
                .collect();
            let seq = run_sequential(num_shards, &seeds);
            let sharded = run_sharded(num_shards, &seeds);
            prop_assert_eq!(seq, sharded);
        }

        /// The sharded engine is deterministic: two runs of the same
        /// workload produce identical logs, regardless of thread timing.
        #[test]
        fn sharded_runs_are_reproducible(
            num_shards in 2usize..5,
            seeds in proptest::collection::vec((0usize..5, 0u64..1_000_000, 1u64..1000, 0u8..5), 1..12),
        ) {
            let seeds: Vec<(usize, u64, Ev)> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(shard, at, id, hops))| {
                    (shard % num_shards, at, Ev { id: id * 1000 + i as u64, hops })
                })
                .collect();
            prop_assert_eq!(run_sharded(num_shards, &seeds), run_sharded(num_shards, &seeds));
        }
    }
}
