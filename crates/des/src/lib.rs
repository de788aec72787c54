//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the foundation every simulated subsystem in the
//! workspace is built on: a nanosecond-resolution simulated clock
//! ([`SimTime`], [`SimDuration`]), a deterministic event queue that breaks
//! timestamp ties by insertion order ([`queue::EventQueue`]), a small
//! event-loop driver ([`engine::EventLoop`]), seeded random-number streams
//! ([`rng::DetRng`]) and statistics accumulators ([`stats`]).
//!
//! Determinism is a hard requirement of the reproduction: the monitor is
//! itself being validated against ground truth recorded by the simulator,
//! so a given `(seed, configuration)` pair must replay bit-identical event
//! histories.
//!
//! # Examples
//!
//! ```
//! use des::engine::EventLoop;
//! use des::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut sim = EventLoop::new();
//! sim.schedule(SimTime::ZERO, Ev::Ping);
//! let mut log = Vec::new();
//! sim.run(|sim, now, ev| {
//!     log.push((now, format!("{ev:?}")));
//!     if matches!(ev, Ev::Ping) {
//!         sim.schedule_in(SimDuration::from_micros(3), Ev::Pong);
//!     }
//! });
//! assert_eq!(log.len(), 2);
//! assert_eq!(log[1].0, SimTime::from_nanos(3_000));
//! ```

pub mod clock;
pub mod digest;
pub mod engine;
pub mod queue;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;

pub use engine::EventLoop;
pub use queue::EventQueue;
pub use rng::DetRng;
pub use shard::ShardedEventLoop;
pub use time::{SimDuration, SimTime};
