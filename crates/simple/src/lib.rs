//! SIMPLE-style evaluation of event traces.
//!
//! The real SIMPLE package (paper §3.1, reference \[10\]) provides
//! "statistical analysis, visualization, and animation of measurement
//! data". This crate reimplements the subset the paper's evaluation
//! exercises:
//!
//! * a trace data model ([`trace`]) with merging and filtering;
//! * derivation of *activities* from instrumentation events
//!   ([`activity`]): each token marks the **beginning** of a program
//!   phase on its track, exactly like the horizontal bars in the paper's
//!   Figure 6;
//! * Gantt charts ([`gantt`]) — time-state diagrams like Figures 7–9 —
//!   rendered as ASCII for terminals and SVG for documents;
//! * duration and utilization statistics ([`stats`]) — the numbers behind
//!   Figure 10's utilization ladder;
//! * trace validation ([`validate`]): timestamp monotonicity and
//!   send/receive causality checks, used to demonstrate the value of the
//!   ZM4's globally valid timestamps;
//! * every artifact as JSON ([`json`]): one value tree, one writer, one
//!   strict reader.
//!
//! # Examples
//!
//! ```
//! use simple::{ActivityModel, Event, Trace};
//!
//! // Two instrumentation points: 0x10 begins "Work", 0x11 begins "Wait".
//! let trace = Trace::from_events(vec![
//!     Event::new(1_000, 0, 0x10, 0),
//!     Event::new(5_000, 0, 0x11, 0),
//!     Event::new(6_000, 0, 0x10, 1),
//! ])
//! .unwrap();
//!
//! let mut model = ActivityModel::new();
//! model.state(0x10, "Work").state(0x11, "Wait");
//! let track = model.derive_track("servant", trace.events().iter(), 9_000);
//! assert_eq!(track.intervals().len(), 3);
//! let work: u64 = track.time_in_state("Work");
//! assert_eq!(work, 4_000 + 3_000);
//! ```

pub mod activity;
pub mod gantt;
pub mod json;
pub mod stats;
pub mod timeline;
pub mod trace;
pub mod validate;

pub use activity::{ActivityModel, ActivityTrack, Interval};
pub use gantt::{Gantt, GanttStyle};
pub use stats::{state_durations, utilization, UtilizationReport};
pub use timeline::StateTimeline;
pub use trace::{Event, Trace, TraceError};
pub use validate::{check_causality, check_monotonic, CausalityRule, ValidationReport};
