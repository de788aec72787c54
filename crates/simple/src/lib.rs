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
//! * every artifact as JSON ([`json`]): one value tree, one writer, one
//!   strict reader.
//!
//! Causality over a trace — does each job's send precede its work? — is
//! checked by the analyzer's happens-before engine (`analyzer::hb`),
//! against the orderings each workload declares.
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

pub use activity::{ActivityModel, ActivityTrack, Interval};
pub use gantt::{Gantt, GanttStyle};
pub use stats::{
    channel_activity, state_durations, utilization, ChannelActivity, UtilizationReport,
};
pub use timeline::StateTimeline;
pub use trace::{Event, Trace, TraceError};
