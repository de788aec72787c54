//! Trace analysis reproducing the paper's evaluation artifacts.
//!
//! From the merged global trace this module derives:
//!
//! * per-process activity tracks (master, servants, agents) for Gantt
//!   charts like Figures 7–9;
//! * the servant-utilization metric of Figures 8–10, measured over "the
//!   actual ray tracing phase of the program only" — initialization is
//!   excluded, exactly as the paper specifies.

use simple::{ActivityTrack, Trace, UtilizationReport};

use crate::tokens;

/// The ray-tracing phase of a run: from the first job reaching a servant
/// ("Work Begin") to the last result arriving at the master. Returns
/// `None` if the trace contains no such events.
pub fn work_phase(trace: &Trace) -> Option<(u64, u64)> {
    let first_work = trace
        .events()
        .iter()
        .find(|e| e.token.value() == tokens::WORK_BEGIN)
        .map(|e| e.ts_ns)?;
    let last_receive = trace
        .events()
        .iter()
        .rev()
        .find(|e| e.token.value() == tokens::RECEIVE_RESULTS_BEGIN)
        .map(|e| e.ts_ns)?;
    (first_work < last_receive).then_some((first_work, last_receive))
}

/// Derives the master's activity track (the master runs on channel 0;
/// agent tokens on the same channel are skipped by the model).
pub fn master_track(trace: &Trace, end_ns: u64) -> ActivityTrack {
    let model = tokens::master_activity_model();
    model.derive_track("Master", trace.channel(0).events().iter(), end_ns)
}

/// Derives one servant's activity track (servant `i` runs on channel
/// `i`).
pub fn servant_track(trace: &Trace, servant: u32, end_ns: u64) -> ActivityTrack {
    let model = tokens::servant_activity_model();
    model.derive_track(
        format!("Servant {servant}"),
        trace.channel(servant as usize).events().iter(),
        end_ns,
    )
}

/// Derives all servant tracks for `servants` servants.
pub fn servant_tracks(trace: &Trace, servants: u32, end_ns: u64) -> Vec<ActivityTrack> {
    (1..=servants)
        .map(|i| servant_track(trace, i, end_ns))
        .collect()
}

/// Derives agent tracks from channel-0 events. Agents are distinguished
/// by the event parameter (the agent index).
pub fn agent_tracks(trace: &Trace, end_ns: u64) -> Vec<ActivityTrack> {
    let model = tokens::agent_activity_model();
    let agent_events = trace.filter(|e| e.channel == 0 && model.state_of(e.token).is_some());
    let max_index = agent_events.events().iter().map(|e| e.param.value()).max();
    match max_index {
        None => Vec::new(),
        Some(max) => (0..=max)
            .map(|idx| {
                let events = agent_events.filter(|e| e.param.value() == idx);
                model.derive_track(format!("Agent {idx}"), events.events().iter(), end_ns)
            })
            .collect(),
    }
}

/// The paper's servant-utilization metric: mean fraction of the
/// ray-tracing phase the servants spend in the "Work" state.
///
/// # Panics
///
/// Panics if the trace contains no work phase.
pub fn servant_utilization(trace: &Trace, servants: u32) -> UtilizationReport {
    let window = work_phase(trace).expect("trace has no ray-tracing phase");
    servant_work(trace, servants, window)
}

/// Servant utilization over `(from, to)`: the report
/// [`UtilizationReport::measure`] gives for [`servant_tracks`] closed at
/// `to`, folded from the trace in one pass.
fn servant_work(trace: &Trace, servants: u32, (from, to): (u64, u64)) -> UtilizationReport {
    UtilizationReport::measure_channels(
        trace.events(),
        &tokens::servant_activity_model(),
        "Work",
        1..servants as usize + 1,
        |servant| format!("Servant {servant}"),
        from,
        to,
    )
}

/// The *steady* ray-tracing phase: from the first "Work Begin" to the
/// last "Send Jobs Begin" — the period during which the pipeline is
/// still being fed. Excludes the drain tail, whose relative weight is an
/// artifact of simulation-sized images (the paper rendered 512×512 =
/// 256 K rays, making its drain tail negligible). Returns `None` if the
/// trace has no such phase.
pub fn steady_phase(trace: &Trace) -> Option<(u64, u64)> {
    let first_work = trace
        .events()
        .iter()
        .find(|e| e.token.value() == tokens::WORK_BEGIN)
        .map(|e| e.ts_ns)?;
    let last_send = trace
        .events()
        .iter()
        .rev()
        .find(|e| e.token.value() == tokens::SEND_JOBS_BEGIN)
        .map(|e| e.ts_ns)?;
    (first_work < last_send).then_some((first_work, last_send))
}

/// Servant utilization over the steady phase (see [`steady_phase`]).
///
/// # Panics
///
/// Panics if the trace contains no steady phase.
pub fn servant_utilization_steady(trace: &Trace, servants: u32) -> UtilizationReport {
    let window = steady_phase(trace).expect("trace has no steady ray-tracing phase");
    servant_work(trace, servants, window)
}

/// Activity model for the kernel-instrumentation events
/// ([`suprenum::os_tokens`]): derives a per-node CPU timeline.
pub fn kernel_activity_model() -> simple::ActivityModel {
    use suprenum::os_tokens as os;
    let mut m = simple::ActivityModel::new();
    m.state(os::KERNEL_DISPATCH, "Running")
        .state(os::KERNEL_BLOCK, "Idle/Scheduling")
        .state(os::KERNEL_MAILBOX_SERVICE, "Mailbox Service")
        .state(os::KERNEL_EXIT, "Idle/Scheduling")
        .state(os::KERNEL_PREEMPT, "Idle/Scheduling");
    m
}

/// Derives per-node CPU timelines from the kernel-instrumentation
/// events — the paper's future-work "node scheduling algorithm"
/// visibility. One track per channel in `0..nodes`.
pub fn kernel_tracks(trace: &Trace, nodes: u32, end_ns: u64) -> Vec<ActivityTrack> {
    let model = kernel_activity_model();
    (0..nodes)
        .map(|n| {
            model.derive_track(
                format!("Node {n} CPU"),
                trace.channel(n as usize).events().iter(),
                end_ns,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simple::Event;

    /// A miniature synthetic trace: one master cycle, one servant job.
    fn synthetic_trace() -> Trace {
        Trace::from_unsorted(vec![
            Event::new(100, 0, tokens::DISTRIBUTE_JOBS_BEGIN, 1),
            Event::new(200, 0, tokens::SEND_JOBS_BEGIN, 0),
            Event::new(350, 0, tokens::SEND_JOBS_END, 0),
            Event::new(400, 0, tokens::WAIT_RESULTS_BEGIN, 0),
            Event::new(500, 1, tokens::WORK_BEGIN, 0),
            Event::new(2_500, 1, tokens::SEND_RESULTS_BEGIN, 0),
            Event::new(2_800, 1, tokens::WAIT_JOB_BEGIN, 0),
            Event::new(3_000, 0, tokens::RECEIVE_RESULTS_BEGIN, 0),
            // Agent 0 forwarding on the master's channel.
            Event::new(210, 0, tokens::AGENT_WAKE_UP, 0),
            Event::new(220, 0, tokens::AGENT_FORWARD, 0),
            Event::new(450, 0, tokens::AGENT_FREED, 0),
            Event::new(460, 0, tokens::AGENT_SLEEP, 0),
        ])
    }

    #[test]
    fn work_phase_spans_first_work_to_last_receive() {
        let t = synthetic_trace();
        assert_eq!(work_phase(&t), Some((500, 3_000)));
    }

    #[test]
    fn servant_utilization_counts_work_fraction() {
        let t = synthetic_trace();
        let report = servant_utilization(&t, 1);
        // Work 500..2500 of phase 500..3000 = 0.8.
        assert!((report.mean - 0.8).abs() < 1e-9, "mean {}", report.mean);
    }

    #[test]
    fn master_track_ignores_agent_tokens() {
        let t = synthetic_trace();
        let track = master_track(&t, 3_500);
        // Master states only; the agent events on channel 0 must not
        // perturb the master's state machine.
        assert_eq!(
            track.states(),
            vec![
                "Distribute Jobs",
                "Send Jobs",
                "Wait for Results",
                "Receive Results"
            ]
        );
        // "Send Jobs" runs 200..350 (ended by Send Jobs End).
        assert_eq!(track.time_in_state("Send Jobs"), 150);
    }

    #[test]
    fn agent_tracks_split_by_param() {
        let mut events: Vec<Event> = synthetic_trace().events().to_vec();
        // A second agent (param 1).
        events.push(Event::new(600, 0, tokens::AGENT_WAKE_UP, 1));
        events.push(Event::new(650, 0, tokens::AGENT_SLEEP, 1));
        let t = Trace::from_unsorted(events);
        let tracks = agent_tracks(&t, 3_500);
        assert_eq!(tracks.len(), 2);
        assert_eq!(tracks[0].name(), "Agent 0");
        assert!(tracks[1].time_in_state("Wake Up") > 0);
        // Agent 0's Freed state is the short one.
        assert_eq!(tracks[0].time_in_state("Freed"), 10);
    }

    /// The one-pass report equals the one measured over the derived
    /// servant tracks, bit for bit, over both phases.
    #[test]
    fn utilization_matches_the_derived_tracks() {
        let mut events: Vec<Event> = synthetic_trace().events().to_vec();
        events.extend([
            Event::new(900, 2, tokens::WORK_BEGIN, 0),
            Event::new(1_700, 2, tokens::SEND_RESULTS_BEGIN, 0),
            Event::new(2_100, 2, tokens::WORK_BEGIN, 0),
            Event::new(2_950, 0, tokens::SEND_JOBS_BEGIN, 0),
        ]);
        let t = Trace::from_unsorted(events);
        for (report, (from, to)) in [
            (servant_utilization(&t, 3), work_phase(&t).unwrap()),
            (servant_utilization_steady(&t, 3), steady_phase(&t).unwrap()),
        ] {
            let tracks = servant_tracks(&t, 3, to);
            assert_eq!(
                report,
                UtilizationReport::measure(&tracks, "Work", from, to)
            );
        }
    }

    #[test]
    fn empty_trace_has_no_phase() {
        assert_eq!(work_phase(&Trace::default()), None);
        assert!(agent_tracks(&Trace::default(), 100).is_empty());
    }
}
