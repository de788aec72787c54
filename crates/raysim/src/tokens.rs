//! Instrumentation points of the parallel ray tracer.
//!
//! These are the paper's Figure 6 measurement points (the horizontal
//! bars in the master/servant flow charts), plus the agent states of
//! Figure 9. Each token marks the *beginning* of a program phase; the
//! explicit `…_END` tokens exist where the paper has them ("Send Jobs
//! End", "Write Pixels End").
//!
//! The 32-bit parameter field carries the job sequence number for
//! job-related events (enabling causality checks across nodes) and the
//! agent index for agent events (enabling per-agent Gantt tracks even
//! though all agents share the master's display channel).

use simple::ActivityModel;

// ---------------------------------------------------------------------
// Master (Figure 6, left).
// ---------------------------------------------------------------------

/// Master: "Distribute Jobs Begin".
pub const DISTRIBUTE_JOBS_BEGIN: u16 = 0x0101;
/// Master: "Send Jobs Begin".
pub const SEND_JOBS_BEGIN: u16 = 0x0102;
/// Master: "Send Jobs End".
pub const SEND_JOBS_END: u16 = 0x0103;
/// Master: "Wait for Results Begin".
pub const WAIT_RESULTS_BEGIN: u16 = 0x0104;
/// Master: "Receive Results Begin".
pub const RECEIVE_RESULTS_BEGIN: u16 = 0x0105;
/// Master: "Write Pixels Begin".
pub const WRITE_PIXELS_BEGIN: u16 = 0x0106;
/// Master: "Write Pixels End".
pub const WRITE_PIXELS_END: u16 = 0x0107;

// ---------------------------------------------------------------------
// Servant (Figure 6, right).
// ---------------------------------------------------------------------

/// Servant: "Work Begin".
pub const WORK_BEGIN: u16 = 0x0201;
/// Servant: "Send Results Begin" (instrumented from version 2 on — the
/// paper added it between the Fig. 7/8 and Fig. 9 measurements).
pub const SEND_RESULTS_BEGIN: u16 = 0x0202;
/// Servant: "Wait for Job Begin".
pub const WAIT_JOB_BEGIN: u16 = 0x0203;

// ---------------------------------------------------------------------
// Communication agents (Figure 9).
// ---------------------------------------------------------------------

/// Agent: "Wake Up".
pub const AGENT_WAKE_UP: u16 = 0x0301;
/// Agent: "Forward Message".
pub const AGENT_FORWARD: u16 = 0x0302;
/// Agent: "Freed" (the receiver accepted the forwarded message).
pub const AGENT_FREED: u16 = 0x0303;
/// Agent: "Sleep".
pub const AGENT_SLEEP: u16 = 0x0304;

/// The declared point map: `(token id, activity name, group)` for every
/// instrumentation point above, in declaration order.
///
/// This is the raw, uncollapsed list a static analyzer wants to lint:
/// colliding ids stay visible here, where an [`ActivityModel`] keeps
/// only the last. Names follow the paper's convention: a `… End` name
/// closes the activity of the same base name; any other name begins an
/// activity that the role's next point implicitly ends.
pub fn point_map() -> Vec<(u16, &'static str, &'static str)> {
    vec![
        (DISTRIBUTE_JOBS_BEGIN, "Distribute Jobs", "Master"),
        (SEND_JOBS_BEGIN, "Send Jobs", "Master"),
        (SEND_JOBS_END, "Send Jobs End", "Master"),
        (WAIT_RESULTS_BEGIN, "Wait for Results", "Master"),
        (RECEIVE_RESULTS_BEGIN, "Receive Results", "Master"),
        (WRITE_PIXELS_BEGIN, "Write Pixels", "Master"),
        (WRITE_PIXELS_END, "Write Pixels End", "Master"),
        (WORK_BEGIN, "Work", "Servant"),
        (SEND_RESULTS_BEGIN, "Send Results", "Servant"),
        (WAIT_JOB_BEGIN, "Wait for Job", "Servant"),
        (AGENT_WAKE_UP, "Wake Up", "Agent"),
        (AGENT_FORWARD, "Forward Message", "Agent"),
        (AGENT_FREED, "Freed", "Agent"),
        (AGENT_SLEEP, "Sleep", "Agent"),
    ]
}

/// Activity model for a master track (Gantt rows of Figures 7 and 9).
///
/// The `…_END` tokens return the master to the surrounding phase:
/// "Send Jobs End" begins the wait, "Write Pixels End" begins the next
/// distribution.
pub fn master_activity_model() -> ActivityModel {
    let mut m = ActivityModel::new();
    m.state(DISTRIBUTE_JOBS_BEGIN, "Distribute Jobs")
        .state(SEND_JOBS_BEGIN, "Send Jobs")
        .state(SEND_JOBS_END, "Distribute Jobs")
        .state(WAIT_RESULTS_BEGIN, "Wait for Results")
        .state(RECEIVE_RESULTS_BEGIN, "Receive Results")
        .state(WRITE_PIXELS_BEGIN, "Write Pixels")
        .state(WRITE_PIXELS_END, "Distribute Jobs");
    m
}

/// Activity model for a servant track (Gantt rows of Figures 7–9).
pub fn servant_activity_model() -> ActivityModel {
    let mut m = ActivityModel::new();
    m.state(WORK_BEGIN, "Work")
        .state(SEND_RESULTS_BEGIN, "Send Results")
        .state(WAIT_JOB_BEGIN, "Wait for Job");
    m
}

/// Activity model for an agent track (Figure 9's bottom band).
pub fn agent_activity_model() -> ActivityModel {
    let mut m = ActivityModel::new();
    m.state(AGENT_WAKE_UP, "Wake Up")
        .state(AGENT_FORWARD, "Forward Message")
        .state(AGENT_FREED, "Freed")
        .state(AGENT_SLEEP, "Sleep");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmon::EventToken;

    #[test]
    fn activity_models_are_disjoint_by_group() {
        let master = master_activity_model();
        let servant = servant_activity_model();
        // A servant token must not drive the master's state machine:
        // they share a display channel only for agents, but defensive
        // disjointness keeps derivations independent.
        assert!(master.state_of(EventToken::new(WORK_BEGIN)).is_none());
        assert!(servant.state_of(EventToken::new(SEND_JOBS_BEGIN)).is_none());
        assert!(agent_activity_model()
            .state_of(EventToken::new(WORK_BEGIN))
            .is_none());
    }

    #[test]
    fn end_tokens_return_to_enclosing_phase() {
        let m = master_activity_model();
        assert_eq!(
            m.state_of(EventToken::new(SEND_JOBS_END)),
            Some("Distribute Jobs")
        );
        assert_eq!(
            m.state_of(EventToken::new(WRITE_PIXELS_END)),
            Some("Distribute Jobs")
        );
    }
}
