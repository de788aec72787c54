//! Effective synchrony as a machine-checked property.
//!
//! The paper's headline finding is that SUPRENUM's "asynchronous"
//! mailbox send is *effectively synchronous*: the sender blocks until
//! the destination node's mailbox LWP accepts the message, and under
//! non-preemptive round-robin that LWP only gets the CPU when the
//! destination's user process blocks — so by the time a send completes,
//! sender *and* receiver have both given up their CPUs. ZM4 Gantt
//! charts showed it empirically; the analyzer proves it for a bounded
//! scope and produces a concrete counterexample when the scheduler is
//! made preemptive.
//!
//! A [`SchedModel`] names the scope: one master and one servant node
//! with the version's communication agents, two jobs under window flow
//! control. Its interleavings are those of the race explorer's version
//! shape ([`crate::race::RaceModel::version_shape`]), and the verdict is
//! read off that one exploration ([`crate::race::explore_version`]). At
//! every mailbox accept two properties are checked:
//!
//! * **SYNC-1** — the sender is still blocked in the send;
//! * **SYNC-2** — no user process on the accepting node is mid-compute
//!   (the mailbox LWP only ran because its owner had blocked). This is
//!   the race class `AN-RACE-004`.
//!
//! Non-preemptive scheduling satisfies both in every reachable state;
//! under preemption SYNC-2 has a counterexample, the Gantt chart the
//! paper would have drawn on a preemptive machine.

use raysim::config::Version;

use crate::race::{RaceVerdict, SYNC1};

/// The bounded scope: which communication agents exist and whether the
/// node scheduler may preempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedModel {
    /// The master delegates job sends to an agent on its node.
    pub master_agents: bool,
    /// The servant delegates result sends to an agent on its node.
    pub servant_agents: bool,
    /// Preemptive node scheduler: the mailbox LWP (or another user
    /// process) may seize the CPU from a running user process.
    pub preemptive: bool,
}

impl SchedModel {
    /// The scope of a program version's communication shape.
    pub fn of(version: Version, preemptive: bool) -> SchedModel {
        SchedModel {
            master_agents: version.master_agents(),
            servant_agents: version.servant_agents(),
            preemptive,
        }
    }
}

/// The effective-synchrony verdict of one exploration.
#[derive(Debug, Clone)]
pub struct SchedVerdict {
    /// Reachable states explored.
    pub states: usize,
    /// `true` when the state budget cut the exploration short.
    pub bounded: bool,
    /// Mailbox accepts examined across all reachable states.
    pub accepts_checked: usize,
    /// Counterexample path to an accept whose sender was not blocked in
    /// the send.
    pub sync1_violation: Option<Vec<String>>,
    /// Counterexample path to an accept while a user process on the
    /// node was mid-compute.
    pub sync2_violation: Option<Vec<String>>,
    /// `true` when a state with every process finished is reachable.
    pub completion_reachable: bool,
    /// `true` when no reachable non-final state was stuck.
    pub no_stuck_states: bool,
}

impl SchedVerdict {
    /// Both effective-synchrony properties held over all explored
    /// states.
    pub fn effectively_synchronous(&self) -> bool {
        self.sync1_violation.is_none() && self.sync2_violation.is_none()
    }
}

impl From<&RaceVerdict> for SchedVerdict {
    fn from(v: &RaceVerdict) -> SchedVerdict {
        let path = |code: &str| v.witness(code).map(|w| w.steps.clone());
        SchedVerdict {
            states: v.states,
            bounded: v.bounded,
            accepts_checked: v.accepts_checked,
            sync1_violation: path(SYNC1),
            sync2_violation: path("AN-RACE-004"),
            completion_reachable: v.completion_reachable,
            no_stuck_states: v.no_stuck_states,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check_sched;
    use crate::race::explore_version;

    /// A version's verdict, and the `AN-RACE-004` witness the same
    /// exploration found.
    fn verdicts(version: Version, preemptive: bool) -> (SchedVerdict, Option<Vec<String>>) {
        let shape = SchedModel::of(version, preemptive);
        let race_004 = explore_version(shape, 2_000_000)
            .witness("AN-RACE-004")
            .map(|w| w.steps.clone());
        (check_sched(shape, 2_000_000), race_004)
    }

    #[test]
    fn non_preemptive_scheduling_is_effectively_synchronous() {
        for version in Version::ALL {
            let (v, race_004) = verdicts(version, false);
            assert!(!v.bounded, "{version} should close");
            assert!(v.accepts_checked > 0);
            assert!(v.effectively_synchronous(), "{version}");
            assert_eq!(race_004, None, "{version}");
            assert!(v.completion_reachable, "{version}");
            assert!(v.no_stuck_states, "{version}");
        }
    }

    #[test]
    fn preemptive_scheduling_breaks_sync2_with_a_counterexample() {
        for version in Version::ALL {
            let (v, race_004) = verdicts(version, true);
            assert!(!v.bounded, "{version} should close");
            assert!(v.sync1_violation.is_none(), "sends still block: {version}");
            let path = v
                .sync2_violation
                .unwrap_or_else(|| panic!("preemptive {version} must violate SYNC-2"));
            crate::model::testutil::assert_sync2_witness(&path);
            assert_eq!(Some(path), race_004, "{version}: SYNC-2 is AN-RACE-004");
        }
    }
}
