//! Ground-truth process state recording.
//!
//! The kernel records every true process state transition with exact
//! global time. A real SUPRENUM offers no such oracle — that is the whole
//! point of the paper — but the simulator can use it to *validate* the
//! monitoring pipeline: activities derived from the hybrid-monitoring
//! trace must agree with the ground truth up to instrumentation
//! granularity. This also implements the paper's stated future work of
//! instrumenting the operating system itself (scheduler states are
//! exactly what they wanted to see).
//!
//! The oracle is always on, so [`GroundTruth::record`] runs on every
//! state change of every process. A recorder keeps its histories in a
//! vector indexed by raw pid, the layout of the kernel's process table,
//! so a record is one index, not a tree search. On a multi-cluster
//! machine each cluster mints pids strided by the cluster count
//! (`cluster + clusters·k`), and a cluster that spawns a process on
//! another cluster mints its pid, so each partition's vector has holes,
//! as its process table does; the partitions' recorders are absorbed
//! into one after the run. [`GroundTruth::iter`] walks the slots in
//! index order, which is pid order.

use des::time::{SimDuration, SimTime};

use crate::ids::{NodeId, ProcessId};

/// Why a process is blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// Waiting for a synchronous send to be accepted.
    SendSync,
    /// Waiting for a mailbox send to be accepted by the remote mailbox
    /// LWP.
    MailboxSend,
    /// Waiting in a synchronous receive.
    Recv,
    /// Waiting on an empty mailbox.
    MailboxRecv,
    /// Sleeping for a fixed time.
    Sleep,
    /// Waiting for a disk write.
    Disk,
    /// Waiting on a condition variable.
    Cond,
}

/// True scheduler state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcState {
    /// Runnable, waiting in the ready queue.
    Ready,
    /// Executing on the CPU.
    Running,
    /// Blocked for the given reason.
    Blocked(BlockReason),
    /// Terminated.
    Exited,
}

impl ProcState {
    /// Short state name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ProcState::Ready => "ready",
            ProcState::Running => "running",
            ProcState::Blocked(BlockReason::SendSync) => "blocked:send",
            ProcState::Blocked(BlockReason::MailboxSend) => "blocked:mbox-send",
            ProcState::Blocked(BlockReason::Recv) => "blocked:recv",
            ProcState::Blocked(BlockReason::MailboxRecv) => "blocked:mbox-recv",
            ProcState::Blocked(BlockReason::Sleep) => "blocked:sleep",
            ProcState::Blocked(BlockReason::Disk) => "blocked:disk",
            ProcState::Blocked(BlockReason::Cond) => "blocked:cond",
            ProcState::Exited => "exited",
        }
    }
}

/// One recorded state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// When the process entered `state`.
    pub time: SimTime,
    /// The state entered.
    pub state: ProcState,
}

/// Per-process metadata and state history.
#[derive(Debug, Clone)]
pub struct ProcHistory {
    /// The node the process ran on.
    pub node: NodeId,
    /// The process label (from [`crate::Process::label`]).
    pub label: String,
    /// Chronological state transitions.
    pub transitions: Vec<Transition>,
}

impl ProcHistory {
    /// Total time spent in states matching `pred`, up to `end`.
    pub fn time_in<F>(&self, end: SimTime, pred: F) -> SimDuration
    where
        F: Fn(ProcState) -> bool,
    {
        let mut total = SimDuration::ZERO;
        for pair in self.transitions.windows(2) {
            if pred(pair[0].state) {
                total += pair[1].time.min(end).saturating_since(pair[0].time);
            }
        }
        if let Some(last) = self.transitions.last() {
            if pred(last.state) {
                total += end.saturating_since(last.time);
            }
        }
        total
    }

    /// The state at time `t`, if the process existed then.
    pub fn state_at(&self, t: SimTime) -> Option<ProcState> {
        let idx = self.transitions.partition_point(|tr| tr.time <= t);
        idx.checked_sub(1).map(|i| self.transitions[i].state)
    }
}

/// Ground-truth recorder for all processes of a run.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Indexed by raw pid; `None` where this recorder has no process.
    procs: Vec<Option<ProcHistory>>,
}

impl GroundTruth {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Registers a process at creation time.
    ///
    /// # Panics
    ///
    /// Panics if the process was already registered.
    pub fn register(&mut self, pid: ProcessId, node: NodeId, label: String, now: SimTime) {
        let idx = pid.raw() as usize;
        if self.procs.len() <= idx {
            self.procs.resize_with(idx + 1, || None);
        }
        let prev = self.procs[idx].replace(ProcHistory {
            node,
            label,
            transitions: vec![Transition {
                time: now,
                state: ProcState::Ready,
            }],
        });
        assert!(prev.is_none(), "process {pid} registered twice");
    }

    /// Records that `pid` entered `state` at `now`. Consecutive duplicate
    /// states are coalesced.
    pub fn record(&mut self, pid: ProcessId, now: SimTime, state: ProcState) {
        let hist = self
            .procs
            .get_mut(pid.raw() as usize)
            .and_then(Option::as_mut)
            .expect("state recorded for unregistered process");
        if hist.transitions.last().map(|t| t.state) == Some(state) {
            return;
        }
        debug_assert!(
            hist.transitions.last().is_none_or(|t| t.time <= now),
            "ground-truth time went backwards"
        );
        hist.transitions.push(Transition { time: now, state });
    }

    /// Moves every process history of `other` into this recorder. Used
    /// when merging per-cluster partitions after a sharded run; the
    /// partitions own disjoint pid namespaces.
    ///
    /// # Panics
    ///
    /// Panics if a pid is present in both recorders.
    pub fn absorb(&mut self, other: &mut GroundTruth) {
        let theirs = std::mem::take(&mut other.procs);
        if self.procs.len() < theirs.len() {
            self.procs.resize_with(theirs.len(), || None);
        }
        for (idx, (ours, hist)) in self.procs.iter_mut().zip(theirs).enumerate() {
            let Some(hist) = hist else { continue };
            let pid = ProcessId::new(idx as u32);
            assert!(ours.is_none(), "process {pid} recorded in two partitions");
            *ours = Some(hist);
        }
    }

    /// History of one process.
    pub fn history(&self, pid: ProcessId) -> Option<&ProcHistory> {
        self.procs.get(pid.raw() as usize)?.as_ref()
    }

    /// Iterates over all `(pid, history)` pairs in pid order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &ProcHistory)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(idx, hist)| Some((ProcessId::new(idx as u32), hist.as_ref()?)))
    }

    /// Number of processes seen.
    pub fn len(&self) -> usize {
        self.procs.iter().flatten().count()
    }

    /// Returns `true` if no process was registered.
    pub fn is_empty(&self) -> bool {
        self.procs.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n)
    }

    #[test]
    fn records_and_coalesces() {
        let mut gt = GroundTruth::new();
        gt.register(pid(1), NodeId::new(0), "m".into(), SimTime::ZERO);
        gt.record(pid(1), SimTime::from_micros(10), ProcState::Running);
        gt.record(pid(1), SimTime::from_micros(10), ProcState::Running); // duplicate
        gt.record(
            pid(1),
            SimTime::from_micros(30),
            ProcState::Blocked(BlockReason::Recv),
        );
        let h = gt.history(pid(1)).unwrap();
        assert_eq!(h.transitions.len(), 3);
        assert_eq!(h.label, "m");
    }

    #[test]
    fn time_in_running() {
        let mut gt = GroundTruth::new();
        gt.register(pid(1), NodeId::new(0), "m".into(), SimTime::ZERO);
        gt.record(pid(1), SimTime::from_micros(10), ProcState::Running);
        gt.record(pid(1), SimTime::from_micros(30), ProcState::Ready);
        gt.record(pid(1), SimTime::from_micros(40), ProcState::Running);
        let h = gt.history(pid(1)).unwrap();
        // Running 10..30 plus 40..50 against end=50.
        let t = h.time_in(SimTime::from_micros(50), |s| s == ProcState::Running);
        assert_eq!(t, SimDuration::from_micros(30));
    }

    #[test]
    fn state_at_lookup() {
        let mut gt = GroundTruth::new();
        gt.register(pid(2), NodeId::new(1), "s".into(), SimTime::from_micros(5));
        gt.record(pid(2), SimTime::from_micros(10), ProcState::Running);
        let h = gt.history(pid(2)).unwrap();
        assert_eq!(h.state_at(SimTime::from_micros(3)), None);
        assert_eq!(h.state_at(SimTime::from_micros(7)), Some(ProcState::Ready));
        assert_eq!(
            h.state_at(SimTime::from_micros(10)),
            Some(ProcState::Running)
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let mut gt = GroundTruth::new();
        gt.register(pid(1), NodeId::new(0), "a".into(), SimTime::ZERO);
        gt.register(pid(1), NodeId::new(0), "b".into(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "process P2 recorded in two partitions")]
    fn absorbing_a_pid_twice_panics() {
        let mut a = GroundTruth::new();
        let mut b = GroundTruth::new();
        a.register(pid(2), NodeId::new(0), "a".into(), SimTime::ZERO);
        b.register(pid(2), NodeId::new(16), "b".into(), SimTime::ZERO);
        a.absorb(&mut b);
    }

    #[test]
    #[should_panic(expected = "unregistered process")]
    fn recording_a_hole_panics() {
        let mut gt = GroundTruth::new();
        gt.register(pid(2), NodeId::new(0), "a".into(), SimTime::ZERO);
        gt.record(pid(1), SimTime::ZERO, ProcState::Running);
    }

    /// The recorder as it was kept in a `BTreeMap` keyed by pid: the
    /// model the vector layout must match call for call.
    #[derive(Default)]
    struct MapRecorder {
        procs: BTreeMap<ProcessId, ProcHistory>,
    }

    impl MapRecorder {
        fn register(&mut self, pid: ProcessId, node: NodeId, label: String, now: SimTime) {
            let prev = self.procs.insert(
                pid,
                ProcHistory {
                    node,
                    label,
                    transitions: vec![Transition {
                        time: now,
                        state: ProcState::Ready,
                    }],
                },
            );
            assert!(prev.is_none(), "process {pid} registered twice");
        }

        fn record(&mut self, pid: ProcessId, now: SimTime, state: ProcState) {
            let hist = self
                .procs
                .get_mut(&pid)
                .expect("state recorded for unregistered process");
            if hist.transitions.last().map(|t| t.state) == Some(state) {
                return;
            }
            hist.transitions.push(Transition { time: now, state });
        }

        fn absorb(&mut self, other: &mut MapRecorder) {
            for (pid, hist) in std::mem::take(&mut other.procs) {
                let prev = self.procs.insert(pid, hist);
                assert!(prev.is_none(), "process {pid} recorded in two partitions");
            }
        }
    }

    /// One step of a partition's recorder: register the cluster's next
    /// pid, or record a state for one of its registered pids.
    #[derive(Debug, Clone)]
    enum Op {
        Register {
            cluster: u8,
        },
        Record {
            cluster: u8,
            pick: usize,
            state: usize,
            dt: u64,
        },
    }

    const STATES: [ProcState; 5] = [
        ProcState::Ready,
        ProcState::Running,
        ProcState::Blocked(BlockReason::Recv),
        ProcState::Blocked(BlockReason::MailboxSend),
        ProcState::Exited,
    ];

    /// One register to four records.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..5, 0u8..4, 0usize..8, 0..STATES.len(), 0u64..3).prop_map(
            |(sel, cluster, pick, state, dt)| match sel {
                0 => Op::Register { cluster },
                _ => Op::Record {
                    cluster,
                    pick,
                    state,
                    dt,
                },
            },
        )
    }

    fn same_history(a: &ProcHistory, b: &ProcHistory) -> bool {
        a.node == b.node && a.label == b.label && a.transitions == b.transitions
    }

    /// `iter` order, `history` of every pid in and around the table,
    /// `len` and `is_empty` agree between the vector and the map.
    fn check_same(
        gt: &GroundTruth,
        model: &MapRecorder,
        max_pid: u32,
    ) -> Result<(), TestCaseError> {
        let ours: Vec<_> = gt.iter().collect();
        let theirs: Vec<_> = model.procs.iter().map(|(&p, h)| (p, h)).collect();
        prop_assert_eq!(ours.len(), theirs.len());
        for ((p, h), (q, g)) in ours.iter().zip(&theirs) {
            prop_assert_eq!(p, q);
            prop_assert!(same_history(h, g), "history of {} differs", p);
        }
        for raw in 0..max_pid + 2 {
            match (gt.history(pid(raw)), model.procs.get(&pid(raw))) {
                (None, None) => {}
                (Some(h), Some(g)) => prop_assert!(same_history(h, g)),
                (h, g) => prop_assert!(false, "pid {}: {:?} against {:?}", raw, h, g),
            }
        }
        prop_assert_eq!(gt.len(), model.procs.len());
        prop_assert_eq!(gt.is_empty(), model.procs.is_empty());
        Ok(())
    }

    proptest! {
        /// Per-cluster recorders over strided pids (`cluster +
        /// clusters·k`, as the kernel mints them), with repeated
        /// states, then absorbed into cluster 0's in cluster order:
        /// every read matches the `BTreeMap` recorder's, before and
        /// after the absorb.
        #[test]
        fn matches_the_ordered_map_recorder(
            clusters in 1u8..=4,
            ops in proptest::collection::vec(op_strategy(), 0..300),
        ) {
            let n = clusters as usize;
            let mut gts: Vec<GroundTruth> = (0..n).map(|_| GroundTruth::new()).collect();
            let mut models: Vec<MapRecorder> = (0..n).map(|_| MapRecorder::default()).collect();
            let mut minted: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    Op::Register { cluster } => {
                        let c = cluster as usize % n;
                        let p = pid(c as u32 + u32::from(clusters) * minted[c].len() as u32);
                        let node = NodeId::new(c as u16 * 16 + minted[c].len() as u16 % 16);
                        let label = format!("p{}", p.raw());
                        gts[c].register(p, node, label.clone(), now);
                        models[c].register(p, node, label, now);
                        minted[c].push(p);
                    }
                    Op::Record { cluster, pick, state, dt } => {
                        let c = cluster as usize % n;
                        if minted[c].is_empty() {
                            continue;
                        }
                        let p = minted[c][pick % minted[c].len()];
                        now += SimDuration::from_nanos(dt);
                        gts[c].record(p, now, STATES[state]);
                        models[c].record(p, now, STATES[state]);
                    }
                }
            }
            let max_pid = minted.iter().flatten().map(|p| p.raw()).max().unwrap_or(0);
            for (gt, model) in gts.iter().zip(&models) {
                check_same(gt, model, max_pid)?;
            }
            let (first, rest) = gts.split_at_mut(1);
            let (first_model, rest_models) = models.split_at_mut(1);
            for (gt, model) in rest.iter_mut().zip(rest_models) {
                first[0].absorb(gt);
                first_model[0].absorb(model);
                prop_assert!(gt.is_empty());
            }
            check_same(&first[0], &first_model[0], max_pid)?;
        }
    }

    #[test]
    fn state_names_are_distinct() {
        use std::collections::HashSet;
        let states = [
            ProcState::Ready,
            ProcState::Running,
            ProcState::Blocked(BlockReason::SendSync),
            ProcState::Blocked(BlockReason::MailboxSend),
            ProcState::Blocked(BlockReason::Recv),
            ProcState::Blocked(BlockReason::MailboxRecv),
            ProcState::Blocked(BlockReason::Sleep),
            ProcState::Blocked(BlockReason::Disk),
            ProcState::Blocked(BlockReason::Cond),
            ProcState::Exited,
        ];
        let names: HashSet<&str> = states.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), states.len());
    }
}
