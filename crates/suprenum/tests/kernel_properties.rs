//! Property-based tests of the machine kernel: randomized ring
//! workloads exercising scheduling, messaging and accounting invariants.

use des::time::{SimDuration, SimTime};
use proptest::prelude::*;
use suprenum::{
    Action, Machine, MachineConfig, Message, NodeId, ProcCtx, Process, ProcessId, Resume, RunEnd,
};

/// One member of a communication ring: `rounds` times, compute for its
/// own duration, send a token to the next ring member, then receive one
/// from the previous member. Member 0 spawns the whole ring first, on
/// four nodes `stride` apart.
struct RingMember {
    index: u16,
    ring: u16,
    stride: u16,
    rounds: u32,
    compute_us: u64,
    mailbox: bool,
    peers: std::sync::Arc<std::sync::Mutex<Vec<ProcessId>>>,
    round: u32,
    phase: u8,
    spawned: u16,
}

impl RingMember {
    #[allow(clippy::too_many_arguments)]
    fn new(
        index: u16,
        ring: u16,
        stride: u16,
        rounds: u32,
        compute_us: u64,
        mailbox: bool,
        peers: std::sync::Arc<std::sync::Mutex<Vec<ProcessId>>>,
    ) -> Box<RingMember> {
        Box::new(RingMember {
            index,
            ring,
            stride,
            rounds,
            compute_us,
            mailbox,
            peers,
            round: 0,
            phase: 0,
            spawned: 1,
        })
    }
}

impl Process for RingMember {
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        if self.index == 0 && self.spawned < self.ring {
            // Member 0 spawns members 1..ring, one per resume.
            if let Resume::Spawned(pid) = &why {
                self.peers.lock().unwrap().push(*pid);
            }
            if self.spawned < self.ring {
                let next = self.spawned;
                self.spawned += 1;
                let body = RingMember::new(
                    next,
                    self.ring,
                    self.stride,
                    self.rounds,
                    self.compute_us + next as u64 * 37,
                    self.mailbox,
                    self.peers.clone(),
                );
                return Action::Spawn {
                    node: NodeId::new(next % 4 * self.stride),
                    body,
                };
            }
        }
        if let Resume::Spawned(pid) = &why {
            self.peers.lock().unwrap().push(*pid);
        }
        if self.index == 0
            && self.phase == 0
            && self.peers.lock().unwrap().len() < self.ring as usize
        {
            // Registration happens via spawn loop above; peers[0] is us.
            self.peers.lock().unwrap().insert(0, ctx.pid);
        }
        loop {
            match self.phase {
                0 => {
                    self.phase = 1;
                    return Action::Compute(SimDuration::from_micros(self.compute_us + 1));
                }
                1 => {
                    self.phase = 2;
                    let peers = self.peers.lock().unwrap();
                    let next = peers[(self.index as usize + 1) % peers.len()];
                    let msg = Message::new(ctx.pid, 64, self.round);
                    return if self.mailbox {
                        Action::MailboxSend { to: next, msg }
                    } else {
                        Action::SendSync { to: next, msg }
                    };
                }
                2 => {
                    self.phase = 3;
                    return if self.mailbox {
                        Action::MailboxRecv
                    } else {
                        Action::Recv
                    };
                }
                _ => {
                    self.round += 1;
                    self.phase = 0;
                    if self.round >= self.rounds {
                        return Action::Exit;
                    }
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("ring-{}", self.index)
    }
}

fn run_ring(ring: u16, rounds: u32, compute_us: u64, mailbox: bool, seed: u64) -> Machine {
    run_ring_on(1, ring, rounds, compute_us, mailbox, seed).0
}

/// Runs a ring on `clusters` clusters of four nodes each, its members
/// on nodes `clusters` apart (nodes 0-3 of one cluster, nodes 0, 2, 4, 6
/// of two, the first node of each of four), and returns the machine and
/// every member's pid in member order.
fn run_ring_on(
    clusters: u8,
    ring: u16,
    rounds: u32,
    compute_us: u64,
    mailbox: bool,
    seed: u64,
) -> (Machine, Vec<ProcessId>) {
    let peers = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let cfg = MachineConfig {
        clusters,
        torus_cols: clusters.min(2),
        ..MachineConfig::single_cluster(4)
    };
    let stride = u16::from(clusters);
    let mut machine = Machine::new(cfg, seed).unwrap();
    let root = RingMember::new(0, ring, stride, rounds, compute_us, mailbox, peers.clone());
    let pid0 = machine.add_process(NodeId::new(0), root);
    peers.lock().unwrap().push(pid0);
    machine.run(SimTime::from_secs(3_600));
    let pids = peers.lock().unwrap().clone();
    (machine, pids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A mailbox token ring always completes, delivers exactly
    /// ring × rounds messages, and replays bit-identically.
    #[test]
    fn mailbox_ring_completes_and_conserves_messages(
        ring in 2u16..6,
        rounds in 1u32..5,
        compute_us in 10u64..5_000,
    ) {
        let m = run_ring(ring, rounds, compute_us, true, 5);
        // Member 0 exits after its last round, halting the machine; ring
        // messages not involving member 0 may still be in flight then.
        // Member 0's own traffic is the guaranteed floor: its `rounds`
        // sends were accepted (it would still be blocked otherwise) and
        // its `rounds` receives were accepted by its own mailbox.
        let stats = m.stats();
        prop_assert!(stats.mailbox_messages >= 2 * rounds as u64,
            "only {} messages accepted", stats.mailbox_messages);
        prop_assert!(stats.mailbox_messages <= ring as u64 * rounds as u64);
        prop_assert_eq!(stats.processes_spawned, ring as u64);

        // Determinism.
        let m2 = run_ring(ring, rounds, compute_us, true, 5);
        prop_assert_eq!(m.now(), m2.now());
        prop_assert_eq!(m.stats(), m2.stats());
        prop_assert_eq!(
            m.signals().display_writes().len(),
            m2.signals().display_writes().len()
        );
    }

    /// Ground-truth histories are well formed under random workloads
    /// on one, two or four clusters: every spawned pid appears exactly
    /// once, in increasing order (on several clusters, after the
    /// partitions' recorders are absorbed into one), and each history
    /// is chronological, starts Ready, and enters Running only from
    /// Ready.
    #[test]
    fn ground_truth_is_well_formed(
        ring in 2u16..5,
        rounds in 1u32..4,
        cluster_shift in 0u32..3,
    ) {
        use suprenum::ProcState;
        let (m, members) = run_ring_on(1 << cluster_shift, ring, rounds, 500, true, 9);
        let recorded: Vec<ProcessId> = m.ground_truth().iter().map(|(pid, _)| pid).collect();
        prop_assert!(recorded.windows(2).all(|w| w[0] < w[1]), "pids out of order: {:?}", recorded);
        let mut spawned = members.clone();
        spawned.sort();
        prop_assert_eq!(&recorded, &spawned);
        prop_assert_eq!(m.ground_truth().len(), ring as usize);
        prop_assert_eq!(m.stats().processes_spawned, ring as u64);
        for (index, &pid) in members.iter().enumerate() {
            let label = m.ground_truth().history(pid).map(|h| h.label.clone());
            prop_assert_eq!(label, Some(format!("ring-{index}")));
        }
        for (_pid, hist) in m.ground_truth().iter() {
            let ts = &hist.transitions;
            prop_assert!(!ts.is_empty());
            prop_assert_eq!(ts[0].state, ProcState::Ready);
            for w in ts.windows(2) {
                prop_assert!(w[0].time <= w[1].time, "history goes backwards");
                prop_assert!(w[0].state != w[1].state, "duplicate states not coalesced");
                // Running is only entered from Ready (dispatch).
                if w[1].state == ProcState::Running {
                    prop_assert_eq!(w[0].state, ProcState::Ready);
                }
                // Blocked is only entered from Running.
                if matches!(w[1].state, ProcState::Blocked(_)) {
                    prop_assert_eq!(w[0].state, ProcState::Running);
                }
            }
        }
    }
}

/// The emergent theorem the ring exposes: a ring of *synchronous* sends
/// where everyone sends before receiving is a circular wait — the kernel
/// must detect the deadlock. The same ring over mailboxes completes,
/// because the mailbox LWP accepts the message as soon as the (blocked)
/// receiver relinquishes the CPU.
#[test]
fn sync_ring_deadlocks_where_mailbox_ring_completes() {
    let peers = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut machine = Machine::new(MachineConfig::single_cluster(4), 3).unwrap();
    let root = RingMember::new(0, 3, 1, 2, 200, false, peers.clone());
    let pid0 = machine.add_process(NodeId::new(0), root);
    peers.lock().unwrap().push(pid0);
    let outcome = machine.run(SimTime::from_secs(600));
    assert_eq!(outcome.reason, RunEnd::Deadlock, "sync ring must deadlock");

    let m = run_ring(3, 2, 200, true, 3);
    assert!(
        m.ground_truth().iter().any(|(_, h)| h.label == "ring-0"
            && h.transitions.last().unwrap().state == suprenum::ProcState::Exited),
        "mailbox ring must complete"
    );
}
