//! The small-scope scheduler model: effective synchrony as a
//! machine-checked property.
//!
//! The paper's headline finding is that SUPRENUM's "asynchronous"
//! mailbox send is *effectively synchronous*: the sender blocks until
//! the destination node's mailbox LWP accepts the message, and under
//! non-preemptive round-robin that LWP only gets the CPU when the
//! destination's user process blocks — so by the time a send completes,
//! sender *and* receiver have both given up their CPUs. ZM4 Gantt
//! charts showed it empirically; this model proves it for a bounded
//! scope and produces a concrete counterexample when the scheduler is
//! made preemptive.
//!
//! Scope: one master and one servant node (with communication agents
//! matching the program version's shape), two jobs under window flow
//! control, one CPU and one kernel mailbox LWP per node, and messages
//! with nonzero transit time. Every interleaving of process steps,
//! message arrivals, dispatches and (optionally) preemptions is
//! explored; at every mailbox *accept* two properties are checked:
//!
//! * **SYNC-1** — the sender is still blocked in the send (the send
//!   cannot have "completed asynchronously" before the sender gave up
//!   its CPU);
//! * **SYNC-2** — no user process on the accepting node is mid-compute
//!   (the mailbox LWP only ran because its owner had blocked).
//!
//! Two jobs matter: the second message can arrive while a user process
//! is mid-compute on the first (the master between receives, the
//! servant between jobs), which is exactly the window a preemptive
//! mailbox LWP would exploit. Non-preemptive scheduling satisfies both
//! properties in every reachable state; the preemptive toggle adds one
//! transition — the mailbox LWP seizes the CPU from a computing user
//! process — and SYNC-2 acquires a reachable counterexample, the Gantt
//! chart the paper would have drawn on a preemptive machine.
//!
//! # Partial-order reduction
//!
//! [`SchedModel::explore`] uses an **ample-set reduction**: when a
//! node's CPU is held by a user process, that process's next step is
//! explored as a singleton ample set whenever it is provably
//! independent of every transition other processes could take first.
//! Under non-preemptive scheduling this always holds — nothing else
//! can touch the node while the CPU is busy (the mailbox LWP needs an
//! idle CPU, a running process is never the sender of an in-flight
//! message, and remote steps only append to transit/pending) — so each
//! node's run-to-block becomes a deterministic chain. Under the
//! preemptive toggle the mailbox LWP *can* interleave, so the
//! singleton is taken only when no message is pending at or in transit
//! to the node and no process's remaining script sends to it; the
//! preemption races that make SYNC-2 fail are always fully expanded.
//! [`SchedModel::explore_full`] keeps the unreduced exploration for
//! the `dpor_soundness` differential proptests.

use std::collections::HashMap;

/// A message: job or result, with an id and the sending process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Msg {
    /// 0 = job, 1 = result.
    kind: u8,
    id: u8,
    from: u8,
}

impl Msg {
    fn describe(self) -> String {
        let kind = if self.kind == 0 { "job" } else { "result" };
        format!("{kind} #{}", self.id)
    }
}

/// One step of a process script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Send `msg` to process `to` (blocks until the destination node's
    /// mailbox LWP accepts it).
    Send { to: u8, msg: Msg },
    /// Receive the next message from this process's inbox (blocks when
    /// empty).
    Recv,
    /// Compute for a while (two model steps, exposing a mid-compute
    /// window).
    Compute,
    /// Raise a signal for process `p` (a counting semaphore).
    Signal { p: u8 },
    /// Wait for a signal (blocks until one is raised).
    WaitSignal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    Ready,
    BlockedSend(Msg),
    BlockedRecv,
    BlockedSig,
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Proc {
    pc: u8,
    status: Status,
    /// Mid-compute: the process has started but not finished a
    /// [`Op::Compute`] step.
    mid: bool,
    /// Pending signal count.
    sig: u8,
    /// Delivered-but-unconsumed messages.
    inbox: Vec<Msg>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Cpu {
    Idle,
    User(u8),
    Mailbox,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    procs: Vec<Proc>,
    /// Messages sent but not yet arrived at their node: `(msg, dst
    /// proc)`, kept sorted for canonical hashing.
    transit: Vec<(Msg, u8)>,
    /// Per node: arrived messages awaiting mailbox accept, in FIFO
    /// order.
    pending: Vec<Vec<(Msg, u8)>>,
    /// Per node: who holds the CPU.
    cpu: Vec<Cpu>,
}

/// The bounded scope: which communication agents exist and whether the
/// node scheduler may preempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedModel {
    /// The master delegates job sends to an agent on its node.
    pub master_agents: bool,
    /// The servant delegates result sends to an agent on its node.
    pub servant_agents: bool,
    /// Preemptive node scheduler: the mailbox LWP may seize the CPU
    /// from a running user process.
    pub preemptive: bool,
}

/// What exploring the scheduler model concluded.
#[derive(Debug, Clone)]
pub struct SchedVerdict {
    /// Reachable states explored.
    pub states: usize,
    /// `true` when the state budget cut the exploration short.
    pub bounded: bool,
    /// Mailbox accepts examined across all reachable states.
    pub accepts_checked: usize,
    /// Counterexample path: an accept completed while the sender was
    /// not blocked in the send.
    pub sync1_violation: Option<Vec<String>>,
    /// Counterexample path: an accept ran while a user process on the
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

/// The fixed cast of processes: index, node, display name.
struct Cast {
    master: u8,
    servant: u8,
    magent: Option<u8>,
    sagent: Option<u8>,
    node: Vec<u8>,
    names: Vec<&'static str>,
}

impl SchedModel {
    fn cast(&self) -> Cast {
        let mut node = vec![0u8, 1u8];
        let mut names = vec!["the master", "the servant"];
        let mut next = 2u8;
        let magent = if self.master_agents {
            node.push(0);
            names.push("the master's send agent");
            next += 1;
            Some(next - 1)
        } else {
            None
        };
        let sagent = if self.servant_agents {
            node.push(1);
            names.push("the servant's result agent");
            Some(next)
        } else {
            None
        };
        Cast {
            master: 0,
            servant: 1,
            magent,
            sagent,
            node,
            names,
        }
    }

    /// The process scripts: the master distributes two jobs (window
    /// flow control) and collects both results, with admin compute
    /// phases between receives; the servant computes each job in turn.
    /// The compute phases are the mid-compute windows that matter under
    /// preemption — the second message of either direction can arrive
    /// during one.
    fn scripts(&self, cast: &Cast) -> Vec<Vec<Op>> {
        let job = |i: u8, from: u8| Msg {
            kind: 0,
            id: i,
            from,
        };
        let result = |i: u8, from: u8| Msg {
            kind: 1,
            id: i,
            from,
        };

        let mut scripts: Vec<Vec<Op>> = Vec::new();

        // Master.
        let mut master = Vec::new();
        if let Some(ma) = cast.magent {
            master.extend([Op::Signal { p: ma }, Op::Signal { p: ma }]);
        } else {
            for i in 0..2u8 {
                master.push(Op::Send {
                    to: cast.servant,
                    msg: job(i, cast.master),
                });
            }
        }
        master.extend([Op::Compute, Op::Recv, Op::Compute, Op::Recv]);
        scripts.push(master);

        // Servant: two jobs, each received, computed, and answered.
        let mut servant = Vec::new();
        for i in 0..2u8 {
            servant.extend([Op::Recv, Op::Compute]);
            if let Some(sa) = cast.sagent {
                servant.push(Op::Signal { p: sa });
            } else {
                servant.push(Op::Send {
                    to: cast.master,
                    msg: result(i, cast.servant),
                });
            }
        }
        scripts.push(servant);

        // Master's send agent: forwards each job on a signal.
        if let Some(ma) = cast.magent {
            let mut agent = Vec::new();
            for i in 0..2u8 {
                agent.push(Op::WaitSignal);
                agent.push(Op::Send {
                    to: cast.servant,
                    msg: job(i, ma),
                });
            }
            scripts.push(agent);
        }

        // Servant's result agent: forwards each result on a signal.
        if let Some(sa) = cast.sagent {
            let mut agent = Vec::new();
            for i in 0..2u8 {
                agent.push(Op::WaitSignal);
                agent.push(Op::Send {
                    to: cast.master,
                    msg: result(i, sa),
                });
            }
            scripts.push(agent);
        }

        scripts
    }

    /// Explores the interleaving space with ample-set partial-order
    /// reduction (BFS), up to `max_states` states. Verdicts equal
    /// [`SchedModel::explore_full`]'s in fewer states.
    pub fn explore(&self, max_states: usize) -> SchedVerdict {
        self.explore_mode(max_states, true)
    }

    /// Explores every interleaving with no reduction — the reference
    /// exploration the differential tests compare against.
    pub fn explore_full(&self, max_states: usize) -> SchedVerdict {
        self.explore_mode(max_states, false)
    }

    /// Per process and program counter, the bitmask of nodes targeted
    /// by `Op::Send`s at or after that pc — the cheap static fact the
    /// preemptive ample-set condition needs.
    fn future_send_masks(&self, cast: &Cast, scripts: &[Vec<Op>]) -> Vec<Vec<u8>> {
        scripts
            .iter()
            .map(|script| {
                let mut masks = vec![0u8; script.len() + 1];
                for (i, op) in script.iter().enumerate().rev() {
                    masks[i] = masks[i + 1]
                        | match op {
                            Op::Send { to, .. } => 1 << cast.node[*to as usize],
                            _ => 0,
                        };
                }
                masks
            })
            .collect()
    }

    fn explore_mode(&self, max_states: usize, reduced: bool) -> SchedVerdict {
        let cast = self.cast();
        let scripts = self.scripts(&cast);
        let nodes_count = 2usize;
        let send_masks = self.future_send_masks(&cast, &scripts);

        let initial = State {
            procs: scripts
                .iter()
                .map(|_| Proc {
                    pc: 0,
                    status: Status::Ready,
                    mid: false,
                    sig: 0,
                    inbox: Vec::new(),
                })
                .collect(),
            transit: Vec::new(),
            pending: vec![Vec::new(); nodes_count],
            cpu: vec![Cpu::Idle; nodes_count],
        };

        let mut verdict = SchedVerdict {
            states: 0,
            bounded: false,
            accepts_checked: 0,
            sync1_violation: None,
            sync2_violation: None,
            completion_reachable: false,
            no_stuck_states: true,
        };

        let mut seen: HashMap<State, usize> = HashMap::new();
        seen.insert(initial.clone(), 0);
        let mut graph: Vec<(State, usize, String)> = vec![(initial, usize::MAX, String::new())];

        let mut head = 0usize;
        while head < graph.len() {
            let s = graph[head].0.clone();

            if s.procs.iter().all(|p| p.status == Status::Done) {
                verdict.completion_reachable = true;
                head += 1;
                continue;
            }

            let succs = if reduced {
                self.ample_successor(&s, &cast, &scripts, &send_masks)
            } else {
                None
            }
            .map(|step| vec![step])
            .unwrap_or_else(|| self.successors(&s, &cast, &scripts, head, &graph, &mut verdict));
            if succs.is_empty() {
                verdict.no_stuck_states = false;
                head += 1;
                continue;
            }
            for (t, label) in succs {
                if seen.len() >= max_states {
                    verdict.bounded = true;
                    break;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(t.clone()) {
                    e.insert(graph.len());
                    graph.push((t, head, label));
                }
            }
            head += 1;
        }

        verdict.states = graph.len();
        verdict
    }

    /// The singleton ample set, when one is sound: the next step of a
    /// user process that holds a CPU, provided nothing another process
    /// does first could interact with it.
    ///
    /// Non-preemptive: always sound. The mailbox LWP needs an idle
    /// CPU, a running process is never the sender of an in-flight
    /// message (a sender is blocked until its accept), its inbox and
    /// signal count are only written by same-node activity the busy
    /// CPU excludes, and remote transitions touch disjoint state — so
    /// the step commutes with every other enabled transition and
    /// postponing the others loses no reachable behaviour or visible
    /// accept context.
    ///
    /// Preemptive: the mailbox LWP may seize the CPU, which is
    /// dependent with the running process's step (both touch its
    /// status and the node's CPU). The singleton is sound only when no
    /// preemption on this node can become enabled before the process
    /// blocks: nothing pending at the node, nothing in transit to it,
    /// and no process's remaining script (static, so precomputed as
    /// suffix masks) ever sends to it.
    ///
    /// A cross-node `Signal` would break node-locality, so it is never
    /// chained (no stock script has one; the guard keeps the reduction
    /// sound for future casts).
    fn ample_successor(
        &self,
        s: &State,
        cast: &Cast,
        scripts: &[Vec<Op>],
        send_masks: &[Vec<u8>],
    ) -> Option<(State, String)> {
        for n in 0..s.cpu.len() {
            let Cpu::User(p) = s.cpu[n] else { continue };
            let p = p as usize;
            let local = match scripts[p].get(s.procs[p].pc as usize) {
                Some(Op::Signal { p: q }) => cast.node[*q as usize] as usize == n,
                _ => true,
            };
            if !local {
                continue;
            }
            let safe = !self.preemptive
                || (s.pending[n].is_empty()
                    && s.transit
                        .iter()
                        .all(|&(_, dst)| cast.node[dst as usize] as usize != n)
                    && s.procs.iter().enumerate().all(|(q, proc)| {
                        proc.status == Status::Done
                            || send_masks[q][(proc.pc as usize).min(scripts[q].len())] & (1 << n)
                                == 0
                    }));
            if safe {
                return Some(self.step(s, cast, scripts, n, p));
            }
        }
        None
    }

    /// All successor states; SYNC checks run on every accept examined.
    fn successors(
        &self,
        s: &State,
        cast: &Cast,
        scripts: &[Vec<Op>],
        here: usize,
        graph: &[(State, usize, String)],
        verdict: &mut SchedVerdict,
    ) -> Vec<(State, String)> {
        let mut next: Vec<(State, String)> = Vec::new();
        let node_of = |p: usize| cast.node[p] as usize;

        // Message arrival: any in-transit message reaches its node's
        // mailbox (transit time is nondeterministic but positive — the
        // arrival is always a separate step from the send).
        for (i, &(msg, dst)) in s.transit.iter().enumerate() {
            let mut t = s.clone();
            t.transit.remove(i);
            t.pending[node_of(dst as usize)].push((msg, dst));
            next.push((
                t,
                format!(
                    "{} arrives at node {}'s mailbox",
                    msg.describe(),
                    node_of(dst as usize)
                ),
            ));
        }

        for n in 0..s.cpu.len() {
            match s.cpu[n] {
                Cpu::Idle => {
                    for (p, proc) in s.procs.iter().enumerate() {
                        if node_of(p) == n && proc.status == Status::Ready {
                            let mut t = s.clone();
                            t.cpu[n] = Cpu::User(p as u8);
                            next.push((t, format!("node {n} dispatches {}", cast.names[p])));
                        }
                    }
                    if !s.pending[n].is_empty() {
                        let mut t = s.clone();
                        t.cpu[n] = Cpu::Mailbox;
                        next.push((t, format!("node {n} dispatches its mailbox LWP")));
                    }
                }
                Cpu::User(p) => {
                    let p = p as usize;
                    // Preemptive scheduler: the mailbox LWP may seize
                    // the CPU from the running user process.
                    if self.preemptive && !s.pending[n].is_empty() {
                        let mut t = s.clone();
                        t.cpu[n] = Cpu::Mailbox;
                        t.procs[p].status = Status::Ready;
                        next.push((
                            t,
                            format!(
                                "node {n}'s mailbox LWP preempts {}{}",
                                cast.names[p],
                                if s.procs[p].mid { " mid-compute" } else { "" }
                            ),
                        ));
                    }
                    next.push(self.step(s, cast, scripts, n, p));
                }
                Cpu::Mailbox => {
                    // Accept the oldest pending message — the step
                    // where effective synchrony is checked.
                    let (msg, dst) = s.pending[n][0];
                    verdict.accepts_checked += 1;

                    let sender = msg.from as usize;
                    if s.procs[sender].status != Status::BlockedSend(msg)
                        && verdict.sync1_violation.is_none()
                    {
                        let mut path = path_to(graph, here);
                        path.push(format!(
                            "node {n}'s mailbox accepts {} while its sender {} is NOT \
                             blocked in the send — SYNC-1 violated",
                            msg.describe(),
                            cast.names[sender]
                        ));
                        verdict.sync1_violation = Some(path);
                    }
                    let computing = s
                        .procs
                        .iter()
                        .enumerate()
                        .find(|&(q, proc)| node_of(q) == n && proc.mid);
                    if let Some((q, _)) = computing {
                        if verdict.sync2_violation.is_none() {
                            let mut path = path_to(graph, here);
                            path.push(format!(
                                "node {n}'s mailbox accepts {} while {} is still \
                                 mid-compute — SYNC-2 (effective synchrony) violated",
                                msg.describe(),
                                cast.names[q]
                            ));
                            verdict.sync2_violation = Some(path);
                        }
                    }

                    let mut t = s.clone();
                    t.pending[n].remove(0);
                    t.procs[dst as usize].inbox.push(msg);
                    if t.procs[dst as usize].status == Status::BlockedRecv {
                        t.procs[dst as usize].status = Status::Ready;
                    }
                    // The send completes: the sender unblocks.
                    if t.procs[sender].status == Status::BlockedSend(msg) {
                        t.procs[sender].status = Status::Ready;
                    }
                    t.cpu[n] = Cpu::Idle;
                    next.push((
                        t,
                        format!(
                            "node {n}'s mailbox accepts {} for {} (sender {} unblocks)",
                            msg.describe(),
                            cast.names[dst as usize],
                            cast.names[sender]
                        ),
                    ));
                }
            }
        }

        next
    }

    /// Executes one step of the user process `p` running on node `n`.
    fn step(
        &self,
        s: &State,
        cast: &Cast,
        scripts: &[Vec<Op>],
        n: usize,
        p: usize,
    ) -> (State, String) {
        let mut t = s.clone();
        let name = cast.names[p];
        let pc = t.procs[p].pc as usize;

        if pc >= scripts[p].len() {
            t.procs[p].status = Status::Done;
            t.cpu[n] = Cpu::Idle;
            return (t, format!("{name} finishes and exits"));
        }

        match scripts[p][pc] {
            Op::Send { to, msg } => {
                t.procs[p].pc += 1;
                t.procs[p].status = Status::BlockedSend(msg);
                t.transit.push((msg, to));
                t.transit.sort_unstable();
                t.cpu[n] = Cpu::Idle;
                (
                    t,
                    format!(
                        "{name} sends {} to {} and blocks until it is accepted",
                        msg.describe(),
                        cast.names[to as usize]
                    ),
                )
            }
            Op::Recv => {
                if t.procs[p].inbox.is_empty() {
                    t.procs[p].status = Status::BlockedRecv;
                    t.cpu[n] = Cpu::Idle;
                    (t, format!("{name} waits to receive (blocks)"))
                } else {
                    let msg = t.procs[p].inbox.remove(0);
                    t.procs[p].pc += 1;
                    (t, format!("{name} receives {}", msg.describe()))
                }
            }
            Op::Compute => {
                if t.procs[p].mid {
                    t.procs[p].mid = false;
                    t.procs[p].pc += 1;
                    (t, format!("{name} finishes computing"))
                } else {
                    t.procs[p].mid = true;
                    (t, format!("{name} starts computing"))
                }
            }
            Op::Signal { p: q } => {
                let q = q as usize;
                t.procs[p].pc += 1;
                // Counting semaphore: the signal is banked even when the
                // waiter is mid-wakeup, so no wakeup is ever lost — the
                // woken process retries its wait and consumes the count.
                t.procs[q].sig += 1;
                if t.procs[q].status == Status::BlockedSig {
                    t.procs[q].status = Status::Ready;
                }
                (t, format!("{name} signals {}", cast.names[q]))
            }
            Op::WaitSignal => {
                if t.procs[p].sig > 0 {
                    t.procs[p].sig -= 1;
                    t.procs[p].pc += 1;
                    (t, format!("{name} consumes a signal"))
                } else {
                    t.procs[p].status = Status::BlockedSig;
                    t.cpu[n] = Cpu::Idle;
                    (t, format!("{name} waits for a signal (blocks)"))
                }
            }
        }
    }
}

fn path_to(nodes: &[(State, usize, String)], target: usize) -> Vec<String> {
    let mut labels = Vec::new();
    let mut i = target;
    while i != 0 {
        let (_, parent, ref label) = nodes[i];
        labels.push(label.clone());
        i = parent;
    }
    labels.reverse();
    labels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// V1: no agents; V2: master agent; V3/V4: both.
    fn shapes() -> [(bool, bool); 3] {
        [(false, false), (true, false), (true, true)]
    }

    #[test]
    fn non_preemptive_scheduling_is_effectively_synchronous() {
        for (ma, sa) in shapes() {
            let v = SchedModel {
                master_agents: ma,
                servant_agents: sa,
                preemptive: false,
            }
            .explore(2_000_000);
            assert!(!v.bounded, "shape ({ma},{sa}) should close");
            assert!(v.accepts_checked > 0);
            assert!(v.effectively_synchronous(), "({ma},{sa})");
            assert!(v.completion_reachable, "({ma},{sa})");
            assert!(v.no_stuck_states, "({ma},{sa})");
        }
    }

    #[test]
    fn preemptive_scheduling_breaks_sync2_with_a_counterexample() {
        for (ma, sa) in shapes() {
            let v = SchedModel {
                master_agents: ma,
                servant_agents: sa,
                preemptive: true,
            }
            .explore(4_000_000);
            assert!(!v.bounded, "shape ({ma},{sa}) should close");
            assert!(
                v.sync1_violation.is_none(),
                "sends still block: ({ma},{sa})"
            );
            let path = v
                .sync2_violation
                .unwrap_or_else(|| panic!("preemptive ({ma},{sa}) must violate SYNC-2"));
            crate::model::testutil::assert_sync2_witness(&path);
        }
    }

    #[test]
    fn state_space_stays_small_scope() {
        let v = SchedModel {
            master_agents: true,
            servant_agents: true,
            preemptive: true,
        }
        .explore(4_000_000);
        assert!(!v.bounded);
        assert!(v.states < 1_000_000, "scope crept: {} states", v.states);
    }
}
