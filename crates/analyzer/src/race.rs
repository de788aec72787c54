//! The message-race explorer: a plain breadth-first search of the
//! kernel/mailbox interleaving space, surfacing the schedule-dependent
//! behaviour monitoring must expect — with a concrete, replayable
//! witness interleaving for every finding.
//!
//! It is the analyzer's only explorer of these interleavings. The
//! effective-synchrony verdict ([`crate::model::sched`]) is read off
//! the same exploration: SYNC-1 and SYNC-2 are predicates at a mailbox
//! accept, checked in [`RaceModel::explore`] next to the race classes.
//! Four race classes are checked, each a state-local predicate
//! evaluated on the transition that completes the race:
//!
//! * **AN-RACE-001, mailbox receive-race** — at the moment a mailbox
//!   accepts a message, another message for the same receiver is
//!   already in flight from a different sender: the accept order is
//!   not fixed by the happens-before relation, so the receiver's view
//!   is schedule-dependent. Blocking sends make this impossible in the
//!   master/servant shapes (one sender per mailbox, serialized by the
//!   send itself); the SPMD shape exhibits it, and the per-worker
//!   [`OrderScope::PerChannel`] scope suppresses the benign case where
//!   every worker's result is independent.
//! * **AN-RACE-002, lost wakeup** — a process observes its inbox empty
//!   and commits to sleep, but a message was delivered between the
//!   check and the sleep: the wakeup is dropped. Blocking receives are
//!   modeled **two-phase** (observe-empty, then commit) precisely to
//!   expose this window; non-preemptive round-robin closes it (the
//!   process holds the CPU through both phases), full preemption does
//!   not.
//! * **AN-RACE-003, lost signal** — the signal/wait twin of 002: a
//!   signal is raised between a waiter's zero-check and its sleep
//!   commit, so the waiter sleeps on a nonzero count.
//! * **AN-RACE-004, nondeterministic monitoring interleaving** — a
//!   mailbox accept lands while a user process on the accepting node
//!   is mid-compute: the trace a monitor records for that window
//!   depends on the schedule. This is effective synchrony's SYNC-2.
//!
//! Every reachable state is expanded once and every enabled transition
//! examined, so a predicate holds on every transition of the model or
//! has a witness; breadth-first order makes each witness a shortest
//! interleaving. Every witness carries both rendered step labels and
//! the structured schedule ([`RaceWitness::schedule`]) so it can be
//! replayed ([`RaceModel::replay`]) and cross-checked against the
//! vector-clock happens-before engine ([`hb_crosscheck`]).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;

use raysim::config::AppConfig;
use simple::{Event, Trace};

use crate::diag::{Diagnostic, Report};
use crate::hb::analyze_trace;
use crate::model::sched::SchedModel;
use crate::model::{memoized, Memo, ModelBudget, OrderScope, ProvenOrder};

/// The code a SYNC-1 violation is recorded under: a mailbox accepted a
/// message whose sender was not blocked in the send. Not a race class,
/// so never reported as an `AN-RACE-*` finding.
pub const SYNC1: &str = "SYNC-1";

/// The visited set's hasher: SipHash under fixed keys. Dropping the set
/// frees its heap-owning states in hash order; under the per-process
/// random keys of `RandomState` that order, and with it the allocator's
/// free lists, changed from process to process, and it was what moved
/// fig10's peak RSS between a ~35 MB and a ~37.5 MB mode.
type FixedHasher = BuildHasherDefault<DefaultHasher>;

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
    /// Send `msg` to process `to` (blocks until accepted — at most one
    /// message per sender is ever in flight).
    Send { to: u8, msg: Msg },
    /// Receive from this process's inbox. Blocking is two-phase: an
    /// observe-empty step, then a commit-to-sleep step.
    Recv,
    /// Compute for two model steps (a mid-compute window).
    Compute,
    /// Raise a signal for process `p`.
    Signal { p: u8 },
    /// Wait for a signal; blocking is two-phase like [`Op::Recv`].
    WaitSignal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    Ready,
    /// Observed an empty inbox; will sleep at its next step unless the
    /// scheduler kept the check-then-sleep sequence atomic.
    CommitRecv,
    /// Observed a zero signal count; will sleep at its next step.
    CommitSig,
    BlockedSend(Msg),
    BlockedRecv,
    BlockedSig,
    Done,
}

impl Status {
    /// May this process be given a CPU?
    fn runnable(self) -> bool {
        matches!(self, Status::Ready | Status::CommitRecv | Status::CommitSig)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Proc {
    pc: u8,
    status: Status,
    mid: bool,
    sig: u8,
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
    /// Sent but not yet arrived: `(msg, dst proc)`, kept sorted.
    transit: Vec<(Msg, u8)>,
    /// Per node: arrived messages awaiting accept, FIFO.
    pending: Vec<Vec<(Msg, u8)>>,
    cpu: Vec<Cpu>,
}

/// A transition's identity: what a witness schedule records and
/// [`RaceModel::replay`] looks up among the enabled transitions.
/// `node` and `proc_`/`from`/`to` fields index the model's nodes and
/// cast respectively; a message is identified by its sender (blocking
/// sends keep at most one message per sender in flight).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tid {
    /// An in-transit message reaches its destination node's mailbox.
    Arrive { msg_id: u8, kind: u8, from: u8 },
    /// An idle CPU dispatches a runnable user process.
    Dispatch { proc_: u8 },
    /// An idle CPU dispatches its mailbox LWP.
    DispatchMailbox { node: u8 },
    /// The mailbox LWP seizes the CPU from the running user process.
    PreemptMailbox { node: u8, from: u8 },
    /// Another runnable user process seizes the CPU.
    PreemptUser { node: u8, from: u8, to: u8 },
    /// The running user process executes its next step.
    Step { proc_: u8 },
    /// The mailbox LWP accepts its oldest pending message.
    Accept { node: u8 },
}

/// A race observed on a transition.
#[derive(Debug, Clone)]
struct Hit {
    code: &'static str,
    /// The two processes whose operations are unordered.
    pair: (u8, u8),
}

/// One enabled transition: identity, successor, label, races fired.
struct Trans {
    tid: Tid,
    next: State,
    label: String,
    hits: Vec<Hit>,
}

/// A concrete interleaving witnessing a race, replayable against the
/// model and checkable against the happens-before engine.
#[derive(Debug, Clone)]
pub struct RaceWitness {
    /// The race class (`AN-RACE-001`..`004`), or [`SYNC1`].
    pub code: &'static str,
    /// Rendered step labels, ending at the racing transition.
    pub steps: Vec<String>,
    /// The schedule: one transition identity per step, in order —
    /// [`RaceModel::replay`] re-executes it deterministically.
    pub schedule: Vec<Tid>,
    /// The two processes whose operations the schedule leaves
    /// unordered (indices into the model's cast).
    pub pair: (u8, u8),
}

/// What exploring the race model concluded.
#[derive(Debug, Clone)]
pub struct RaceVerdict {
    /// Distinct states visited.
    pub states: usize,
    /// `true` when the state budget cut the exploration short.
    pub bounded: bool,
    /// Mailbox accepts examined.
    pub accepts_checked: usize,
    /// First witness per race class (and of a [`SYNC1`] violation), in
    /// code order.
    pub witnesses: Vec<RaceWitness>,
    /// Total race occurrences per class (a witness is kept only for
    /// the first).
    pub occurrences: HashMap<&'static str, usize>,
    /// Receive-races observed but suppressed by
    /// [`OrderScope::PerChannel`] (the benign SPMD shape).
    pub suppressed_receive_races: usize,
    /// `true` when a state with every process finished is reachable.
    pub completion_reachable: bool,
    /// `true` when every reachable state but the finished one has an
    /// enabled transition.
    pub no_stuck_states: bool,
}

impl RaceVerdict {
    /// The witness for `code`, if that race class was observed.
    pub fn witness(&self, code: &str) -> Option<&RaceWitness> {
        self.witnesses.iter().find(|w| w.code == code)
    }

    /// `true` when no race of any class was observed (suppressed
    /// receive-races do not count — they are the declared-benign case).
    pub fn race_free(&self) -> bool {
        self.witnesses.iter().all(|w| w.code == SYNC1)
    }
}

/// The bounded scope: a fixed cast of processes on a handful of nodes,
/// a scheduler toggle, and the order scope governing receive-race
/// suppression.
#[derive(Debug, Clone)]
pub struct RaceModel {
    node_of: Vec<u8>,
    names: Vec<&'static str>,
    scripts: Vec<Vec<Op>>,
    nodes: usize,
    /// Fully preemptive scheduler: the mailbox LWP *and* any runnable
    /// user process may seize a CPU. `false` models the machine's
    /// non-preemptive round-robin.
    pub preemptive: bool,
    /// Receive-race suppression scope: [`OrderScope::PerChannel`]
    /// declares cross-sender interleaving at a shared mailbox benign.
    pub scope: OrderScope,
}

impl RaceModel {
    /// The master/servant shape of a program version: master, servant
    /// and the version's communication agents, two jobs under window
    /// flow control — the scope of [`crate::model::sched::SchedModel`].
    pub fn version_shape(master_agents: bool, servant_agents: bool, preemptive: bool) -> RaceModel {
        let mut node_of = vec![0u8, 1u8];
        let mut names = vec!["the master", "the servant"];
        let mut next = 2u8;
        let magent = if master_agents {
            node_of.push(0);
            names.push("the master's send agent");
            next += 1;
            Some(next - 1)
        } else {
            None
        };
        let sagent = if servant_agents {
            node_of.push(1);
            names.push("the servant's result agent");
            Some(next)
        } else {
            None
        };

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
        let mut master = Vec::new();
        if let Some(ma) = magent {
            master.extend([Op::Signal { p: ma }, Op::Signal { p: ma }]);
        } else {
            for i in 0..2u8 {
                master.push(Op::Send {
                    to: 1,
                    msg: job(i, 0),
                });
            }
        }
        master.extend([Op::Compute, Op::Recv, Op::Compute, Op::Recv]);
        scripts.push(master);

        let mut servant = Vec::new();
        for i in 0..2u8 {
            servant.extend([Op::Recv, Op::Compute]);
            if let Some(sa) = sagent {
                servant.push(Op::Signal { p: sa });
            } else {
                servant.push(Op::Send {
                    to: 0,
                    msg: result(i, 1),
                });
            }
        }
        scripts.push(servant);

        if let Some(ma) = magent {
            let mut agent = Vec::new();
            for i in 0..2u8 {
                agent.push(Op::WaitSignal);
                agent.push(Op::Send {
                    to: 1,
                    msg: job(i, ma),
                });
            }
            scripts.push(agent);
        }
        if let Some(sa) = sagent {
            let mut agent = Vec::new();
            for i in 0..2u8 {
                agent.push(Op::WaitSignal);
                agent.push(Op::Send {
                    to: 0,
                    msg: result(i, sa),
                });
            }
            scripts.push(agent);
        }

        RaceModel {
            node_of,
            names,
            scripts,
            nodes: 2,
            preemptive,
            scope: OrderScope::Global,
        }
    }

    /// The SPMD shape: two workers on their own nodes, each sending
    /// its result to a collector's mailbox — the multi-sender mailbox
    /// whose accept order no happens-before edge fixes. The receive-
    /// race is real under *any* scheduler; whether it is reported
    /// depends on [`RaceModel::scope`].
    pub fn spmd_shape(preemptive: bool, scope: OrderScope) -> RaceModel {
        let result = |i: u8, from: u8| Msg {
            kind: 1,
            id: i,
            from,
        };
        RaceModel {
            node_of: vec![0, 1, 2],
            names: vec!["the collector", "worker 1", "worker 2"],
            scripts: vec![
                vec![Op::Recv, Op::Recv],
                vec![
                    Op::Compute,
                    Op::Send {
                        to: 0,
                        msg: result(0, 1),
                    },
                ],
                vec![
                    Op::Compute,
                    Op::Send {
                        to: 0,
                        msg: result(1, 2),
                    },
                ],
            ],
            nodes: 3,
            preemptive,
            scope,
        }
    }

    fn initial(&self) -> State {
        State {
            procs: self
                .scripts
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
            pending: vec![Vec::new(); self.nodes],
            cpu: vec![Cpu::Idle; self.nodes],
        }
    }

    /// All enabled transitions of `s`, in a fixed deterministic order.
    fn enabled(&self, s: &State) -> Vec<Trans> {
        let mut out: Vec<Trans> = Vec::new();
        let node_of = |p: usize| self.node_of[p] as usize;

        for (i, &(msg, dst)) in s.transit.iter().enumerate() {
            let n = node_of(dst as usize);
            let mut t = s.clone();
            t.transit.remove(i);
            t.pending[n].push((msg, dst));
            out.push(Trans {
                tid: Tid::Arrive {
                    msg_id: msg.id,
                    kind: msg.kind,
                    from: msg.from,
                },
                next: t,
                label: format!("{} arrives at node {n}'s mailbox", msg.describe()),
                hits: Vec::new(),
            });
        }

        for n in 0..s.cpu.len() {
            match s.cpu[n] {
                Cpu::Idle => {
                    for (p, proc) in s.procs.iter().enumerate() {
                        if node_of(p) == n && proc.status.runnable() {
                            let mut t = s.clone();
                            t.cpu[n] = Cpu::User(p as u8);
                            out.push(Trans {
                                tid: Tid::Dispatch { proc_: p as u8 },
                                next: t,
                                label: format!("node {n} dispatches {}", self.names[p]),
                                hits: Vec::new(),
                            });
                        }
                    }
                    if !s.pending[n].is_empty() {
                        let mut t = s.clone();
                        t.cpu[n] = Cpu::Mailbox;
                        out.push(Trans {
                            tid: Tid::DispatchMailbox { node: n as u8 },
                            next: t,
                            label: format!("node {n} dispatches its mailbox LWP"),
                            hits: Vec::new(),
                        });
                    }
                }
                Cpu::User(p) => {
                    let p = p as usize;
                    if self.preemptive {
                        if !s.pending[n].is_empty() {
                            let mut t = s.clone();
                            t.cpu[n] = Cpu::Mailbox;
                            out.push(Trans {
                                tid: Tid::PreemptMailbox {
                                    node: n as u8,
                                    from: p as u8,
                                },
                                next: t,
                                label: format!(
                                    "node {n}'s mailbox LWP preempts {}{}",
                                    self.names[p],
                                    if s.procs[p].mid { " mid-compute" } else { "" }
                                ),
                                hits: Vec::new(),
                            });
                        }
                        for (q, proc) in s.procs.iter().enumerate() {
                            if q != p && node_of(q) == n && proc.status.runnable() {
                                let mut t = s.clone();
                                t.cpu[n] = Cpu::User(q as u8);
                                out.push(Trans {
                                    tid: Tid::PreemptUser {
                                        node: n as u8,
                                        from: p as u8,
                                        to: q as u8,
                                    },
                                    next: t,
                                    label: format!(
                                        "{} preempts {} on node {n}",
                                        self.names[q], self.names[p]
                                    ),
                                    hits: Vec::new(),
                                });
                            }
                        }
                    }
                    out.push(self.step(s, n, p));
                }
                Cpu::Mailbox => {
                    out.push(self.accept(s, n));
                }
            }
        }

        out
    }

    /// The mailbox LWP accepts the oldest pending message on node `n`,
    /// checking the receive-race and the two effective-synchrony
    /// predicates on the way.
    fn accept(&self, s: &State, n: usize) -> Trans {
        let (msg, dst) = s.pending[n][0];
        let mut hits = Vec::new();

        // SYNC-1: the sender is still blocked in this send — it cannot
        // have completed asynchronously before the sender gave up its
        // CPU.
        let sender_blocked = s.procs[msg.from as usize].status == Status::BlockedSend(msg);
        if !sender_blocked {
            hits.push(Hit {
                code: SYNC1,
                pair: (msg.from, dst),
            });
        }

        // AN-RACE-001: another message for the same receiver is already
        // in flight from a different sender — the accept order is
        // schedule-dependent. (Blocking sends mean one in-flight
        // message per sender, so a second message to `dst` is always
        // another sender's.)
        let rival = s.pending[n][1..]
            .iter()
            .chain(s.transit.iter())
            .find(|&&(m, d)| d == dst && m.from != msg.from);
        if let Some(&(rival, _)) = rival {
            hits.push(Hit {
                code: "AN-RACE-001",
                pair: (msg.from, rival.from),
            });
        }

        // AN-RACE-004, effective synchrony's SYNC-2: the accept lands
        // while a user process on this node is mid-compute — the
        // mailbox LWP ran although its owner had not blocked, and the
        // recorded interleaving depends on the schedule.
        let computing =
            (0..s.procs.len()).find(|&q| self.node_of[q] as usize == n && s.procs[q].mid);
        if let Some(q) = computing {
            hits.push(Hit {
                code: "AN-RACE-004",
                pair: (msg.from, q as u8),
            });
        }

        let mut t = s.clone();
        t.pending[n].remove(0);
        t.procs[dst as usize].inbox.push(msg);
        // Only a process already asleep is woken; one still between its
        // empty-check and its sleep commit misses the wakeup — that is
        // the AN-RACE-002 window, detected at its commit step.
        if t.procs[dst as usize].status == Status::BlockedRecv {
            t.procs[dst as usize].status = Status::Ready;
        }
        if t.procs[msg.from as usize].status == Status::BlockedSend(msg) {
            t.procs[msg.from as usize].status = Status::Ready;
        }
        t.cpu[n] = Cpu::Idle;
        let mut label = match computing {
            Some(q) => format!(
                "node {n}'s mailbox accepts {} while {} is still mid-compute — SYNC-2 \
                 (effective synchrony) violated (AN-RACE-004)",
                msg.describe(),
                self.names[q]
            ),
            None => format!(
                "node {n}'s mailbox accepts {} for {} (sender {} unblocks)",
                msg.describe(),
                self.names[dst as usize],
                self.names[msg.from as usize]
            ),
        };
        if !sender_blocked {
            label.push_str(" — SYNC-1 violated: the sender is NOT blocked in the send");
        }
        Trans {
            tid: Tid::Accept { node: n as u8 },
            next: t,
            label,
            hits,
        }
    }

    /// One step of user process `p` running on node `n`.
    fn step(&self, s: &State, n: usize, p: usize) -> Trans {
        let mut t = s.clone();
        let name = self.names[p];
        let mut hits = Vec::new();

        // Commit phases of the two-phase blocking operations come
        // first: the process promised to sleep and now does, whatever
        // happened in between.
        match t.procs[p].status {
            Status::CommitRecv => {
                let lost = !t.procs[p].inbox.is_empty();
                if lost {
                    // AN-RACE-002: a message was delivered between the
                    // empty-check and this sleep commit; its wakeup
                    // went to nobody.
                    let from = t.procs[p].inbox[0].from;
                    hits.push(Hit {
                        code: "AN-RACE-002",
                        pair: (p as u8, from),
                    });
                }
                t.procs[p].status = Status::BlockedRecv;
                t.cpu[n] = Cpu::Idle;
                let label = if lost {
                    format!(
                        "{name} commits to sleep although a message is already in its \
                         inbox — the wakeup is lost (AN-RACE-002)"
                    )
                } else {
                    format!("{name} commits to sleep awaiting a message")
                };
                return Trans {
                    tid: Tid::Step { proc_: p as u8 },
                    next: t,
                    label,
                    hits,
                };
            }
            Status::CommitSig => {
                let lost = t.procs[p].sig > 0;
                if lost {
                    hits.push(Hit {
                        code: "AN-RACE-003",
                        pair: (p as u8, self.signaler_of(p)),
                    });
                }
                t.procs[p].status = Status::BlockedSig;
                t.cpu[n] = Cpu::Idle;
                let label = if lost {
                    format!(
                        "{name} commits to sleep although its signal count is nonzero — \
                         the signal is lost (AN-RACE-003)"
                    )
                } else {
                    format!("{name} commits to sleep awaiting a signal")
                };
                return Trans {
                    tid: Tid::Step { proc_: p as u8 },
                    next: t,
                    label,
                    hits,
                };
            }
            _ => {}
        }

        let pc = t.procs[p].pc as usize;
        if pc >= self.scripts[p].len() {
            t.procs[p].status = Status::Done;
            t.cpu[n] = Cpu::Idle;
            return Trans {
                tid: Tid::Step { proc_: p as u8 },
                next: t,
                label: format!("{name} finishes and exits"),
                hits,
            };
        }

        let label = match self.scripts[p][pc] {
            Op::Send { to, msg } => {
                t.procs[p].pc += 1;
                t.procs[p].status = Status::BlockedSend(msg);
                t.transit.push((msg, to));
                t.transit.sort_unstable();
                t.cpu[n] = Cpu::Idle;
                format!(
                    "{name} sends {} to {} and blocks until it is accepted",
                    msg.describe(),
                    self.names[to as usize]
                )
            }
            Op::Recv => {
                if t.procs[p].inbox.is_empty() {
                    // Phase one: observe empty. The CPU is kept — only
                    // preemption can separate this from the commit.
                    t.procs[p].status = Status::CommitRecv;
                    format!("{name} finds its inbox empty and prepares to sleep")
                } else {
                    let msg = t.procs[p].inbox.remove(0);
                    t.procs[p].pc += 1;
                    format!("{name} receives {}", msg.describe())
                }
            }
            Op::Compute => {
                if t.procs[p].mid {
                    t.procs[p].mid = false;
                    t.procs[p].pc += 1;
                    format!("{name} finishes computing")
                } else {
                    t.procs[p].mid = true;
                    format!("{name} starts computing")
                }
            }
            Op::Signal { p: q } => {
                let q = q as usize;
                t.procs[p].pc += 1;
                t.procs[q].sig += 1;
                // Only a waiter already asleep is woken; one between
                // its zero-check and its sleep commit misses the
                // signal — the AN-RACE-003 window.
                if t.procs[q].status == Status::BlockedSig {
                    t.procs[q].status = Status::Ready;
                }
                format!("{name} signals {}", self.names[q])
            }
            Op::WaitSignal => {
                if t.procs[p].sig > 0 {
                    t.procs[p].sig -= 1;
                    t.procs[p].pc += 1;
                    format!("{name} consumes a signal")
                } else {
                    t.procs[p].status = Status::CommitSig;
                    format!("{name} finds no signal pending and prepares to sleep")
                }
            }
        };
        Trans {
            tid: Tid::Step { proc_: p as u8 },
            next: t,
            label,
            hits,
        }
    }

    /// The process whose `Signal` targets `p` (for the AN-RACE-003
    /// pair; scripts are static so the signaler is unique).
    fn signaler_of(&self, p: usize) -> u8 {
        for (q, script) in self.scripts.iter().enumerate() {
            for op in script {
                if let Op::Signal { p: tgt } = op {
                    if *tgt as usize == p {
                        return q as u8;
                    }
                }
            }
        }
        p as u8
    }

    /// Explores every interleaving breadth-first, up to `max_states`
    /// distinct states: each reachable state is expanded once and every
    /// enabled transition's predicates are checked, so the first
    /// witness of each class is a shortest interleaving.
    pub fn explore(&self, max_states: usize) -> RaceVerdict {
        let mut verdict = RaceVerdict {
            states: 0,
            bounded: false,
            accepts_checked: 0,
            witnesses: Vec::new(),
            occurrences: HashMap::new(),
            suppressed_receive_races: 0,
            completion_reachable: false,
            no_stuck_states: true,
        };
        let mut seen: HashSet<State, FixedHasher> = HashSet::default();
        seen.insert(self.initial());
        // Per discovered state, in discovery order: the state it was
        // reached from and the transition taken (`None` for the root).
        let mut parents: Vec<Option<(usize, Tid)>> = vec![None];
        let mut queue = VecDeque::from([(self.initial(), 0usize)]);
        while let Some((s, here)) = queue.pop_front() {
            if s.procs.iter().all(|p| p.status == Status::Done) {
                verdict.completion_reachable = true;
                continue;
            }
            let trans = self.enabled(&s);
            if trans.is_empty() {
                verdict.no_stuck_states = false;
            }
            for t in trans {
                if matches!(t.tid, Tid::Accept { .. }) {
                    verdict.accepts_checked += 1;
                }
                for hit in &t.hits {
                    self.record(hit, &parents, here, t.tid, &mut verdict);
                }
                if seen.contains(&t.next) {
                    continue;
                }
                if seen.len() >= max_states {
                    verdict.bounded = true;
                    continue;
                }
                seen.insert(t.next.clone());
                parents.push(Some((here, t.tid)));
                queue.push_back((t.next, parents.len() - 1));
            }
        }
        verdict.states = seen.len();
        verdict
    }

    /// Records a race hit on transition `last` out of state `here`:
    /// counts every occurrence, keeps a witness for the first of each
    /// class (per-channel receive-races are suppressed — counted
    /// separately, never reported).
    fn record(
        &self,
        hit: &Hit,
        parents: &[Option<(usize, Tid)>],
        here: usize,
        last: Tid,
        verdict: &mut RaceVerdict,
    ) {
        if hit.code == "AN-RACE-001" && self.scope == OrderScope::PerChannel {
            verdict.suppressed_receive_races += 1;
            return;
        }
        *verdict.occurrences.entry(hit.code).or_insert(0) += 1;
        if verdict.witness(hit.code).is_none() {
            let mut schedule = vec![last];
            let mut at = here;
            while let Some((up, tid)) = parents[at] {
                schedule.push(tid);
                at = up;
            }
            schedule.reverse();
            let steps = self
                .walk(&schedule)
                .expect("a discovered schedule replays")
                .into_iter()
                .map(|t| t.label)
                .collect();
            verdict.witnesses.push(RaceWitness {
                code: hit.code,
                steps,
                schedule,
                pair: hit.pair,
            });
            verdict.witnesses.sort_by_key(|w| w.code);
        }
    }

    /// Re-executes `schedule` from the initial state, returning the
    /// transitions taken — `None` when a step is not enabled where the
    /// schedule takes it.
    fn walk(&self, schedule: &[Tid]) -> Option<Vec<Trans>> {
        let mut s = self.initial();
        let mut taken = Vec::with_capacity(schedule.len());
        for tid in schedule {
            let t = self.enabled(&s).into_iter().find(|t| t.tid == *tid)?;
            s = t.next.clone();
            taken.push(t);
        }
        Some(taken)
    }

    /// Replays a witness schedule step by step, returning the race
    /// codes fired on the final transition — the machine check that a
    /// witness is a real interleaving of this model.
    pub fn replay(&self, schedule: &[Tid]) -> Option<Vec<&'static str>> {
        let taken = self.walk(schedule)?;
        Some(
            taken
                .last()
                .map(|t| t.hits.iter().map(|h| h.code).collect())
                .unwrap_or_default(),
        )
    }

    /// The display name of process `p` (for diagnostics).
    pub fn name_of(&self, p: u8) -> &'static str {
        self.names.get(p as usize).copied().unwrap_or("a process")
    }
}

/// Cross-checks a witness against the vector-clock happens-before
/// engine: the two racing operations are emitted as the same
/// instrumentation point with the same id on two channels with no
/// proven order between them, and the engine must report them
/// concurrent (`AN-HB-002`) without any ordering violation
/// (`AN-HB-001` error). A witness whose racing pair the engine can
/// order would be unsound — this is the machine check that the
/// explorer's findings and the dynamic trace validator agree on what
/// "unordered" means.
pub fn hb_crosscheck(witness: &RaceWitness) -> Report {
    const RACE_POINT: u16 = 0x0450;
    const RACE_ACK: u16 = 0x0451;
    let orders = [ProvenOrder::global(
        "race-witness-probe",
        RACE_POINT,
        RACE_ACK,
        "the two racing operations touch the same mailbox state",
    )];
    let (a, b) = witness.pair;
    let trace = Trace::from_unsorted(vec![
        Event::new(100, a as usize + 1, RACE_POINT, 1),
        Event::new(120, b as usize + 1, RACE_POINT, 1),
    ]);
    let (mut report, _) = analyze_trace(&trace, &orders);
    report.subject = format!("{} witness happens-before cross-check", witness.code);
    report
}

/// `true` when the happens-before engine confirms the witness's racing
/// pair is concurrent (and reports no ordering violation).
pub fn witness_is_concurrent(witness: &RaceWitness) -> bool {
    let report = hb_crosscheck(witness);
    report.contains("AN-HB-002") && report.with_code("AN-HB-001").count() == 0
}

/// The four race classes, in code order, with their one-line stories.
const RACE_CODES: [(&str, &str); 4] = [
    (
        "AN-RACE-001",
        "mailbox receive-race: two unordered sends to the same mailbox",
    ),
    (
        "AN-RACE-002",
        "lost wakeup: a message lands between the inbox check and the sleep commit",
    ),
    (
        "AN-RACE-003",
        "lost signal: a signal lands between the zero-check and the sleep commit",
    ),
    (
        "AN-RACE-004",
        "nondeterministic monitoring interleaving: a mailbox accept lands mid-compute",
    ),
];

/// Explores `model` and folds the verdict into `AN-RACE-*` diagnostics:
/// a warning with a replayable witness interleaving per race class
/// observed, an info per class proven absent. Race warnings deliberately
/// stay warnings — the pre-flight policies treat them as survivable by
/// default; the `--strict` gate escalates them.
pub fn check_race_model(model: &RaceModel, max_states: usize, subject: &str) -> Report {
    race_report(model, &model.explore(max_states), subject)
}

/// Folds `model`'s verdict `v` into the `AN-RACE-*` diagnostics of
/// [`check_race_model`].
fn race_report(model: &RaceModel, v: &RaceVerdict, subject: &str) -> Report {
    let mut report = Report::new(subject.to_owned());

    for (code, story) in RACE_CODES {
        match v.witness(code) {
            Some(w) => {
                let (a, b) = w.pair;
                let replayed = model
                    .replay(&w.schedule)
                    .is_some_and(|codes| codes.contains(&code));
                let concurrent = witness_is_concurrent(w);
                let mut d = Diagnostic::warning(code, story.to_owned())
                    .note(format!(
                        "{} occurrence(s) over {} explored states{}",
                        v.occurrences.get(code).copied().unwrap_or(0),
                        v.states,
                        if v.bounded {
                            " (exploration bounded)"
                        } else {
                            ""
                        },
                    ))
                    .note(format!(
                        "unordered pair: {} and {}",
                        model.name_of(a),
                        model.name_of(b)
                    ))
                    .with_path(
                        "witness interleaving (one transition per line)",
                        w.steps.clone(),
                    );
                d = if replayed && concurrent {
                    d.note(
                        "witness replayed against the model and its racing pair confirmed \
                         concurrent by the vector-clock happens-before engine",
                    )
                } else {
                    Diagnostic::error(code, format!("{story} — WITNESS FAILED VALIDATION"))
                        .note(format!("replayed={replayed} hb-concurrent={concurrent}"))
                };
                report.push(d);
            }
            None if v.bounded => {
                report.push(Diagnostic::info(
                    code,
                    format!(
                        "{story}: none found in {} states (exploration bounded — the claim \
                         is partial)",
                        v.states
                    ),
                ));
            }
            None => {
                report.push(Diagnostic::info(
                    code,
                    format!(
                        "{story}: proven absent over all {} reachable states ({} accepts \
                         examined)",
                        v.states, v.accepts_checked
                    ),
                ));
            }
        }
    }
    if v.suppressed_receive_races > 0 {
        report.push(Diagnostic::info(
            "AN-RACE-001",
            format!(
                "{} receive-race occurrence(s) suppressed: the workload's per-channel \
                 orders declare cross-sender interleaving at the shared mailbox benign",
                v.suppressed_receive_races
            ),
        ));
    }
    report
}

/// Explores a program version's communication shape, memoized per
/// shape, scheduler toggle and budget. The effective-synchrony verdict
/// ([`crate::model::check_sched`], `AN-MODEL-004`, `analyze
/// --preemptive`) and [`check_races`] all read this one exploration, so
/// its time lands in whichever of them asks first.
pub fn explore_version(shape: SchedModel, max_states: usize) -> RaceVerdict {
    static MEMO: Memo<(SchedModel, usize), RaceVerdict> = OnceLock::new();
    memoized(&MEMO, (shape, max_states), |(shape, max_states)| {
        RaceModel::version_shape(shape.master_agents, shape.servant_agents, shape.preemptive)
            .explore(*max_states)
    })
}

/// Race-checks a program version's communication shape under the given
/// scheduler, from the memoized [`explore_version`]; every report is
/// titled with `app`'s own version.
pub fn check_races(app: &AppConfig, budget: &ModelBudget, preemptive: bool) -> Report {
    let scheduler = if preemptive {
        "preemptive"
    } else {
        "non-preemptive round-robin"
    };
    let (master, servant) = (app.version.master_agents(), app.version.servant_agents());
    race_report(
        &RaceModel::version_shape(master, servant, preemptive),
        &explore_version(SchedModel::of(app.version, preemptive), budget.sched_states),
        &format!("{} message races ({scheduler} scheduler)", app.version),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysim::config::Version;

    fn shapes() -> [(bool, bool); 3] {
        [(false, false), (true, false), (true, true)]
    }

    #[test]
    fn memoized_race_reports_keep_their_own_subject() {
        // V3 and V4 share a communication shape, so V4 reuses V3's
        // memoized findings — but not its title.
        let budget = ModelBudget::preflight();
        let v3 = check_races(&AppConfig::version(Version::V3), &budget, false);
        let v4 = check_races(&AppConfig::version(Version::V4), &budget, false);
        assert!(v3.subject.starts_with("Version 3 "), "{}", v3.subject);
        assert!(v4.subject.starts_with("Version 4 "), "{}", v4.subject);
        assert_eq!(v3.findings, v4.findings);
    }

    #[test]
    fn round_robin_is_race_free_for_every_version_shape() {
        // With the plain search's (states, accepts) pinned.
        let counts = [(221, 17), (418, 30), (888, 46)];
        for ((ma, sa), counts) in shapes().into_iter().zip(counts) {
            let v = RaceModel::version_shape(ma, sa, false).explore(1_000_000);
            assert!(!v.bounded, "({ma},{sa}) should close: {} states", v.states);
            assert!(v.race_free(), "({ma},{sa}): {:?}", v.witnesses);
            assert!(v.completion_reachable, "({ma},{sa})");
            assert_eq!((v.states, v.accepts_checked), counts, "({ma},{sa})");
        }
    }

    #[test]
    fn preemption_loses_a_wakeup_with_a_replayable_witness() {
        let model = RaceModel::version_shape(false, false, true);
        let v = model.explore(2_000_000);
        assert!(!v.bounded, "{} states", v.states);
        let w = v
            .witness("AN-RACE-002")
            .expect("preemption must lose a wakeup");
        assert!(
            w.steps.last().unwrap().contains("AN-RACE-002"),
            "{:?}",
            w.steps
        );
        // The witness is a real interleaving: replaying its schedule
        // fires the same race on the final transition.
        let fired = model.replay(&w.schedule).expect("schedule must replay");
        assert!(fired.contains(&"AN-RACE-002"), "{fired:?}");
    }

    #[test]
    fn preemption_loses_a_signal_in_agent_shapes() {
        // Lost signals need a signal/wait pair, i.e. a communication
        // agent (V2+). A mailbox-LWP-only preemption cannot produce
        // this — it takes a *user* process preempting the waiter
        // between its zero-check and its sleep.
        let model = RaceModel::version_shape(true, true, true);
        let v = model.explore(4_000_000);
        assert!(!v.bounded, "{} states", v.states);
        let w = v
            .witness("AN-RACE-003")
            .expect("preemption must lose a signal");
        let fired = model.replay(&w.schedule).expect("schedule must replay");
        assert!(fired.contains(&"AN-RACE-003"), "{fired:?}");
        assert!(witness_is_concurrent(w));
    }

    #[test]
    fn preemption_breaks_monitoring_determinism() {
        let v = RaceModel::version_shape(false, false, true).explore(2_000_000);
        assert!(
            v.witness("AN-RACE-004").is_some(),
            "mid-compute accept must be reachable"
        );
    }

    #[test]
    fn spmd_receive_race_is_real_under_global_scope_even_without_preemption() {
        let model = RaceModel::spmd_shape(false, OrderScope::Global);
        let v = model.explore(1_000_000);
        assert!(!v.bounded);
        let w = v
            .witness("AN-RACE-001")
            .expect("two senders, one mailbox: must race");
        assert!(model
            .replay(&w.schedule)
            .expect("schedule must replay")
            .contains(&"AN-RACE-001"));
        assert!(witness_is_concurrent(w));
        // The race is about *matching*, not about preemption: every
        // other class stays absent under round-robin.
        assert!(v.witness("AN-RACE-002").is_none());
        assert!(v.witness("AN-RACE-003").is_none());
        assert!(v.witness("AN-RACE-004").is_none());
    }

    #[test]
    fn per_channel_scope_suppresses_the_spmd_receive_race() {
        let v = RaceModel::spmd_shape(false, OrderScope::PerChannel).explore(1_000_000);
        assert!(!v.bounded);
        assert!(v.race_free(), "{:?}", v.witnesses);
        assert!(
            v.suppressed_receive_races > 0,
            "the race must still be *observed*"
        );
    }

    #[test]
    fn check_races_reports_warnings_only_under_preemption() {
        let budget = ModelBudget::full();
        for version in Version::ALL {
            let app = AppConfig::version(version);
            let rr = check_races(&app, &budget, false);
            assert_eq!(rr.warnings(), 0, "{version}: {}", rr.render());
            assert_eq!(rr.errors(), 0, "{version}: {}", rr.render());
            assert!(rr.findings.iter().all(|f| f.code.starts_with("AN-RACE-")));
            let pre = check_races(&app, &budget, true);
            assert!(pre.warnings() >= 1, "{version}: {}", pre.render());
            assert!(
                pre.findings
                    .iter()
                    .any(|f| f.code == "AN-RACE-002" && !f.notes.is_empty()),
                "{version}: {}",
                pre.render()
            );
        }
    }

    #[test]
    fn hb_crosscheck_confirms_concurrency_for_witnesses() {
        let v = RaceModel::version_shape(false, false, true).explore(2_000_000);
        for w in &v.witnesses {
            let report = hb_crosscheck(w);
            assert!(
                report.contains("AN-HB-002"),
                "{}: {}",
                w.code,
                report.render()
            );
            assert!(witness_is_concurrent(w), "{}", w.code);
        }
    }

    #[test]
    fn preemptive_counts_and_witness_lengths_are_pinned() {
        // (shape, states, AN-RACE-002/003/004 witness lengths); V3 and
        // V4 share the both-agents shape. Breadth-first order makes
        // every witness a shortest interleaving.
        let preemptive = [
            ((false, false), 368, [Some(9), None, Some(13)]),
            ((true, false), 2_665, [Some(12), Some(6), Some(18)]),
            ((true, true), 16_370, [Some(12), Some(6), Some(18)]),
        ];
        for ((ma, sa), states, lengths) in preemptive {
            let v = RaceModel::version_shape(ma, sa, true).explore(1_000_000);
            assert_eq!(v.states, states, "({ma},{sa})");
            let found = ["AN-RACE-002", "AN-RACE-003", "AN-RACE-004"]
                .map(|code| v.witness(code).map(|w| w.steps.len()));
            assert_eq!(found, lengths, "({ma},{sa})");
        }
    }

    #[test]
    fn every_witness_replays_and_refires_its_class() {
        let mut models: Vec<(String, RaceModel)> = Vec::new();
        for (ma, sa) in shapes() {
            for preemptive in [false, true] {
                models.push((
                    format!("version ({ma},{sa}) preemptive={preemptive}"),
                    RaceModel::version_shape(ma, sa, preemptive),
                ));
            }
        }
        for preemptive in [false, true] {
            models.push((
                format!("spmd preemptive={preemptive}"),
                RaceModel::spmd_shape(preemptive, OrderScope::Global),
            ));
        }
        for (ctx, model) in models {
            let v = model.explore(1_000_000);
            assert!(!v.bounded, "{ctx}");
            for w in &v.witnesses {
                crate::model::testutil::assert_witness_well_formed(&w.steps);
                assert_eq!(w.steps.len(), w.schedule.len(), "{ctx}: {}", w.code);
                let fired = model
                    .replay(&w.schedule)
                    .unwrap_or_else(|| panic!("{ctx}: {} witness must replay", w.code));
                assert!(
                    fired.contains(&w.code),
                    "{ctx}: {} replay fired {fired:?}",
                    w.code
                );
            }
        }
    }
}
