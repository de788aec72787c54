//! The machine kernel: node schedulers, messaging, mailboxes and
//! monitoring hooks.
//!
//! [`Machine`] owns every simulated node, process and bus. Its default
//! scheduling policy is the one the paper reverse-engineered from
//! SUPRENUM's node operating system:
//!
//! * light-weight processes are scheduled **round-robin without time
//!   slicing** — a running process keeps the CPU until it blocks or
//!   deliberately relinquishes it. The policy is pluggable through
//!   [`crate::sched::Scheduler`] (selected by
//!   [`MachineConfig::scheduler`]); preemptive policies may take the
//!   CPU away inside timed compute sections, which the kernel records
//!   as [`crate::os_tokens::KERNEL_PREEMPT`] events;
//! * each process's **mailbox is itself a light-weight process** that must
//!   be scheduled to accept an incoming message; the *sender stays
//!   blocked* until that happens. This is the mechanism that makes
//!   SUPRENUM's "asynchronous" mailbox communication behave synchronously
//!   (paper §4.3, version 1) and the simulator reproduces it structurally.
//!
//! Instrumentation ([`Action::Emit`]) is dispatched to the configured
//! monitoring technique: hybrid monitoring writes the encoded pattern
//! sequence to the node's seven-segment display (recorded compactly as
//! one [`EmissionRecord`] per event, see [`Machine::emissions`], and
//! expanded into the [`SignalLog`] only when someone reads it), terminal
//! monitoring serializes the event over the V.24 interface, software
//! monitoring appends to a node-local buffer stamped with the node's
//! skewed local clock.
//!
//! # Where per-process state lives
//!
//! A partition's process table is a vector indexed by raw pid, and
//! everything the kernel keeps per process lives in that process's slot:
//! its scheduler state, its accepted mailbox messages, the synchronous
//! messages and mailbox arrivals waiting for it, and whether its mailbox
//! LWP is queued. Every arrival already looks up its destination's slot,
//! and a process lives on exactly one node, so a message or state change
//! costs one index, never a hash. A node keeps only its CPU: the
//! scheduling policy, the running LWP and the switch bookkeeping. The
//! ground truth ([`GroundTruth`]) keeps its histories in the same
//! layout. Only the condition variables (keyed by application-chosen
//! [`CondId`]s) and the multi-cluster pid directory are maps.
//!
//! # Parallel event execution
//!
//! Kernel state is split into one `Partition` (private) per cluster. Each
//! partition owns its nodes' LWPs, mailboxes, cluster-bus rails and the
//! cluster's token-ring egress port, so *every* event of a single-cluster
//! machine — and every intra-cluster event of a larger one — touches only
//! one partition. The only cross-partition traffic is the token ring,
//! whose token rotation plus per-hop latency gives a hard lower bound on
//! inter-cluster delivery. That bound is exactly the conservative
//! lookahead a [`des::shard::ShardedEventLoop`] needs: multi-cluster
//! machines run one engine shard per cluster, synchronizing only at
//! lookahead-wide window boundaries.
//!
//! Single-cluster machines keep the plain sequential [`EventLoop`], so
//! their traces are bit-for-bit what they always were. For multi-cluster
//! machines the *logical* schedule is fixed by the cluster decomposition;
//! [`Machine::set_engine_shards`] only chooses how many worker threads
//! the per-cluster shards are packed onto, which cannot change any
//! digest.

use std::cell::OnceCell;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, RwLock};

use des::clock::ClockModel;
use des::engine::{EventLoop, StopReason};
use des::rng::DetRng;
use des::shard::{ShardCtx, ShardedEventLoop};
use des::time::{SimDuration, SimTime};
use hybridmon::software::SoftwareMonitor;
use hybridmon::{IntrusionReport, MonEvent, MonitoringMode};

use crate::bus::{Interconnect, InterconnectStats};
use crate::config::MachineConfig;
use crate::emission::EmissionRecord;
use crate::ground_truth::{BlockReason, GroundTruth, ProcState};
use crate::ids::{ClusterId, CondId, LwpId, NodeId, ProcessId, TeamId};
use crate::message::Message;
use crate::process::{Action, ProcCtx, Process, Resume};
use crate::sched::{KernelCtx, Scheduler};
use crate::signals::{SignalLog, TerminalWrite};
use crate::topology::{Route, Topology};

/// Safety valve against processes that loop through zero-cost actions
/// without ever blocking or computing.
const MAX_ZERO_COST_ACTIONS: u32 = 1_000_000;

/// [`crate::os_tokens::KERNEL_PREEMPT`] parameter code: a mailbox LWP
/// seized the CPU from a computing user process.
const PREEMPT_MAILBOX: u8 = 1;
/// [`crate::os_tokens::KERNEL_PREEMPT`] parameter code: the running
/// process's time slice expired with other work ready.
const PREEMPT_QUANTUM: u8 = 2;
/// [`crate::os_tokens::KERNEL_PREEMPT`] parameter code: an injected
/// (fuzz) preemption point fired on a user wakeup.
const PREEMPT_WAKE: u8 = 3;

/// Kernel events.
#[derive(Debug)]
enum Ev {
    /// Try to start the next ready LWP on a node.
    Dispatch(NodeId),
    /// Context switch finished; `lwp` starts running.
    Started { node: NodeId, lwp: LwpId },
    /// A running process's timed action (emit, spawn bookkeeping)
    /// completed; it continues without a scheduling decision.
    ResumeRunning { pid: ProcessId, resume: Resume },
    /// A running process's timed compute section completed. Separate
    /// from [`Ev::ResumeRunning`] because computes are the only
    /// preemptible sections: the epoch stamp lets a preemption abandon
    /// the in-flight completion (a stale epoch is ignored).
    ComputeDone { pid: ProcessId, epoch: u32 },
    /// The running process's time slice expired (preemptive policies
    /// only). Stale epochs — the process blocked or was preempted since
    /// the slice was granted — are ignored.
    QuantumExpiry { pid: ProcessId, epoch: u32 },
    /// A blocked process becomes ready again with this resume value.
    Unblock { pid: ProcessId, resume: Resume },
    /// A synchronous message arrives at the destination node.
    SyncArrive {
        dst: ProcessId,
        src: ProcessId,
        msg: Message,
    },
    /// A mailbox message arrives at the destination node, awaiting the
    /// mailbox LWP.
    MailboxArrive {
        dst: ProcessId,
        src: ProcessId,
        msg: Message,
    },
    /// A remotely spawned process becomes runnable.
    SpawnReady { pid: ProcessId },
    /// The mailbox LWP of `owner` finished accepting `count` messages.
    MailboxServiced { owner: ProcessId, count: usize },
    /// A message comes off the token ring at the destination cluster's
    /// communication node; the destination partition still has to carry
    /// it over its own cluster bus.
    RingDeliver {
        dst: ProcessId,
        src: ProcessId,
        msg: Message,
        mailbox: bool,
    },
    /// A cross-cluster spawn request arrives at the target cluster. The
    /// request travels at ring latency, ahead of any message addressed to
    /// the child, so the target partition always creates the process
    /// before traffic for it can arrive.
    RemoteSpawn {
        pid: ProcessId,
        node: NodeId,
        team: TeamId,
        ready_at: SimTime,
        body: Box<dyn Process>,
    },
    /// A condition variable was signalled on another cluster.
    CondSignal { cond: CondId },
    /// The initial process exited on another cluster; this partition
    /// stops processing.
    HaltCluster,
}

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// The initial process exited; the application terminated normally.
    Completed,
    /// No events remain but the application has not terminated: every
    /// live process is blocked forever. A bug in the measured program —
    /// exactly what the monitoring is for.
    Deadlock,
    /// The time horizon was reached first.
    Horizon,
    /// The operator's job time limit expired and the partition was
    /// released with the application unfinished (paper §2.2).
    ResourcesReleased,
    /// The event budget was exhausted (indicates a livelock).
    EventBudget,
}

impl RunEnd {
    /// Returns `true` if the run was cut short — any end other than
    /// [`RunEnd::Completed`]. A truncated run's derived statistics
    /// (utilization, job counts, phase durations) describe an
    /// *interrupted* execution and must not be compared against
    /// completed runs.
    pub fn is_truncation(self) -> bool {
        self != RunEnd::Completed
    }
}

impl std::fmt::Display for RunEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RunEnd::Completed => "completed",
            RunEnd::Deadlock => "deadlock",
            RunEnd::Horizon => "horizon",
            RunEnd::ResourcesReleased => "resources-released",
            RunEnd::EventBudget => "event-budget",
        })
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Final simulated time.
    pub end: SimTime,
    /// Why the run ended.
    pub reason: RunEnd,
    /// Kernel events the simulation loop processed during this run —
    /// the measure a step budget is charged against.
    pub events: u64,
}

impl RunOutcome {
    /// Returns `true` if the run was cut short (see
    /// [`RunEnd::is_truncation`]).
    pub fn truncated(&self) -> bool {
        self.reason.is_truncation()
    }
}

/// Execution profile of the sharded (multi-cluster) engine — see
/// [`Machine::engine_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineProfile {
    /// Lookahead windows (epochs) the engine executed.
    pub epochs: u64,
    /// Kernel events handled by each cluster shard, in cluster order.
    pub shard_events: Vec<u64>,
}

impl EngineProfile {
    /// Total events / busiest shard's events — the upper bound on the
    /// speedup any worker-thread packing could extract from this run's
    /// event distribution (ignores windowing granularity, so the real
    /// bound is tighter).
    pub fn balance_bound(&self) -> f64 {
        let total: u64 = self.shard_events.iter().sum();
        let max = self.shard_events.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        total as f64 / max as f64
    }

    /// Mean events executed per lookahead window across all shards —
    /// the grain the epoch barrier must amortize. Sync-bound shapes sit
    /// near (or below) one event per window.
    pub fn events_per_window(&self) -> f64 {
        if self.epochs == 0 {
            return 0.0;
        }
        let total: u64 = self.shard_events.iter().sum();
        total as f64 / self.epochs as f64
    }
}

/// Aggregate kernel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Context switches performed across all nodes.
    pub ctx_switches: u64,
    /// Context switches that crossed a team boundary (expensive).
    pub inter_team_switches: u64,
    /// Mailbox-LWP scheduling rounds.
    pub mailbox_services: u64,
    /// Messages accepted by mailbox LWPs.
    pub mailbox_messages: u64,
    /// Synchronous rendezvous completed.
    pub sync_messages: u64,
    /// Instrumentation events emitted.
    pub events_emitted: u64,
    /// Processes created.
    pub processes_spawned: u64,
    /// Kernel (OS) instrumentation events emitted.
    pub kernel_events: u64,
    /// Times a running user process lost the CPU involuntarily
    /// (mailbox seizure, quantum expiry, or injected fuzz preemption).
    /// Always zero under the stock non-preemptive round-robin policy.
    pub preemptions: u64,
}

impl KernelStats {
    /// Adds `other`'s counters to this instance's (partition merge).
    fn merge(&mut self, other: KernelStats) {
        self.ctx_switches += other.ctx_switches;
        self.inter_team_switches += other.inter_team_switches;
        self.mailbox_services += other.mailbox_services;
        self.mailbox_messages += other.mailbox_messages;
        self.sync_messages += other.sync_messages;
        self.events_emitted += other.events_emitted;
        self.processes_spawned += other.processes_spawned;
        self.kernel_events += other.kernel_events;
        self.preemptions += other.preemptions;
    }
}

/// One process's kernel state, including everything the kernel keeps
/// per destination process: the messages waiting for it and whether its
/// mailbox LWP is queued.
struct Proc {
    node: NodeId,
    team: TeamId,
    body: Option<Box<dyn Process>>,
    state: ProcState,
    /// Messages its mailbox LWP accepted and the process has not yet
    /// received.
    mbox: VecDeque<Message>,
    /// Synchronous messages that arrived before the process called
    /// `Recv`, with their senders.
    pending_sync: VecDeque<(ProcessId, Message)>,
    /// Mailbox messages that arrived but have not yet been *accepted*
    /// by the mailbox LWP (their senders are still blocked).
    mailbox_arrivals: VecDeque<(ProcessId, Message)>,
    /// Whether the mailbox LWP is enqueued or running.
    mailbox_active: bool,
    pending_resume: Option<Resume>,
    /// While inside a timed compute section: when it completes. The
    /// only window a preemptive policy may take the CPU in.
    compute_until: Option<SimTime>,
    /// Bumped at every dispatch and preemption; a [`Ev::ComputeDone`]
    /// or [`Ev::QuantumExpiry`] whose stamp does not match is stale.
    run_epoch: u32,
    /// Compute time left over from a preemption, resumed at the next
    /// dispatch instead of calling back into the process body.
    preempted_compute: Option<SimDuration>,
}

/// One node's CPU: its scheduling policy and what holds the CPU. The
/// messages and mailbox state of the node's processes live in their
/// [`Proc`]s.
struct Node {
    /// The pluggable scheduling policy owning this node's ready set.
    sched: Box<dyn Scheduler>,
    running: Option<LwpId>,
    dispatching: bool,
    /// Team of the last LWP that held the CPU (for switch pricing).
    last_team: Option<TeamId>,
}

impl Node {
    fn new(sched: Box<dyn Scheduler>) -> Self {
        Node {
            sched,
            running: None,
            dispatching: false,
            last_team: None,
        }
    }
}

/// Scheduling interface a partition's event handlers run against. The
/// sequential engine and the sharded engine expose the same operations;
/// the handlers are written once against this trait.
trait Sched {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// Schedules an event on this partition at absolute time `at`.
    fn schedule(&mut self, at: SimTime, ev: Ev);
    /// Schedules an event on this partition `delay` from now.
    fn schedule_in(&mut self, delay: SimDuration, ev: Ev);
    /// Delivers an event to another cluster's partition at `at`, which
    /// must respect the ring lookahead.
    fn send_cluster(&mut self, dst: ClusterId, at: SimTime, ev: Ev);
    /// Drops every event still queued for this partition.
    fn halt_local(&mut self);
}

/// [`Sched`] over the plain sequential event loop. Single-cluster
/// machines never route cross-cluster events, so `send_cluster` is
/// unreachable.
struct SeqSched<'a> {
    sim: &'a mut EventLoop<Ev>,
}

impl Sched for SeqSched<'_> {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.sim.schedule(at, ev);
    }

    fn schedule_in(&mut self, delay: SimDuration, ev: Ev) {
        self.sim.schedule_in(delay, ev);
    }

    fn send_cluster(&mut self, _dst: ClusterId, _at: SimTime, _ev: Ev) {
        unreachable!("sequential machine routed a cross-cluster event");
    }

    fn halt_local(&mut self) {
        self.sim.clear();
    }
}

/// [`Sched`] over one shard of the conservative parallel engine.
struct ShardSched<'a, 'b> {
    ctx: &'a mut ShardCtx<'b, Ev>,
}

impl Sched for ShardSched<'_, '_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.ctx.schedule(at, ev);
    }

    fn schedule_in(&mut self, delay: SimDuration, ev: Ev) {
        self.ctx.schedule_in(delay, ev);
    }

    fn send_cluster(&mut self, dst: ClusterId, at: SimTime, ev: Ev) {
        self.ctx.send(dst.index() as usize, at, ev);
    }

    fn halt_local(&mut self) {
        self.ctx.clear_local();
    }
}

/// The event engine a machine runs on: the plain sequential loop for
/// single-cluster configurations, one conservative engine shard per
/// cluster otherwise.
enum Engine {
    Seq(EventLoop<Ev>),
    Sharded(ShardedEventLoop<Ev>),
}

/// Kernel state of one cluster. Every field is owned by exactly one
/// partition; the only way state crosses partitions during a run is a
/// [`Sched::send_cluster`] event, which models the token ring and
/// therefore always respects the ring lookahead. A single-cluster
/// machine is one partition holding everything.
struct Partition {
    cluster: ClusterId,
    /// Lowest global node id of this cluster (local index offset).
    first_node: u16,
    /// Total clusters in the machine (pid/team allocation stride).
    clusters: u32,
    cfg: MachineConfig,
    topo: Topology,
    /// This cluster's bus rails and ring-egress port. Built full-size
    /// for index alignment; each partition only ever reserves its own
    /// cluster's resources.
    interconnect: Interconnect,
    /// Indexed by raw pid; each slot holds all of the process's kernel
    /// state. Clusters allocate pids strided by the cluster count, so
    /// multi-cluster tables are sparse; single-cluster tables are dense.
    procs: Vec<Option<Proc>>,
    /// Local nodes, indexed by `node.index() - first_node`.
    nodes: Vec<Node>,
    /// Waiters per condition variable. Condition ids are chosen by the
    /// application (`base_cond + index`), not dense, so this stays a map.
    conds: HashMap<CondId, Vec<ProcessId>>,
    /// Terminal-interface bytes, in emission order.
    terminal: Vec<TerminalWrite>,
    /// State histories of this partition's processes, indexed by raw pid
    /// like `procs`.
    ground_truth: GroundTruth,
    intrusion: IntrusionReport,
    /// Local nodes' software monitors, same indexing as `nodes`.
    software: Vec<SoftwareMonitor>,
    stats: KernelStats,
    /// Per local node: earliest time the display is free for a kernel
    /// event (serializes kernel emissions so pattern pairs never
    /// interleave).
    kernel_display_free: Vec<SimTime>,
    /// Hybrid-monitoring display emissions, in emission order.
    emissions: Vec<EmissionRecord>,
    /// Per-cluster allocation counters; raw id = cluster + clusters * k,
    /// so partitions mint ids independently without collisions.
    next_pid: u32,
    next_team: u32,
    initial: Option<ProcessId>,
    halted: bool,
    /// Events this partition handled (the sharded engine's step count).
    events_handled: u64,
    /// Local clock of the partition's shard, tracked for the merged
    /// outcome's end time.
    now_local: SimTime,
    /// pid → node map shared by all partitions of a multi-cluster
    /// machine. Writes happen at process creation in the creating
    /// partition; any other partition can only learn a pid through a
    /// message, which arrives at least one ring latency later — after
    /// the epoch barrier — so reads always see the write.
    directory: Option<Arc<RwLock<HashMap<u32, NodeId>>>>,
}

impl Partition {
    fn local_idx(&self, node: NodeId) -> usize {
        debug_assert_eq!(
            self.topo.cluster_of(node),
            self.cluster,
            "node {node} handled by the wrong partition"
        );
        (node.index() - self.first_node) as usize
    }

    fn local_node(&self, node: NodeId) -> &Node {
        &self.nodes[self.local_idx(node)]
    }

    fn local_node_mut(&mut self, node: NodeId) -> &mut Node {
        let idx = self.local_idx(node);
        &mut self.nodes[idx]
    }

    fn proc(&self, pid: ProcessId) -> &Proc {
        self.procs
            .get(pid.raw() as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("process {pid} is not in this partition"))
    }

    fn proc_mut(&mut self, pid: ProcessId) -> &mut Proc {
        self.procs
            .get_mut(pid.raw() as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("process {pid} is not in this partition"))
    }

    /// The node a message to `pid` must be routed to: local process
    /// table first, shared directory for remote pids.
    fn target_node(&self, pid: ProcessId) -> NodeId {
        if let Some(Some(p)) = self.procs.get(pid.raw() as usize) {
            return p.node;
        }
        let dir = self
            .directory
            .as_ref()
            .unwrap_or_else(|| panic!("message routed to unknown process {pid}"));
        let map = dir
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *map.get(&pid.raw())
            .unwrap_or_else(|| panic!("message routed to unknown process {pid}"))
    }

    /// Mints the next process id of this cluster's namespace.
    fn alloc_pid(&mut self) -> ProcessId {
        let raw = self.cluster.index() as u32 + self.clusters * self.next_pid;
        self.next_pid += 1;
        ProcessId::new(raw)
    }

    /// Mints the next team id of this cluster's namespace.
    fn alloc_team(&mut self) -> TeamId {
        let raw = self.cluster.index() as u32 + self.clusters * self.next_team;
        self.next_team += 1;
        TeamId::new(raw)
    }

    /// Ring token + hop delay from this cluster to `dst` — the minimum
    /// a cross-cluster event must trail the current time by, and never
    /// below the engine lookahead.
    fn ring_delay(&self, dst: ClusterId) -> SimDuration {
        let hops = self.topo.ring_hops(self.cluster, dst);
        self.cfg.ring_token_latency + self.cfg.ring_hop_latency * hops as u64
    }

    fn create_proc(
        &mut self,
        pid: ProcessId,
        node: NodeId,
        team: TeamId,
        body: Box<dyn Process>,
        now: SimTime,
    ) {
        assert!(
            node.index() < self.topo.total_nodes(),
            "process placed on nonexistent node {node}"
        );
        let idx = pid.raw() as usize;
        if self.procs.len() <= idx {
            self.procs.resize_with(idx + 1, || None);
        }
        let label = body.label();
        let prev = self.procs[idx].replace(Proc {
            node,
            team,
            body: Some(body),
            state: ProcState::Ready,
            mbox: VecDeque::new(),
            pending_sync: VecDeque::new(),
            mailbox_arrivals: VecDeque::new(),
            mailbox_active: false,
            pending_resume: Some(Resume::Start),
            compute_until: None,
            run_epoch: 0,
            preempted_compute: None,
        });
        assert!(prev.is_none(), "process {pid} created twice");
        self.ground_truth.register(pid, node, label, now);
        self.stats.processes_spawned += 1;
        if let Some(dir) = &self.directory {
            dir.write()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(pid.raw(), node);
        }
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle<S: Sched>(&mut self, sched: &mut S, ev: Ev) {
        self.events_handled += 1;
        self.now_local = sched.now();
        if self.halted {
            return;
        }
        match ev {
            Ev::Dispatch(node) => self.try_dispatch(sched, node),
            Ev::Started { node, lwp } => self.start_lwp(sched, node, lwp),
            Ev::ResumeRunning { pid, resume } => {
                debug_assert_eq!(self.proc(pid).state, ProcState::Running);
                self.step_process(sched, pid, resume);
            }
            Ev::ComputeDone { pid, epoch } => {
                // A stale epoch means the compute was preempted and will
                // complete under a later (rescheduled) event.
                if self.proc(pid).run_epoch == epoch {
                    debug_assert_eq!(self.proc(pid).state, ProcState::Running);
                    self.proc_mut(pid).compute_until = None;
                    self.step_process(sched, pid, Resume::ComputeDone);
                }
            }
            Ev::QuantumExpiry { pid, epoch } => self.quantum_expiry(sched, pid, epoch),
            Ev::Unblock { pid, resume } => self.unblock(sched, pid, resume),
            Ev::SyncArrive { dst, src, msg } => self.sync_arrive(sched, dst, src, msg),
            Ev::MailboxArrive { dst, src, msg } => self.mailbox_arrive(sched, dst, src, msg),
            Ev::SpawnReady { pid } => {
                let node = self.proc(pid).node;
                self.wake(sched, node, LwpId::User(pid));
            }
            Ev::MailboxServiced { owner, count } => self.mailbox_serviced(sched, owner, count),
            Ev::RingDeliver {
                dst,
                src,
                msg,
                mailbox,
            } => {
                // The message came off the ring at this cluster's
                // communication node; carry it over the local bus.
                let arrival =
                    self.interconnect
                        .ring_ingress(sched.now(), self.cluster, msg.bytes());
                let ev = if mailbox {
                    Ev::MailboxArrive { dst, src, msg }
                } else {
                    Ev::SyncArrive { dst, src, msg }
                };
                sched.schedule(arrival, ev);
            }
            Ev::RemoteSpawn {
                pid,
                node,
                team,
                ready_at,
                body,
            } => {
                let now = sched.now();
                self.create_proc(pid, node, team, body, now);
                sched.schedule(ready_at.max(now), Ev::SpawnReady { pid });
            }
            Ev::CondSignal { cond } => {
                if let Some(waiters) = self.conds.remove(&cond) {
                    for w in waiters {
                        self.unblock(sched, w, Resume::Signalled);
                    }
                }
            }
            Ev::HaltCluster => {
                self.halted = true;
                sched.halt_local();
            }
        }
    }

    /// The policy's view of one node's kernel state right now.
    fn node_ctx(&self, now: SimTime, node: NodeId) -> KernelCtx {
        KernelCtx {
            node,
            now,
            running: self.local_node(node).running,
        }
    }

    /// Marks `lwp` ready with the node's policy, lets preemptive
    /// policies seize the CPU for it, and dispatches if the CPU is
    /// free.
    fn wake<S: Sched>(&mut self, sched: &mut S, node: NodeId, lwp: LwpId) {
        let ctx = self.node_ctx(sched.now(), node);
        self.local_node_mut(node).sched.on_ready(lwp, &ctx);
        // Preemption is only honoured inside a timed compute section —
        // kernel sections and display emissions are atomic — and never
        // while a dispatch is already in flight (the `dispatching`
        // guard also protects the context-switch window).
        if let Some(running @ LwpId::User(owner)) = ctx.running {
            let computing = self.proc(owner).compute_until.is_some();
            let dispatching = self.local_node(node).dispatching;
            if computing
                && !dispatching
                && self.local_node_mut(node).sched.preempts(running, lwp, &ctx)
            {
                let code = if lwp.is_mailbox() {
                    PREEMPT_MAILBOX
                } else {
                    PREEMPT_WAKE
                };
                self.preempt(sched, owner, code);
                return;
            }
        }
        self.try_dispatch(sched, node);
    }

    /// Takes the CPU away from `pid` mid-compute: the remaining compute
    /// time is stashed and resumed at its next dispatch, and the victim
    /// re-enters the ready set through the policy.
    fn preempt<S: Sched>(&mut self, sched: &mut S, pid: ProcessId, code: u8) {
        let now = sched.now();
        let node = self.proc(pid).node;
        debug_assert_eq!(self.local_node(node).running, Some(LwpId::User(pid)));
        debug_assert!(!self.local_node(node).dispatching);
        let until = self
            .proc_mut(pid)
            .compute_until
            .take()
            .expect("preempting a process that is not computing");
        self.stats.preemptions += 1;
        if self.kernel_instrumented() {
            self.kernel_emit(
                now,
                node,
                crate::os_tokens::KERNEL_PREEMPT,
                crate::os_tokens::param(pid.raw(), code),
            );
        }
        {
            let p = self.proc_mut(pid);
            p.preempted_compute = Some(until.saturating_since(now));
            p.run_epoch = p.run_epoch.wrapping_add(1);
        }
        self.set_state(pid, ProcState::Ready, now);
        let ctx = self.node_ctx(now, node);
        self.local_node_mut(node)
            .sched
            .on_block(LwpId::User(pid), &ctx);
        self.local_node_mut(node).running = None;
        let ctx = self.node_ctx(now, node);
        self.local_node_mut(node)
            .sched
            .on_ready(LwpId::User(pid), &ctx);
        self.try_dispatch(sched, node);
    }

    /// A granted time slice ran out. Preempts only when the process is
    /// inside a compute section *and* someone else wants the CPU;
    /// otherwise the slice silently renews.
    fn quantum_expiry<S: Sched>(&mut self, sched: &mut S, pid: ProcessId, epoch: u32) {
        if self.proc(pid).run_epoch != epoch {
            return;
        }
        let node = self.proc(pid).node;
        if self.local_node(node).running != Some(LwpId::User(pid)) {
            return;
        }
        if self.proc(pid).compute_until.is_some() && self.local_node(node).sched.has_ready() {
            self.preempt(sched, pid, PREEMPT_QUANTUM);
            return;
        }
        let ctx = self.node_ctx(sched.now(), node);
        if let Some(q) = self
            .local_node_mut(node)
            .sched
            .time_slice(LwpId::User(pid), &ctx)
        {
            sched.schedule_in(q, Ev::QuantumExpiry { pid, epoch });
        }
    }

    fn try_dispatch<S: Sched>(&mut self, sched: &mut S, node: NodeId) {
        let ctx = self.node_ctx(sched.now(), node);
        let n = self.local_node_mut(node);
        if n.running.is_some() || n.dispatching {
            return;
        }
        let Some(lwp) = n.sched.pick_next(&ctx) else {
            return;
        };
        n.dispatching = true;
        self.stats.ctx_switches += 1;
        // Switch pricing (paper §2.2): cheap within a team, a full
        // address-space switch across teams.
        let next_team = self.proc(lwp.owner()).team;
        let n = self.local_node_mut(node);
        let same_team = n.last_team.is_none_or(|t| t == next_team);
        n.last_team = Some(next_team);
        let mut delay = if same_team {
            self.cfg.ctx_switch
        } else {
            self.stats.inter_team_switches += 1;
            self.cfg.ctx_switch_inter_team
        };
        if self.kernel_instrumented() {
            delay += self.cfg.kernel_event_cost;
            let code = u8::from(lwp.is_mailbox());
            self.kernel_emit(
                sched.now(),
                node,
                crate::os_tokens::KERNEL_DISPATCH,
                crate::os_tokens::param(lwp.owner().raw(), code),
            );
        }
        sched.schedule_in(delay, Ev::Started { node, lwp });
    }

    fn start_lwp<S: Sched>(&mut self, sched: &mut S, node: NodeId, lwp: LwpId) {
        let n = self.local_node_mut(node);
        n.dispatching = false;
        n.running = Some(lwp);
        match lwp {
            LwpId::User(pid) => {
                let now = sched.now();
                self.set_state(pid, ProcState::Running, now);
                let epoch = {
                    let p = self.proc_mut(pid);
                    p.run_epoch = p.run_epoch.wrapping_add(1);
                    p.run_epoch
                };
                let ctx = self.node_ctx(now, node);
                self.local_node_mut(node).sched.on_run(lwp, &ctx);
                if let Some(q) = self.local_node_mut(node).sched.time_slice(lwp, &ctx) {
                    sched.schedule_in(q, Ev::QuantumExpiry { pid, epoch });
                }
                if let Some(remaining) = self.proc_mut(pid).preempted_compute.take() {
                    // Resume the interrupted compute section without
                    // calling back into the process body.
                    self.proc_mut(pid).compute_until = Some(now + remaining);
                    sched.schedule_in(remaining, Ev::ComputeDone { pid, epoch });
                } else {
                    let resume = self
                        .proc_mut(pid)
                        .pending_resume
                        .take()
                        .expect("dispatched process has no pending resume");
                    self.step_process(sched, pid, resume);
                }
            }
            LwpId::Mailbox(owner) => {
                let ctx = self.node_ctx(sched.now(), node);
                self.local_node_mut(node).sched.on_run(lwp, &ctx);
                // The mailbox process accepts every message waiting right
                // now; later arrivals wait for its next scheduling.
                let count = self.proc(owner).mailbox_arrivals.len();
                if self.kernel_instrumented() {
                    self.kernel_emit(
                        sched.now(),
                        node,
                        crate::os_tokens::KERNEL_MAILBOX_SERVICE,
                        crate::os_tokens::param(owner.raw(), count.min(255) as u8),
                    );
                }
                self.stats.mailbox_services += 1;
                let busy = self.cfg.mailbox_accept_cost * count.max(1) as u64;
                sched.schedule_in(busy, Ev::MailboxServiced { owner, count });
            }
        }
    }

    /// Releases a blocked sender once its message was accepted. Senders
    /// on another cluster get their ack over the ring.
    fn send_ack<S: Sched>(&mut self, sched: &mut S, src: ProcessId) {
        let now = sched.now();
        let ev = Ev::Unblock {
            pid: src,
            resume: Resume::Sent,
        };
        let src_cluster = self.topo.cluster_of(self.target_node(src));
        if src_cluster == self.cluster {
            sched.schedule(now + self.cfg.ack_latency, ev);
        } else {
            let at = now + self.cfg.ack_latency + self.ring_delay(src_cluster);
            sched.send_cluster(src_cluster, at, ev);
        }
    }

    fn mailbox_serviced<S: Sched>(&mut self, sched: &mut S, owner: ProcessId, count: usize) {
        let node = self.proc(owner).node;
        for _ in 0..count {
            let (src, msg) = self
                .proc_mut(owner)
                .mailbox_arrivals
                .pop_front()
                .expect("mailbox service count exceeds arrivals");
            self.stats.mailbox_messages += 1;
            // Accepting the message releases the (still blocked) sender.
            self.send_ack(sched, src);
            // Hand to the owner: directly if it is waiting, else queue.
            let owner_proc = self.proc_mut(owner);
            let waiting = owner_proc.state == ProcState::Blocked(BlockReason::MailboxRecv)
                && owner_proc.pending_resume.is_none();
            if waiting {
                self.unblock(sched, owner, Resume::MailboxMsg(msg));
            } else {
                owner_proc.mbox.push_back(msg);
            }
        }
        // Mailbox LWP blocks again (it is "always in a receive state").
        let now = sched.now();
        let ctx = self.node_ctx(now, node);
        {
            let n = self.local_node_mut(node);
            n.sched.on_block(LwpId::Mailbox(owner), &ctx);
            n.running = None;
        }
        // Messages that arrived during servicing require another round.
        let owner_proc = self.proc_mut(owner);
        owner_proc.mailbox_active = !owner_proc.mailbox_arrivals.is_empty();
        if owner_proc.mailbox_active {
            let ctx = self.node_ctx(now, node);
            self.local_node_mut(node)
                .sched
                .on_ready(LwpId::Mailbox(owner), &ctx);
        }
        self.try_dispatch(sched, node);
    }

    fn sync_arrive<S: Sched>(
        &mut self,
        sched: &mut S,
        dst: ProcessId,
        src: ProcessId,
        msg: Message,
    ) {
        let dst_proc = self.proc_mut(dst);
        assert!(
            dst_proc.state != ProcState::Exited,
            "synchronous message to exited process {dst}"
        );
        let waiting = dst_proc.state == ProcState::Blocked(BlockReason::Recv)
            && dst_proc.pending_resume.is_none();
        if waiting {
            self.complete_rendezvous(sched, dst, src, msg);
        } else {
            dst_proc.pending_sync.push_back((src, msg));
        }
    }

    fn complete_rendezvous<S: Sched>(
        &mut self,
        sched: &mut S,
        dst: ProcessId,
        src: ProcessId,
        msg: Message,
    ) {
        self.stats.sync_messages += 1;
        self.send_ack(sched, src);
        self.unblock(sched, dst, Resume::Msg(msg));
    }

    fn mailbox_arrive<S: Sched>(
        &mut self,
        sched: &mut S,
        dst: ProcessId,
        src: ProcessId,
        msg: Message,
    ) {
        let dst_proc = self.proc_mut(dst);
        assert!(
            dst_proc.state != ProcState::Exited,
            "mailbox message to exited process {dst}"
        );
        let node = dst_proc.node;
        dst_proc.mailbox_arrivals.push_back((src, msg));
        // Wake the mailbox LWP; under the stock policy it still has to
        // *win the CPU* before the sender is released — the crux of the
        // paper's observation. A preemptive policy may seize the CPU
        // for it here instead, which is exactly the transition that
        // breaks the effective-synchrony property.
        if !std::mem::replace(&mut dst_proc.mailbox_active, true) {
            self.wake(sched, node, LwpId::Mailbox(dst));
        } else {
            self.try_dispatch(sched, node);
        }
    }

    fn unblock<S: Sched>(&mut self, sched: &mut S, pid: ProcessId, resume: Resume) {
        let now = sched.now();
        let proc = self.proc_mut(pid);
        debug_assert!(
            matches!(proc.state, ProcState::Blocked(_)),
            "unblock of non-blocked process {pid} in state {:?}",
            proc.state
        );
        debug_assert!(proc.pending_resume.is_none(), "double unblock of {pid}");
        proc.pending_resume = Some(resume);
        let node = proc.node;
        self.set_state(pid, ProcState::Ready, now);
        self.wake(sched, node, LwpId::User(pid));
    }

    fn set_state(&mut self, pid: ProcessId, state: ProcState, now: SimTime) {
        self.proc_mut(pid).state = state;
        self.ground_truth.record(pid, now, state);
    }

    /// Runs one process forward until it issues an action that takes
    /// simulated time or blocks.
    fn step_process<S: Sched>(&mut self, sched: &mut S, pid: ProcessId, mut resume: Resume) {
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(
                guard < MAX_ZERO_COST_ACTIONS,
                "process {pid} loops through zero-cost actions without blocking"
            );
            let now = sched.now();
            let node = self.proc(pid).node;
            let ctx = ProcCtx { pid, node, now };
            let action = {
                let body = self
                    .proc_mut(pid)
                    .body
                    .as_mut()
                    .expect("resuming an exited process");
                body.resume(&ctx, resume)
            };
            match action {
                Action::Compute(d) => {
                    self.intrusion.record_application(d);
                    let epoch = self.proc(pid).run_epoch;
                    self.proc_mut(pid).compute_until = Some(now + d);
                    sched.schedule_in(d, Ev::ComputeDone { pid, epoch });
                    return;
                }
                Action::Emit { token, param } => {
                    if let Some(cost) = self.emit(now, node, token, param) {
                        sched.schedule_in(
                            cost,
                            Ev::ResumeRunning {
                                pid,
                                resume: Resume::EmitDone,
                            },
                        );
                        return;
                    }
                    resume = Resume::EmitDone;
                }
                Action::SendSync { to, msg } => {
                    self.block(sched, pid, BlockReason::SendSync);
                    self.route_message(sched, now, node, pid, to, msg, false);
                    return;
                }
                Action::Recv => match self.proc_mut(pid).pending_sync.pop_front() {
                    Some((src, msg)) => {
                        self.stats.sync_messages += 1;
                        self.send_ack(sched, src);
                        resume = Resume::Msg(msg);
                    }
                    None => {
                        self.block(sched, pid, BlockReason::Recv);
                        return;
                    }
                },
                Action::MailboxSend { to, msg } => {
                    self.block(sched, pid, BlockReason::MailboxSend);
                    self.route_message(sched, now, node, pid, to, msg, true);
                    return;
                }
                Action::MailboxRecv => match self.proc_mut(pid).mbox.pop_front() {
                    Some(msg) => resume = Resume::MailboxMsg(msg),
                    None => {
                        self.block(sched, pid, BlockReason::MailboxRecv);
                        return;
                    }
                },
                Action::Yield => {
                    let now = sched.now();
                    self.set_state(pid, ProcState::Ready, now);
                    self.proc_mut(pid).pending_resume = Some(Resume::Yielded);
                    let ctx = self.node_ctx(now, node);
                    {
                        let n = self.local_node_mut(node);
                        n.sched.on_block(LwpId::User(pid), &ctx);
                        n.running = None;
                    }
                    let ctx = self.node_ctx(now, node);
                    self.local_node_mut(node)
                        .sched
                        .on_ready(LwpId::User(pid), &ctx);
                    self.try_dispatch(sched, node);
                    return;
                }
                Action::Sleep(d) => {
                    self.block(sched, pid, BlockReason::Sleep);
                    sched.schedule_in(
                        d,
                        Ev::Unblock {
                            pid,
                            resume: Resume::Slept,
                        },
                    );
                    return;
                }
                Action::Spawn { node: target, body } => {
                    assert!(
                        target.index() < self.topo.total_nodes(),
                        "process placed on nonexistent node {target}"
                    );
                    let target_cluster = self.topo.cluster_of(target);
                    let child = if target_cluster == self.cluster {
                        // Processes spawned on the spawner's node join its
                        // team (light-weight); remote spawns start new teams.
                        let team = if target == node {
                            self.proc(pid).team
                        } else {
                            self.alloc_team()
                        };
                        let child = self.alloc_pid();
                        self.create_proc(child, target, team, body, now);
                        if target == node {
                            // The spawner keeps the CPU (it is mid-spawn,
                            // not computing), so the child just joins the
                            // ready set.
                            let ctx = self.node_ctx(now, target);
                            self.local_node_mut(target)
                                .sched
                                .on_ready(LwpId::User(child), &ctx);
                        } else {
                            sched.schedule_in(
                                self.cfg.remote_spawn_latency,
                                Ev::SpawnReady { pid: child },
                            );
                        }
                        child
                    } else {
                        // Cross-cluster spawn: the request rides the ring
                        // to the target partition, which creates the
                        // process on arrival. The pid is minted here, from
                        // this cluster's namespace, so the spawner can
                        // address the child immediately.
                        let team = self.alloc_team();
                        let child = self.alloc_pid();
                        if let Some(dir) = &self.directory {
                            dir.write()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .insert(child.raw(), target);
                        }
                        let at = now + self.ring_delay(target_cluster);
                        sched.send_cluster(
                            target_cluster,
                            at,
                            Ev::RemoteSpawn {
                                pid: child,
                                node: target,
                                team,
                                ready_at: now + self.cfg.remote_spawn_latency,
                                body,
                            },
                        );
                        child
                    };
                    self.intrusion.record_application(self.cfg.spawn_cost);
                    sched.schedule_in(
                        self.cfg.spawn_cost,
                        Ev::ResumeRunning {
                            pid,
                            resume: Resume::Spawned(child),
                        },
                    );
                    return;
                }
                Action::DiskWrite { bytes } => {
                    self.block(sched, pid, BlockReason::Disk);
                    // The write travels over the cluster bus to the disk
                    // node, then streams to disk.
                    let cluster = self.topo.cluster_of(node);
                    let arrival = self.interconnect.transfer(
                        now,
                        node,
                        Route::IntraCluster { cluster },
                        bytes,
                    );
                    let write = self.cfg.disk_latency
                        + SimDuration::for_transfer(bytes as u64, self.cfg.disk_bandwidth);
                    sched.schedule(
                        arrival + write,
                        Ev::Unblock {
                            pid,
                            resume: Resume::DiskDone,
                        },
                    );
                    return;
                }
                Action::WaitCond(cond) => {
                    self.conds.entry(cond).or_default().push(pid);
                    self.block(sched, pid, BlockReason::Cond);
                    return;
                }
                Action::SignalCond(cond) => {
                    if let Some(waiters) = self.conds.remove(&cond) {
                        for w in waiters {
                            self.unblock(sched, w, Resume::Signalled);
                        }
                    }
                    // Condition variables are machine-global: waiters on
                    // other clusters learn of the signal one ring
                    // rotation later.
                    if self.clusters > 1 {
                        for c in 0..self.clusters as u8 {
                            let c = ClusterId::new(c);
                            if c == self.cluster {
                                continue;
                            }
                            let at = now + self.ring_delay(c);
                            sched.send_cluster(c, at, Ev::CondSignal { cond });
                        }
                    }
                    resume = Resume::SignalSent;
                }
                Action::Exit => {
                    let now = sched.now();
                    if self.kernel_instrumented() {
                        self.kernel_emit(
                            now,
                            node,
                            crate::os_tokens::KERNEL_EXIT,
                            crate::os_tokens::param(pid.raw(), 0),
                        );
                    }
                    self.set_state(pid, ProcState::Exited, now);
                    self.proc_mut(pid).body = None;
                    let ctx = self.node_ctx(now, node);
                    {
                        let n = self.local_node_mut(node);
                        n.sched.on_block(LwpId::User(pid), &ctx);
                        n.running = None;
                    }
                    if Some(pid) == self.initial {
                        // Termination of the initial process terminates
                        // the whole application (paper §2.2).
                        self.halted = true;
                        sched.halt_local();
                        if self.clusters > 1 {
                            for c in 0..self.clusters as u8 {
                                let c = ClusterId::new(c);
                                if c == self.cluster {
                                    continue;
                                }
                                sched.send_cluster(c, now + self.ring_delay(c), Ev::HaltCluster);
                            }
                        }
                        return;
                    }
                    self.try_dispatch(sched, node);
                    return;
                }
            }
        }
    }

    /// Delivers a blocking send: over the local interconnect for
    /// intra-cluster destinations, over the token ring (a cross-shard
    /// event) otherwise.
    #[allow(clippy::too_many_arguments)]
    fn route_message<S: Sched>(
        &mut self,
        sched: &mut S,
        now: SimTime,
        node: NodeId,
        src: ProcessId,
        dst: ProcessId,
        msg: Message,
        mailbox: bool,
    ) {
        let dst_node = self.target_node(dst);
        match self.topo.route(node, dst_node) {
            Route::InterCluster {
                src_cluster,
                dst_cluster,
                ring_hops,
            } => {
                debug_assert_eq!(src_cluster, self.cluster);
                let handoff = self.interconnect.inter_cluster_egress(
                    now,
                    node,
                    src_cluster,
                    ring_hops,
                    msg.bytes(),
                );
                sched.send_cluster(
                    dst_cluster,
                    handoff,
                    Ev::RingDeliver {
                        dst,
                        src,
                        msg,
                        mailbox,
                    },
                );
            }
            route => {
                let arrival = self.interconnect.transfer(now, node, route, msg.bytes());
                let ev = if mailbox {
                    Ev::MailboxArrive { dst, src, msg }
                } else {
                    Ev::SyncArrive { dst, src, msg }
                };
                sched.schedule(arrival, ev);
            }
        }
    }

    fn block<S: Sched>(&mut self, sched: &mut S, pid: ProcessId, reason: BlockReason) {
        let now = sched.now();
        self.set_state(pid, ProcState::Blocked(reason), now);
        let node = self.proc(pid).node;
        if self.kernel_instrumented() {
            self.kernel_emit(
                now,
                node,
                crate::os_tokens::KERNEL_BLOCK,
                crate::os_tokens::param(pid.raw(), crate::os_tokens::reason_code(reason)),
            );
        }
        let ctx = self.node_ctx(now, node);
        {
            let n = self.local_node_mut(node);
            n.sched.on_block(LwpId::User(pid), &ctx);
            n.running = None;
        }
        self.try_dispatch(sched, node);
    }

    fn kernel_instrumented(&self) -> bool {
        self.cfg.kernel_instrumentation && self.cfg.monitoring == MonitoringMode::Hybrid
    }

    /// Emits a kernel-instrumentation event on `node`'s display. Called
    /// only from contexts where the kernel owns the CPU (dispatch,
    /// mailbox service, the tail of a running process), so the pattern
    /// sequence never interleaves with an application event.
    fn kernel_emit(&mut self, now: SimTime, node: NodeId, token: u16, param: u32) {
        self.stats.kernel_events += 1;
        let spacing = (self.cfg.kernel_event_cost / EmissionRecord::write_count() as u64)
            .max(SimDuration::from_nanos(100));
        self.display_emit(now, node, spacing, token, param);
    }

    /// Writes one event's pattern sequence to `node`'s display, recorded
    /// as one compact [`EmissionRecord`]; [`EmissionRecord::writes`]
    /// expands it into the 32 pattern writes.
    fn display_emit(
        &mut self,
        now: SimTime,
        node: NodeId,
        spacing: SimDuration,
        token: u16,
        param: u32,
    ) {
        // Serialize per node: two events fired at the same instant
        // (e.g. a block immediately followed by the next dispatch) must
        // not interleave their pattern pairs on the display.
        let idx = self.local_idx(node);
        let start = now.max(self.kernel_display_free[idx]);
        self.emissions.push(EmissionRecord {
            start,
            spacing,
            node,
            token,
            param,
        });
        self.kernel_display_free[idx] =
            start + spacing * (EmissionRecord::write_count() as u64 + 1);
    }

    /// Performs the configured monitoring technique's output for one
    /// instrumentation call. Returns the CPU cost, or `None` when the
    /// call is free (monitoring off).
    fn emit(&mut self, now: SimTime, node: NodeId, token: u16, param: u32) -> Option<SimDuration> {
        self.stats.events_emitted += 1;
        let event = MonEvent::new(token, param);
        match self.cfg.monitoring {
            MonitoringMode::Off => None,
            MonitoringMode::Hybrid => {
                let cost = self.cfg.monitor_costs.hybrid_call;
                // The per-node display serializer keeps application
                // pattern pairs from interleaving with kernel-event pairs
                // emitted during the preceding context switch.
                let spacing = self.cfg.monitor_costs.hybrid_write_spacing();
                self.display_emit(now, node, spacing, token, param);
                self.intrusion.record_event(cost);
                Some(cost)
            }
            MonitoringMode::Terminal => {
                let cost = self.cfg.monitor_costs.terminal_transfer
                    + self.cfg.monitor_costs.terminal_ctx_switch;
                let raw = event.raw48();
                let bytes: [u8; 6] = [
                    (raw >> 40) as u8,
                    (raw >> 32) as u8,
                    (raw >> 24) as u8,
                    (raw >> 16) as u8,
                    (raw >> 8) as u8,
                    raw as u8,
                ];
                let spacing = self.cfg.monitor_costs.terminal_transfer / 6;
                let start = now + self.cfg.monitor_costs.terminal_ctx_switch;
                for (i, b) in bytes.into_iter().enumerate() {
                    self.terminal.push(TerminalWrite {
                        time: start + spacing * (i as u64 + 1),
                        node,
                        byte: b,
                    });
                }
                self.intrusion.record_event(cost);
                Some(cost)
            }
            MonitoringMode::Software => {
                let cost = self.cfg.monitor_costs.software_call;
                let idx = self.local_idx(node);
                self.software[idx].record(now, event);
                self.intrusion.record_event(cost);
                if cost.is_zero() {
                    None
                } else {
                    Some(cost)
                }
            }
        }
    }
}

/// Merges the partitions' emission runs (in cluster order) into one:
/// repeatedly takes the head with the earliest last write, ties going to
/// the lower cluster. Each run keeps its order, so each node's records
/// keep theirs, and the monitor's stable `(time, channel)` request sort
/// reads the same measurement as from the runs concatenated. But
/// concatenated, each run after the first spends the request sort's
/// insertion budget and hands the rest to the library sort; merged, the
/// stream stays nearly sorted. The merge goes away with the per-cluster
/// partitions, once every machine runs on one engine.
fn merge_emission_runs(runs: Vec<Vec<EmissionRecord>>) -> Vec<EmissionRecord> {
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut heads = vec![0; runs.len()];
    while let Some((_, c)) = runs
        .iter()
        .zip(&heads)
        .enumerate()
        .filter_map(|(c, (run, &i))| Some((run.get(i)?.last_write_at(), c)))
        .min()
    {
        merged.push(runs[c][heads[c]]);
        heads[c] += 1;
    }
    merged
}

/// A simulated SUPRENUM machine.
///
/// # Examples
///
/// ```
/// use des::time::{SimDuration, SimTime};
/// use suprenum::{Action, Machine, MachineConfig, NodeId, ProcCtx, Process, Resume, RunEnd};
///
/// struct Busy(u8);
/// impl Process for Busy {
///     fn resume(&mut self, _ctx: &ProcCtx, _why: Resume) -> Action {
///         self.0 += 1;
///         if self.0 == 1 {
///             Action::Compute(SimDuration::from_millis(3))
///         } else {
///             Action::Exit
///         }
///     }
/// }
///
/// let mut machine = Machine::new(MachineConfig::single_cluster(2), 42).unwrap();
/// machine.add_process(NodeId::new(0), Box::new(Busy(0)));
/// let outcome = machine.run(SimTime::from_secs(1));
/// assert_eq!(outcome.reason, RunEnd::Completed);
/// assert!(outcome.end >= SimTime::from_millis(3));
/// ```
pub struct Machine {
    cfg: MachineConfig,
    topo: Topology,
    parts: Vec<Partition>,
    engine: Engine,
    /// Worker threads the per-cluster engine shards are packed onto
    /// (presentation only — never affects the logical schedule).
    engine_shards: usize,
    /// The signal log, expanded from the emissions on first read and
    /// dropped whenever the machine runs again.
    signals: OnceCell<SignalLog>,
    /// End time of the latest sharded run chunk.
    last_end: SimTime,
    initial: Option<ProcessId>,
    initial_cluster: usize,
    /// Set once a sharded run's partitions were merged for reporting;
    /// a merged machine cannot be run again.
    merged: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let processes: usize = self
            .parts
            .iter()
            .map(|p| p.procs.iter().filter(|s| s.is_some()).count())
            .sum();
        f.debug_struct("Machine")
            .field("nodes", &self.topo.total_nodes())
            .field("processes", &processes)
            .field("now", &self.now())
            .field("halted", &self.parts[self.initial_cluster].halted)
            .finish()
    }
}

impl Machine {
    /// Builds a machine from a configuration and a determinism seed.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error if it is inconsistent.
    pub fn new(cfg: MachineConfig, seed: u64) -> Result<Self, crate::config::ConfigError> {
        cfg.validate()?;
        let topo = Topology::new(&cfg);
        let rng = DetRng::new(seed);
        let mut software: VecDeque<SoftwareMonitor> = topo
            .nodes()
            .map(|n| {
                let mut node_rng = rng.derive_indexed("node-clock", n.index() as u64);
                let clock = ClockModel::random_skew(
                    &mut node_rng,
                    cfg.node_clock_max_offset,
                    cfg.node_clock_max_drift_ppm,
                    cfg.node_clock_resolution,
                );
                SoftwareMonitor::new(clock, cfg.software_buffer_capacity)
            })
            .collect();
        let multi = topo.clusters() > 1;
        let directory = multi.then(|| Arc::new(RwLock::new(HashMap::new())));
        let npc = topo.nodes_per_cluster() as usize;
        let parts: Vec<Partition> = (0..topo.clusters())
            .map(|c| {
                let cluster = ClusterId::new(c);
                let first_node = topo.first_node(cluster).index();
                Partition {
                    cluster,
                    first_node,
                    clusters: topo.clusters() as u32,
                    cfg: cfg.clone(),
                    topo: topo.clone(),
                    interconnect: Interconnect::new(&cfg, &topo),
                    procs: Vec::new(),
                    // Each node owns one policy instance; fuzz policies
                    // draw from a stream derived from the machine seed
                    // and the *global* node index, so perturbations are
                    // independent of the cluster decomposition.
                    nodes: (0..npc)
                        .map(|i| {
                            let global = first_node as u64 + i as u64;
                            Node::new(cfg.scheduler.build(rng.derive_indexed("sched", global)))
                        })
                        .collect(),
                    conds: HashMap::new(),
                    terminal: Vec::new(),
                    ground_truth: GroundTruth::new(),
                    intrusion: IntrusionReport::default(),
                    software: software.drain(..npc).collect(),
                    stats: KernelStats::default(),
                    kernel_display_free: vec![SimTime::ZERO; npc],
                    emissions: Vec::new(),
                    next_pid: 0,
                    next_team: 0,
                    initial: None,
                    halted: false,
                    events_handled: 0,
                    now_local: SimTime::ZERO,
                    directory: directory.clone(),
                }
            })
            .collect();
        let engine = if multi {
            let lookahead = cfg.ring_token_latency + cfg.ring_hop_latency;
            Engine::Sharded(ShardedEventLoop::new(topo.clusters() as usize, lookahead))
        } else {
            Engine::Seq(EventLoop::new())
        };
        Ok(Machine {
            cfg,
            topo,
            parts,
            engine,
            engine_shards: 1,
            signals: OnceCell::new(),
            last_end: SimTime::ZERO,
            initial: None,
            initial_cluster: 0,
            merged: false,
        })
    }

    /// Adds a root process on `node` before the run starts. The first
    /// process added is the application's *initial process*: its exit
    /// terminates the whole application (paper §2.2).
    ///
    /// # Panics
    ///
    /// Panics if called after [`run`](Self::run) or if `node` is out of
    /// range.
    pub fn add_process(&mut self, node: NodeId, body: Box<dyn Process>) -> ProcessId {
        assert!(
            node.index() < self.topo.total_nodes(),
            "process placed on nonexistent node {node}"
        );
        assert!(
            self.now() == SimTime::ZERO && !self.parts.iter().any(|p| p.halted),
            "add_process before run"
        );
        let c = self.topo.cluster_of(node).index() as usize;
        let part = &mut self.parts[c];
        let team = part.alloc_team();
        let pid = part.alloc_pid();
        part.create_proc(pid, node, team, body, SimTime::ZERO);
        if self.initial.is_none() {
            self.initial = Some(pid);
            self.initial_cluster = c;
            for p in &mut self.parts {
                p.initial = Some(pid);
            }
        }
        let ctx = self.parts[c].node_ctx(SimTime::ZERO, node);
        self.parts[c]
            .local_node_mut(node)
            .sched
            .on_ready(LwpId::User(pid), &ctx);
        pid
    }

    /// Sets how many worker threads a multi-cluster machine's engine
    /// shards are packed onto. The logical shards are always the
    /// clusters; this only controls physical parallelism, so traces are
    /// bit-identical for every value. One thread (the default) runs the
    /// windowed algorithm inline; single-cluster machines ignore this
    /// and stay on the plain sequential loop.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn set_engine_shards(&mut self, shards: usize) {
        assert!(shards >= 1, "engine shards must be nonzero");
        self.engine_shards = shards;
    }

    /// The sharded engine's execution profile — `None` on a
    /// single-cluster machine, which runs the plain sequential loop.
    /// Available after (or during) a run; all counters are
    /// deterministic, so the profile is part of the reproducible
    /// record of a shape, not a wall-clock measurement.
    pub fn engine_profile(&self) -> Option<EngineProfile> {
        match &self.engine {
            Engine::Seq(_) => None,
            Engine::Sharded(eng) => Some(EngineProfile {
                epochs: eng.epochs(),
                shard_events: eng.shard_steps(),
            }),
        }
    }

    /// Runs the application until it terminates, deadlocks, or reaches
    /// `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if no process was added.
    pub fn run(&mut self, horizon: SimTime) -> RunOutcome {
        self.run_budgeted(horizon, u64::MAX)
    }

    /// Like [`run`](Self::run) but also bounded by an event budget. On
    /// a multi-cluster machine the budget is enforced at epoch
    /// granularity, so slightly more events than `max_events` may run.
    pub fn run_budgeted(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        let (horizon, limited) = self.start_run(horizon);
        // A resumed run appends emissions; the next read re-expands.
        self.signals.take();
        match self.engine {
            Engine::Seq(_) => {
                let stop = self.run_chunk_seq(horizon, max_events);
                self.finish_seq(stop, limited)
            }
            Engine::Sharded(_) => {
                let stop = self.run_multi(horizon, max_events);
                self.finish_multi(stop, limited)
            }
        }
    }

    /// Applies the job time limit and, on the first run, kicks every
    /// node with ready work. A resumed run continues from the events it
    /// left queued.
    fn start_run(&mut self, horizon: SimTime) -> (SimTime, bool) {
        assert!(self.initial.is_some(), "machine has no processes");
        // The operator's job time limit releases the partition even if
        // the application has not finished.
        let release_at = self.cfg.job_time_limit.map(|l| SimTime::ZERO + l);
        let (horizon, limited) = match release_at {
            Some(r) if r < horizon => (r, true),
            _ => (horizon, false),
        };
        let resumed = match &self.engine {
            Engine::Seq(sim) => sim.events_scheduled() > 0,
            Engine::Sharded(eng) => eng.events_scheduled() > 0,
        };
        if resumed {
            return (horizon, limited);
        }
        for n in self.topo.nodes() {
            let c = self.topo.cluster_of(n).index() as usize;
            if !self.parts[c].local_node(n).sched.has_ready() {
                continue;
            }
            match &mut self.engine {
                Engine::Seq(sim) => sim.schedule(SimTime::ZERO, Ev::Dispatch(n)),
                Engine::Sharded(eng) => eng.schedule(c, SimTime::ZERO, Ev::Dispatch(n)),
            }
        }
        (horizon, limited)
    }

    /// Handles up to `max_events` events on the sequential engine
    /// (resumable).
    fn run_chunk_seq(&mut self, horizon: SimTime, max_events: u64) -> StopReason {
        let Engine::Seq(sim) = &mut self.engine else {
            unreachable!("run_chunk_seq on a sharded engine");
        };
        let part = &mut self.parts[0];
        sim.run_bounded(horizon, max_events, |sim, _now, ev| {
            part.handle(&mut SeqSched { sim }, ev);
        })
    }

    /// Runs the sharded engine: every partition advances in lockstep
    /// lookahead windows, `engine_shards` worker threads wide.
    fn run_multi(&mut self, horizon: SimTime, max_events: u64) -> StopReason {
        assert!(
            !self.merged,
            "a multi-cluster machine cannot run again after it finished"
        );
        let threads = self.engine_shards;
        let Engine::Sharded(eng) = &mut self.engine else {
            unreachable!("run_multi on a sequential engine");
        };
        let parts = &mut self.parts;
        let stop = eng.run_threaded(
            parts,
            horizon,
            max_events,
            threads,
            |part: &mut Partition, ctx, _now, ev| part.handle(&mut ShardSched { ctx }, ev),
        );
        let end = parts
            .iter()
            .map(|p| p.now_local)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.last_end = self.last_end.max(end);
        stop
    }

    /// Folds the stop reason into the outcome (sequential engine).
    fn finish_seq(&mut self, stop: StopReason, limited: bool) -> RunOutcome {
        let part = &self.parts[0];
        let reason = if part.halted {
            RunEnd::Completed
        } else {
            Self::stop_reason(stop, limited)
        };
        let Engine::Seq(sim) = &self.engine else {
            unreachable!("finish_seq on a sharded engine");
        };
        RunOutcome {
            end: sim.now(),
            reason,
            events: sim.steps_handled(),
        }
    }

    /// Merges every partition's state into partition 0 for reporting and
    /// folds the stop reason into the outcome (sharded engine).
    fn finish_multi(&mut self, stop: StopReason, limited: bool) -> RunOutcome {
        if !self.merged {
            self.merged = true;
            let runs: Vec<_> = self
                .parts
                .iter_mut()
                .map(|p| std::mem::take(&mut p.emissions))
                .collect();
            self.parts[0].emissions = merge_emission_runs(runs);
            let (first, rest) = self.parts.split_at_mut(1);
            let p0 = &mut first[0];
            for p in rest {
                p0.terminal.append(&mut p.terminal);
                p0.ground_truth.absorb(&mut p.ground_truth);
                let intr = std::mem::take(&mut p.intrusion);
                p0.intrusion.events += intr.events;
                p0.intrusion.total_intrusion += intr.total_intrusion;
                p0.intrusion.total_application += intr.total_application;
                p0.stats.merge(std::mem::take(&mut p.stats));
                p0.interconnect.merge_stats(p.interconnect.take_stats());
                p0.software.append(&mut p.software);
                p0.events_handled += std::mem::take(&mut p.events_handled);
            }
        }
        let completed = self.parts[self.initial_cluster].halted;
        let reason = if completed {
            RunEnd::Completed
        } else {
            Self::stop_reason(stop, limited)
        };
        RunOutcome {
            end: self.last_end,
            reason,
            events: self.parts[0].events_handled,
        }
    }

    fn stop_reason(stop: StopReason, limited: bool) -> RunEnd {
        match stop {
            StopReason::Drained => RunEnd::Deadlock,
            StopReason::Horizon if limited => RunEnd::ResourcesReleased,
            StopReason::Horizon => RunEnd::Horizon,
            StopReason::StepBudget => RunEnd::EventBudget,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The configuration the machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match &self.engine {
            Engine::Seq(sim) => sim.now(),
            Engine::Sharded(_) => self.last_end,
        }
    }

    /// Every hybrid-monitoring display emission of the run, one compact
    /// record per event, in emission order. On a multi-cluster machine
    /// each cluster's partition emits one run, and the runs are merged
    /// after the run by last write time, ties going to the lower
    /// cluster, so the records are nearly sorted by
    /// [`EmissionRecord::last_write_at`]. Per node the records
    /// are in strictly increasing time order and never overlap — the
    /// display serializer starts an emission only after the previous
    /// one's 32 writes (plus one spacing) — so each record is exactly
    /// one decodable event.
    pub fn emissions(&self) -> &[EmissionRecord] {
        &self.parts[0].emissions
    }

    /// Externally observable hardware signals (display, terminal), each
    /// stream in global time order. The display writes are expanded
    /// from [`emissions`](Self::emissions) on the first call after a
    /// run — millions of writes on a paper-scale run, so hot paths read
    /// the emissions instead.
    pub fn signals(&self) -> &SignalLog {
        self.signals.get_or_init(|| {
            let part = &self.parts[0];
            SignalLog::from_streams(
                part.emissions.iter().flat_map(EmissionRecord::writes),
                part.terminal.iter().copied(),
            )
        })
    }

    /// True process-state history (the validation oracle).
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.parts[0].ground_truth
    }

    /// Monitoring intrusion accounting.
    pub fn intrusion(&self) -> &IntrusionReport {
        &self.parts[0].intrusion
    }

    /// Per-node software-monitoring logs (populated when
    /// [`MonitoringMode::Software`] is configured).
    pub fn software_monitors(&self) -> &[SoftwareMonitor] {
        &self.parts[0].software
    }

    /// Kernel counters.
    pub fn stats(&self) -> KernelStats {
        self.parts[0].stats
    }

    /// Interconnect counters.
    pub fn interconnect_stats(&self) -> InterconnectStats {
        self.parts[0].interconnect.stats()
    }
}
