//! The second stock workload: SPMD Jacobi relaxation.
//!
//! The paper's machine hosted more than ray tracers — its reference
//! \[2\] solves the neutron diffusion equation with parallel conjugate
//! gradients on SUPRENUM. This module implements the archetype of that
//! workload class: a one-dimensional Jacobi relaxation over a chain of
//! workers, each owning a strip of cells and exchanging boundary values
//! with its neighbours every iteration.
//!
//! The point is to show that the monitoring toolkit is
//! application-agnostic: the same `hybrid_mon` instrumentation, ZM4
//! observation and SIMPLE evaluation reveal this program's
//! compute/exchange alternation (the classic BSP stripe pattern) exactly
//! as they revealed the ray tracer's master/servant cycles. The numerics
//! are real — the distributed result is checked against a sequential
//! reference.
//!
//! [`JacobiConfig`] implements [`Workload`], so the whole monitor stack
//! — pre-flight lints, ZM4 observation, happens-before verification,
//! sweep records — applies unchanged: run it with
//! [`crate::run_workload`].

use std::sync::{Arc, Mutex};

use des::time::SimDuration;
use simple::{channel_activity, ActivityModel, Trace};
use suprenum::{Action, Machine, Message, NodeId, ProcCtx, Process, ProcessId, Resume};

use crate::{Harvest, OrderEdge, RunMetrics, TokenDecl, Workload};

/// Worker: "Exchange" phase begins.
pub const EXCHANGE_BEGIN: u16 = 0x0401;
/// Worker: "Compute" phase begins.
pub const COMPUTE_BEGIN: u16 = 0x0402;
/// Worker: waiting to report results.
pub const REPORT_BEGIN: u16 = 0x0403;

/// Problem configuration.
#[derive(Debug, Clone)]
pub struct JacobiConfig {
    /// Number of worker processes (nodes `1..=workers`).
    pub workers: u16,
    /// Cells per worker strip.
    pub cells_per_worker: u32,
    /// Jacobi iterations.
    pub iterations: u32,
    /// Simulated compute time per cell update.
    pub per_cell: SimDuration,
    /// Fixed boundary values of the global domain.
    pub boundary: (f64, f64),
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig {
            workers: 4,
            cells_per_worker: 64,
            iterations: 30,
            per_cell: SimDuration::from_micros(40),
            boundary: (1.0, 0.0),
        }
    }
}

/// What a Jacobi run folds out of the machine: the assembled solution
/// plus its validation against the sequential reference.
#[derive(Debug, Clone)]
pub struct JacobiOutput {
    /// The assembled solution (workers' strips in order). Strips a
    /// truncated run never reported stay zero.
    pub solution: Vec<f64>,
    /// Maximum absolute error versus the sequential reference.
    pub max_error: f64,
}

impl Workload for JacobiConfig {
    type Output = JacobiOutput;

    fn id(&self) -> &'static str {
        "jacobi"
    }

    fn validate(&self) -> Result<(), String> {
        if !(1..=255).contains(&self.workers) {
            return Err(format!(
                "workers must be 1..=255 (one worker per node, spanning clusters as needed), got {}",
                self.workers
            ));
        }
        if self.cells_per_worker == 0 {
            return Err("cells_per_worker must be at least 1".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be at least 1".into());
        }
        Ok(())
    }

    fn nodes_required(&self) -> u32 {
        u32::from(self.workers) + 1
    }

    fn token_map(&self) -> Vec<TokenDecl> {
        vec![
            TokenDecl::new(EXCHANGE_BEGIN, "Exchange", "Worker"),
            TokenDecl::new(COMPUTE_BEGIN, "Compute", "Worker"),
            TokenDecl::new(REPORT_BEGIN, "Report", "Worker"),
        ]
    }

    fn proven_orders(&self) -> Vec<OrderEdge> {
        vec![OrderEdge::per_channel(
            "exchange-before-compute",
            EXCHANGE_BEGIN,
            COMPUTE_BEGIN,
            "a worker relaxes its strip only after the boundary exchange of the same iteration",
        )]
    }

    fn launch(&self, machine: &mut Machine) -> Harvest<JacobiOutput> {
        let n = self.workers as usize * self.cells_per_worker as usize;
        let cfg = Arc::new(self.clone());
        let solution = Arc::new(Mutex::new(vec![0.0f64; n]));
        machine.add_process(
            NodeId::new(0),
            Box::new(Coordinator {
                cfg: cfg.clone(),
                peers: Vec::new(),
                solution: solution.clone(),
                spawned: 0,
                started: 0,
                reports: 0,
            }),
        );
        Box::new(move |_machine| {
            let solution = solution.lock().unwrap().clone();
            let reference = sequential_reference(&cfg);
            let max_error = solution
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            JacobiOutput {
                solution,
                max_error,
            }
        })
    }

    fn metrics(&self, trace: &Trace, truncated: bool, _output: &JacobiOutput) -> RunMetrics {
        // One work unit = one relaxed strip iteration (a COMPUTE_BEGIN
        // event); `workers * iterations` when nothing was lost.
        let work_units = trace
            .events()
            .iter()
            .filter(|e| e.token.value() == COMPUTE_BEGIN)
            .count() as u64;
        let utilization_percent = (!truncated).then(|| {
            // Each worker's busy share of its own track's span, unclipped
            // (the window is the whole time axis); the tracks close at
            // the trace's end.
            let (_, end_ns) = trace.span();
            let lanes = channel_activity(
                trace.events(),
                &worker_activity_model(),
                &["Compute", "Exchange"],
                1..self.workers as usize + 1,
                (0, u64::MAX),
                end_ns,
            );
            let mut sum = 0.0;
            for lane in lanes {
                let (start, end) = lane.span;
                sum += if end > start {
                    100.0 * lane.in_states_ns as f64 / (end - start) as f64
                } else {
                    0.0
                };
            }
            sum / f64::from(self.workers)
        });
        RunMetrics {
            work_units,
            utilization_percent,
            steady_percent: None,
        }
    }
}

/// The sequential reference: plain Jacobi on the whole domain.
pub fn sequential_reference(cfg: &JacobiConfig) -> Vec<f64> {
    let n = (cfg.workers as usize) * cfg.cells_per_worker as usize;
    let mut u = vec![0.0f64; n];
    let mut next = u.clone();
    for _ in 0..cfg.iterations {
        for i in 0..n {
            let left = if i == 0 { cfg.boundary.0 } else { u[i - 1] };
            let right = if i == n - 1 { cfg.boundary.1 } else { u[i + 1] };
            next[i] = 0.5 * (left + right);
        }
        std::mem::swap(&mut u, &mut next);
    }
    u
}

#[derive(Debug, Clone, Copy)]
struct Boundary {
    iter: u32,
    from_left: bool,
    value: f64,
}

/// The coordinator's kick-off message: a worker's neighbours in the
/// strip chain. Delivering the topology by message (instead of through
/// shared memory) keeps the workload honest — exactly what a real
/// SUPRENUM program would do — and gives every worker a
/// happens-before edge from the complete spawn phase.
#[derive(Debug, Clone, Copy)]
struct Start {
    left: Option<ProcessId>,
    right: Option<ProcessId>,
}

#[derive(Debug, Clone)]
struct StripReport {
    index: u16,
    cells: Vec<f64>,
}

enum WState {
    Boot,
    AwaitStart,
    ExchangeEmit,
    Sending,
    Receiving,
    ComputeEmit,
    Computing,
    ReportEmit,
    Reporting,
}

struct Worker {
    index: u16,
    cfg: Arc<JacobiConfig>,
    coordinator: ProcessId,
    left: Option<ProcessId>,
    right: Option<ProcessId>,
    cells: Vec<f64>,
    iter: u32,
    state: WState,
    sends_left: Vec<(bool, f64)>,
    awaiting: u8,
    left_ghost: f64,
    right_ghost: f64,
    /// Boundary values that arrived ahead of the iteration that needs
    /// them (a fast neighbour can run one exchange ahead).
    stash: Vec<Boundary>,
}

impl Worker {
    fn new(index: u16, cfg: Arc<JacobiConfig>, coordinator: ProcessId) -> Box<Worker> {
        let cells = vec![0.0; cfg.cells_per_worker as usize];
        Box::new(Worker {
            index,
            cfg,
            coordinator,
            left: None,
            right: None,
            cells,
            iter: 0,
            state: WState::Boot,
            sends_left: Vec::new(),
            awaiting: 0,
            left_ghost: 0.0,
            right_ghost: 0.0,
            stash: Vec::new(),
        })
    }

    fn has_left(&self) -> bool {
        self.left.is_some()
    }

    fn has_right(&self) -> bool {
        self.right.is_some()
    }

    /// Applies a boundary for the current iteration, or stashes one
    /// that ran ahead. Returns `true` if the current iteration's wait
    /// count dropped.
    fn take_boundary(&mut self, b: Boundary) -> bool {
        if b.iter == self.iter {
            if b.from_left {
                self.left_ghost = b.value;
            } else {
                self.right_ghost = b.value;
            }
            self.awaiting -= 1;
            true
        } else {
            debug_assert!(b.iter > self.iter, "boundary from a finished iteration");
            self.stash.push(b);
            false
        }
    }

    /// Drains stashed boundaries that belong to the current iteration.
    fn drain_stash(&mut self) {
        let mut i = 0;
        while i < self.stash.len() {
            if self.stash[i].iter == self.iter {
                let b = self.stash.swap_remove(i);
                self.take_boundary(b);
            } else {
                i += 1;
            }
        }
    }

    fn begin_iteration(&mut self) -> Action {
        self.state = WState::ExchangeEmit;
        // Queue up this iteration's boundary sends.
        self.sends_left.clear();
        if self.has_left() {
            self.sends_left.push((true, self.cells[0]));
        }
        if self.has_right() {
            self.sends_left
                .push((false, *self.cells.last().expect("nonempty strip")));
        }
        self.awaiting = self.sends_left.len() as u8;
        Action::Emit {
            token: EXCHANGE_BEGIN,
            param: self.iter,
        }
    }

    fn next_send_or_receive(&mut self, ctx: &ProcCtx) -> Action {
        if let Some((to_left, value)) = self.sends_left.pop() {
            let dst = if to_left {
                self.left.expect("send to missing left neighbour")
            } else {
                self.right.expect("send to missing right neighbour")
            };
            self.state = WState::Sending;
            // The *receiver* sees this as coming from its right if we
            // sent it to our left.
            let boundary = Boundary {
                iter: self.iter,
                from_left: !to_left,
                value,
            };
            return Action::MailboxSend {
                to: dst,
                msg: Message::new(ctx.pid, 32, boundary),
            };
        }
        self.drain_stash();
        if self.awaiting > 0 {
            self.state = WState::Receiving;
            return Action::MailboxRecv;
        }
        self.state = WState::ComputeEmit;
        Action::Emit {
            token: COMPUTE_BEGIN,
            param: self.iter,
        }
    }

    fn relax(&mut self) {
        let n = self.cells.len();
        let left_edge = if self.has_left() {
            self.left_ghost
        } else {
            self.cfg.boundary.0
        };
        let right_edge = if self.has_right() {
            self.right_ghost
        } else {
            self.cfg.boundary.1
        };
        let mut next = self.cells.clone();
        for (i, slot) in next.iter_mut().enumerate() {
            let left = if i == 0 { left_edge } else { self.cells[i - 1] };
            let right = if i == n - 1 {
                right_edge
            } else {
                self.cells[i + 1]
            };
            *slot = 0.5 * (left + right);
        }
        self.cells = next;
    }
}

impl Process for Worker {
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        match self.state {
            WState::Boot => {
                self.state = WState::AwaitStart;
                Action::MailboxRecv
            }
            WState::AwaitStart => {
                let Resume::MailboxMsg(msg) = why else {
                    panic!("worker expected start message")
                };
                if let Some(b) = msg.payload::<Boundary>() {
                    // A neighbour got its start first and is already
                    // exchanging; keep waiting for ours.
                    self.stash.push(*b);
                    return Action::MailboxRecv;
                }
                let start = msg.payload::<Start>().expect("start message");
                self.left = start.left;
                self.right = start.right;
                self.begin_iteration()
            }
            WState::ExchangeEmit => self.next_send_or_receive(ctx),
            WState::Sending => {
                debug_assert!(matches!(why, Resume::Sent));
                self.next_send_or_receive(ctx)
            }
            WState::Receiving => {
                let Resume::MailboxMsg(msg) = why else {
                    panic!("worker expected boundary")
                };
                let b = *msg.payload::<Boundary>().expect("boundary message");
                if !self.take_boundary(b) {
                    return Action::MailboxRecv;
                }
                self.next_send_or_receive(ctx)
            }
            WState::ComputeEmit => {
                self.relax();
                self.state = WState::Computing;
                Action::Compute(self.cfg.per_cell * self.cfg.cells_per_worker as u64)
            }
            WState::Computing => {
                self.iter += 1;
                if self.iter < self.cfg.iterations {
                    self.begin_iteration()
                } else {
                    self.state = WState::ReportEmit;
                    Action::Emit {
                        token: REPORT_BEGIN,
                        param: self.iter,
                    }
                }
            }
            WState::ReportEmit => {
                self.state = WState::Reporting;
                let report = StripReport {
                    index: self.index,
                    cells: self.cells.clone(),
                };
                let bytes = 16 + 8 * report.cells.len() as u32;
                Action::MailboxSend {
                    to: self.coordinator,
                    msg: Message::new(ctx.pid, bytes, report),
                }
            }
            WState::Reporting => Action::Exit,
        }
    }

    fn label(&self) -> String {
        format!("jacobi-{}", self.index)
    }
}

struct Coordinator {
    cfg: Arc<JacobiConfig>,
    peers: Vec<ProcessId>,
    solution: Arc<Mutex<Vec<f64>>>,
    spawned: u16,
    started: u16,
    reports: u16,
}

impl Process for Coordinator {
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        if let Resume::Spawned(pid) = &why {
            self.peers.push(*pid);
        }
        if self.spawned < self.cfg.workers {
            let index = self.spawned;
            self.spawned += 1;
            let body = Worker::new(index, self.cfg.clone(), ctx.pid);
            return Action::Spawn {
                node: NodeId::new(index + 1),
                body,
            };
        }
        if self.started < self.cfg.workers {
            // Every worker is spawned; hand each its neighbours. A
            // worker only starts exchanging once its start message
            // arrives, so the chain is fully wired before any boundary
            // traffic that concerns it.
            let i = self.started as usize;
            self.started += 1;
            let start = Start {
                left: (i > 0).then(|| self.peers[i - 1]),
                right: (i + 1 < self.cfg.workers as usize).then(|| self.peers[i + 1]),
            };
            return Action::MailboxSend {
                to: self.peers[i],
                msg: Message::new(ctx.pid, 16, start),
            };
        }
        match why {
            Resume::MailboxMsg(msg) => {
                let report = msg.payload::<StripReport>().expect("strip report").clone();
                let base = report.index as usize * self.cfg.cells_per_worker as usize;
                let mut solution = self.solution.lock().unwrap();
                solution[base..base + report.cells.len()].copy_from_slice(&report.cells);
                self.reports += 1;
            }
            Resume::Sent => {}
            other => panic!("coordinator cannot handle {other:?}"),
        }
        if self.reports < self.cfg.workers {
            Action::MailboxRecv
        } else {
            Action::Exit
        }
    }

    fn label(&self) -> String {
        "jacobi-coordinator".into()
    }
}

/// Activity model for the worker instrumentation.
pub fn worker_activity_model() -> ActivityModel {
    let mut m = ActivityModel::new();
    m.state(EXCHANGE_BEGIN, "Exchange")
        .state(COMPUTE_BEGIN, "Compute")
        .state(REPORT_BEGIN, "Report");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PipelineConfig, PipelineResult};

    fn run_seeded(cfg: JacobiConfig, seed: u64) -> PipelineResult<JacobiConfig> {
        let mut pipeline_cfg = PipelineConfig::new(cfg);
        pipeline_cfg.seed = seed;
        let result = crate::run_workload(pipeline_cfg);
        assert!(result.completed(), "jacobi run must complete");
        result
    }

    #[test]
    fn distributed_matches_sequential_exactly() {
        let r = run_seeded(JacobiConfig::default(), 11).output;
        assert!(
            r.max_error == 0.0,
            "distributed Jacobi diverged from the reference by {}",
            r.max_error
        );
        // The solution actually relaxed toward the boundary profile.
        assert!(
            r.solution[0] > 0.3,
            "left end should approach the hot boundary"
        );
        assert!(*r.solution.last().unwrap() < 0.2);
    }

    /// The one-pass utilization equals the mean busy share of the
    /// derived worker tracks, bit for bit.
    #[test]
    fn utilization_matches_the_derived_tracks() {
        let cfg = JacobiConfig {
            workers: 4,
            iterations: 12,
            ..JacobiConfig::default()
        };
        let r = run_seeded(cfg.clone(), 3);
        let model = worker_activity_model();
        let mut sum = 0.0;
        for worker in 1..=4usize {
            let track = model.derive_track(
                "worker",
                r.trace.channel(worker).events().iter(),
                r.trace.span().1,
            );
            let (start, end) = track.span();
            let busy = track.time_in_state("Compute") + track.time_in_state("Exchange");
            sum += 100.0 * busy as f64 / (end - start) as f64;
        }
        let reference = sum / 4.0;
        let measured = r.metrics(&cfg).utilization_percent.unwrap();
        assert_eq!(measured.to_bits(), reference.to_bits());
    }

    #[test]
    fn trace_shows_bsp_alternation() {
        let cfg = JacobiConfig {
            workers: 3,
            iterations: 10,
            ..JacobiConfig::default()
        };
        let r = run_seeded(cfg, 5);
        let model = worker_activity_model();
        for worker in 1..=3usize {
            let track = model.derive_track(
                format!("worker {worker}"),
                r.trace.channel(worker).events().iter(),
                r.trace.span().1,
            );
            // 10 Exchange and 10 Compute visits, strictly alternating.
            let states: Vec<&str> = track
                .intervals()
                .iter()
                .map(|iv| iv.state.as_str())
                .collect();
            let exchanges = states.iter().filter(|s| **s == "Exchange").count();
            let computes = states.iter().filter(|s| **s == "Compute").count();
            assert_eq!(exchanges, 10);
            assert_eq!(computes, 10);
            for pair in states.windows(2) {
                assert_ne!(pair[0], pair[1], "phases must alternate: {states:?}");
            }
        }
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let cfg = JacobiConfig {
            workers: 1,
            iterations: 25,
            ..JacobiConfig::default()
        };
        let r = run_seeded(cfg, 2);
        assert_eq!(r.output.max_error, 0.0);
    }

    #[test]
    fn workload_metrics_count_relaxations() {
        let cfg = JacobiConfig {
            workers: 3,
            iterations: 10,
            ..JacobiConfig::default()
        };
        let pipeline_cfg = PipelineConfig::new(cfg.clone());
        let result = crate::run_workload(pipeline_cfg);
        let metrics = result.metrics(&cfg);
        assert_eq!(metrics.work_units, 30, "3 workers x 10 iterations");
        let util = metrics.utilization_percent.expect("completed run");
        assert!(
            (0.0..=100.0).contains(&util),
            "utilization is a percentage, got {util}"
        );
        assert!(util > 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(JacobiConfig {
            workers: 0,
            ..JacobiConfig::default()
        }
        .validate()
        .is_err());
        assert!(JacobiConfig {
            workers: 256,
            ..JacobiConfig::default()
        }
        .validate()
        .is_err());
        assert!(JacobiConfig {
            iterations: 0,
            ..JacobiConfig::default()
        }
        .validate()
        .is_err());
        assert!(JacobiConfig::default().validate().is_ok());
    }
}
