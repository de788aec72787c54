//! The master process (paper Figure 6, left).
//!
//! The master administrates the work: it keeps unfinished pixels in a
//! queue, assigns jobs to servants under window flow control
//! ("initially the master has a fixed number of credits from each
//! servant … with each result the master gets one credit back"),
//! collects results, and writes contiguous pixel stretches to the
//! picture file in correct order.
//!
//! Its cycle follows the paper exactly: *Distribute Jobs* → *Send Jobs*
//! (as many as credits and the pixel queue allow) → *Wait for Results* →
//! *Receive Results* → (*Write Pixels* when a stretch is ready) → next
//! *Distribute Jobs*. When the last pixel is written the master exits —
//! and termination of the initial process terminates the application.

use std::sync::Arc;

use raytracer::Framebuffer;
use suprenum::{Action, Message, NodeId, ProcCtx, Process, ProcessId, Resume};

use crate::agent::Agent;
use crate::config::AppConfig;
use crate::context::{AgentPool, AppStats, RenderContext, Shared};
use crate::pixels::PixelLedger;
use crate::protocol::{JobMsg, ReadyMsg, ResultMsg};
use crate::servant::Servant;
use crate::tokens;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    Boot,
    InitCompute,
    Spawning,
    AwaitReady,
    DistributeEmit,
    DistributeCompute,
    SendEmit,
    SendCompute,
    SendBlocked,
    SendSpawnAgent,
    SendSignal,
    SendYield,
    SendEmitEnd,
    WaitEmit,
    WaitRecv,
    ReceiveEmit,
    ReceiveCompute,
    WriteEmit,
    WriteDisk,
    WriteEmitEnd,
}

/// The master process.
pub struct Master {
    cfg: Arc<AppConfig>,
    ctx: Arc<RenderContext>,
    stats: Shared<AppStats>,
    fb: Shared<Framebuffer>,
    pool: Shared<AgentPool>,
    ledger: PixelLedger,
    state: MState,
    servants: Vec<ProcessId>,
    credits: Vec<u32>,
    rr_cursor: usize,
    next_job_id: u32,
    cycle: u32,
    results_outstanding: u32,
    ready_servants: u32,
    refill_pixels: u32,
    last_sent_job: u32,
    pending_job: Option<(usize, JobMsg)>,
    pending_result: Option<ResultMsg>,
    pending_write: Vec<(u32, raytracer::Color)>,
}

impl Master {
    /// Creates the master. `fb` receives the assembled image; `stats`
    /// collects application counters.
    pub fn new(
        cfg: Arc<AppConfig>,
        ctx: Arc<RenderContext>,
        stats: Shared<AppStats>,
        fb: Shared<Framebuffer>,
    ) -> Box<Master> {
        let ledger = PixelLedger::new(cfg.total_pixels(), cfg.pixel_queue_capacity);
        Box::new(Master {
            pool: AgentPool::new(1),
            ledger,
            state: MState::Boot,
            servants: Vec::new(),
            credits: Vec::new(),
            rr_cursor: 0,
            next_job_id: 0,
            cycle: 0,
            results_outstanding: 0,
            ready_servants: 0,
            refill_pixels: 0,
            last_sent_job: 0,
            pending_job: None,
            pending_result: None,
            pending_write: Vec::new(),
            cfg,
            ctx,
            stats,
            fb,
        })
    }

    fn emit(&self, token: u16, param: u32) -> Action {
        Action::Emit { token, param }
    }

    /// Begins the Distribute Jobs phase of a new cycle.
    fn distribute(&mut self) -> Action {
        self.cycle += 1;
        self.state = MState::DistributeEmit;
        self.emit(tokens::DISTRIBUTE_JOBS_BEGIN, self.cycle)
    }

    /// Picks the next servant with credit (round-robin) and builds its
    /// job, or returns `None` when nothing can be sent.
    fn try_make_job(&mut self) -> Option<(usize, JobMsg)> {
        if self.ledger.assignable() == 0 {
            return None;
        }
        let n = self.servants.len();
        for k in 0..n {
            let idx = (self.rr_cursor + k) % n;
            if self.credits[idx] > 0 {
                let pixels = self.ledger.assign(self.cfg.bundle_size);
                if pixels.is_empty() {
                    return None;
                }
                self.credits[idx] -= 1;
                self.rr_cursor = (idx + 1) % n;
                let job_id = self.next_job_id;
                self.next_job_id += 1;
                return Some((idx, JobMsg { job_id, pixels }));
            }
        }
        None
    }

    fn write_ready(&self) -> bool {
        let contiguous = self.ledger.contiguous_ready();
        contiguous >= self.cfg.write_chunk
            || (self.cfg.eager_writeback
                && contiguous > 0
                && self.results_outstanding == 0
                && self.ledger.assignable() == 0)
    }

    /// The send-or-wait decision after Distribute Jobs (and after each
    /// completed send).
    fn send_or_wait(&mut self) -> Action {
        if let Some(job) = self.try_make_job() {
            let param = job.1.job_id;
            self.pending_job = Some(job);
            self.state = MState::SendEmit;
            return self.emit(tokens::SEND_JOBS_BEGIN, param);
        }
        // Under eager write-back this state is unreachable: the
        // fallback flush in `write_ready` drains the queue before the
        // master can run out of both jobs and expected results. Under
        // strict write-back a residual tail shorter than the chunk
        // leaves exactly this state, and the master waits for a result
        // that will never come — the deadlock the model checker
        // predicts (AN-MODEL-001), reproduced rather than asserted
        // away.
        assert!(
            !self.cfg.eager_writeback || self.results_outstanding > 0,
            "master has nothing to send and nothing to wait for — pixel bookkeeping bug"
        );
        self.state = MState::WaitEmit;
        self.emit(tokens::WAIT_RESULTS_BEGIN, 0)
    }

    /// After Receive Results (plus any write): write a ready stretch or
    /// start the next cycle — or exit when the image is complete.
    fn after_receive(&mut self) -> Action {
        if self.write_ready() {
            self.pending_write = self.ledger.take_writable();
            self.state = MState::WriteEmit;
            return self.emit(tokens::WRITE_PIXELS_BEGIN, self.pending_write.len() as u32);
        }
        if self.ledger.is_complete() {
            // Terminating the initial process terminates the whole
            // application (paper §2.2) — no shutdown protocol needed.
            return Action::Exit;
        }
        self.distribute()
    }

    /// Version-specific job delivery after the Send Jobs admin compute.
    fn deliver_job(&mut self, own_pid: ProcessId) -> Action {
        let (servant_idx, job) = self.pending_job.take().expect("no job to deliver");
        self.last_sent_job = job.job_id;
        let dst = self.servants[servant_idx];
        let bytes = job.wire_bytes();
        let msg = Message::new(own_pid, bytes, job);
        self.stats.borrow_mut().jobs_sent += 1;
        self.results_outstanding += 1;
        if self.cfg.version.master_agents() {
            // Designate a free agent by "setting a shared variable";
            // "if no free agent is available a new agent is created".
            let designated = {
                let mut pool = self.pool.borrow_mut();
                pool.queue.push_back((dst, msg));
                pool.free.pop()
            };
            match designated {
                Some(idx) => {
                    let cond = self.pool.borrow().agent_cond(idx);
                    self.state = MState::SendSignal;
                    Action::SignalCond(cond)
                }
                None => {
                    let (index, body) = {
                        let mut pool = self.pool.borrow_mut();
                        let index = pool.total_agents;
                        pool.total_agents += 1;
                        (index, Agent::new(self.pool.clone(), index))
                    };
                    let mut stats = self.stats.borrow_mut();
                    stats.master_pool_peak = stats.master_pool_peak.max(index + 1);
                    self.state = MState::SendSpawnAgent;
                    Action::Spawn {
                        node: NodeId::new(0),
                        body,
                    }
                }
            }
        } else {
            // Version 1: the master itself performs the mailbox send —
            // and, as the measurements revealed, blocks until the
            // servant's mailbox process is scheduled.
            self.state = MState::SendBlocked;
            Action::MailboxSend { to: dst, msg }
        }
    }

    /// Applies a received result: store pixels, return the credit.
    fn apply_result(&mut self, result: &ResultMsg) {
        let servant_idx = (result.servant - 1) as usize;
        self.credits[servant_idx] += 1;
        self.results_outstanding -= 1;
        self.stats.borrow_mut().results_received += 1;
        for &(idx, color) in &result.pixels {
            self.ledger.complete(idx, color);
        }
    }
}

impl Process for Master {
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        match (self.state, why) {
            (MState::Boot, Resume::Start) => {
                self.state = MState::InitCompute;
                Action::Compute(self.cfg.master_init)
            }
            (MState::InitCompute, Resume::ComputeDone) => {
                self.state = MState::Spawning;
                let body = Servant::new(
                    1,
                    self.cfg.clone(),
                    self.ctx.clone(),
                    self.stats.clone(),
                    ctx.pid,
                );
                Action::Spawn {
                    node: NodeId::new(1),
                    body,
                }
            }
            (MState::Spawning, Resume::Spawned(pid)) => {
                self.servants.push(pid);
                self.credits.push(self.cfg.window);
                let next = self.servants.len() as u32 + 1;
                if next <= self.cfg.servants as u32 {
                    let body = Servant::new(
                        next,
                        self.cfg.clone(),
                        self.ctx.clone(),
                        self.stats.clone(),
                        ctx.pid,
                    );
                    Action::Spawn {
                        node: NodeId::new(next as u16),
                        body,
                    }
                } else {
                    // Wait until every servant reports ready; otherwise
                    // the first window of jobs floods mailboxes of
                    // still-initializing servants.
                    self.state = MState::AwaitReady;
                    Action::MailboxRecv
                }
            }
            (MState::AwaitReady, Resume::MailboxMsg(msg)) => {
                assert!(
                    msg.payload::<ReadyMsg>().is_some(),
                    "master expected a ready notification before distributing"
                );
                self.ready_servants += 1;
                if self.ready_servants < self.cfg.servants as u32 {
                    self.state = MState::AwaitReady;
                    Action::MailboxRecv
                } else {
                    // The first distribution fills the pixel queue from
                    // scratch.
                    self.refill_pixels = self.ledger.assignable();
                    self.distribute()
                }
            }
            (MState::DistributeEmit, Resume::EmitDone) => {
                let cost = self.cfg.distribute_base
                    + self.cfg.distribute_per_pixel * self.refill_pixels as u64;
                self.refill_pixels = 0;
                self.state = MState::DistributeCompute;
                Action::Compute(cost)
            }
            (MState::DistributeCompute, Resume::ComputeDone) => self.send_or_wait(),
            (MState::SendEmit, Resume::EmitDone) => {
                let pixels = self
                    .pending_job
                    .as_ref()
                    .expect("job pending")
                    .1
                    .pixels
                    .len();
                self.state = MState::SendCompute;
                Action::Compute(self.cfg.send_base + self.cfg.send_per_pixel * pixels as u64)
            }
            (MState::SendCompute, Resume::ComputeDone) => self.deliver_job(ctx.pid),
            (MState::SendBlocked, Resume::Sent) => {
                self.state = MState::SendEmitEnd;
                self.emit(tokens::SEND_JOBS_END, self.last_sent_job)
            }
            (MState::SendSpawnAgent, Resume::Spawned(_)) => {
                // The fresh agent finds its work at boot; relinquish so
                // it (and any freed agents) can run.
                self.state = MState::SendYield;
                Action::Yield
            }
            (MState::SendSignal, Resume::SignalSent) => {
                // "After the indication the master relinquishes the
                // processor and all agents will be scheduled."
                self.state = MState::SendYield;
                Action::Yield
            }
            (MState::SendYield, Resume::Yielded) => {
                self.state = MState::SendEmitEnd;
                self.emit(tokens::SEND_JOBS_END, self.last_sent_job)
            }
            (MState::SendEmitEnd, Resume::EmitDone) => self.send_or_wait(),
            (MState::WaitEmit, Resume::EmitDone) => {
                self.state = MState::WaitRecv;
                Action::MailboxRecv
            }
            (MState::WaitRecv, Resume::MailboxMsg(msg)) => {
                let result = msg
                    .payload::<ResultMsg>()
                    .expect("master expects result messages")
                    .clone();
                let job_id = result.job_id;
                self.pending_result = Some(result);
                self.state = MState::ReceiveEmit;
                self.emit(tokens::RECEIVE_RESULTS_BEGIN, job_id)
            }
            (MState::ReceiveEmit, Resume::EmitDone) => {
                let result = self.pending_result.take().expect("result pending");
                let cost =
                    self.cfg.receive_base + self.cfg.receive_per_pixel * result.pixels.len() as u64;
                self.apply_result(&result);
                self.state = MState::ReceiveCompute;
                Action::Compute(cost)
            }
            (MState::ReceiveCompute, Resume::ComputeDone) => self.after_receive(),
            (MState::WriteEmit, Resume::EmitDone) => {
                let stretch = std::mem::take(&mut self.pending_write);
                let bytes = stretch.len() as u32 * self.cfg.write_bytes_per_pixel;
                {
                    let mut fb = self.fb.borrow_mut();
                    for &(idx, color) in &stretch {
                        fb.set_linear(idx, color);
                    }
                }
                self.refill_pixels += stretch.len() as u32;
                self.stats.borrow_mut().disk_writes += 1;
                self.state = MState::WriteDisk;
                Action::DiskWrite { bytes }
            }
            (MState::WriteDisk, Resume::DiskDone) => {
                self.state = MState::WriteEmitEnd;
                self.emit(tokens::WRITE_PIXELS_END, 0)
            }
            (MState::WriteEmitEnd, Resume::EmitDone) => {
                if self.ledger.is_complete() {
                    Action::Exit
                } else {
                    self.distribute()
                }
            }
            (state, why) => crate::diag::protocol_violation(ctx, "master", &state, &why),
        }
    }

    fn label(&self) -> String {
        "master".to_owned()
    }
}

/// Extra accessors used by tests and analysis.
impl Master {
    /// The master-side agent pool (for inspection).
    pub fn pool(&self) -> &Shared<AgentPool> {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SceneKind, Version};
    use des::time::SimTime;

    fn setup(version: Version) -> (Box<Master>, ProcCtx) {
        let mut cfg = AppConfig::version(version);
        cfg.scene = SceneKind::Quickstart;
        cfg.width = 8;
        cfg.height = 8;
        cfg.servants = 2;
        let cfg = Arc::new(cfg);
        let ctx = RenderContext::new(&cfg);
        let stats = Shared::new(AppStats::default());
        let fb = Shared::new(Framebuffer::new(cfg.width, cfg.height));
        let master = Master::new(cfg, ctx, stats, fb);
        let pctx = ProcCtx {
            pid: ProcessId::new(0),
            node: NodeId::new(0),
            now: SimTime::ZERO,
        };
        (master, pctx)
    }

    #[test]
    fn boot_spawns_all_servants_then_distributes() {
        let (mut m, ctx) = setup(Version::V1);
        assert!(matches!(m.resume(&ctx, Resume::Start), Action::Compute(_)));
        let a = m.resume(&ctx, Resume::ComputeDone);
        assert!(matches!(a, Action::Spawn { node, .. } if node == NodeId::new(1)));
        let a = m.resume(&ctx, Resume::Spawned(ProcessId::new(10)));
        assert!(matches!(a, Action::Spawn { node, .. } if node == NodeId::new(2)));
        let a = m.resume(&ctx, Resume::Spawned(ProcessId::new(11)));
        // Ready barrier: the master waits for both servants first.
        assert!(matches!(a, Action::MailboxRecv));
        let ready = |i: u32| Message::new(ProcessId::new(9 + i), 16, ReadyMsg { servant: i });
        assert!(matches!(
            m.resume(&ctx, Resume::MailboxMsg(ready(1))),
            Action::MailboxRecv
        ));
        let a = m.resume(&ctx, Resume::MailboxMsg(ready(2)));
        assert!(
            matches!(
                a,
                Action::Emit {
                    token: tokens::DISTRIBUTE_JOBS_BEGIN,
                    param: 1
                }
            ),
            "{a:?}"
        );
    }

    fn pass_ready_barrier(m: &mut Master, ctx: &ProcCtx) {
        for i in 1..=2u32 {
            let msg = Message::new(ProcessId::new(9 + i), 16, ReadyMsg { servant: i });
            m.resume(ctx, Resume::MailboxMsg(msg));
        }
    }

    #[test]
    fn first_cycle_sends_with_window_credits() {
        let (mut m, ctx) = setup(Version::V1);
        m.resume(&ctx, Resume::Start);
        m.resume(&ctx, Resume::ComputeDone);
        m.resume(&ctx, Resume::Spawned(ProcessId::new(10)));
        m.resume(&ctx, Resume::Spawned(ProcessId::new(11)));
        pass_ready_barrier(&mut m, &ctx);
        // Distribute admin compute.
        assert!(matches!(
            m.resume(&ctx, Resume::EmitDone),
            Action::Compute(_)
        ));
        // First send: job 0 to servant 0.
        let a = m.resume(&ctx, Resume::ComputeDone);
        assert!(matches!(
            a,
            Action::Emit {
                token: tokens::SEND_JOBS_BEGIN,
                param: 0
            }
        ));
        assert!(matches!(
            m.resume(&ctx, Resume::EmitDone),
            Action::Compute(_)
        ));
        let a = m.resume(&ctx, Resume::ComputeDone);
        assert!(matches!(a, Action::MailboxSend { to, .. } if to == ProcessId::new(10)));
        // After the send completes: Send Jobs End, then next send goes
        // round-robin to servant 1.
        let a = m.resume(&ctx, Resume::Sent);
        assert!(matches!(
            a,
            Action::Emit {
                token: tokens::SEND_JOBS_END,
                ..
            }
        ));
        let a = m.resume(&ctx, Resume::EmitDone);
        assert!(matches!(
            a,
            Action::Emit {
                token: tokens::SEND_JOBS_BEGIN,
                param: 1
            }
        ));
        m.resume(&ctx, Resume::EmitDone);
        let a = m.resume(&ctx, Resume::ComputeDone);
        assert!(matches!(a, Action::MailboxSend { to, .. } if to == ProcessId::new(11)));
    }

    #[test]
    fn v2_master_hands_to_agent_pool() {
        let (mut m, ctx) = setup(Version::V2);
        m.resume(&ctx, Resume::Start);
        m.resume(&ctx, Resume::ComputeDone);
        m.resume(&ctx, Resume::Spawned(ProcessId::new(10)));
        m.resume(&ctx, Resume::Spawned(ProcessId::new(11)));
        pass_ready_barrier(&mut m, &ctx);
        m.resume(&ctx, Resume::EmitDone); // distribute compute
        m.resume(&ctx, Resume::ComputeDone); // SJ emit
        m.resume(&ctx, Resume::EmitDone); // send admin compute
                                          // Pool is empty -> spawn the first agent, on the master's node.
        let a = m.resume(&ctx, Resume::ComputeDone);
        assert!(matches!(a, Action::Spawn { node, .. } if node == NodeId::new(0)));
        assert_eq!(m.pool().borrow().total_agents, 1);
        assert_eq!(m.pool().borrow().queue.len(), 1);
        // The fresh agent will find the queued work at boot, so the
        // master just relinquishes and ends the send.
        assert!(matches!(
            m.resume(&ctx, Resume::Spawned(ProcessId::new(20))),
            Action::Yield
        ));
        let a = m.resume(&ctx, Resume::Yielded);
        assert!(matches!(
            a,
            Action::Emit {
                token: tokens::SEND_JOBS_END,
                ..
            }
        ));
    }
}
