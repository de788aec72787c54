//! Behavioural tests of the machine kernel against the semantics the
//! paper describes (and discovered).

use des::time::{SimDuration, SimTime};
use hybridmon::{Decoder, MonitoringMode};
use suprenum::{
    Action, BlockReason, CondId, Machine, MachineConfig, Message, NodeId, ProcCtx, ProcState,
    Process, ProcessId, Resume, RunEnd,
};

/// A process driven by a closure over an explicit step counter.
struct ClosureProc<F> {
    step: u32,
    label: String,
    f: F,
}

impl<F> ClosureProc<F>
where
    F: FnMut(&ProcCtx, Resume, u32) -> Action + Send,
{
    fn new(label: &str, f: F) -> Box<Self> {
        Box::new(ClosureProc {
            step: 0,
            label: label.to_owned(),
            f,
        })
    }
}

impl<F> Process for ClosureProc<F>
where
    F: FnMut(&ProcCtx, Resume, u32) -> Action + Send,
{
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        let step = self.step;
        self.step += 1;
        (self.f)(ctx, why, step)
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

fn machine(nodes: u8) -> Machine {
    Machine::new(MachineConfig::single_cluster(nodes), 7).unwrap()
}

/// The paper's central discovery (Fig. 7): a mailbox send blocks the
/// sender until the *receiver* relinquishes its CPU, because the mailbox
/// LWP cannot be scheduled under non-preemptive round-robin while the
/// receiver computes.
#[test]
fn mailbox_send_is_de_facto_synchronous() {
    let mut m = machine(2);
    let work = SimDuration::from_millis(50);

    // Receiver on node 1: compute for 50 ms, then read its mailbox.
    let receiver_body = ClosureProc::new("receiver", move |_ctx, _why, step| match step {
        0 => Action::Compute(work),
        1 => Action::MailboxRecv,
        _ => Action::Exit,
    });
    let mut receiver_body = Some(receiver_body);

    // Sender on node 0: spawn the receiver, then immediately mailbox-send.
    let mut peer: Option<ProcessId> = None;
    let sender_body = ClosureProc::new("sender", move |ctx, why, step| {
        if let Resume::Spawned(pid) = &why {
            peer = Some(*pid);
        }
        match step {
            0 => Action::Spawn {
                node: NodeId::new(1),
                body: receiver_body.take().unwrap(),
            },
            // Wait until the receiver is definitely inside its 50 ms
            // compute, then send into its mailbox.
            1 => Action::Sleep(SimDuration::from_millis(5)),
            2 => Action::MailboxSend {
                to: peer.unwrap(),
                msg: Message::new(ctx.pid, 64, "job"),
            },
            _ => Action::Exit,
        }
    });

    let sender = m.add_process(NodeId::new(0), sender_body);
    let outcome = m.run(SimTime::from_secs(10));
    assert_eq!(outcome.reason, RunEnd::Completed);

    // When did the sender's MailboxSend block end?
    let hist = m.ground_truth().history(sender).unwrap();
    let blocked_at = hist
        .transitions
        .iter()
        .find(|t| t.state == ProcState::Blocked(BlockReason::MailboxSend))
        .expect("sender must block in mailbox send")
        .time;
    let unblocked_at = hist
        .transitions
        .iter()
        .find(|t| t.time > blocked_at && t.state == ProcState::Ready)
        .expect("sender must eventually unblock")
        .time;

    // The receiver computes for 50 ms before it can relinquish the CPU;
    // only then is its mailbox LWP scheduled and the sender released. The
    // sender must therefore have waited essentially the whole 50 ms.
    let waited = unblocked_at - blocked_at;
    assert!(
        waited >= SimDuration::from_millis(40),
        "sender waited only {waited}, mailbox behaved asynchronously"
    );
}

/// Counter-experiment: when the receiver is already blocked (waiting for
/// a message), the mailbox LWP is scheduled promptly and the sender is
/// released after communication latency only.
#[test]
fn mailbox_send_completes_quickly_when_receiver_waits() {
    let mut m = machine(2);

    let receiver_body = ClosureProc::new("receiver", |_ctx, _why, step| match step {
        0 => Action::MailboxRecv,
        _ => Action::Exit,
    });
    let mut receiver_body = Some(receiver_body);

    let mut peer = None;
    let sender_body = ClosureProc::new("sender", move |ctx, why, step| {
        if let Resume::Spawned(pid) = &why {
            peer = Some(*pid);
        }
        match step {
            0 => Action::Spawn {
                node: NodeId::new(1),
                body: receiver_body.take().unwrap(),
            },
            // Give the receiver time to reach its MailboxRecv.
            1 => Action::Sleep(SimDuration::from_millis(20)),
            2 => Action::MailboxSend {
                to: peer.unwrap(),
                msg: Message::new(ctx.pid, 64, "job"),
            },
            _ => Action::Exit,
        }
    });

    let sender = m.add_process(NodeId::new(0), sender_body);
    assert_eq!(m.run(SimTime::from_secs(10)).reason, RunEnd::Completed);

    let hist = m.ground_truth().history(sender).unwrap();
    let blocked_at = hist
        .transitions
        .iter()
        .find(|t| t.state == ProcState::Blocked(BlockReason::MailboxSend))
        .unwrap()
        .time;
    let unblocked_at = hist
        .transitions
        .iter()
        .find(|t| t.time > blocked_at && t.state == ProcState::Ready)
        .unwrap()
        .time;
    // Transfer + ctx switch + accept + ack: well under 5 ms.
    assert!(
        unblocked_at - blocked_at < SimDuration::from_millis(5),
        "sender waited {} despite idle receiver",
        unblocked_at - blocked_at
    );
}

/// Synchronous rendezvous: sender and receiver meet; both proceed.
#[test]
fn sync_send_rendezvous() {
    let mut m = machine(2);

    let receiver_body = ClosureProc::new("receiver", |_ctx, why, step| match step {
        0 => Action::Recv,
        1 => {
            // Check the payload made it through.
            let Resume::Msg(msg) = why else {
                panic!("expected message, got {why:?}")
            };
            assert_eq!(msg.payload::<&str>(), Some(&"hello"));
            Action::Exit
        }
        _ => Action::Exit,
    });
    let mut receiver_body = Some(receiver_body);

    let mut peer = None;
    let sender_body = ClosureProc::new("sender", move |ctx, why, step| {
        if let Resume::Spawned(pid) = &why {
            peer = Some(*pid);
        }
        match step {
            0 => Action::Spawn {
                node: NodeId::new(1),
                body: receiver_body.take().unwrap(),
            },
            1 => Action::SendSync {
                to: peer.unwrap(),
                msg: Message::new(ctx.pid, 32, "hello"),
            },
            _ => Action::Exit,
        }
    });

    m.add_process(NodeId::new(0), sender_body);
    assert_eq!(m.run(SimTime::from_secs(1)).reason, RunEnd::Completed);
    assert_eq!(m.stats().sync_messages, 1);
}

/// Non-preemptive scheduling: a computing process is never interrupted,
/// and a yielding pair alternates.
#[test]
fn non_preemption_and_yield() {
    let mut m = machine(1);

    // B yields repeatedly; it can only run in the gaps A leaves.
    let b_body = ClosureProc::new("b", |_ctx, _why, step| {
        if step < 3 {
            Action::Yield
        } else {
            Action::Exit
        }
    });
    let mut b_body = Some(b_body);

    let a_body = ClosureProc::new("a", move |_ctx, _why, step| match step {
        0 => Action::Spawn {
            node: NodeId::new(0),
            body: b_body.take().unwrap(),
        },
        1 => Action::Compute(SimDuration::from_millis(30)),
        2 => Action::Yield,
        3 => Action::Compute(SimDuration::from_millis(10)),
        _ => Action::Exit,
    });

    let a = m.add_process(NodeId::new(0), a_body);
    assert_eq!(m.run(SimTime::from_secs(1)).reason, RunEnd::Completed);

    // During A's first 30 ms compute, B must never be Running.
    let gt = m.ground_truth();
    let a_hist = gt.history(a).unwrap();
    let a_first_run = a_hist
        .transitions
        .iter()
        .find(|t| t.state == ProcState::Running)
        .unwrap()
        .time;
    let b_pid = gt.iter().find(|(_, h)| h.label == "b").unwrap().0;
    let b_hist = gt.history(b_pid).unwrap();
    let b_first_run = b_hist
        .transitions
        .iter()
        .find(|t| t.state == ProcState::Running)
        .map(|t| t.time)
        .expect("b ran");
    assert!(
        b_first_run >= a_first_run + SimDuration::from_millis(30),
        "B ran at {b_first_run} during A's uninterruptible compute"
    );
}

/// Identical (seed, config, program) ⇒ identical histories and signals.
#[test]
fn runs_are_deterministic() {
    fn build_and_run() -> (Vec<(u64, u8)>, u64) {
        let mut m = machine(2);
        let child = ClosureProc::new("child", |_ctx, _why, step| match step {
            0 => Action::Emit { token: 2, param: 0 },
            1 => Action::Compute(SimDuration::from_millis(1)),
            _ => Action::Exit,
        });
        let mut child = Some(child);
        let root = ClosureProc::new("root", move |_ctx, _why, step| match step {
            0 => Action::Spawn {
                node: NodeId::new(1),
                body: child.take().unwrap(),
            },
            1 => Action::Emit {
                token: 1,
                param: 42,
            },
            2 => Action::Compute(SimDuration::from_millis(2)),
            _ => Action::Exit,
        });
        m.add_process(NodeId::new(0), root);
        let out = m.run(SimTime::from_secs(1));
        let sigs: Vec<(u64, u8)> = m
            .signals()
            .display_writes()
            .iter()
            .map(|w| (w.time.as_nanos(), w.pattern.index()))
            .collect();
        (sigs, out.end.as_nanos())
    }
    let (a_sigs, a_end) = build_and_run();
    let (b_sigs, b_end) = build_and_run();
    assert_eq!(a_sigs, b_sigs);
    assert_eq!(a_end, b_end);
    assert!(!a_sigs.is_empty());
}

/// Two processes that both wait for messages deadlock; the kernel reports
/// it rather than hanging.
#[test]
fn deadlock_is_reported() {
    let mut m = machine(2);
    let b_body = ClosureProc::new("b", |_ctx, _why, _step| Action::Recv);
    let mut b_body = Some(b_body);
    let a_body = ClosureProc::new("a", move |_ctx, _why, step| match step {
        0 => Action::Spawn {
            node: NodeId::new(1),
            body: b_body.take().unwrap(),
        },
        _ => Action::Recv,
    });
    m.add_process(NodeId::new(0), a_body);
    let out = m.run(SimTime::from_secs(1));
    assert_eq!(out.reason, RunEnd::Deadlock);
}

/// A livelocked toy program — two processes computing and ping-ponging
/// forever — trips the event budget instead of spinning until the
/// horizon, and the outcome says so.
#[test]
fn event_budget_catches_livelock() {
    let mut m = machine(1);
    let spinner = ClosureProc::new("spinner", |_ctx, _why, _step| {
        // Never exits, never blocks for long: classic livelock shape.
        Action::Compute(SimDuration::from_nanos(10))
    });
    m.add_process(NodeId::new(0), spinner);
    let out = m.run_budgeted(SimTime::from_secs(3_600), 5_000);
    assert_eq!(out.reason, RunEnd::EventBudget);
    assert!(out.reason.is_truncation());
    assert!(out.truncated());
    // The budget is charged against processed kernel events.
    assert!(
        out.events >= 5_000,
        "only {} events processed before the budget",
        out.events
    );
    assert!(out.end < SimTime::from_secs(3_600));
}

/// A run against a horizon shorter than the program reports `Horizon`,
/// counts its events, and is flagged as truncated.
#[test]
fn horizon_truncation_is_reported() {
    let mut m = machine(1);
    let worker = ClosureProc::new("worker", |_ctx, _why, step| {
        if step < 100 {
            Action::Compute(SimDuration::from_millis(10))
        } else {
            Action::Exit
        }
    });
    m.add_process(NodeId::new(0), worker);
    // 100 * 10ms = 1s of work against a 50ms horizon.
    let out = m.run(SimTime::from_millis(50));
    assert_eq!(out.reason, RunEnd::Horizon);
    assert!(out.truncated());
    assert!(out.events > 0);

    // The same program given room completes, and completion is not a
    // truncation.
    let mut m = machine(1);
    let worker = ClosureProc::new("worker", |_ctx, _why, step| {
        if step < 100 {
            Action::Compute(SimDuration::from_millis(10))
        } else {
            Action::Exit
        }
    });
    m.add_process(NodeId::new(0), worker);
    let out = m.run(SimTime::from_secs(10));
    assert_eq!(out.reason, RunEnd::Completed);
    assert!(!out.truncated());
}

/// Hybrid monitoring: each Emit produces exactly the 32-pattern sequence
/// on the emitting node's display, and the external decoder recovers the
/// event.
#[test]
fn hybrid_emit_appears_on_display() {
    let mut m = machine(1);
    let body = ClosureProc::new("p", |_ctx, _why, step| match step {
        0 => Action::Emit {
            token: 0xBEEF,
            param: 0x1234_5678,
        },
        1 => Action::Compute(SimDuration::from_millis(1)),
        2 => Action::Emit {
            token: 0x0001,
            param: 9,
        },
        _ => Action::Exit,
    });
    m.add_process(NodeId::new(0), body);
    assert_eq!(m.run(SimTime::from_secs(1)).reason, RunEnd::Completed);

    let writes = m.signals().display_writes_for(NodeId::new(0));
    assert_eq!(writes.len(), 64, "two events x 32 patterns");
    // Times strictly increase within the log.
    assert!(writes.windows(2).all(|w| w[0].time < w[1].time));

    let mut decoder = Decoder::new();
    let events: Vec<_> = writes
        .iter()
        .filter_map(|w| decoder.feed(w.pattern))
        .collect();
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].token.value(), 0xBEEF);
    assert_eq!(events[0].param.value(), 0x1234_5678);
    assert_eq!(events[1].token.value(), 0x0001);
    assert_eq!(decoder.stats().atomicity_violations, 0);
}

/// Terminal monitoring costs over 2.4 ms per event and emits 6 bytes.
#[test]
fn terminal_monitoring_is_slow() {
    let mut cfg = MachineConfig::single_cluster(1);
    cfg.monitoring = MonitoringMode::Terminal;
    let mut m = Machine::new(cfg, 1).unwrap();
    let body = ClosureProc::new("p", |_ctx, _why, step| match step {
        0 => Action::Emit {
            token: 0xAA55,
            param: 0xDEAD_BEEF,
        },
        _ => Action::Exit,
    });
    m.add_process(NodeId::new(0), body);
    assert_eq!(m.run(SimTime::from_secs(1)).reason, RunEnd::Completed);
    let bytes: Vec<u8> = m
        .signals()
        .terminal_writes()
        .iter()
        .map(|w| w.byte)
        .collect();
    assert_eq!(bytes, vec![0xAA, 0x55, 0xDE, 0xAD, 0xBE, 0xEF]);
    assert!(m.intrusion().mean_per_event() > SimDuration::from_micros(2_400));
}

/// Software monitoring lands events in the node-local buffer with local
/// timestamps.
#[test]
fn software_monitoring_records_locally() {
    let mut cfg = MachineConfig::single_cluster(2);
    cfg.monitoring = MonitoringMode::Software;
    let mut m = Machine::new(cfg, 3).unwrap();
    let body = ClosureProc::new("p", |_ctx, _why, step| match step {
        0 => Action::Emit { token: 7, param: 1 },
        1 => Action::Emit { token: 8, param: 2 },
        _ => Action::Exit,
    });
    m.add_process(NodeId::new(0), body);
    assert_eq!(m.run(SimTime::from_secs(1)).reason, RunEnd::Completed);
    let log = m.software_monitors()[0].records();
    assert_eq!(log.len(), 2);
    assert_eq!(log[0].event.token.value(), 7);
    assert_eq!(log[1].event.token.value(), 8);
    // No display traffic in software mode.
    assert!(m.signals().display_writes().is_empty());
}

/// The intrusion of hybrid monitoring is at least two orders of
/// magnitude below the measured activity (paper §3.2) for millisecond-
/// scale activities.
#[test]
fn hybrid_intrusion_is_two_orders_below_activity() {
    let mut m = machine(1);
    let body = ClosureProc::new("p", |_ctx, _why, step| {
        // 20 activities of 15 ms, each bracketed by one event.
        if step < 40 {
            if step % 2 == 0 {
                Action::Emit {
                    token: step as u16,
                    param: 0,
                }
            } else {
                Action::Compute(SimDuration::from_millis(15))
            }
        } else {
            Action::Exit
        }
    });
    m.add_process(NodeId::new(0), body);
    assert_eq!(m.run(SimTime::from_secs(10)).reason, RunEnd::Completed);
    let report = m.intrusion();
    assert_eq!(report.events, 20);
    assert!(
        report.intrusion_ratio() < 0.01,
        "intrusion ratio {} not two orders below activity",
        report.intrusion_ratio()
    );
}

/// Condition variables: the agent idiom — block until signalled, then
/// proceed.
#[test]
fn condition_signalling_wakes_waiters() {
    let mut m = machine(1);
    let cond = CondId::new(99);

    let waiter_body = ClosureProc::new("waiter", move |_ctx, why, step| match step {
        0 => Action::WaitCond(cond),
        1 => {
            assert!(matches!(why, Resume::Signalled));
            Action::Exit
        }
        _ => Action::Exit,
    });
    let mut waiter_body = Some(waiter_body);

    let signaller = ClosureProc::new("signaller", move |_ctx, _why, step| match step {
        0 => Action::Spawn {
            node: NodeId::new(0),
            body: waiter_body.take().unwrap(),
        },
        // Relinquish so the waiter runs first and blocks on the
        // condition — signals have no memory (exactly like the shared
        // variable + relinquish idiom the paper's agents use).
        1 => Action::Sleep(SimDuration::from_millis(5)),
        2 => Action::Compute(SimDuration::from_millis(5)),
        3 => Action::SignalCond(cond),
        4 => Action::Yield,
        // Let the waiter run and exit before we (the initial process)
        // terminate the application.
        5 => Action::Sleep(SimDuration::from_millis(20)),
        _ => Action::Exit,
    });

    m.add_process(NodeId::new(0), signaller);
    let out = m.run(SimTime::from_secs(1));
    assert_eq!(out.reason, RunEnd::Completed);
    let gt = m.ground_truth();
    let waiter = gt.iter().find(|(_, h)| h.label == "waiter").unwrap().1;
    assert_eq!(waiter.transitions.last().unwrap().state, ProcState::Exited);
}

/// Monitoring off: no signals, no intrusion, zero-cost Emit actions.
#[test]
fn monitoring_off_is_free() {
    let mut cfg = MachineConfig::single_cluster(1);
    cfg.monitoring = MonitoringMode::Off;
    let mut m = Machine::new(cfg, 1).unwrap();
    let body = ClosureProc::new("p", |_ctx, _why, step| match step {
        0 => Action::Emit { token: 1, param: 1 },
        1 => Action::Compute(SimDuration::from_millis(1)),
        _ => Action::Exit,
    });
    m.add_process(NodeId::new(0), body);
    assert_eq!(m.run(SimTime::from_secs(1)).reason, RunEnd::Completed);
    assert!(m.signals().display_writes().is_empty());
    assert_eq!(m.intrusion().total_intrusion, SimDuration::ZERO);
    assert_eq!(m.stats().events_emitted, 1);
}

/// Disk writes block the writer but leave the CPU free for other LWPs.
#[test]
fn disk_write_releases_cpu() {
    let mut m = machine(1);

    let bg = ClosureProc::new("bg", |_ctx, _why, step| match step {
        0 => Action::Compute(SimDuration::from_millis(2)),
        _ => Action::Exit,
    });
    let mut bg = Some(bg);

    let writer = ClosureProc::new("writer", move |_ctx, _why, step| match step {
        0 => Action::Spawn {
            node: NodeId::new(0),
            body: bg.take().unwrap(),
        },
        1 => Action::DiskWrite { bytes: 100_000 },
        2 => Action::Sleep(SimDuration::from_millis(50)),
        _ => Action::Exit,
    });

    let w = m.add_process(NodeId::new(0), writer);
    assert_eq!(m.run(SimTime::from_secs(1)).reason, RunEnd::Completed);
    let gt = m.ground_truth();
    // Background process ran to completion while the writer was blocked
    // on disk.
    let bg_pid = gt.iter().find(|(_, h)| h.label == "bg").unwrap().0;
    let bg_done = gt.history(bg_pid).unwrap().transitions.last().unwrap().time;
    let writer_hist = gt.history(w).unwrap();
    let disk_block = writer_hist
        .transitions
        .iter()
        .find(|t| t.state == ProcState::Blocked(BlockReason::Disk))
        .unwrap()
        .time;
    let disk_done = writer_hist
        .transitions
        .iter()
        .find(|t| t.time > disk_block && t.state == ProcState::Ready)
        .unwrap()
        .time;
    assert!(
        bg_done < disk_done,
        "bg should finish during the disk write"
    );
    // 100 kB at 1 MB/s is 100 ms plus latency.
    assert!(disk_done - disk_block >= SimDuration::from_millis(100));
}

/// Kernel instrumentation (the paper's future work): the OS itself emits
/// scheduler events through the display, cleanly decodable alongside the
/// application's events.
#[test]
fn kernel_instrumentation_emits_scheduler_events() {
    let mut cfg = MachineConfig::single_cluster(2);
    cfg.kernel_instrumentation = true;
    let mut m = Machine::new(cfg, 11).unwrap();

    let worker = ClosureProc::new("worker", |_ctx, _why, step| match step {
        0 => Action::Compute(SimDuration::from_millis(5)),
        1 => Action::Emit {
            token: 0x42,
            param: 7,
        },
        2 => Action::Yield,
        3 => Action::Compute(SimDuration::from_millis(2)),
        _ => Action::Exit,
    });
    let mut worker = Some(worker);
    let root = ClosureProc::new("root", move |_ctx, _why, step| match step {
        0 => Action::Spawn {
            node: NodeId::new(1),
            body: worker.take().unwrap(),
        },
        1 => Action::Sleep(SimDuration::from_millis(50)),
        _ => Action::Exit,
    });
    m.add_process(NodeId::new(0), root);
    assert_eq!(m.run(SimTime::from_secs(5)).reason, RunEnd::Completed);
    assert!(
        m.stats().kernel_events > 0,
        "kernel must emit scheduler events"
    );

    // Decode each node's display stream: no protocol violations, and
    // both kernel and application events appear.
    use suprenum::os_tokens;
    let mut kernel_seen = 0u32;
    let mut app_seen = 0u32;
    for node in [NodeId::new(0), NodeId::new(1)] {
        let mut decoder = Decoder::new();
        for w in m.signals().display_writes_for(node) {
            if let Some(ev) = decoder.feed(w.pattern) {
                match ev.token.value() {
                    os_tokens::KERNEL_DISPATCH
                    | os_tokens::KERNEL_BLOCK
                    | os_tokens::KERNEL_MAILBOX_SERVICE
                    | os_tokens::KERNEL_EXIT
                    | os_tokens::KERNEL_PREEMPT => kernel_seen += 1,
                    0x42 => {
                        assert_eq!(ev.param.value(), 7);
                        app_seen += 1;
                    }
                    other => panic!("unexpected token 0x{other:04X}"),
                }
            }
        }
        assert_eq!(
            decoder.stats().atomicity_violations,
            0,
            "kernel and app pattern pairs interleaved on {node}"
        );
    }
    assert!(kernel_seen >= 6, "saw only {kernel_seen} kernel events");
    assert_eq!(app_seen, 1);

    // Dispatch/block parameters carry the affected pid.
    let (pid, code) = os_tokens::split_param(os_tokens::param(3, 2));
    assert_eq!((pid, code), (3, 2));
}

/// Regression: `try_dispatch` must not re-enter while a context switch
/// is in flight. Between picking an LWP and `Started`, the node sits in
/// `running: None, dispatching: true` for a full context-switch delay
/// (250 µs); under a preemptive policy, quantum expiries and sleep
/// wake-ups land inside that window and — without the `dispatching`
/// guard — would either double-dispatch the CPU or preempt a process
/// that is not actually running. Hammer the window and assert the CPU
/// stays single-owner throughout, deterministically.
#[test]
fn preemptive_dispatch_is_not_reentrant() {
    use suprenum::SchedulerKind;

    fn run_once() -> (Vec<(u64, u64, String)>, u64, u64) {
        let mut cfg = MachineConfig::single_cluster(1);
        // Quantum of the same order as the 250 µs context-switch cost,
        // so expiries routinely fire while a dispatch is in flight.
        cfg.scheduler = SchedulerKind::Preemptive {
            quantum: SimDuration::from_micros(300),
        };
        let mut m = Machine::new(cfg, 23).unwrap();

        // Three separately-rooted workers (distinct teams: every switch
        // pays the full inter-team delay, widening the window) cycling
        // compute / sleep / yield at mutually prime periods.
        for i in 0..3u64 {
            let body = ClosureProc::new(&format!("w{i}"), move |_ctx, _why, step| {
                if step >= 30 {
                    return Action::Exit;
                }
                match step % 3 {
                    0 => Action::Compute(SimDuration::from_micros(900 + 101 * i)),
                    1 => Action::Sleep(SimDuration::from_micros(110 + 83 * i)),
                    _ => Action::Yield,
                }
            });
            m.add_process(NodeId::new(0), body);
        }
        let out = m.run(SimTime::from_secs(10));
        assert_eq!(out.reason, RunEnd::Completed);

        // Reconstruct every Running interval from the ground truth.
        let gt = m.ground_truth();
        let mut intervals: Vec<(u64, u64, String)> = Vec::new();
        for (_, hist) in gt.iter() {
            for w in hist.transitions.windows(2) {
                if w[0].state == ProcState::Running {
                    intervals.push((
                        w[0].time.as_nanos(),
                        w[1].time.as_nanos(),
                        hist.label.clone(),
                    ));
                }
            }
            assert_ne!(
                hist.transitions.last().map(|t| t.state),
                Some(ProcState::Running),
                "a worker ended the run still marked Running"
            );
        }
        intervals.sort();
        (intervals, out.end.as_nanos(), m.stats().preemptions)
    }

    let (intervals, end, preemptions) = run_once();
    // The scenario must actually exercise preemption mid-traffic…
    assert!(preemptions > 0, "no preemptions — the window was never hit");
    // …and the single CPU must never be double-owned: with a reentrant
    // dispatch two `Started` events would overlap two Running intervals.
    for pair in intervals.windows(2) {
        assert!(
            pair[0].1 <= pair[1].0,
            "CPU double-owned: '{}' ran [{}, {}) overlapping '{}' from {}",
            pair[0].2,
            pair[0].0,
            pair[0].1,
            pair[1].2,
            pair[1].0
        );
    }
    // And the whole schedule must be reproducible bit-for-bit.
    let (again, end2, preemptions2) = run_once();
    assert_eq!(intervals, again);
    assert_eq!(end, end2);
    assert_eq!(preemptions, preemptions2);
}

/// The operator's job time limit (paper §2.2): resources are released
/// even if the job is unfinished — "to prevent monopolization".
#[test]
fn job_time_limit_releases_the_partition() {
    let mut cfg = MachineConfig::single_cluster(1);
    cfg.job_time_limit = Some(SimDuration::from_millis(10));
    let mut m = Machine::new(cfg, 1).unwrap();
    // A job that would take a full second.
    let body = ClosureProc::new("hog", |_ctx, _why, step| {
        if step < 100 {
            Action::Compute(SimDuration::from_millis(10))
        } else {
            Action::Exit
        }
    });
    m.add_process(NodeId::new(0), body);
    let out = m.run(SimTime::from_secs(60));
    assert_eq!(out.reason, RunEnd::ResourcesReleased);
    assert!(out.end <= SimTime::from_millis(10));

    // Without the limit the same job completes.
    let mut m2 = Machine::new(MachineConfig::single_cluster(1), 1).unwrap();
    let body = ClosureProc::new("hog", |_ctx, _why, step| {
        if step < 100 {
            Action::Compute(SimDuration::from_millis(10))
        } else {
            Action::Exit
        }
    });
    m2.add_process(NodeId::new(0), body);
    assert_eq!(m2.run(SimTime::from_secs(60)).reason, RunEnd::Completed);
}

/// Team semantics (paper §2.2): context switches between LWPs of the
/// same team are cheap; switches between independently created process
/// groups pay the full inter-team cost.
#[test]
fn inter_team_switches_cost_more() {
    // Two independent root processes on one node: separate teams.
    let run_pair = |same_team: bool| -> (des::time::SimTime, u64) {
        let mut m = machine(1);
        let partner = ClosureProc::new("partner", |_ctx, _why, step| {
            if step < 20 {
                Action::Yield
            } else {
                Action::Exit
            }
        });
        let mut partner = Some(partner);
        if same_team {
            // Root spawns the partner locally: same team.
            let root = ClosureProc::new("root", move |_ctx, _why, step| match step {
                0 => Action::Spawn {
                    node: NodeId::new(0),
                    body: partner.take().unwrap(),
                },
                s if s <= 20 => Action::Yield,
                _ => Action::Exit,
            });
            m.add_process(NodeId::new(0), root);
        } else {
            // Two separately added roots: distinct teams.
            let root = ClosureProc::new("root", |_ctx, _why, step| {
                if step < 20 {
                    Action::Yield
                } else {
                    Action::Exit
                }
            });
            m.add_process(NodeId::new(0), root);
            m.add_process(NodeId::new(0), partner.take().unwrap());
        }
        let out = m.run(SimTime::from_secs(10));
        assert_eq!(out.reason, RunEnd::Completed);
        (out.end, m.stats().inter_team_switches)
    };

    let (same_end, same_inter) = run_pair(true);
    let (cross_end, cross_inter) = run_pair(false);
    assert_eq!(same_inter, 0, "one team must never pay inter-team switches");
    assert!(
        cross_inter > 10,
        "alternating teams must pay inter-team switches"
    );
    assert!(
        cross_end > same_end,
        "inter-team switching should make the run slower ({cross_end} vs {same_end})"
    );
}

/// A mailbox LWP is woken once, however many messages queue for it.
/// Two messages reach the owner while it computes: its mailbox LWP is
/// queued by the first and must not be queued again by the second, and
/// one service round accepts both. A third message arrives while that
/// round runs: the LWP is still active, so the arrival does not wake
/// it, and the end of the round schedules a second one for it.
#[test]
fn one_mailbox_wakeup_serves_every_waiting_message() {
    use suprenum::os_tokens;

    let accept = SimDuration::from_millis(4);
    let cfg = MachineConfig {
        mailbox_accept_cost: accept,
        kernel_instrumentation: true,
        ..MachineConfig::single_cluster(4)
    };
    let mut m = Machine::new(cfg, 7).unwrap();

    let sender = |to: ProcessId, delay: SimDuration| {
        ClosureProc::new("sender", move |ctx, _why, step| match step {
            0 => Action::Sleep(delay),
            1 => Action::MailboxSend {
                to,
                msg: Message::new(ctx.pid, 64, "job"),
            },
            _ => Action::Exit,
        })
    };
    let mut owner = None;
    let root = ClosureProc::new("root", move |ctx, why, step| {
        if let Resume::Spawned(pid) = why {
            owner.get_or_insert(pid);
        }
        let root = ctx.pid;
        match step {
            // The owner computes for 20 ms, then reads three messages
            // and reports back.
            0 => Action::Spawn {
                node: NodeId::new(1),
                body: ClosureProc::new("owner", move |ctx, _why, step| match step {
                    0 => Action::Compute(SimDuration::from_millis(20)),
                    1..=3 => Action::MailboxRecv,
                    4 => Action::SendSync {
                        to: root,
                        msg: Message::new(ctx.pid, 8, "done"),
                    },
                    _ => Action::Exit,
                }),
            },
            // Two senders inside the owner's compute, one inside the
            // first service round (which starts at about 21 ms).
            1 => Action::Spawn {
                node: NodeId::new(2),
                body: sender(owner.unwrap(), SimDuration::from_millis(2)),
            },
            2 => Action::Spawn {
                node: NodeId::new(3),
                body: sender(owner.unwrap(), SimDuration::from_millis(4)),
            },
            3 => Action::Spawn {
                node: NodeId::new(2),
                body: sender(owner.unwrap(), SimDuration::from_millis(24)),
            },
            4 => Action::Recv,
            _ => Action::Exit,
        }
    });
    m.add_process(NodeId::new(0), root);
    assert_eq!(m.run(SimTime::from_secs(10)).reason, RunEnd::Completed);

    let stats = m.stats();
    assert_eq!(stats.mailbox_services, 2);
    assert_eq!(stats.mailbox_messages, 3);
    let owner_pid = m
        .ground_truth()
        .iter()
        .find(|(_, h)| h.label == "owner")
        .map(|(pid, _)| pid)
        .unwrap();
    let rounds: Vec<(SimTime, u8)> = m
        .emissions()
        .iter()
        .filter(|rec| rec.token == os_tokens::KERNEL_MAILBOX_SERVICE)
        .map(|rec| {
            let (pid, count) = os_tokens::split_param(rec.param);
            assert_eq!(pid, owner_pid.raw());
            (rec.start, count)
        })
        .collect();
    assert_eq!(rounds.iter().map(|&(_, n)| n).collect::<Vec<_>>(), [2, 1]);

    // The third sender sent while the first round was accepting.
    let third_sent = m
        .ground_truth()
        .iter()
        .filter(|(_, h)| h.label == "sender")
        .map(|(_, h)| {
            h.transitions
                .iter()
                .find(|t| t.state == ProcState::Blocked(BlockReason::MailboxSend))
                .unwrap()
                .time
        })
        .max()
        .unwrap();
    let (first_round, _) = rounds[0];
    assert!(
        first_round < third_sent && third_sent < first_round + accept * 2,
        "third message sent at {third_sent}, first round started at {first_round}"
    );
}
