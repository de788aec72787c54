//! The kernel's display emissions and the signal log expanded from
//! them: every emission is one serialized, uninterleaved 32-pattern
//! sequence, and [`Machine::signals`] is exactly those sequences in time
//! order — also when a run is resumed after the log was read.

use des::time::{SimDuration, SimTime};
use hybridmon::encode::encode;
use hybridmon::MonEvent;
use suprenum::{
    Action, DisplayWrite, Machine, MachineConfig, Message, NodeId, ProcCtx, Process, ProcessId,
    Resume, RunEnd, RunOutcome,
};

struct Root {
    nodes: u16,
    workers: Vec<ProcessId>,
    received: u16,
}

impl Process for Root {
    fn resume(&mut self, _ctx: &ProcCtx, why: Resume) -> Action {
        if let Resume::Spawned(pid) = why {
            self.workers.push(pid);
        }
        let spawned = self.workers.len() as u16;
        if spawned < self.nodes - 1 {
            return Action::Spawn {
                node: NodeId::new(spawned + 1),
                body: Box::new(Worker { rounds: 0 }),
            };
        }
        if matches!(why, Resume::MailboxMsg(_)) {
            self.received += 1;
        }
        if self.received < self.nodes - 1 {
            Action::MailboxRecv
        } else {
            Action::Exit
        }
    }
}

struct Worker {
    rounds: u32,
}

impl Process for Worker {
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        match why {
            Resume::Start | Resume::EmitDone if self.rounds < 6 => {
                self.rounds += 1;
                Action::Emit {
                    token: 0x10 + ctx.node.index(),
                    param: self.rounds,
                }
            }
            Resume::EmitDone => Action::Compute(SimDuration::from_micros(150)),
            Resume::ComputeDone => Action::MailboxSend {
                to: ProcessId::new(0),
                msg: Message::new(ctx.pid, 64, "done"),
            },
            _ => Action::Exit,
        }
    }
}

fn build(nodes: u16, cfg: MachineConfig) -> Machine {
    let mut m = Machine::new(cfg, 11).unwrap();
    m.add_process(
        NodeId::new(0),
        Box::new(Root {
            nodes,
            workers: Vec::new(),
            received: 0,
        }),
    );
    m
}

/// Four nodes with kernel instrumentation on: application emissions and
/// kernel emissions share every display. A cheaper kernel event gives
/// the kernel's emissions their own pattern spacing.
fn small() -> Machine {
    let cfg = MachineConfig {
        kernel_instrumentation: true,
        kernel_event_cost: SimDuration::from_micros(40),
        ..MachineConfig::single_cluster(4)
    };
    build(4, cfg)
}

fn reference_run() -> (Machine, RunOutcome) {
    let mut m = small();
    let out = m.run(SimTime::from_secs(10));
    assert_eq!(out.reason, RunEnd::Completed);
    (m, out)
}

/// The display log the emissions stand for, expanded with the kernel's
/// own arithmetic (pattern `i` at `start + spacing × (i + 1)`) and
/// stably sorted by time.
fn expected_display(m: &Machine) -> Vec<DisplayWrite> {
    let mut writes: Vec<DisplayWrite> = m
        .emissions()
        .iter()
        .flat_map(|rec| {
            encode(MonEvent::new(rec.token, rec.param))
                .into_iter()
                .enumerate()
                .map(move |(i, pattern)| DisplayWrite {
                    time: rec.start + rec.spacing * (i as u64 + 1),
                    node: rec.node,
                    pattern,
                })
        })
        .collect();
    writes.sort_by_key(|w| w.time);
    writes
}

#[test]
fn signals_expand_the_emissions_bit_for_bit() {
    let (m, _) = reference_run();
    let spacings: std::collections::BTreeSet<_> =
        m.emissions().iter().map(|rec| rec.spacing).collect();
    assert!(
        spacings.len() >= 2,
        "kernel and application spacings differ"
    );
    assert_eq!(m.signals().display_writes(), expected_display(&m));
    // Per node, each emission starts after the previous one's last
    // write plus one spacing: sequences never interleave.
    for node in 0..4 {
        let recs: Vec<_> = m
            .emissions()
            .iter()
            .filter(|rec| rec.node == NodeId::new(node))
            .collect();
        assert!(!recs.is_empty(), "node {node} emitted nothing");
        for pair in recs.windows(2) {
            assert!(
                pair[1].start >= pair[0].last_write_at() + pair[0].spacing,
                "node {node}: emission at {} overlaps the one at {}",
                pair[1].start,
                pair[0].start
            );
        }
    }
}

#[test]
fn signals_view_follows_a_resumed_run() {
    let (reference, reference_out) = reference_run();
    let mut m = small();
    let mut chunks = 0;
    let out = loop {
        let out = m.run_budgeted(SimTime::from_secs(10), 10);
        chunks += 1;
        // Reading the log between chunks must not freeze it.
        assert_eq!(m.signals().display_writes(), expected_display(&m));
        if out.reason != RunEnd::EventBudget {
            break out;
        }
    };
    assert!(chunks > 2, "the budget must split the run");
    assert_eq!(out.end, reference_out.end);
    assert_eq!(m.emissions(), reference.emissions());
    assert_eq!(
        m.signals().display_writes(),
        reference.signals().display_writes()
    );
}

#[test]
fn multi_cluster_emissions_do_not_depend_on_engine_threads() {
    // 20 nodes over two 16-node clusters: the partitions' emissions are
    // merged in cluster order after the run.
    let cfg = MachineConfig {
        clusters: 2,
        torus_cols: 1,
        ..MachineConfig::single_cluster(16)
    };
    let mut one = build(20, cfg.clone());
    let mut two = build(20, cfg);
    two.set_engine_shards(2);
    assert_eq!(one.run(SimTime::from_secs(10)).reason, RunEnd::Completed);
    assert_eq!(two.run(SimTime::from_secs(10)).reason, RunEnd::Completed);
    assert!(one.emissions().iter().any(|rec| rec.node.index() >= 16));
    assert_eq!(one.emissions(), two.emissions());
    assert_eq!(one.signals().display_writes(), expected_display(&one));
}
