//! The protocol model checker: machine-checked verdicts about a
//! [`raysim`] configuration, produced without executing the simulator.
//!
//! Three bounded models, each exhaustively explored:
//!
//! * [`flow`] — the window/credit/pixel-queue protocol in bundle units
//!   at paper scale (deadlock reachability, peak concurrency / the V3
//!   window collapse, credit conservation);
//! * [`exact`] — a pixel-exact segment model for small configurations
//!   (schedule-dependent *possible* vs schedule-independent
//!   *inevitable* deadlock, differentially tested against the
//!   simulator);
//! * [`sched`] — a small-scope node-scheduler/mailbox model (the
//!   effective-synchrony theorem, with a counterexample under a
//!   preemptive toggle).
//!
//! [`check_app`] runs the layers appropriate for a configuration and
//! folds the verdicts into [`Diagnostic`]s (the `AN-MODEL-*` codes);
//! [`proven_orders`] exports the event orderings the models guarantee,
//! which the happens-before engine ([`crate::hb`]) checks against every
//! recorded trace.

pub mod exact;
pub mod flow;
pub mod sched;

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use raysim::config::AppConfig;

use crate::diag::{Diagnostic, Location, Report};
use crate::structural::DeadlockVerdict;
use exact::ExactModel;
use flow::{FlowModel, FlowVerdict};
use sched::{SchedModel, SchedVerdict};

/// State budgets for the three explorations.
///
/// The pre-flight budget keeps per-run analysis cheap (a bounded
/// exploration reports `AN-MODEL-005` instead of a universal claim);
/// the full budget is what the `analyze` CLI and the CI gate use, and
/// closes every stock V1–V4 state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelBudget {
    /// Max states for the flow model.
    pub flow_states: usize,
    /// Max states for the exact model (`0` disables it).
    pub exact_states: usize,
    /// Max states for the scheduler model.
    pub sched_states: usize,
    /// Max states for the race explorer ([`crate::race`]).
    pub race_states: usize,
}

impl ModelBudget {
    /// The cheap per-run budget used by the pre-flight hook.
    pub fn preflight() -> ModelBudget {
        ModelBudget {
            flow_states: 100_000,
            exact_states: 0,
            sched_states: 500_000,
            race_states: 200_000,
        }
    }

    /// The full budget used by the `analyze` CLI and the CI gate:
    /// closes all four stock paper configurations.
    pub fn full() -> ModelBudget {
        ModelBudget {
            flow_states: 2_000_000,
            exact_states: 1_000_000,
            sched_states: 2_000_000,
            race_states: 2_000_000,
        }
    }
}

/// Locks `m`, recovering from poisoning: a panic in one thread (say, a
/// failed assertion in a test sharing the process-wide verdict caches)
/// must not cascade `PoisonError` panics into every later analysis.
/// The cached values are read-only once inserted and each insert is a
/// single `HashMap::insert`, so a poisoned guard's data is still
/// consistent.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A process-wide verdict cache: one per memoized analysis.
pub(crate) type Memo<K, V> = OnceLock<Mutex<HashMap<K, V>>>;

/// The value `memo` holds for `key`, computed by `compute` and stored on
/// the first call. The lock is released while computing, so two threads
/// that miss on one key both compute it — the same value, since every
/// memoized analysis is a pure function of its key.
pub(crate) fn memoized<K: Eq + Hash, V: Clone>(
    memo: &Memo<K, V>,
    key: K,
    compute: impl FnOnce(&K) -> V,
) -> V {
    let memo = memo.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(v) = lock_unpoisoned(memo).get(&key) {
        return v.clone();
    }
    let v = compute(&key);
    lock_unpoisoned(memo).insert(key, v.clone());
    v
}

/// Largest image (pixels) the exact model is attempted on; beyond this
/// the segment state space is left to the flow abstraction.
const EXACT_MAX_PIXELS: u32 = 64;

/// An event ordering the models prove holds in every legal execution.
///
/// This is the pipeline's [`pipeline::OrderEdge`], re-exported under
/// its historical analyzer name: workloads declare the edges (see
/// [`pipeline::Workload::proven_orders`]), the models here witness the
/// ray tracer's, and the happens-before engine checks any of them.
pub use pipeline::{OrderEdge as ProvenOrder, OrderScope};

/// The orderings guaranteed by message causality and the blocking
/// mailbox protocol, as witnessed by the scheduler model: a message is
/// accepted only after its send began, so each job's instrumentation
/// points are totally ordered across nodes. Delegates to the ray-tracer
/// workload's own declaration ([`raysim::workload::proven_orders`]),
/// which this module's scheduler model is the witness for.
pub fn proven_orders(app: &AppConfig) -> Vec<ProvenOrder> {
    raysim::workload::proven_orders(app)
}

/// Explores the scheduler model, memoizing by shape — sweeps pre-flight
/// hundreds of runs that share the handful of version shapes, and the
/// verdict depends only on `(master_agents, servant_agents, preemptive,
/// budget)`.
pub fn check_sched(model: SchedModel, max_states: usize) -> SchedVerdict {
    static MEMO: Memo<(SchedModel, usize), SchedVerdict> = OnceLock::new();
    memoized(&MEMO, (model, max_states), |(model, max_states)| {
        model.explore(*max_states)
    })
}

/// Explores the flow model, memoizing by shape: the verdict depends only
/// on the model's bundle-unit parameters and the budget, and versions
/// differing only in the scene or the agents (V1 and V2) share a shape.
/// Returns exactly what [`FlowModel::explore`] returns.
pub fn check_flow(model: FlowModel, max_states: usize) -> FlowVerdict {
    static MEMO: Memo<(FlowModel, usize), FlowVerdict> = OnceLock::new();
    memoized(&MEMO, (model, max_states), |(model, max_states)| {
        model.explore(*max_states)
    })
}

/// Wall time spent in each model-checking phase of [`check_app_timed`],
/// for the per-layer cost breakdown `analyze --json` publishes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelTimings {
    /// The structural (place/transition-net) layer.
    pub structural: Duration,
    /// The exhaustive flow/exact/sched explorations.
    pub model: Duration,
    /// The DPOR race explorer.
    pub race: Duration,
}

/// One exhaustive layer that hit its state budget: which universal
/// claims stay partial, and which the structural layer closed anyway.
struct BoundedLayer {
    summary: String,
    partial: Vec<String>,
    closed: Vec<String>,
}

/// Model-checks an application configuration and folds the verdicts
/// into diagnostics.
///
/// The **structural layer runs first** (`AN-STRUCT-*`): its
/// P-invariant and siphon proofs hold for any shape size, so when an
/// exhaustive exploration below stops at its state budget, the
/// properties the structural layer already proved are reported closed
/// instead of partial. Then emits `AN-MODEL-001` (deadlock
/// reachability), `AN-MODEL-002` (window collapse), `AN-MODEL-003`
/// (credit conservation), `AN-MODEL-004` (effective synchrony) and
/// `AN-MODEL-005` (budget-bounded exploration, naming the specific
/// properties left partial). Proven properties are reported as `info`
/// diagnostics so a report stays clean for healthy configurations;
/// violated ones are errors carrying a counterexample path.
pub fn check_app(app: &AppConfig, budget: &ModelBudget) -> Report {
    check_app_timed(app, budget).0
}

/// [`check_app`] plus the per-phase wall-time breakdown.
pub fn check_app_timed(app: &AppConfig, budget: &ModelBudget) -> (Report, ModelTimings) {
    let mut report = Report::new(format!("{} protocol model", app.version));
    let mut timings = ModelTimings::default();
    let mut bounded_layers: Vec<BoundedLayer> = Vec::new();

    // --- Structural layer: certificates that do not depend on any
    // state budget. Runs first so the bounded layers below can skip
    // (report as closed) the properties it already proved.
    let phase = Instant::now();
    let st = crate::structural::analyze_structural(app);
    report.merge(crate::structural::structural_findings(app, &st));
    timings.structural = phase.elapsed();
    let structurally_deadlock_free = st.deadlock == DeadlockVerdict::Free;
    let has_certificates = st.conservation.is_some() && st.queue_bound.is_some();

    let phase = Instant::now();
    // --- Flow model: deadlock, window collapse, credit conservation.
    let flow = FlowModel::from_protocol(
        u32::from(app.servants),
        app.window,
        app.bundle_size,
        app.pixel_queue_capacity,
        app.write_chunk,
        app.eager_writeback,
    );
    match flow.counters_fit() {
        Ok(()) => {
            let fv = check_flow(flow, budget.flow_states);
            if fv.bounded {
                bounded_layers.push(flow_left_open(
                    format!(
                        "flow model stopped at {} states (budget {})",
                        fv.states, budget.flow_states
                    ),
                    structurally_deadlock_free,
                    has_certificates,
                ));
            }
            flow_findings(
                &mut report,
                app,
                &flow,
                &fv,
                structurally_deadlock_free,
                has_certificates,
            );
        }
        // Too wide for the state counters: the structural layer's
        // proofs stand alone.
        Err(wide) => bounded_layers.push(flow_left_open(
            format!("flow model not explored: {wide}"),
            structurally_deadlock_free,
            has_certificates,
        )),
    }

    // --- Exact model, for configurations small enough to close.
    if budget.exact_states > 0 && app.total_pixels() <= EXACT_MAX_PIXELS {
        let exact = ExactModel {
            total: app.total_pixels(),
            capacity: app.pixel_queue_capacity,
            bundle: app.bundle_size,
            chunk: app.write_chunk,
            credits: u32::from(app.servants) * app.window,
            eager: app.eager_writeback,
        };
        let ev = exact.explore(budget.exact_states);
        if ev.bounded {
            let mut partial = vec!["the possible-vs-inevitable deadlock classification".to_owned()];
            let mut closed = Vec::new();
            if structurally_deadlock_free {
                closed.push("deadlock freedom (AN-STRUCT-002)".to_owned());
            } else {
                partial.insert(0, "deadlock freedom".to_owned());
            }
            bounded_layers.push(BoundedLayer {
                summary: format!(
                    "exact model stopped at {} states (budget {})",
                    ev.states, budget.exact_states
                ),
                partial,
                closed,
            });
        } else if ev.deadlock_inevitable {
            let path = ev.deadlock_possible.clone().unwrap_or_default();
            report.push(
                Diagnostic::error(
                    "AN-MODEL-001",
                    "every scheduling deadlocks: no completion order of the outstanding \
                     jobs lets the master finish writing the image",
                )
                .note(format!(
                    "pixel-exact exploration of {} states found no completed terminal",
                    ev.states
                ))
                .with_path("one deadlocking schedule", path),
            );
        } else if let Some(path) = &ev.deadlock_possible {
            report.push(
                Diagnostic::warning(
                    "AN-MODEL-001",
                    "some schedulings deadlock: an unlucky completion order leaves a \
                     contiguous tail shorter than the write chunk",
                )
                .note(format!(
                    "pixel-exact exploration of {} states; completion is also reachable, \
                     so the outcome depends on the schedule",
                    ev.states
                ))
                .with_path("one deadlocking schedule", path.clone()),
            );
        } else {
            report.push(Diagnostic::info(
                "AN-MODEL-001",
                format!(
                    "pixel-exact check: no scheduling deadlocks ({} reachable states)",
                    ev.states
                ),
            ));
        }
    }

    // --- Scheduler model: the effective-synchrony theorem.
    let sv = check_sched(
        SchedModel {
            master_agents: app.version.master_agents(),
            servant_agents: app.version.servant_agents(),
            preemptive: false,
        },
        budget.sched_states,
    );
    if sv.bounded {
        bounded_layers.push(BoundedLayer {
            summary: format!(
                "scheduler model stopped at {} states (budget {})",
                sv.states, budget.sched_states
            ),
            partial: vec!["effective synchrony (SYNC-1/SYNC-2)".to_owned()],
            closed: Vec::new(),
        });
    }
    if let Some(path) = sv.sync1_violation.clone().or(sv.sync2_violation.clone()) {
        report.push(
            Diagnostic::error(
                "AN-MODEL-004",
                "effective synchrony violated: a mailbox send can complete while a user \
                 process still holds its CPU",
            )
            .with_path("counterexample interleaving", path),
        );
    } else if !sv.bounded {
        report.push(Diagnostic::info(
            "AN-MODEL-004",
            format!(
                "effective synchrony proven for this version's communication shape: in \
                 all {} reachable interleavings ({} mailbox accepts checked), the sender \
                 is blocked at accept time and no user process on the accepting node is \
                 mid-compute",
                sv.states, sv.accepts_checked
            ),
        ));
    }

    timings.model = phase.elapsed();

    // --- Race explorer: schedule-dependent message orderings. Under
    // the machine's non-preemptive round-robin the stock shapes are
    // proven race-free (info findings); the preemptive variant is the
    // `analyze --races --preemptive` section and stays out of the
    // default report.
    let phase = Instant::now();
    report.merge(crate::race::check_races(app, budget, false));
    timings.race = phase.elapsed();

    if !bounded_layers.is_empty() {
        let mut d = Diagnostic::info(
            "AN-MODEL-005",
            "exploration bounded by the state budget; universal claims that no other \
             layer closes are partial",
        );
        for l in bounded_layers {
            d = d.note(format!(
                "{} — still partial: {}",
                l.summary,
                l.partial.join(", ")
            ));
            if !l.closed.is_empty() {
                d = d.note(format!("  closed structurally: {}", l.closed.join("; ")));
            }
        }
        report.push(d);
    }

    (report, timings)
}

/// The bounded-layer note for a flow exploration that stopped at its
/// budget or never ran: completion reachability stays partial, and each
/// other claim is closed structurally where that layer proved it.
fn flow_left_open(
    summary: String,
    structurally_deadlock_free: bool,
    has_certificates: bool,
) -> BoundedLayer {
    let mut partial = vec!["completion reachability".to_owned()];
    let mut closed = Vec::new();
    if structurally_deadlock_free {
        closed.push("deadlock freedom (AN-STRUCT-002)".to_owned());
    } else {
        partial.insert(0, "deadlock freedom".to_owned());
    }
    if has_certificates {
        closed.push("credit conservation and the queue bound (AN-STRUCT-001)".to_owned());
        closed.push("peak concurrency / window collapse (AN-STRUCT-004)".to_owned());
    } else {
        partial.push("credit conservation".to_owned());
        partial.push("peak concurrency".to_owned());
    }
    BoundedLayer {
        summary,
        partial,
        closed,
    }
}

/// The flow model's findings (`AN-MODEL-001`…`003`) from its verdict.
/// Where the exploration was bounded, a claim the structural layer
/// proved cites that proof.
fn flow_findings(
    report: &mut Report,
    app: &AppConfig,
    flow: &FlowModel,
    fv: &FlowVerdict,
    structurally_deadlock_free: bool,
    has_certificates: bool,
) {
    if let Some(path) = &fv.deadlock {
        report.push(
            Diagnostic::error(
                "AN-MODEL-001",
                "a reachable protocol state deadlocks: the master can neither send, \
                 receive, nor write",
            )
            .note(format!(
                "found by exhaustive exploration of {} reachable states (bundle-granular \
                 flow model)",
                fv.states
            ))
            .with_path("counterexample (one transition per line)", path.clone()),
        );
    } else if !fv.bounded {
        report.push(
            Diagnostic::info(
                "AN-MODEL-001",
                format!(
                    "deadlock-free: exhaustive exploration of {} reachable protocol states \
                     found no state where the master is stuck",
                    fv.states
                ),
            )
            .locate(Location::Model { path: Vec::new() }),
        );
    } else if structurally_deadlock_free {
        report.push(
            Diagnostic::info(
                "AN-MODEL-001",
                format!(
                    "deadlock-free: proven structurally for any shape size (siphon/trap \
                     analysis, AN-STRUCT-002); the bounded exploration of {} states found \
                     no counterexample either",
                    fv.states
                ),
            )
            .locate(Location::Model { path: Vec::new() }),
        );
    }

    // Window collapse: provable structurally (the queue bound caps
    // concurrency below the window total); the exploration supplies the
    // witness path to the observed peak.
    let intended = u64::from(app.servants) * u64::from(app.window);
    if u64::from(flow.capacity_b) < intended {
        report.push(
            Diagnostic::error(
                "AN-MODEL-002",
                format!(
                    "window collapse: flow control intends {intended} concurrent jobs but \
                     no reachable state holds more than {} — the pixel queue bound caps \
                     concurrency",
                    fv.max_outstanding
                ),
            )
            .at_config("app.pixel_queue_capacity", app.pixel_queue_capacity)
            .note(format!(
                "peak of {} outstanding jobs over {} explored states{}",
                fv.max_outstanding,
                fv.states,
                if fv.bounded { " (bounded)" } else { "" }
            ))
            .with_path(
                "witness path to the concurrency ceiling",
                fv.peak_witness.clone(),
            ),
        );
    } else if !fv.bounded {
        report.push(Diagnostic::info(
            "AN-MODEL-002",
            format!(
                "full window concurrency is reachable: {} of {intended} intended jobs \
                 outstanding in some state, over {} explored states",
                fv.max_outstanding, fv.states
            ),
        ));
    } else if has_certificates {
        report.push(Diagnostic::info(
            "AN-MODEL-002",
            format!(
                "full window concurrency is reachable: proven structurally — the queue \
                 invariant bounds concurrency at min(credits, capacity) = {intended} and \
                 the monotone send sequence attains it (AN-STRUCT-004); the bounded \
                 exploration reached {} of {intended}",
                fv.max_outstanding
            ),
        ));
    }

    // Credit conservation, checked mechanically in every state.
    if !fv.credits_conserved || !fv.capacity_respected {
        report.push(
            Diagnostic::error(
                "AN-MODEL-003",
                if fv.credits_conserved {
                    "the pixel-queue bound is overrun in a reachable state"
                } else {
                    "credit conservation violated: a reachable state holds more \
                     outstanding jobs than window credits"
                },
            )
            .note(format!("over {} explored states", fv.states)),
        );
    } else if !fv.bounded {
        report.push(Diagnostic::info(
            "AN-MODEL-003",
            format!(
                "credit conservation proven: outstanding jobs never exceed {} credits and \
                 in-flight pixels never exceed the queue bound, in all {} reachable states",
                flow.credits, fv.states
            ),
        ));
    } else if has_certificates {
        report.push(Diagnostic::info(
            "AN-MODEL-003",
            format!(
                "credit conservation proven: the P-invariant certificate (AN-STRUCT-001) \
                 bounds outstanding jobs at {} credits in every reachable state, for any \
                 budget; the bounded exploration of {} states agreed",
                flow.credits, fv.states
            ),
        ));
    }
}

/// Model-checks the preemptive-scheduler variant of a configuration,
/// returning the effective-synchrony verdict (with its counterexample
/// path) directly.
pub fn check_preemptive_variant(app: &AppConfig, budget: &ModelBudget) -> SchedVerdict {
    check_sched(
        SchedModel {
            master_agents: app.version.master_agents(),
            servant_agents: app.version.servant_agents(),
            preemptive: true,
        },
        budget.sched_states,
    )
}

/// Shared assertions over model-checker witness paths, used by the
/// scheduler-model and module-level tests alike.
#[cfg(test)]
pub(crate) mod testutil {
    /// Asserts a witness/counterexample path is well-formed: non-empty,
    /// no blank steps, and every step readable on one line.
    pub(crate) fn assert_witness_well_formed(path: &[String]) {
        assert!(!path.is_empty(), "witness path must not be empty");
        for (i, step) in path.iter().enumerate() {
            assert!(!step.trim().is_empty(), "blank witness step at index {i}");
            assert!(
                !step.contains('\n'),
                "multi-line witness step at index {i}: {step:?}"
            );
        }
    }

    /// Asserts a SYNC-2 counterexample is well-formed *and* tells the
    /// SYNC-2 story: a preemption occurs along the way and the final
    /// transition names the violated property.
    pub(crate) fn assert_sync2_witness(path: &[String]) {
        assert_witness_well_formed(path);
        assert!(
            path.iter().any(|l| l.contains("preempts")),
            "a SYNC-2 witness must contain a preemption: {path:?}"
        );
        assert!(
            path.last().unwrap().contains("SYNC-2"),
            "the final step must name the violation: {path:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysim::config::Version;

    #[test]
    fn v3_is_flagged_statically_with_a_counterexample() {
        let report = check_app(&AppConfig::version(Version::V3), &ModelBudget::full());
        assert!(report.has_errors());
        let collapse = report
            .findings
            .iter()
            .find(|f| f.code == "AN-MODEL-002")
            .expect("V3 must collapse");
        assert!(collapse.notes.iter().any(|n| n.contains("15 outstanding")));
        assert!(matches!(collapse.location, Location::Model { .. }));
        // The witness path is a reproducible counterexample.
        assert!(collapse
            .notes
            .iter()
            .any(|n| n.contains("witness path to the concurrency ceiling:")));
    }

    #[test]
    fn v4_is_proven_deadlock_free_and_credit_conserving() {
        let report = check_app(&AppConfig::version(Version::V4), &ModelBudget::full());
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.warnings(), 0);
        let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.starts_with("deadlock-free")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("credit conservation proven")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("effective synchrony proven")));
    }

    #[test]
    fn all_stock_versions_prove_effective_synchrony() {
        for v in Version::ALL {
            let report = check_app(&AppConfig::version(v), &ModelBudget::full());
            assert!(
                report.findings.iter().any(|f| f.code == "AN-MODEL-004"
                    && f.message.contains("effective synchrony proven")),
                "{v}: {}",
                report.render()
            );
        }
    }

    #[test]
    fn preemptive_variant_yields_a_counterexample() {
        let verdict =
            check_preemptive_variant(&AppConfig::version(Version::V4), &ModelBudget::full());
        let path = verdict.sync2_violation.expect("preemption breaks SYNC-2");
        testutil::assert_sync2_witness(&path);
    }

    #[test]
    fn memoized_flow_verdicts_are_the_explorations() {
        // A budget no other test uses, so V1's first call misses; V2
        // shares V1's shape and reads its verdict.
        let budget = 60_000;
        for v in Version::ALL {
            let app = AppConfig::version(v);
            let flow = FlowModel::from_protocol(
                u32::from(app.servants),
                app.window,
                app.bundle_size,
                app.pixel_queue_capacity,
                app.write_chunk,
                app.eager_writeback,
            );
            let explored = flow.explore(budget);
            assert_eq!(check_flow(flow, budget), explored, "{v}: first call");
            assert_eq!(check_flow(flow, budget), explored, "{v}: repeated call");
        }
    }

    #[test]
    fn verdict_cache_survives_mutex_poisoning() {
        // A panic while holding the lock must not cascade into every
        // later analysis sharing the process-wide cache.
        let m = std::sync::Mutex::new(vec![1, 2, 3]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), vec![1, 2, 3]);
        lock_unpoisoned(&m).push(4);
        assert_eq!(lock_unpoisoned(&m).len(), 4);
    }

    #[test]
    fn stock_versions_add_no_warnings_under_the_preflight_budget() {
        // The pre-flight hook folds these findings into existing
        // warn/deny policies: they must stay info-only for V1/V2/V4 and
        // error-only for V3.
        for v in Version::ALL {
            let report = check_app(&AppConfig::version(v), &ModelBudget::preflight());
            assert_eq!(report.warnings(), 0, "{v}: {}", report.render());
            assert_eq!(report.has_errors(), v == Version::V3, "{v}");
        }
    }

    #[test]
    fn a_queue_too_wide_for_the_flow_counters_rests_on_structural_proofs() {
        let mut app = AppConfig::version(Version::V1);
        app.pixel_queue_capacity = 70_000;
        let report = check_app(&app, &ModelBudget::preflight());
        assert!(!report.has_errors(), "{}", report.render());
        let bounded = report
            .findings
            .iter()
            .find(|f| f.code == "AN-MODEL-005")
            .expect("the flow claims are reported as left to other layers");
        assert!(
            bounded
                .notes
                .iter()
                .any(|n| n
                    .starts_with("flow model not explored: the pixel queue holds 70000 bundles")),
            "{:?}",
            bounded.notes
        );
        assert!(
            bounded
                .notes
                .iter()
                .any(|n| n.contains("closed structurally: deadlock freedom")),
            "{:?}",
            bounded.notes
        );
    }

    #[test]
    fn proven_orders_follow_instrumentation() {
        let v1 = proven_orders(&AppConfig::version(Version::V1));
        assert_eq!(v1.len(), 2);
        let v4 = proven_orders(&AppConfig::version(Version::V4));
        assert_eq!(v4.len(), 4);
        assert!(v4.iter().any(|o| o.name == "result-sent-before-received"));
    }
}
