//! `harness verify` — dynamic cross-validation of the static models.
//!
//! The model checker proves orderings; this module checks that every
//! recorded trace actually respects them. Each job of a sweep is
//! executed (after its configured pre-flight analysis, whose *mode* the
//! `ANALYZER_POLICY` environment variable may override) and its merged
//! monitoring trace is validated with the happens-before engine against
//! the orderings the job's workload declares ([`pipeline::JobRun::orders`]).
//! A healthy simulator yields zero violations — any `AN-HB-*` error
//! means either the simulator broke a proven protocol ordering or the
//! monitoring pipeline corrupted the trace, both of which must fail CI.
//!
//! A run whose pre-flight analysis *denies* execution (policy `deny`)
//! is recorded and skipped, but verification continues so the final
//! output lists every denial — not just the first.
//!
//! With races enabled ([`VerifyOptions::races`], `harness verify
//! --races`), each executed run additionally gets a race cross-check:
//! the race explorer runs over the run's communication shape, every
//! `AN-RACE-*` witness interleaving is replayed against the model and
//! confirmed concurrent by the vector-clock engine, and the dynamic
//! trace is reconciled with the static verdict — a recorded
//! `AN-HB-002` race in a shape the round-robin model proves race-free
//! is an inconsistency and fails verification.
//!
//! Every executed ray-tracer run also gets a *structural certificate*
//! cross-check: the P-invariant the structural layer proves over the
//! run's actual protocol net (credit conservation — outstanding jobs
//! never exceed servants × window credits) is re-checked against the
//! recorded trace's send/receive accounting. An algebraic certificate
//! the dynamics contradict would mean the net is mis-modelled, and
//! fails verification.

use analyzer::race::{check_race_model, RaceModel};
use analyzer::{check_races, validate_orders, Diagnostic, ModelBudget, Report};
use pipeline::PolicyMode;
use raysim::config::AppConfig;
use suprenum::SchedulerKind;

use crate::Sweep;

/// Knobs for a verification pass.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Run the race cross-check on every executed run.
    pub races: bool,
    /// Re-run every job under this scheduling policy instead of the one
    /// its sweep baked in (the CLI's `verify --scheduler`). The
    /// scheduler cross-check always reads the policy each run *actually*
    /// executed under, so the verdict gates stay correct either way.
    pub scheduler: Option<SchedulerKind>,
}

/// The outcome of verifying one sweep.
#[derive(Debug)]
pub struct VerifyReport {
    /// One happens-before report per executed run, in sweep order.
    pub run_reports: Vec<Report>,
    /// One race cross-check report per executed run (empty unless the
    /// sweep was verified with races enabled).
    pub race_reports: Vec<Report>,
    /// One structural-certificate cross-check per executed run that
    /// carries its application shape ([`crate::RunSpec::app`]) — the
    /// recorded trace's credit accounting checked against the
    /// P-invariant bound the structural layer certifies.
    pub structural_reports: Vec<Report>,
    /// One scheduler cross-check per executed run: the policy the run
    /// executed under, reconciled against the preemption tokens its
    /// recorded trace contains. Round-robin must show none; a
    /// deterministic preemptive policy with kernel instrumentation must
    /// show at least one — the dynamically observed counterpart of the
    /// analyzer's static preemptive-divergence verdict.
    pub sched_reports: Vec<Report>,
    /// Labels of runs whose pre-flight analysis refused execution.
    pub denied: Vec<String>,
    /// Labels of runs that did not complete (their traces are still
    /// validated — a truncated execution must not break proven orders).
    pub truncated: Vec<String>,
}

impl VerifyReport {
    /// Total happens-before violations across all executed runs.
    pub fn violations(&self) -> usize {
        self.run_reports.iter().map(Report::errors).sum()
    }

    /// Race cross-check failures: a witness that does not replay, a
    /// witness the vector-clock engine can order, or a dynamic race in
    /// a statically race-free shape.
    pub fn race_inconsistencies(&self) -> usize {
        self.race_reports.iter().map(Report::errors).sum()
    }

    /// Structural-certificate failures: a recorded trace whose credit
    /// accounting contradicts the P-invariant bound (more jobs
    /// outstanding than window credits exist, or a receipt with
    /// nothing outstanding).
    pub fn certificate_violations(&self) -> usize {
        self.structural_reports.iter().map(Report::errors).sum()
    }

    /// Scheduler cross-check failures: preemption tokens recorded under
    /// round-robin, or a deterministic preemptive policy whose
    /// kernel-instrumented trace shows no preemption at all.
    pub fn sched_inconsistencies(&self) -> usize {
        self.sched_reports.iter().map(Report::errors).sum()
    }

    /// Process exit code: `4` when any run was denied by pre-flight
    /// policy, `1` when any proven ordering was violated, any race or
    /// scheduler cross-check failed, or any recorded trace contradicted
    /// a structural certificate, `0` otherwise. Truncation alone does
    /// not fail verification — the sweep gate owns completion; this
    /// gate owns ordering.
    pub fn exit_code(&self) -> u8 {
        if !self.denied.is_empty() {
            4
        } else if self.violations()
            + self.race_inconsistencies()
            + self.certificate_violations()
            + self.sched_inconsistencies()
            > 0
        {
            1
        } else {
            0
        }
    }
}

/// Executes every job of `sweep` (serially — verification sweeps are
/// small) and validates each trace against the orderings its workload
/// declares, plus the race and scheduler cross-checks `opts` selects.
/// The pre-flight *mode* defaults to warn-but-run so the analysis
/// findings are always printed; `ANALYZER_POLICY` overrides it; the
/// analysis *hook* stays whatever the spec configured.
pub fn verify_sweep(sweep: &Sweep, opts: &VerifyOptions) -> VerifyReport {
    let mut out = VerifyReport {
        run_reports: Vec::new(),
        race_reports: Vec::new(),
        structural_reports: Vec::new(),
        sched_reports: Vec::new(),
        denied: Vec::new(),
        truncated: Vec::new(),
    };

    let mode = PolicyMode::from_env().unwrap_or(PolicyMode::Warn);
    for spec in &sweep.runs {
        let mut job = spec.job.clone();
        if let Some(kind) = &opts.scheduler {
            job.override_scheduler(kind.clone());
        }
        let run = match job.run_with_policy(Some(mode)) {
            Ok(run) => run,
            Err(_denied) => {
                // The summary was already printed by the pre-flight;
                // record the denial and keep going so every denial is
                // reported.
                out.denied.push(spec.label.clone());
                continue;
            }
        };
        if run.outcome.truncated() {
            out.truncated.push(spec.label.clone());
        }
        if spec.faults.is_some() {
            // A fault-study row: the probe plane was deliberately
            // perturbed, so ordering anomalies in the recorded trace
            // are the measurement itself — report, don't gate.
            let mut report = Report::new(format!("{} happens-before", spec.label));
            report.push(Diagnostic::info(
                "AN-HB-000",
                "fault injection active on this row — measurement-plane cross-checks \
                 (happens-before, race, structural certificate) are informational only \
                 and skipped; injected drops, corruptions, and clock drift are the \
                 subject of the measurement",
            ));
            out.run_reports.push(report);
            continue;
        }
        let mut report = validate_orders(&run.trace, &run.orders);
        report.subject = format!("{} happens-before", spec.label);
        if opts.races {
            out.race_reports.push(race_crosscheck(
                spec,
                &report,
                &run.orders,
                run.scheduler.is_preemptive(),
            ));
        }
        if let Some(structural) = structural_crosscheck(spec, &run.trace) {
            out.structural_reports.push(structural);
        }
        out.sched_reports
            .push(sched_crosscheck(&spec.label, &run.scheduler, &run.trace));
        out.run_reports.push(report);
    }

    out
}

/// The scheduler cross-check for one executed run: reconcile the policy
/// the run executed under with the preemption evidence in its recorded
/// trace. This is the dynamic counterpart of the analyzer's static
/// preemptive-divergence verdict:
///
/// * round-robin is non-preemptive by construction — a
///   [`suprenum::os_tokens::KERNEL_PREEMPT`] token in its trace means
///   the scheduler abstraction leaked (`AN-RACE-004` error);
/// * a deterministic preemptive policy (fixed-priority, CFS) whose
///   kernel-instrumented trace shows *no* preemption never exercised
///   the predicted race class — the study measured nothing
///   (`AN-RACE-004` error);
/// * the fuzz wrapper perturbs probabilistically per seed, so its
///   counts are reported without gating;
/// * without kernel instrumentation the trace cannot witness either
///   way, and the static verdict stands unreconciled (info).
fn sched_crosscheck(label: &str, scheduler: &SchedulerKind, trace: &simple::Trace) -> Report {
    use suprenum::os_tokens::{self, KERNEL_PREEMPT, KERNEL_TOKEN_BASE};

    let mut report = Report::new(format!("{label} scheduler cross-check ({scheduler})"));
    let kernel_tokens = trace
        .events()
        .iter()
        .filter(|e| e.token.value() >= KERNEL_TOKEN_BASE)
        .count();
    let preempts: Vec<u8> = trace
        .events()
        .iter()
        .filter(|e| e.token.value() == KERNEL_PREEMPT)
        .map(|e| os_tokens::split_param(e.param.value()).1)
        .collect();
    // Code 1 is a mailbox LWP seizing the CPU from user computation —
    // the paper's mailbox-synchrony scheduling decision made visible.
    let mailbox_seizes = preempts.iter().filter(|&&c| c == 1).count();

    if kernel_tokens == 0 {
        report.push(Diagnostic::info(
            "AN-RACE-004",
            format!(
                "no kernel instrumentation recorded under '{scheduler}' — the static \
                 scheduling verdict stands unreconciled (enable kernel events to observe \
                 preemption dynamically)"
            ),
        ));
        return report;
    }

    match scheduler {
        SchedulerKind::RoundRobin => {
            if preempts.is_empty() {
                report.push(Diagnostic::info(
                    "AN-RACE-004",
                    format!(
                        "dynamically confirmed: {kernel_tokens} kernel event(s) recorded and \
                         no preemption under round-robin — the non-preemptive model the race \
                         explorer proves race-free matches the machine"
                    ),
                ));
            } else {
                report.push(
                    Diagnostic::error(
                        "AN-RACE-004",
                        format!(
                            "{} preemption token(s) recorded under round-robin — a \
                             non-preemptive policy must never preempt",
                            preempts.len()
                        ),
                    )
                    .help("the scheduler abstraction leaked or the trace is corrupt"),
                );
            }
        }
        SchedulerKind::Preemptive { .. } | SchedulerKind::Cfs { .. } => {
            if preempts.is_empty() {
                report.push(
                    Diagnostic::error(
                        "AN-RACE-004",
                        format!(
                            "predicted preemptive race class not observed: '{scheduler}' \
                             recorded {kernel_tokens} kernel event(s) but zero preemptions"
                        ),
                    )
                    .help(
                        "shrink the quantum or grow the workload until the policy actually \
                         preempts — an unexercised policy verifies nothing",
                    ),
                );
            } else {
                report.push(Diagnostic::info(
                    "AN-RACE-004",
                    format!(
                        "dynamically confirmed: {} preemption(s) under '{scheduler}', {} by \
                         mailbox seizure — the preemptive divergence the analyzer predicts \
                         statically is observed in the recorded trace",
                        preempts.len(),
                        mailbox_seizes
                    ),
                ));
            }
        }
        SchedulerKind::Fuzz { .. } => {
            report.push(Diagnostic::info(
                "AN-RACE-004",
                format!(
                    "fuzz policy '{scheduler}': {} preemption(s) recorded ({} mailbox) — \
                     seeded perturbation reported without gating",
                    preempts.len(),
                    mailbox_seizes
                ),
            ));
        }
    }
    report
}

/// The race cross-check for one executed run: explore the run's
/// communication shape, validate every witness (replay + vector-clock
/// concurrency — [`check_race_model`] emits an error for a witness
/// failing either), and reconcile the static verdict with the races
/// the happens-before engine actually observed in the recorded trace.
fn race_crosscheck(
    spec: &crate::RunSpec,
    hb_report: &Report,
    orders: &[analyzer::ProvenOrder],
    preemptive: bool,
) -> Report {
    let budget = ModelBudget::full();
    let mut report = match spec.version {
        // The ray tracer's master/servant shape: the preemptive
        // exploration produces the witnesses worth cross-checking (the
        // round-robin shape is proven race-free by the pre-flight).
        Some(version) => {
            let mut r = check_races(&AppConfig::version(version), &budget, true);
            r.subject = format!("{} race cross-check (preemptive shape)", spec.label);
            r
        }
        // SPMD workloads (Jacobi): two workers feeding a collector
        // mailbox under the scope the workload's own orders declare —
        // per-channel orders suppress the benign cross-worker
        // interleaving.
        None => {
            let scope = pipeline::dominant_scope(orders);
            let model = RaceModel::spmd_shape(false, scope);
            check_race_model(
                &model,
                budget.sched_states,
                &format!("{} race cross-check (SPMD shape)", spec.label),
            )
        }
    };

    // Reconcile static and dynamic. Under the non-preemptive
    // round-robin policy the models prove every stock shape race-free —
    // so a concurrent duplicate in the *recorded* trace contradicts the
    // model and must fail verification. Under a preemptive policy the
    // static explorer *predicts* such interleavings: observing one is
    // agreement, not contradiction.
    let dynamic_races = hb_report.with_code("AN-HB-002").count();
    match (dynamic_races > 0, preemptive) {
        (true, false) => report.push(
            Diagnostic::error(
                "AN-RACE-001",
                format!(
                    "recorded trace contradicts the race model: {dynamic_races} concurrent \
                     duplicate(s) (AN-HB-002) observed dynamically in a shape the \
                     round-robin explorer proves race-free"
                ),
            )
            .help("either the scheduler is not round-robin or the trace is corrupt"),
        ),
        (true, true) => report.push(Diagnostic::info(
            "AN-RACE-001",
            format!(
                "recorded trace agrees with the preemptive exploration: {dynamic_races} \
                 concurrent duplicate(s) (AN-HB-002) observed dynamically, as the witness \
                 interleavings predict"
            ),
        )),
        (false, _) => report.push(Diagnostic::info(
            "AN-RACE-001",
            "recorded trace agrees with the race model: no concurrent duplicates observed \
             dynamically",
        )),
    }
    report
}

/// The structural-certificate cross-check for one executed run: the
/// P-invariant the structural layer certifies for the run's *actual*
/// application shape (not the stock version — a scaling rung runs 63
/// servants) bounds outstanding jobs at servants × window credits in
/// every reachable state. The recorded trace must agree: replaying its
/// send/receive accounting, the peak number of outstanding job sends
/// can never exceed the certified bound, and no receipt can arrive
/// with nothing outstanding.
///
/// Receipts are counted at `RECEIVE_RESULTS_BEGIN`, which *under*-
/// counts outstanding work (the credit is only returned once the
/// result is consumed) — so the check is conservative: it can miss a
/// marginal violation but never fabricate one.
///
/// `None` for runs without an application shape (Jacobi — its
/// protocol has no credit window to certify).
fn structural_crosscheck(spec: &crate::RunSpec, trace: &simple::Trace) -> Option<Report> {
    use raysim::tokens::{RECEIVE_RESULTS_BEGIN, SEND_JOBS_BEGIN};

    let app = spec.app.as_ref()?;
    let verdict = analyzer::analyze_structural(app);
    let credits = verdict.intended_concurrency;
    let mut report = Report::new(format!("{} structural certificate", spec.label));

    let (mut outstanding, mut peak) = (0u64, 0u64);
    let (mut sends, mut receives) = (0u64, 0u64);
    let mut underflow = false;
    for e in trace.events() {
        match e.token.value() {
            SEND_JOBS_BEGIN => {
                sends += 1;
                outstanding += 1;
                peak = peak.max(outstanding);
            }
            RECEIVE_RESULTS_BEGIN => {
                receives += 1;
                match outstanding.checked_sub(1) {
                    Some(rest) => outstanding = rest,
                    None => underflow = true,
                }
            }
            _ => {}
        }
    }

    let certificate = verdict
        .conservation
        .as_ref()
        .map(|inv| inv.render(&verdict.net.net));
    if underflow {
        report.push(
            Diagnostic::error(
                "AN-STRUCT-001",
                format!(
                    "recorded trace contradicts the credit-conservation certificate: a result \
                     receipt arrived with no job outstanding ({sends} sends, {receives} receipts)"
                ),
            )
            .help("either the trace is corrupt or the protocol net mis-models the run"),
        );
    } else if peak > credits {
        report.push(
            Diagnostic::error(
                "AN-STRUCT-001",
                format!(
                    "recorded trace contradicts the credit-conservation certificate: {peak} \
                     jobs outstanding at the dynamic peak, but the P-invariant caps the window \
                     at {credits} credits"
                ),
            )
            .help("either the trace is corrupt or the protocol net mis-models the run"),
        );
    } else {
        let mut d = Diagnostic::info(
            "AN-STRUCT-001",
            format!(
                "invariant certificate holds on the recorded trace: peak {peak} of {credits} \
                 window credits outstanding ({sends} sends, {receives} receipts)"
            ),
        );
        if let Some(certificate) = certificate {
            d = d.note(format!("certified bound: {certificate}"));
        }
        report.push(d);
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps;
    use pipeline::{Job, PipelineConfig};
    use raysim::config::{AppConfig, SceneKind, Version};

    const RACES: VerifyOptions = VerifyOptions {
        races: true,
        scheduler: None,
    };

    fn ray_spec(label: &str, version: Version, servants: u16) -> crate::RunSpec {
        let mut app = AppConfig::version(version);
        app.servants = servants;
        app.scene = SceneKind::Quickstart;
        app.width = 8;
        app.height = 8;
        let mut cfg = PipelineConfig::new(app.clone());
        cfg.preflight = analyzer::pipeline_warn();
        crate::RunSpec {
            label: label.to_owned(),
            job: Job::new(cfg),
            version: Some(version),
            app: Some(app),
            paper_percent: None,
            faults: None,
        }
    }

    #[test]
    fn deny_mode_reports_every_denied_run_and_exits_4() {
        // Two copies of the stock V3 protocol shape (whose window
        // collapse is a static error) plus one healthy V4 run: under
        // `deny`, BOTH V3 runs must be reported — not just the first —
        // and the healthy run still executes and validates.
        let sweep = Sweep {
            name: "deny-test".into(),
            runs: vec![
                ray_spec("bad-a", Version::V3, 15),
                ray_spec("bad-b", Version::V3, 15),
                ray_spec("good", Version::V4, 2),
            ],
        };
        // Safe against the sibling tests: the smoke and jacobi configs
        // analyze without errors, so a leaked `deny` cannot refuse them.
        std::env::set_var("ANALYZER_POLICY", "deny");
        let report = verify_sweep(&sweep, &VerifyOptions::default());
        std::env::remove_var("ANALYZER_POLICY");
        assert_eq!(report.denied, vec!["bad-a".to_owned(), "bad-b".to_owned()]);
        assert_eq!(report.run_reports.len(), 1);
        assert_eq!(report.violations(), 0);
        assert_eq!(report.exit_code(), 4);
    }

    #[test]
    fn smoke_sweep_traces_respect_every_proven_order() {
        let sweep = sweeps::by_name("smoke", crate::Scale::Quick, 1992).unwrap();
        let report = verify_sweep(&sweep, &VerifyOptions::default());
        assert_eq!(report.denied, Vec::<String>::new());
        assert_eq!(report.violations(), 0, "{:#?}", report.run_reports);
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.run_reports.len(), sweep.runs.len());
        // Every executed run produced a positive edge count (the info
        // line records it).
        for r in &report.run_reports {
            assert!(
                r.findings
                    .iter()
                    .any(|f| f.message.contains("all proven orderings hold")),
                "{}",
                r.render()
            );
        }
    }

    #[test]
    fn structural_certificates_hold_on_every_smoke_trace() {
        // Every ray run of the smoke sweep carries its application
        // shape, so each gets a certificate cross-check — and a healthy
        // simulator can never have more jobs outstanding than the
        // P-invariant's credit bound.
        let sweep = sweeps::by_name("smoke", crate::Scale::Quick, 1992).unwrap();
        let ray_runs = sweep.runs.iter().filter(|s| s.app.is_some()).count();
        assert!(ray_runs > 0, "smoke sweep lost its ray runs");
        let report = verify_sweep(&sweep, &VerifyOptions::default());
        assert_eq!(report.structural_reports.len(), ray_runs);
        assert_eq!(
            report.certificate_violations(),
            0,
            "{:#?}",
            report.structural_reports
        );
        assert_eq!(report.exit_code(), 0);
        for r in &report.structural_reports {
            assert!(
                r.findings
                    .iter()
                    .any(|f| f.message.contains("invariant certificate holds")
                        && f.notes.iter().any(|n| n.contains("certified bound"))),
                "{}",
                r.render()
            );
        }
    }

    #[test]
    fn certificate_crosscheck_uses_the_actual_shape_not_the_stock_version() {
        // A 5-servant V4 run (stock V4 has 15 servants): the bound must
        // come from the spec's recorded app — 5 × window credits — and
        // still hold on the trace.
        let spec = ray_spec("scaled", Version::V4, 5);
        let app = spec.app.clone().unwrap();
        let expected = analyzer::analyze_structural(&app).intended_concurrency;
        let sweep = Sweep {
            name: "scaled".into(),
            runs: vec![spec],
        };
        let report = verify_sweep(&sweep, &VerifyOptions::default());
        assert_eq!(report.certificate_violations(), 0);
        let r = &report.structural_reports[0];
        assert!(
            r.findings
                .iter()
                .any(|f| f.message.contains(&format!("of {expected} window credits"))),
            "expected the {expected}-credit bound in: {}",
            r.render()
        );
    }

    #[test]
    fn race_crosscheck_confirms_every_witness_on_the_smoke_sweep() {
        let sweep = sweeps::by_name("smoke", crate::Scale::Quick, 1992).unwrap();
        let report = verify_sweep(&sweep, &RACES);
        assert_eq!(report.race_reports.len(), report.run_reports.len());
        assert_eq!(
            report.race_inconsistencies(),
            0,
            "{:#?}",
            report.race_reports
        );
        assert_eq!(report.exit_code(), 0);
        for r in &report.race_reports {
            // The preemptive shape always yields at least one witness,
            // and every witness carries its consistency note.
            assert!(r.warnings() >= 1, "{}", r.render());
            assert!(
                r.findings.iter().any(|f| f
                    .notes
                    .iter()
                    .any(|n| n.contains("confirmed concurrent by the vector-clock"))),
                "{}",
                r.render()
            );
            // And the recorded trace agreed with the static verdict.
            assert!(
                r.findings
                    .iter()
                    .any(|f| f.message.contains("recorded trace agrees")),
                "{}",
                r.render()
            );
        }
    }

    #[test]
    fn race_crosscheck_suppresses_the_benign_spmd_interleaving() {
        let sweep = sweeps::by_name("jacobi", crate::Scale::Quick, 1992).unwrap();
        let report = verify_sweep(&sweep, &RACES);
        assert_eq!(report.race_reports.len(), report.run_reports.len());
        assert_eq!(
            report.race_inconsistencies(),
            0,
            "{:#?}",
            report.race_reports
        );
        for r in &report.race_reports {
            // Jacobi declares per-channel orders: the cross-worker
            // receive-race at the collector mailbox is observed but
            // suppressed, so no warning survives.
            assert_eq!(r.warnings(), 0, "{}", r.render());
            assert!(
                r.findings.iter().any(|f| f.message.contains("suppressed")),
                "{}",
                r.render()
            );
        }
    }

    #[test]
    fn sched_sweep_reconciles_static_and_dynamic_scheduling_verdicts() {
        // The inverted gate of the scheduling study: round-robin rows
        // must record kernel events and zero preemptions; the
        // deterministic preemptive policies must record at least one —
        // both directions verified on the same sweep, exit code 0.
        let sweep = sweeps::by_name("sched", crate::Scale::Quick, 1992).unwrap();
        let report = verify_sweep(&sweep, &VerifyOptions::default());
        assert_eq!(report.denied, Vec::<String>::new());
        assert_eq!(report.violations(), 0, "{:#?}", report.run_reports);
        assert_eq!(
            report.sched_inconsistencies(),
            0,
            "{:#?}",
            report.sched_reports
        );
        assert_eq!(report.exit_code(), 0);
        // Fault rows skip the measurement-plane gates entirely.
        let fault_rows = sweep.runs.iter().filter(|s| s.faults.is_some()).count();
        assert_eq!(report.sched_reports.len(), sweep.runs.len() - fault_rows);
        let confirmed = |tag: &str, needle: &str| {
            report
                .sched_reports
                .iter()
                .filter(|r| r.subject.starts_with(tag))
                .all(|r| r.findings.iter().any(|f| f.message.contains(needle)))
        };
        assert!(
            confirmed("rr-", "no preemption under round-robin"),
            "{:#?}",
            report.sched_reports
        );
        assert!(
            confirmed("preempt-", "dynamically confirmed"),
            "{:#?}",
            report.sched_reports
        );
        assert!(
            confirmed("cfs-", "dynamically confirmed"),
            "{:#?}",
            report.sched_reports
        );
        // The mailbox-synchrony rows must witness mailbox seizures
        // specifically under the preemptive policy.
        let mailbox = report
            .sched_reports
            .iter()
            .find(|r| r.subject.starts_with("preempt-mailbox"))
            .expect("preempt-mailbox report");
        assert!(
            mailbox
                .findings
                .iter()
                .any(|f| f.message.contains("mailbox seizure")),
            "{}",
            mailbox.render()
        );
    }

    #[test]
    fn scheduler_override_without_kernel_events_leaves_verdict_unreconciled() {
        // `harness verify smoke --scheduler preempt`: the smoke apps do
        // not request kernel instrumentation, so the trace cannot
        // witness preemption either way — the cross-check must say so
        // and must NOT fail.
        let sweep = Sweep {
            name: "override".into(),
            runs: vec![ray_spec("plain", Version::V4, 2)],
        };
        let opts = VerifyOptions {
            races: false,
            scheduler: Some(suprenum::SchedulerKind::Preemptive {
                quantum: des::time::SimDuration::from_millis(5),
            }),
        };
        let report = verify_sweep(&sweep, &opts);
        assert_eq!(report.exit_code(), 0, "{:#?}", report.sched_reports);
        assert!(
            report.sched_reports[0]
                .findings
                .iter()
                .any(|f| f.message.contains("stands unreconciled")),
            "{}",
            report.sched_reports[0].render()
        );
    }

    #[test]
    fn jacobi_sweep_traces_respect_the_spmd_orders() {
        // The second workload through the same verification gate: every
        // worker's exchange-before-compute ordering must hold in every
        // recorded trace, channel by channel.
        let sweep = sweeps::by_name("jacobi", crate::Scale::Quick, 1992).unwrap();
        let report = verify_sweep(&sweep, &VerifyOptions::default());
        assert_eq!(report.denied, Vec::<String>::new());
        assert_eq!(report.violations(), 0, "{:#?}", report.run_reports);
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.run_reports.len(), sweep.runs.len());
        for r in &report.run_reports {
            assert!(
                r.findings
                    .iter()
                    .any(|f| f.message.contains("all proven orderings hold")),
                "{}",
                r.render()
            );
        }
    }
}
