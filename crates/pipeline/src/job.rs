//! Type-erased pipeline runs for heterogeneous sweep queues.
//!
//! A sweep harness wants one job queue mixing ray-tracer and Jacobi
//! runs (and whatever workload comes next) without itself being
//! generic over `W`. A [`Job`] freezes a [`PipelineConfig`] behind a
//! plain closure: the harness sees only the workload id, the seed, the
//! configuration fingerprint, and the workload-agnostic [`JobRun`]
//! each execution yields.

use std::sync::Arc;

use des::time::SimTime;
use simple::Trace;
use suprenum::RunOutcome;

use suprenum::SchedulerKind;

use crate::preflight::{PolicyMode, PreflightDenied, PreflightSummary};
use crate::{try_run_workload, OrderEdge, PipelineConfig, PipelineError, RunMetrics, Workload};

/// Per-execution overrides a harness may apply without re-building the
/// job (the CLI's `--horizon-secs` flag, `harness verify`'s
/// `ANALYZER_POLICY` environment override).
#[derive(Debug, Clone, Default)]
pub struct ExecOverrides {
    /// Replaces the configured pre-flight mode (the configured hook is
    /// kept — a mode without a hook analyzes nothing).
    pub policy: Option<PolicyMode>,
    /// Replaces the configured simulated-time budget.
    pub horizon: Option<SimTime>,
    /// Replaces the configured engine worker-thread count (the CLI's
    /// `--engine-shards` flag). Behaviourally invisible, so this does
    /// not perturb the configuration fingerprint: multi-cluster
    /// machines always partition per cluster, and this only packs the
    /// shards onto threads.
    pub engine_shards: Option<usize>,
    /// Replaces the configured kernel scheduling policy (the CLI's
    /// `--scheduler` flag). Unlike engine sharding this *does* change
    /// behaviour; the effective policy is recorded in
    /// [`JobRun::scheduler`] so artifacts stay honest.
    pub scheduler: Option<SchedulerKind>,
}

/// Everything a harness records about one executed job, with the
/// workload type folded away.
#[derive(Debug)]
pub struct JobRun {
    /// How the application run ended.
    pub outcome: RunOutcome,
    /// The merged monitoring trace as SIMPLE events.
    pub trace: Trace,
    /// The workload's folded metrics (work units, utilization).
    pub metrics: RunMetrics,
    /// Fraction of CPU time stolen by instrumentation.
    pub intrusion_ratio: f64,
    /// The workload's proven orderings, for happens-before
    /// verification of `trace`.
    pub orders: Vec<OrderEdge>,
    /// Wall time the pre-flight analysis took, so a harness can report
    /// engine throughput net of the (run-independent) analysis cost.
    pub analysis: std::time::Duration,
    /// What the pre-flight analysis concluded (`None` when the
    /// effective policy was `Off`), so harnesses can record finding
    /// counts per severity next to the measurement.
    pub preflight: Option<PreflightSummary>,
    /// Engine worker-thread count the run actually executed with.
    pub engine_shards: usize,
    /// Kernel scheduling policy the run actually executed under.
    pub scheduler: SchedulerKind,
}

type Exec = dyn Fn(ExecOverrides) -> Result<JobRun, PreflightDenied> + Send + Sync;

/// One configured measurement run with its workload type erased.
///
/// Cloning is cheap (the configuration lives behind an [`Arc`]); each
/// [`Job::run`] executes a fresh simulation from the frozen
/// configuration, so records stay bit-identical run over run.
#[derive(Clone)]
pub struct Job {
    workload_id: &'static str,
    seed: u64,
    fingerprint: u64,
    overrides: ExecOverrides,
    exec: Arc<Exec>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("workload_id", &self.workload_id)
            .field("seed", &self.seed)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("overrides", &self.overrides)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Freezes a pipeline configuration into an erased job.
    pub fn new<W: Workload>(cfg: PipelineConfig<W>) -> Job {
        let workload_id = cfg.workload.id();
        let seed = cfg.seed;
        let fingerprint = cfg.fingerprint();
        let exec = Arc::new(move |ov: ExecOverrides| {
            let mut cfg = cfg.clone();
            if let Some(mode) = ov.policy {
                cfg.preflight.mode = mode;
            }
            if let Some(horizon) = ov.horizon {
                cfg.horizon = horizon;
            }
            if let Some(engine_shards) = ov.engine_shards {
                cfg.engine_shards = engine_shards;
            }
            if let Some(scheduler) = ov.scheduler {
                cfg.machine.scheduler = scheduler;
            }
            let engine_shards = cfg.engine_shards;
            let scheduler = cfg.machine.scheduler.clone();
            let workload = cfg.workload.clone();
            let result = match try_run_workload(cfg) {
                Ok(result) => result,
                Err(PipelineError::Denied(denied)) => return Err(denied),
                // An invalid configuration is a harness bug, not a
                // measurement outcome — fail loudly, like the
                // un-erased path does.
                Err(e @ PipelineError::Invalid(_)) => panic!("{e}"),
            };
            let metrics = result.metrics(&workload);
            Ok(JobRun {
                outcome: result.outcome,
                trace: result.trace,
                metrics,
                intrusion_ratio: result.intrusion.intrusion_ratio(),
                orders: workload.proven_orders(),
                analysis: result.analysis,
                preflight: result.preflight,
                engine_shards,
                scheduler,
            })
        });
        Job {
            workload_id,
            seed,
            fingerprint,
            overrides: ExecOverrides::default(),
            exec,
        }
    }

    /// The workload's stable identifier (e.g. `"raytracer"`).
    pub fn workload_id(&self) -> &'static str {
        self.workload_id
    }

    /// The frozen configuration's determinism seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hex-encoded configuration fingerprint (see
    /// [`PipelineConfig::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }

    /// Caps this job's simulated-time budget for every subsequent
    /// execution (the CLI's `--horizon-secs`).
    pub fn override_horizon(&mut self, horizon: SimTime) {
        self.overrides.horizon = Some(horizon);
    }

    /// Sets the engine worker-thread count for every subsequent
    /// execution (the CLI's `--engine-shards`). Behaviourally
    /// invisible: a multi-cluster machine always runs one logical
    /// shard per cluster, and this only packs them onto threads.
    pub fn override_engine_shards(&mut self, engine_shards: usize) {
        self.overrides.engine_shards = Some(engine_shards);
    }

    /// Replaces the kernel scheduling policy for every subsequent
    /// execution (the CLI's `--scheduler`). This changes scheduling
    /// behaviour, not just packaging — the effective policy is recorded
    /// in [`JobRun::scheduler`] and in schema-4 artifacts, and
    /// `harness compare` refuses to diff across policies.
    pub fn override_scheduler(&mut self, scheduler: SchedulerKind) {
        self.overrides.scheduler = Some(scheduler);
    }

    /// Executes the job with an optional pre-flight mode override.
    ///
    /// # Errors
    ///
    /// Returns [`PreflightDenied`] when the effective policy is
    /// [`PolicyMode::Deny`] and the analysis reports errors.
    pub fn run_with_policy(&self, policy: Option<PolicyMode>) -> Result<JobRun, PreflightDenied> {
        (self.exec)(ExecOverrides {
            policy,
            ..self.overrides.clone()
        })
    }

    /// Executes the job under its configured policy.
    ///
    /// # Panics
    ///
    /// Panics when a `Deny` pre-flight analysis refuses the run — the
    /// non-panicking path is [`Job::run_with_policy`].
    pub fn run(&self) -> JobRun {
        match self.run_with_policy(None) {
            Ok(run) => run,
            Err(denied) => panic!("{denied}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::JacobiConfig;

    #[test]
    fn erased_job_reports_workload_and_determinism() {
        let cfg = PipelineConfig::new(JacobiConfig {
            workers: 2,
            iterations: 5,
            cells_per_worker: 8,
            ..JacobiConfig::default()
        });
        let job = Job::new(cfg);
        assert_eq!(job.workload_id(), "jacobi");
        assert_eq!(job.fingerprint().len(), 16);
        let a = job.run();
        let b = job.run();
        assert_eq!(a.outcome.end, b.outcome.end);
        assert_eq!(a.trace.len(), b.trace.len());
        assert!(a.metrics.work_units > 0);
    }

    #[test]
    fn engine_shards_override_is_behaviourally_invisible() {
        // 18 workers + coordinator → 19 nodes → two clusters, so the
        // parallel engine actually engages.
        let cfg = PipelineConfig::new(JacobiConfig {
            workers: 18,
            iterations: 3,
            cells_per_worker: 8,
            ..JacobiConfig::default()
        });
        let job = Job::new(cfg);
        let reference = job.run();
        assert_eq!(reference.engine_shards, 1);
        let mut threaded = job.clone();
        threaded.override_engine_shards(2);
        let run = threaded.run();
        assert_eq!(run.engine_shards, 2);
        assert_eq!(reference.outcome, run.outcome);
        assert_eq!(reference.trace, run.trace);
    }

    #[test]
    fn scheduler_override_is_recorded_and_changes_behaviour() {
        let cfg = PipelineConfig::new(JacobiConfig {
            workers: 3,
            iterations: 4,
            cells_per_worker: 8,
            ..JacobiConfig::default()
        });
        let job = Job::new(cfg);
        let reference = job.run();
        assert_eq!(reference.scheduler, SchedulerKind::RoundRobin);
        let mut preemptive = job.clone();
        preemptive.override_scheduler(SchedulerKind::Preemptive {
            quantum: des::time::SimDuration::from_micros(50),
        });
        let run = preemptive.run();
        assert_eq!(run.scheduler.name(), "preempt:50");
        // Same workload, same outcome class; the policy only reorders
        // node-local CPU multiplexing.
        assert_eq!(reference.outcome.end, run.outcome.end);
    }

    #[test]
    fn horizon_override_truncates() {
        let cfg = PipelineConfig::new(JacobiConfig::default());
        let mut job = Job::new(cfg);
        job.override_horizon(SimTime::from_micros(10));
        let run = job.run();
        assert!(run.outcome.truncated());
    }
}
