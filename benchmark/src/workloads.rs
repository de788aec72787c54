//! The benchmark's workloads: which jobs each one runs, built the way a
//! user builds them (the `harness::sweeps` builders at paper scale, stock
//! defaults), plus the typed configuration the traced replay needs.
//!
//! `harness::RunSpec` freezes its configuration behind a type-erased
//! `pipeline::Job`. The traced replay calls the pipeline's stages one by
//! one, so it needs the typed `PipelineConfig` back; each case rebuilds it
//! and proves the rebuild equal to the sweep's job by fingerprint.

use des::time::SimTime;
use harness::sweeps::{self, Scale};
use harness::RunSpec;
use pipeline::jacobi::JacobiConfig;
use pipeline::{FaultConfig, Job, PipelineConfig};
use raysim::config::{AppConfig, Version};
use suprenum::sched::DEFAULT_QUANTUM;
use suprenum::SchedulerKind;

/// The workload names the benchmark accepts.
pub const NAMES: [&str; 3] = ["fig10", "scaling", "sched-faults"];

/// Iterations of each Jacobi rung of `scaling`. The scaling sweep's stock
/// rungs run 40 and finish in milliseconds; 1 000 makes them last about
/// a second together, as long as the ray rungs' analysis.
const JACOBI_ITERATIONS: u32 = 1_000;

/// Simulated-time budget of the fig10 and sched sweeps.
const EXPERIMENT_HORIZON: SimTime = SimTime::from_secs(36_000);
/// Simulated-time budget of the scaling sweep.
const SCALING_HORIZON: SimTime = SimTime::from_secs(360_000);

/// A job's configuration with its workload type restored.
pub enum Config {
    /// A ray-tracer run.
    Ray(PipelineConfig<AppConfig>),
    /// An SPMD Jacobi run.
    Jacobi(PipelineConfig<JacobiConfig>),
}

/// One job of a workload.
pub struct Case {
    /// The spec `harness::run_sweep` executes.
    pub spec: RunSpec,
    /// The same configuration, typed, for set-up timing and the replay.
    pub config: Config,
    /// For a fault-injected row, the label of the row with the same
    /// machine and no faults: both must simulate the same run.
    pub twin: Option<&'static str>,
}

/// Builds the jobs of workload `name` at `seed`.
///
/// # Errors
///
/// Returns a message for an unknown workload, or when a rebuilt typed
/// configuration does not match the sweep's job.
pub fn build(name: &str, seed: u64) -> Result<Vec<Case>, String> {
    match name {
        "fig10" => sweeps::fig10(Scale::Paper, seed)
            .runs
            .into_iter()
            .map(|spec| ray_case(spec, seed, EXPERIMENT_HORIZON, SchedulerKind::RoundRobin))
            .collect(),
        "scaling" => {
            let mut cases = sweeps::scaling(Scale::Paper, seed)
                .runs
                .into_iter()
                .filter(|spec| spec.label.starts_with("ray-"))
                .map(|spec| ray_case(spec, seed, SCALING_HORIZON, SchedulerKind::RoundRobin))
                .collect::<Result<Vec<_>, _>>()?;
            cases.extend([15u16, 31, 63].into_iter().map(|workers| jacobi_case(workers, seed)));
            Ok(cases)
        }
        "sched-faults" => sched_faults(seed),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Rebuilds a ray-tracer spec's typed configuration the way the harness
/// sweeps configure experiment runs.
fn ray_case(
    spec: RunSpec,
    seed: u64,
    horizon: SimTime,
    scheduler: SchedulerKind,
) -> Result<Case, String> {
    let app = spec
        .app
        .clone()
        .ok_or_else(|| format!("ray spec '{}' carries no application shape", spec.label))?;
    let mut cfg = PipelineConfig::new(app);
    cfg.seed = seed;
    cfg.horizon = horizon;
    cfg.preflight = analyzer::pipeline_warn();
    cfg.machine.scheduler = scheduler;
    let rebuilt = format!("{:016x}", cfg.fingerprint());
    if rebuilt != spec.job.fingerprint() {
        return Err(format!(
            "rebuilt configuration of '{}' has fingerprint {rebuilt}, the sweep's job {}",
            spec.label,
            spec.job.fingerprint()
        ));
    }
    Ok(Case {
        spec,
        config: Config::Ray(cfg),
        twin: None,
    })
}

/// A lengthened rung of the scaling sweep's Jacobi ladder: the stock
/// shape (48 cells per worker, 1, 2 or 4 clusters) with
/// [`JACOBI_ITERATIONS`] iterations.
fn jacobi_case(workers: u16, seed: u64) -> Case {
    let mut cfg = PipelineConfig::new(JacobiConfig {
        workers,
        cells_per_worker: 48,
        iterations: JACOBI_ITERATIONS,
        ..JacobiConfig::default()
    });
    cfg.seed = seed;
    cfg.horizon = SCALING_HORIZON;
    cfg.preflight = analyzer::workload_warn();
    Case {
        spec: RunSpec {
            label: format!("jacobi-n{}", workers + 1),
            job: Job::new(cfg.clone()),
            version: None,
            app: None,
            paper_percent: None,
            faults: None,
        },
        config: Config::Jacobi(cfg),
        twin: None,
    }
}

/// The sched sweep's paper-scale V1 row under the preemptive policy, plus
/// the same row re-measured through the sweep's probe faults.
fn sched_faults(seed: u64) -> Result<Vec<Case>, String> {
    let label = "preempt-V1";
    let spec = sweeps::sched(Scale::Paper, seed)
        .runs
        .into_iter()
        .find(|s| s.label == label)
        .ok_or_else(|| format!("the sched sweep has no '{label}' row"))?;
    let scheduler = SchedulerKind::Preemptive {
        quantum: DEFAULT_QUANTUM,
    };
    let mut cases = vec![ray_case(spec, seed, EXPERIMENT_HORIZON, scheduler)?];

    let faults = FaultConfig {
        probe_drop_permille: 40,
        probe_corrupt_permille: 20,
        clock_drift_ppm: 1_500,
        seed,
    };
    let Config::Ray(twin) = &cases[0].config else {
        unreachable!("sched rows are ray-tracer runs")
    };
    let mut cfg = twin.clone();
    cfg.faults = faults;
    cases.push(Case {
        spec: RunSpec {
            label: "faults-preempt-V1".to_owned(),
            job: Job::new(cfg.clone()),
            version: Some(Version::V1),
            app: Some(cfg.workload.clone()),
            paper_percent: None,
            faults: Some(faults),
        },
        config: Config::Ray(cfg),
        twin: Some(label),
    });
    Ok(cases)
}
