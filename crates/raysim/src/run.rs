//! End-to-end experiment runner: machine + application + monitor.
//!
//! Historically this module *was* the measurement pipeline; today the
//! workload-agnostic parts (machine sizing, ZM4 probing, SIMPLE trace
//! conversion, intrusion accounting) live in the [`pipeline`] crate and
//! the ray tracer is just its first [`pipeline::Workload`] (see
//! [`crate::workload`]). [`run`] and [`RunConfig`] remain as the
//! stable, ray-tracer-shaped facade: every figure binary, experiment,
//! and test that predates the extraction keeps working unchanged, and a
//! differential test pins the facade's traces bit-identical to the
//! generic path's.

use std::fmt;

use des::time::SimTime;
use hybridmon::IntrusionReport;
use pipeline::{PipelineConfig, Preflight};
use raytracer::Framebuffer;
use simple::Trace;
use suprenum::{Machine, MachineConfig, RunEnd, RunOutcome};
use zm4::{Measurement, ProbeSample, Zm4Config};

use crate::config::AppConfig;
use crate::context::AppStats;

pub use pipeline::{PreflightDenied, PreflightSummary};

/// Whether (and how strictly) [`run`] analyzes its configuration before
/// executing it.
///
/// The hook is a plain `fn` pointer so the analyzer crate can supply it
/// without a dependency cycle: `raysim` defines the seam, the analyzer
/// fills it, and callers pick the policy. This is the legacy,
/// `RunConfig`-shaped twin of [`pipeline::Preflight`]; new code should
/// configure the pipeline's seam directly.
#[derive(Debug, Clone, Copy, Default)]
pub enum PreflightPolicy {
    /// Run without any pre-flight analysis.
    #[default]
    Off,
    /// Analyze, print any findings to stderr, and run regardless — the
    /// mode for reproducing the paper's measurements, where version 3's
    /// queue bug must execute to be measured.
    Warn(fn(&RunConfig) -> PreflightSummary),
    /// Analyze and refuse to run a configuration with errors.
    Deny(fn(&RunConfig) -> PreflightSummary),
}

/// Full configuration of one measurement run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The application (program version, scene, image, …).
    pub app: AppConfig,
    /// The machine (nodes, buses, scheduler, monitoring mode).
    pub machine: MachineConfig,
    /// The monitor (FIFO, clocks, MTG).
    pub zm4: Zm4Config,
    /// Determinism seed for machine and monitor.
    pub seed: u64,
    /// Simulated-time budget.
    pub horizon: SimTime,
    /// Pre-flight static analysis policy.
    pub preflight: PreflightPolicy,
}

impl RunConfig {
    /// A run configuration with a machine sized for the application:
    /// one cluster of `servants + 1` nodes (the paper's setup) when they
    /// fit, or the minimum number of 16-node clusters otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the application configuration is invalid.
    pub fn new(app: AppConfig) -> Self {
        app.validate().expect("invalid application configuration");
        let machine = pipeline::machine_for(app.servants as u32 + 1);
        RunConfig {
            app,
            machine,
            zm4: Zm4Config::default(),
            seed: 1992,
            horizon: SimTime::from_secs(3_600),
            preflight: PreflightPolicy::default(),
        }
    }

    /// Converts this legacy configuration into the generic pipeline's,
    /// dropping the legacy pre-flight policy (its hook is shaped around
    /// `RunConfig` and cannot cross; run it first via [`preflight`], or
    /// configure [`pipeline::Preflight`] on the result).
    pub fn into_pipeline(self) -> PipelineConfig<AppConfig> {
        PipelineConfig {
            workload: self.app,
            machine: self.machine,
            zm4: self.zm4,
            seed: self.seed,
            horizon: self.horizon,
            preflight: Preflight::off(),
            engine_shards: 1,
            faults: pipeline::FaultConfig::default(),
        }
    }
}

/// Everything a measurement run produced.
#[derive(Debug)]
pub struct RunResult {
    /// How the application run ended.
    pub outcome: RunOutcome,
    /// The ZM4 measurement (merged trace + recorder/detector stats).
    pub measurement: Measurement,
    /// The merged trace as SIMPLE events (channel = node index).
    pub trace: Trace,
    /// The rendered image, as assembled by the master's pixel writes.
    pub image: Framebuffer,
    /// Application counters.
    pub app_stats: AppStats,
    /// The machine after the run (ground truth, signals, kernel stats).
    pub machine: Machine,
    /// Monitoring intrusion accounting (copied out of the machine for
    /// convenience).
    pub intrusion: IntrusionReport,
}

impl RunResult {
    /// Returns `true` if the application ran to completion.
    pub fn completed(&self) -> bool {
        self.outcome.reason == RunEnd::Completed
    }

    /// Returns `true` if the run was cut short by the horizon, an event
    /// budget, the operator's job time limit, or a deadlock. Statistics
    /// derived from a truncated run describe an interrupted execution.
    pub fn truncated(&self) -> bool {
        self.outcome.truncated()
    }

    /// Kernel events the simulation processed.
    pub fn events_processed(&self) -> u64 {
        self.outcome.events
    }

    /// Errors if the run did not complete, with a report naming the
    /// truncation kind, the simulated end time, and the events
    /// processed. Figure and experiment binaries use this to fail
    /// loudly (non-zero exit) instead of printing statistics from an
    /// interrupted measurement as if they were valid.
    ///
    /// # Errors
    ///
    /// Returns [`TruncatedRun`] when the outcome is anything but
    /// [`RunEnd::Completed`].
    pub fn ensure_completed(&self) -> Result<(), TruncatedRun> {
        if self.completed() {
            Ok(())
        } else {
            Err(TruncatedRun {
                reason: self.outcome.reason,
                end: self.outcome.end,
                events: self.outcome.events,
            })
        }
    }
}

/// A measurement run that did not reach completion (see
/// [`RunResult::ensure_completed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedRun {
    /// How the run actually ended.
    pub reason: RunEnd,
    /// Simulated time at truncation.
    pub end: SimTime,
    /// Kernel events processed before truncation.
    pub events: u64,
}

impl fmt::Display for TruncatedRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run truncated ({}) at t={} after {} kernel events; \
             its statistics do not describe a complete execution",
            self.reason, self.end, self.events
        )
    }
}

impl std::error::Error for TruncatedRun {}

/// Converts a machine's display signal log into ZM4 probe samples
/// (channel = node index).
pub fn probe_samples(machine: &Machine) -> Vec<ProbeSample> {
    pipeline::probe_samples(machine)
}

/// Converts a ZM4 measurement's merged trace into SIMPLE events.
pub fn to_simple_trace(measurement: &Measurement) -> Trace {
    pipeline::to_simple_trace(measurement)
}

/// Runs the configured pre-flight analysis without panicking.
///
/// All findings are printed to stderr *before* the verdict is taken, so
/// a denied run still reports everything the analysis found — not just
/// the first failure.
///
/// # Errors
///
/// Returns [`PreflightDenied`] (carrying the complete summary) under
/// [`PreflightPolicy::Deny`] when the analysis reports errors.
pub fn try_preflight(cfg: &RunConfig) -> Result<Option<PreflightSummary>, PreflightDenied> {
    let (summary, deny) = match cfg.preflight {
        PreflightPolicy::Off => return Ok(None),
        PreflightPolicy::Warn(hook) => (hook(cfg), false),
        PreflightPolicy::Deny(hook) => (hook(cfg), true),
    };
    if summary.errors + summary.warnings > 0 {
        eprintln!("{}", summary.rendered.trim_end());
    }
    if deny && summary.errors > 0 {
        return Err(PreflightDenied { summary });
    }
    Ok(Some(summary))
}

/// Runs the configured pre-flight analysis, printing findings to
/// stderr.
///
/// # Panics
///
/// Panics under [`PreflightPolicy::Deny`] when the analysis reports
/// errors — after every finding has been printed.
pub fn preflight(cfg: &RunConfig) -> Option<PreflightSummary> {
    match try_preflight(cfg) {
        Ok(summary) => summary,
        Err(denied) => panic!("{denied}"),
    }
}

/// Runs one full measurement.
///
/// This is a thin facade over [`pipeline::run_workload`] with the ray
/// tracer as the workload: the legacy pre-flight policy runs first,
/// then the generic pipeline executes the measurement.
///
/// # Panics
///
/// Panics if the machine configuration cannot host the application
/// (fewer nodes than `servants + 1`), is invalid, or a
/// [`PreflightPolicy::Deny`] analysis reports errors.
///
/// # Examples
///
/// ```
/// use des::time::SimTime;
/// use raysim::config::{AppConfig, SceneKind, Version};
/// use raysim::run::{run, RunConfig};
///
/// let mut app = AppConfig::version(Version::V4);
/// app.servants = 3;
/// app.scene = SceneKind::Quickstart;
/// app.width = 8;
/// app.height = 8;
/// let mut cfg = RunConfig::new(app);
/// cfg.horizon = SimTime::from_secs(600);
/// let result = run(cfg);
/// assert!(result.completed());
/// assert!(result.image.mean_luminance() > 0.0);
/// ```
pub fn run(cfg: RunConfig) -> RunResult {
    preflight(&cfg);
    let result = pipeline::run_workload(cfg.into_pipeline());
    RunResult {
        outcome: result.outcome,
        measurement: result.measurement,
        trace: result.trace,
        image: result.output.image,
        app_stats: result.output.stats,
        machine: result.machine,
        intrusion: result.intrusion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SceneKind, Version};

    fn tiny_cfg() -> RunConfig {
        let mut app = AppConfig::version(Version::V4);
        app.servants = 2;
        app.scene = SceneKind::Quickstart;
        app.width = 8;
        app.height = 8;
        RunConfig::new(app)
    }

    // The facade and the generic pipeline must be the same measurement:
    // identical outcome and an event-for-event identical trace.
    #[test]
    fn facade_matches_generic_pipeline_bit_for_bit() {
        let legacy = run(tiny_cfg());
        let generic = pipeline::run_workload(tiny_cfg().into_pipeline());
        assert_eq!(legacy.outcome.end, generic.outcome.end);
        assert_eq!(legacy.outcome.reason, generic.outcome.reason);
        assert_eq!(legacy.outcome.events, generic.outcome.events);
        assert_eq!(legacy.trace.len(), generic.trace.len());
        for (a, b) in legacy.trace.events().iter().zip(generic.trace.events()) {
            assert_eq!(
                (a.ts_ns, a.channel, a.token, a.param),
                (b.ts_ns, b.channel, b.token, b.param)
            );
        }
        assert_eq!(legacy.app_stats.jobs_sent, generic.output.stats.jobs_sent);
        assert_eq!(
            legacy.image.mean_luminance(),
            generic.output.image.mean_luminance()
        );
    }

    // A truncated run leaves the master alive holding its framebuffer
    // handle; the harvest must still hand the image back (by take, not
    // by clone) without panicking.
    #[test]
    fn truncated_run_still_yields_the_image() {
        let mut cfg = tiny_cfg();
        cfg.horizon = SimTime::from_millis(1);
        let result = run(cfg);
        assert!(result.truncated());
        // 8×8 was allocated; the take preserves the real buffer.
        assert_eq!(result.image.pixel_count(), 64);
    }
}
