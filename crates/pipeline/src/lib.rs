//! Workload-agnostic measurement pipeline: machine + monitor + trace.
//!
//! The paper's monitoring toolkit (hybrid instrumentation → ZM4 →
//! SIMPLE evaluation) is explicitly *application-independent* — the
//! same probes, recorders, and evaluation revealed the ray tracer's
//! master/servant cycles and would reveal any other instrumented
//! program's structure just as well. This crate makes that independence
//! structural instead of aspirational:
//!
//! * a [`Workload`] is any program that can spawn its root processes
//!   onto a [`suprenum::Machine`], declare its instrumentation (token
//!   map, monitored channels, proven event orderings), and fold its
//!   application-level output back out of the run;
//! * [`run_workload`] owns everything that is *not* the application:
//!   the pre-flight analysis seam, machine sizing and validation, the
//!   ZM4 measurement of the display emissions ([`observe`]), SIMPLE
//!   trace conversion, truncation handling, and intrusion accounting;
//! * [`Job`] erases the workload type so a sweep harness can mix
//!   ray-tracer and Jacobi runs (or anything else) in one queue without
//!   being generic itself.
//!
//! The ray tracer (`raysim`) and the SPMD Jacobi solver
//! ([`jacobi`]) are the two stock workloads; `crates/pipeline/README.md`
//! is the guide for writing a third.
//!
//! # Examples
//!
//! Run the bundled Jacobi workload through the full monitor stack:
//!
//! ```
//! use pipeline::jacobi::JacobiConfig;
//! use pipeline::{run_workload, PipelineConfig};
//!
//! let cfg = PipelineConfig::new(JacobiConfig {
//!     workers: 3,
//!     iterations: 8,
//!     ..JacobiConfig::default()
//! });
//! let result = run_workload(cfg);
//! assert!(result.completed());
//! assert_eq!(result.output.max_error, 0.0);
//! assert!(!result.trace.is_empty());
//! ```

use des::time::SimTime;
use hybridmon::encode::encode;
use hybridmon::IntrusionReport;
use simple::Trace;
use suprenum::{EmissionRecord, Machine, MachineConfig, RunEnd, RunOutcome, SignalLog};
use zm4::{Measurement, ProbeSample, Zm4, Zm4Config};

pub mod fault;
pub mod jacobi;
pub mod job;
pub mod order;
pub mod preflight;
pub mod trace;

pub use fault::FaultConfig;
pub use job::{ExecOverrides, Job, JobRun};
pub use order::{dominant_scope, OrderEdge, OrderScope};
pub use preflight::{
    hold_reports, try_preflight, PolicyMode, Preflight, PreflightDenied, PreflightHook,
    PreflightSummary,
};
pub use trace::to_simple_trace;

/// One declared instrumentation point: the raw `(token, activity name,
/// group)` triple a workload registers with the monitor. The analyzer's
/// token lints run over these declarations before any event exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenDecl {
    /// The 16-bit token id (application range: below the kernel base).
    pub token: u16,
    /// Activity name shown on Gantt tracks; names ending in `" End"`
    /// close the activity of the same base name.
    pub name: &'static str,
    /// The role that owns the point (e.g. `Master`, `Worker`).
    pub group: &'static str,
}

impl TokenDecl {
    /// Creates a declaration.
    pub const fn new(token: u16, name: &'static str, group: &'static str) -> Self {
        TokenDecl { token, name, group }
    }
}

/// The workload-agnostic per-run metrics a workload folds out of its
/// trace and output, recorded alongside the pipeline-level statistics
/// in sweep artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMetrics {
    /// Work units the application completed (jobs sent, strips
    /// relaxed, …) — the workload defines the unit.
    pub work_units: u64,
    /// Mean worker utilization over the productive phase, percent.
    /// `None` when the run truncated or the workload has no notion of
    /// utilization.
    pub utilization_percent: Option<f64>,
    /// Mean worker utilization over the steady (pipeline-full) phase,
    /// where the workload distinguishes one.
    pub steady_percent: Option<f64>,
}

/// A deferred fold from the finished machine back into the workload's
/// output (rendered image, assembled solution, counters). Returned by
/// [`Workload::launch`] and invoked by [`run_workload`] after the
/// machine halts, so the closure may capture the `Rc` handles it shared
/// with its processes.
pub type Harvest<T> = Box<dyn FnOnce(&Machine) -> T>;

/// An instrumented program the measurement pipeline can run.
///
/// A workload owns everything application-specific — process bodies,
/// instrumentation tokens, numerics — and nothing else: machine
/// construction, monitoring, trace evaluation, and artifact recording
/// belong to the pipeline. See `crates/pipeline/README.md` for the
/// step-by-step guide to writing one.
pub trait Workload: std::fmt::Debug + Clone + Send + Sync + 'static {
    /// What the workload folds out of the shared state after the run
    /// (image + counters, solution vector, …).
    type Output;

    /// Stable identifier recorded in `RunRecord`s and sweep artifacts
    /// (e.g. `"raytracer"`, `"jacobi"`).
    fn id(&self) -> &'static str;

    /// Validates the configuration before anything is built.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    fn validate(&self) -> Result<(), String>;

    /// Minimum number of nodes the workload needs (root process plus
    /// workers). [`PipelineConfig::new`] sizes the machine from this.
    fn nodes_required(&self) -> u32;

    /// Number of monitored display channels. Defaults to one channel
    /// per node — the paper's wiring — but a workload monitoring a
    /// subset may narrow it (the ZM4 is built with exactly this count).
    fn channels(&self, machine: &Machine) -> usize {
        machine.topology().total_nodes() as usize
    }

    /// The declared instrumentation point map, for the analyzer's
    /// `AN-TOKEN-*` lints.
    fn token_map(&self) -> Vec<TokenDecl>;

    /// Cross-event orderings every legal execution must respect,
    /// checked against recorded traces by the happens-before engine.
    /// Defaults to none (verification then degenerates to a no-op).
    fn proven_orders(&self) -> Vec<OrderEdge> {
        Vec::new()
    }

    /// Whether the run should switch on the kernel's own
    /// instrumentation (dispatch/block/preempt events through the same
    /// display path as the application) — the paper's stated future
    /// work, and the signal `harness verify` reconciles scheduler
    /// verdicts against. Defaults to `false`; a workload that opts in
    /// gets `kernel_instrumentation` forced on regardless of the
    /// machine configuration (kernel events still require hybrid
    /// monitoring to actually reach the displays — the analyzer's
    /// workload hook warns when the two disagree).
    fn wants_kernel_events(&self) -> bool {
        false
    }

    /// Installs the workload's root process(es) on the machine and
    /// returns the harvest that folds the shared state into
    /// [`Workload::Output`] once the machine has halted.
    fn launch(&self, machine: &mut Machine) -> Harvest<Self::Output>;

    /// Folds workload-level metrics out of the finished run. The
    /// default reports zero work units and no utilization.
    fn metrics(&self, trace: &Trace, truncated: bool, output: &Self::Output) -> RunMetrics {
        let _ = (trace, truncated, output);
        RunMetrics::default()
    }
}

/// Full configuration of one measurement run of workload `W`.
#[derive(Clone)]
pub struct PipelineConfig<W: Workload> {
    /// The application under measurement.
    pub workload: W,
    /// The machine (nodes, buses, scheduler, monitoring mode).
    pub machine: MachineConfig,
    /// The monitor (FIFO, clocks, MTG).
    pub zm4: Zm4Config,
    /// Determinism seed for machine and monitor.
    pub seed: u64,
    /// Simulated-time budget.
    pub horizon: SimTime,
    /// Pre-flight static analysis policy.
    pub preflight: Preflight<W>,
    /// Probe-plane fault injection (drop/corrupt/clock-drift). The
    /// default injects nothing; a non-trivial configuration perturbs
    /// only the monitor's view of the run, never the machine itself,
    /// and is deterministic per fault seed.
    pub faults: FaultConfig,
    /// Engine worker threads for multi-cluster machines. A
    /// multi-cluster kernel always partitions its state per cluster and
    /// runs conservative parallel discrete-event simulation over the
    /// torus ring; this knob only controls how many worker threads the
    /// cluster shards are packed onto. `1` (the default) executes the
    /// shards on the calling thread. Trace digests are bit-identical
    /// for every value — the schedule is deterministic by construction.
    /// Single-cluster machines ignore it and stay on the sequential
    /// event loop.
    pub engine_shards: usize,
}

impl<W: Workload> std::fmt::Debug for PipelineConfig<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("workload", &self.workload)
            .field("machine", &self.machine)
            .field("zm4", &self.zm4)
            .field("seed", &self.seed)
            .field("horizon", &self.horizon)
            .field("preflight", &self.preflight)
            .field("faults", &self.faults)
            .field("engine_shards", &self.engine_shards)
            .finish()
    }
}

/// The machine-sizing policy every workload gets: one cluster of
/// `nodes` (the paper's setup) when they fit, or the minimum number of
/// 16-node clusters otherwise.
pub fn machine_for(nodes: u32) -> MachineConfig {
    if nodes <= 16 {
        MachineConfig::single_cluster(nodes as u8)
    } else {
        let clusters = nodes.div_ceil(16) as u8;
        MachineConfig {
            clusters,
            torus_cols: 1,
            ..MachineConfig::single_cluster(16)
        }
    }
}

impl<W: Workload> PipelineConfig<W> {
    /// A run configuration with a machine sized for the workload (see
    /// [`machine_for`]), the default monitor, the standard seed, and a
    /// one-simulated-hour horizon.
    ///
    /// # Panics
    ///
    /// Panics if the workload configuration is invalid.
    pub fn new(workload: W) -> Self {
        workload.validate().expect("invalid workload configuration");
        let machine = machine_for(workload.nodes_required());
        PipelineConfig {
            workload,
            machine,
            zm4: Zm4Config::default(),
            seed: 1992,
            horizon: SimTime::from_secs(3_600),
            preflight: Preflight::off(),
            faults: FaultConfig::default(),
            engine_shards: 1,
        }
    }

    /// FNV-1a fingerprint of the configuration (workload + machine +
    /// monitor + seed + horizon + any active fault injection), for
    /// artifact provenance. The pre-flight policy is excluded: it
    /// carries function pointers whose addresses vary between builds,
    /// and it does not change the measured behaviour under
    /// `Off`/`Warn`. The engine shard count is also excluded: every
    /// count produces a bit-identical run, so runs at different counts
    /// are comparable by construction. A no-op fault configuration is
    /// excluded too, so
    /// fingerprints of un-faulted runs are stable across versions that
    /// predate the fault layer.
    pub fn fingerprint(&self) -> u64 {
        let mut h = des::digest::Fnv64::new();
        h.write_bytes(self.workload.id().as_bytes());
        h.write_bytes(format!("{:?}", self.workload).as_bytes());
        h.write_bytes(format!("{:?}", self.machine).as_bytes());
        h.write_bytes(format!("{:?}", self.zm4).as_bytes());
        h.write_u64(self.seed);
        h.write_u64(self.horizon.as_nanos());
        if !self.faults.is_noop() {
            h.write_bytes(format!("{:?}", self.faults).as_bytes());
        }
        h.finish()
    }
}

/// Everything a measurement run of workload `W` produced.
#[derive(Debug)]
pub struct PipelineResult<W: Workload> {
    /// Real time spent in pre-flight static analysis, before the
    /// simulation started. Reported separately so wall-clock throughput
    /// comparisons measure the engine, not the analyzer.
    pub analysis: std::time::Duration,
    /// What the pre-flight analysis concluded (`None` when the policy
    /// is `Off` or no hook is configured), so harnesses can record
    /// per-severity finding counts next to the measurement.
    pub preflight: Option<PreflightSummary>,
    /// How the application run ended.
    pub outcome: RunOutcome,
    /// The ZM4 measurement (merged trace + recorder/detector stats).
    pub measurement: Measurement,
    /// The merged trace as SIMPLE events (channel = node index).
    pub trace: Trace,
    /// The workload's folded output (image, solution, counters, …).
    pub output: W::Output,
    /// The machine after the run (ground truth, signals, kernel stats).
    pub machine: Machine,
    /// Monitoring intrusion accounting (copied out of the machine for
    /// convenience).
    pub intrusion: IntrusionReport,
}

impl<W: Workload> PipelineResult<W> {
    /// Returns `true` if the application ran to completion.
    pub fn completed(&self) -> bool {
        self.outcome.reason == RunEnd::Completed
    }

    /// Returns `true` if the run was cut short by the horizon, an event
    /// budget, the operator's job time limit, or a deadlock.
    pub fn truncated(&self) -> bool {
        self.outcome.truncated()
    }

    /// The workload-level metrics of this run.
    pub fn metrics(&self, workload: &W) -> RunMetrics {
        workload.metrics(&self.trace, self.truncated(), &self.output)
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
/// [`PipelineResult::ensure_completed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedRun {
    /// How the run actually ended.
    pub reason: RunEnd,
    /// Simulated time at truncation.
    pub end: SimTime,
    /// Kernel events processed before truncation.
    pub events: u64,
}

impl std::fmt::Display for TruncatedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "run truncated ({}) at t={} after {} kernel events; \
             its statistics do not describe a complete execution",
            self.reason, self.end, self.events
        )
    }
}

impl std::error::Error for TruncatedRun {}

/// Why [`try_run_workload`] refused to execute a configuration.
#[derive(Debug)]
pub enum PipelineError {
    /// The pre-flight analysis denied the run.
    Denied(PreflightDenied),
    /// The workload or machine configuration is invalid.
    Invalid(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Denied(d) => d.fmt(f),
            PipelineError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PreflightDenied> for PipelineError {
    fn from(d: PreflightDenied) -> Self {
        PipelineError::Denied(d)
    }
}

/// Runs one full measurement without panicking: pre-flight analysis
/// (per the configured policy), workload and machine validation, the
/// application on the simulated machine, the ZM4 over the display
/// emissions ([`observe`]), and the SIMPLE trace conversion.
///
/// # Errors
///
/// Returns [`PipelineError::Denied`] when a `Deny` pre-flight policy
/// reports errors and [`PipelineError::Invalid`] for configurations
/// that cannot be built.
pub fn try_run_workload<W: Workload>(
    cfg: PipelineConfig<W>,
) -> Result<PipelineResult<W>, PipelineError> {
    if cfg.engine_shards == 0 {
        return Err(PipelineError::Invalid(
            "pipeline needs at least one engine shard".into(),
        ));
    }
    if let Err(e) = cfg.faults.validate() {
        return Err(PipelineError::Invalid(format!(
            "invalid fault configuration: {e}"
        )));
    }
    if let Err(e) = cfg.zm4.validate() {
        return Err(PipelineError::Invalid(format!(
            "invalid monitor configuration: {e}"
        )));
    }
    let analysis_start = std::time::Instant::now();
    let preflight = try_preflight(&cfg)?;
    let analysis = analysis_start.elapsed();
    cfg.workload
        .validate()
        .map_err(|e| PipelineError::Invalid(format!("invalid workload configuration: {e}")))?;
    if u32::from(cfg.machine.total_nodes()) < cfg.workload.nodes_required() {
        return Err(PipelineError::Invalid(format!(
            "machine has {} nodes but the workload needs {}",
            cfg.machine.total_nodes(),
            cfg.workload.nodes_required()
        )));
    }

    let mut machine_cfg = cfg.machine.clone();
    if cfg.workload.wants_kernel_events() {
        // The workload asked for the kernel's own instrumentation —
        // promote the per-machine toggle so sweeps don't have to plumb
        // machine configuration per run.
        machine_cfg.kernel_instrumentation = true;
    }
    let mut machine = Machine::new(machine_cfg, cfg.seed)
        .map_err(|e| PipelineError::Invalid(format!("invalid machine configuration: {e:?}")))?;
    machine.set_engine_shards(cfg.engine_shards);

    let harvest = cfg.workload.launch(&mut machine);
    let channels = cfg.workload.channels(&machine);
    if channels == 0 {
        return Err(PipelineError::Invalid(
            "the workload monitors 0 channels; the monitor needs at least one".into(),
        ));
    }
    let monitor = cfg.zm4.build(channels, cfg.seed);

    let outcome = machine.run(cfg.horizon);
    let measurement = observe(&monitor, machine.emissions(), cfg.faults);
    let trace = to_simple_trace(&measurement);

    let output = harvest(&machine);
    let intrusion = *machine.intrusion();

    Ok(PipelineResult {
        analysis,
        preflight,
        outcome,
        measurement,
        trace,
        output,
        machine,
        intrusion,
    })
}

/// The ZM4 measurement of a run's display emissions (see
/// [`Machine::emissions`]) as seen through the probe-plane `faults`.
/// Emissions of nodes the monitor has no channel for are not observed:
/// no probe is clipped onto their displays.
///
/// A fault-free probe plane delivers every emission's 32 pattern writes
/// whole and uninterleaved — the kernel serializes each node's display
/// — so each emission is exactly one detected event, and the events go
/// straight to the recorders ([`zm4::Zm4::observe_decoded`]). With
/// faults, each emission reaches its channel's probe as one burst
/// ([`zm4::Zm4::probes`]): its writes pass the channel's fault model one
/// by one, and the survivors feed the pattern-level detector, which
/// then sees the drops, corruptions and clock drift.
///
/// Debug builds also run the pattern-level monitor over the time-sorted
/// signal log, each sample through [`FaultConfig::apply`], and assert
/// that both measurements are identical. So every test that runs a
/// workload checks the direct decoding (and the display serialization
/// it rests on) or the burst path against that oracle.
pub fn observe(monitor: &Zm4, emissions: &[EmissionRecord], faults: FaultConfig) -> Measurement {
    let wired = monitor.channels();
    let measurement = if faults.is_noop() {
        monitor.observe_decoded(
            trace::decoded_events(emissions, monitor.config().detector_latency)
                .filter(|e| e.channel < wired),
        )
    } else {
        observe_bursts(monitor, emissions, faults)
    };
    if cfg!(debug_assertions) {
        let log = SignalLog::from_streams(
            emissions
                .iter()
                .filter(|rec| (rec.node.index() as usize) < wired)
                .flat_map(EmissionRecord::writes),
            [],
        );
        let oracle = monitor.observe_iter(
            log.display_writes()
                .iter()
                .copied()
                .map(trace::probe_sample)
                .filter_map(|s| faults.apply(s)),
        );
        assert!(
            measurement == oracle,
            "{} diverged from the pattern-level monitor",
            if faults.is_noop() {
                "direct decoding"
            } else {
                "burst observation"
            }
        );
    }
    measurement
}

/// The faulted branch of [`observe`]: one probe lookup per emission,
/// then its 32 writes (as [`EmissionRecord::writes`] expands them)
/// through the channel's fault model into the channel's detector.
fn observe_bursts(monitor: &Zm4, emissions: &[EmissionRecord], faults: FaultConfig) -> Measurement {
    let by_channel: Vec<_> = (0..monitor.channels()).map(|c| faults.channel(c)).collect();
    let mut probes = monitor.probes();
    for rec in emissions {
        let channel = rec.node.index() as usize;
        let Some(mut probe) = probes.channel(channel) else {
            continue;
        };
        let channel_faults = &by_channel[channel];
        let mut time = rec.start;
        for pattern in encode(rec.event()) {
            time += rec.spacing;
            if let Some(sample) = channel_faults.apply(ProbeSample {
                time,
                channel,
                pattern,
            }) {
                probe.feed(sample);
            }
        }
    }
    probes.finish()
}

/// Runs one full measurement.
///
/// # Panics
///
/// Panics if the configuration is invalid (machine smaller than the
/// workload needs, invalid workload) or a [`PolicyMode::Deny`]
/// pre-flight analysis reports errors. Use [`try_run_workload`] to
/// handle those cases without unwinding.
pub fn run_workload<W: Workload>(cfg: PipelineConfig<W>) -> PipelineResult<W> {
    match try_run_workload(cfg) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::time::SimDuration;

    #[test]
    fn machine_sizing_matches_the_paper_setup() {
        assert_eq!(machine_for(4).total_nodes(), 4);
        assert_eq!(machine_for(16).total_nodes(), 16);
        // 17 nodes spill into two 16-node clusters.
        assert_eq!(machine_for(17).total_nodes(), 32);
    }

    #[test]
    fn fingerprint_distinguishes_seed_and_workload() {
        let a = PipelineConfig::new(jacobi::JacobiConfig::default());
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.workload.iterations += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn undersized_machine_is_refused() {
        let mut cfg = PipelineConfig::new(jacobi::JacobiConfig::default());
        cfg.machine = machine_for(2);
        let err = try_run_workload(cfg).unwrap_err();
        assert!(matches!(err, PipelineError::Invalid(_)));
        assert!(err.to_string().contains("needs"));
    }

    #[test]
    fn zero_engine_shards_is_refused() {
        let mut cfg = PipelineConfig::new(jacobi::JacobiConfig::default());
        cfg.engine_shards = 0;
        let err = try_run_workload(cfg).unwrap_err();
        assert!(err.to_string().contains("engine shard"));
    }

    #[test]
    fn unbuildable_monitor_is_refused_before_the_run() {
        let broken = |edit: fn(&mut Zm4Config)| {
            let mut zm4 = Zm4Config::default();
            edit(&mut zm4);
            zm4
        };
        let bad = [
            (
                "streams_per_recorder",
                broken(|z| z.streams_per_recorder = 0),
            ),
            ("dpus_per_agent", broken(|z| z.dpus_per_agent = 0)),
            ("fifo_capacity", broken(|z| z.fifo_capacity = 0)),
            (
                "clock_resolution",
                broken(|z| z.clock_resolution = SimDuration::ZERO),
            ),
            ("disk_drain_rate", broken(|z| z.disk_drain_rate = 0)),
            (
                "disk_drain_rate",
                broken(|z| z.disk_drain_rate = 1_000_000_001),
            ),
        ];
        for (field, zm4) in bad {
            let mut cfg = PipelineConfig::new(jacobi::JacobiConfig::default());
            cfg.zm4 = zm4;
            match try_run_workload(cfg) {
                Err(PipelineError::Invalid(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                Err(e) => panic!("{field}: expected Invalid, got {e}"),
                Ok(_) => panic!("{field}: the run was not refused"),
            }
        }
        assert_eq!(Zm4Config::default().validate(), Ok(()));
    }

    #[test]
    fn fingerprint_ignores_shard_counts() {
        let a = PipelineConfig::new(jacobi::JacobiConfig::default());
        let mut b = a.clone();
        b.engine_shards = 8;
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn multi_cluster_runs_are_identical_for_every_engine_shard_count() {
        // 20 workers + coordinator → 21 nodes → two 16-node clusters:
        // the kernel partitions per cluster and exchanges boundaries
        // over the simulated token ring. `engine_shards` only packs the
        // cluster shards onto worker threads, so every count must
        // reproduce the same run bit for bit.
        let base = PipelineConfig::new(jacobi::JacobiConfig {
            workers: 20,
            iterations: 4,
            ..jacobi::JacobiConfig::default()
        });
        let reference = run_workload(base.clone());
        assert!(reference.completed());
        assert!(!reference.measurement.trace.is_empty());

        for engine_shards in [2, 3, 8] {
            let mut cfg = base.clone();
            cfg.engine_shards = engine_shards;
            let run = run_workload(cfg);
            assert_eq!(run.outcome, reference.outcome, "{engine_shards} shards");
            assert_eq!(
                run.measurement.trace, reference.measurement.trace,
                "{engine_shards} shards"
            );
            assert_eq!(run.trace, reference.trace, "{engine_shards} shards");
            assert_eq!(
                run.output.max_error, reference.output.max_error,
                "{engine_shards} shards"
            );
            assert_eq!(run.intrusion, reference.intrusion, "{engine_shards} shards");
        }
    }

    #[test]
    fn engine_profile_reports_cross_cluster_balance() {
        // The scaling sweep's jacobi-n64 shape: 63 workers + coordinator
        // over four clusters. The profile is deterministic, so this is a
        // regression gate on the engine's load distribution — the events
        // must actually spread across clusters, or the parallel engine
        // has nothing to win.
        let cfg = PipelineConfig::new(jacobi::JacobiConfig {
            workers: 63,
            cells_per_worker: 48,
            iterations: 40,
            ..jacobi::JacobiConfig::default()
        });
        let run = run_workload(cfg);
        assert!(run.completed());
        let profile = run.machine.engine_profile().expect("multi-cluster engine");
        assert_eq!(profile.shard_events.len(), 4);
        assert_eq!(
            profile.shard_events.iter().sum::<u64>(),
            run.outcome.events,
            "profile must account for every kernel event"
        );
        assert!(profile.shard_events.iter().all(|&e| e > 0));
        assert!(
            profile.balance_bound() > 1.2,
            "engine parallelism bound {:.2} — the multi-cluster shape \
             concentrated on one cluster",
            profile.balance_bound()
        );
        assert!(profile.epochs > 0);
        println!(
            "jacobi-n64 profile: {} events over {} windows ({:.2} ev/window), \
             shards {:?}, balance bound {:.2}x",
            run.outcome.events,
            profile.epochs,
            profile.events_per_window(),
            profile.shard_events,
            profile.balance_bound()
        );

        // A single-cluster machine runs the sequential loop and has no
        // engine profile.
        let small = PipelineConfig::new(jacobi::JacobiConfig {
            workers: 4,
            iterations: 3,
            ..jacobi::JacobiConfig::default()
        });
        assert!(run_workload(small).machine.engine_profile().is_none());
    }

    #[test]
    fn fault_injection_perturbs_only_the_measurement_and_is_shard_invariant() {
        // 18 workers span two clusters, so engine shards are real.
        let mut base = PipelineConfig::new(jacobi::JacobiConfig {
            workers: 18,
            iterations: 3,
            ..jacobi::JacobiConfig::default()
        });
        base.faults = FaultConfig {
            probe_drop_permille: 100,
            probe_corrupt_permille: 50,
            clock_drift_ppm: 2_000,
            seed: 7,
        };
        let clean = {
            let mut cfg = base.clone();
            cfg.faults = FaultConfig::default();
            run_workload(cfg)
        };
        let faulted = run_workload(base.clone());
        // The machine itself is untouched — same outcome, same
        // application output — only the monitor's view degrades.
        assert_eq!(faulted.outcome, clean.outcome);
        assert_eq!(faulted.output.max_error, clean.output.max_error);
        assert_ne!(
            faulted.measurement.trace, clean.measurement.trace,
            "faults must perturb the measurement"
        );
        // Deterministic per seed and identical across engine shard
        // counts.
        for engine_shards in [2, 3] {
            let mut cfg = base.clone();
            cfg.engine_shards = engine_shards;
            let run = run_workload(cfg);
            assert_eq!(
                run.measurement, faulted.measurement,
                "{engine_shards} engine shards"
            );
        }
        // Streaming the emissions' writes measures exactly what the
        // time-sorted signal log does: faults are pure per sample.
        let monitor = base
            .zm4
            .build(base.workload.channels(&faulted.machine), base.seed);
        let faults = base.faults;
        let from_log = monitor.observe_iter(
            trace::probe_sample_iter(&faulted.machine).filter_map(|s| faults.apply(s)),
        );
        assert_eq!(from_log, faulted.measurement);
        // A different fault seed moves the fault sites.
        let mut reseeded = base.clone();
        reseeded.faults.seed = 8;
        assert_ne!(
            run_workload(reseeded).measurement.trace,
            faulted.measurement.trace
        );
        // Active faults enter the fingerprint; a no-op layer does not.
        assert_ne!(base.fingerprint(), clean_fingerprint(&base));
        let mut out_of_range = base;
        out_of_range.faults.probe_drop_permille = 2_000;
        let err = try_run_workload(out_of_range).unwrap_err();
        assert!(err.to_string().contains("fault"));
    }

    /// Jacobi with probes clipped onto its first `channels` nodes only.
    #[derive(Debug, Clone)]
    struct Subset {
        jacobi: jacobi::JacobiConfig,
        channels: usize,
    }

    impl Workload for Subset {
        type Output = <jacobi::JacobiConfig as Workload>::Output;

        fn id(&self) -> &'static str {
            "jacobi-subset"
        }

        fn validate(&self) -> Result<(), String> {
            self.jacobi.validate()
        }

        fn nodes_required(&self) -> u32 {
            self.jacobi.nodes_required()
        }

        fn channels(&self, _machine: &Machine) -> usize {
            self.channels
        }

        fn token_map(&self) -> Vec<TokenDecl> {
            self.jacobi.token_map()
        }

        fn launch(&self, machine: &mut Machine) -> Harvest<Self::Output> {
            self.jacobi.launch(machine)
        }
    }

    #[test]
    fn a_monitor_on_a_subset_of_nodes_sees_only_those_nodes() {
        let jacobi = jacobi::JacobiConfig {
            workers: 3,
            iterations: 4,
            ..jacobi::JacobiConfig::default()
        };
        let faults = FaultConfig {
            probe_drop_permille: 20,
            probe_corrupt_permille: 20,
            clock_drift_ppm: 1_000,
            seed: 3,
        };
        for faults in [FaultConfig::default(), faults] {
            let mut all = PipelineConfig::new(jacobi.clone());
            all.faults = faults;
            let all = run_workload(all);
            assert_eq!(all.machine.topology().total_nodes(), 4);
            let mut cfg = PipelineConfig::new(Subset {
                jacobi: jacobi.clone(),
                channels: 2,
            });
            cfg.faults = faults;
            let subset = run_workload(cfg);
            assert!(subset.completed());
            assert_eq!(subset.measurement.detector_stats.len(), 2);
            // Both channels share one recorder either way, so the
            // subset measures exactly the full wiring's first two
            // channels.
            let wired: Vec<_> = all
                .measurement
                .trace
                .iter()
                .filter(|r| r.channel < 2)
                .copied()
                .collect();
            assert!(!wired.is_empty());
            assert!(wired.len() < all.measurement.trace.len());
            assert_eq!(subset.measurement.trace, wired, "{faults:?}");
            assert_eq!(
                subset.measurement.detector_stats,
                all.measurement.detector_stats[..2],
                "{faults:?}"
            );
        }

        let cfg = PipelineConfig::new(Subset {
            jacobi,
            channels: 0,
        });
        match try_run_workload(cfg) {
            Err(PipelineError::Invalid(msg)) => assert!(msg.contains("0 channels"), "{msg}"),
            Err(e) => panic!("expected Invalid, got {e}"),
            Ok(_) => panic!("a monitor without channels was not refused"),
        }
    }

    fn clean_fingerprint(cfg: &PipelineConfig<jacobi::JacobiConfig>) -> u64 {
        let mut clean = cfg.clone();
        clean.faults = FaultConfig::default();
        clean.fingerprint()
    }
}
