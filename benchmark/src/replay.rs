//! The traced replay: one job executed stage by stage from the public
//! calls `pipeline::try_run_workload` makes, with a span around each call
//! and the deterministic counters read where the work happened.
//!
//! Spans are contiguous: each boundary is one clock read that closes one
//! span and opens the next, so the spans of a job tile it from its first
//! analyzer call to its digest. Nothing inside the program is
//! instrumented.

use std::collections::BTreeMap;
use std::time::Instant;

use analyzer::model::flow::FlowModel;
use analyzer::model::sched::SchedModel;
use analyzer::model::{check_sched, ModelBudget};
use pipeline::jacobi::JacobiConfig;
use pipeline::{Harvest, PipelineConfig, PreflightSummary, Workload};
use raysim::config::AppConfig;
use suprenum::{Machine, RunEnd};

/// Span names of the pre-flight layers, in call order. Every replay
/// records all of them, so a layer a workload's hook skips reads as an
/// empty span rather than a missing one.
pub const ANALYZER_SPANS: [&str; 7] = [
    "analyzer.token_ms",
    "analyzer.protocol_ms",
    "analyzer.structural_ms",
    "analyzer.flow_ms",
    "analyzer.sched_ms",
    "analyzer.race_ms",
    "analyzer.rate_ms",
];

/// Contiguous span recorder.
pub struct Laps {
    last: Instant,
    spans: BTreeMap<&'static str, f64>,
}

impl Laps {
    fn start() -> Laps {
        Laps {
            last: Instant::now(),
            spans: BTreeMap::new(),
        }
    }

    /// Closes the span opened at the previous boundary, adding its length
    /// to `name`, and opens the next one.
    fn split(&mut self, name: &'static str) {
        let now = Instant::now();
        *self.spans.entry(name).or_default() += (now - self.last).as_secs_f64() * 1e3;
        self.last = now;
    }
}

/// Deterministic counters of one job or, summed, of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// States the flow explorer visited.
    pub flow_states: u64,
    /// Flow explorations that stopped at their state budget.
    pub flow_budget_hit: u64,
    /// Pre-flight findings of every severity.
    pub findings: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Kernel context switches.
    pub ctx_switches: u64,
    /// Involuntary losses of the CPU.
    pub preemptions: u64,
    /// Display-pattern writes in the signal log.
    pub display_writes: u64,
    /// Lookahead windows of the multi-cluster engine.
    pub engine_epochs: u64,
    /// Kernel events run inside those windows.
    pub windowed_events: u64,
    /// Probe samples fed to the monitor after fault injection.
    pub samples: u64,
    /// Events the recorders stored.
    pub recorded: u64,
    /// Events the recorders lost to FIFO overflow.
    pub lost: u64,
    /// Highest FIFO occupancy of any recorder (a maximum, not a sum).
    pub fifo_high_water: u64,
    /// Detector re-synchronizations: atomicity violations plus the
    /// partial events they discarded.
    pub detector_resyncs: u64,
}

impl Counters {
    /// Folds another job's counters into these.
    pub fn absorb(&mut self, o: &Counters) {
        self.flow_states += o.flow_states;
        self.flow_budget_hit += o.flow_budget_hit;
        self.findings += o.findings;
        self.events += o.events;
        self.ctx_switches += o.ctx_switches;
        self.preemptions += o.preemptions;
        self.display_writes += o.display_writes;
        self.engine_epochs += o.engine_epochs;
        self.windowed_events += o.windowed_events;
        self.samples += o.samples;
        self.recorded += o.recorded;
        self.lost += o.lost;
        self.fifo_high_water = self.fifo_high_water.max(o.fifo_high_water);
        self.detector_resyncs += o.detector_resyncs;
    }

    /// The counters by metric name, with the derived ratios.
    pub fn named(&self) -> Vec<(&'static str, f64)> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            ("analyzer.flow_states", self.flow_states as f64),
            ("analyzer.flow_budget_hit", self.flow_budget_hit as f64),
            ("analyzer.findings", self.findings as f64),
            ("suprenum.events", self.events as f64),
            ("suprenum.ctx_switches", self.ctx_switches as f64),
            ("suprenum.preemptions", self.preemptions as f64),
            ("suprenum.display_writes", self.display_writes as f64),
            ("suprenum.engine_epochs", self.engine_epochs as f64),
            (
                "suprenum.events_per_window",
                ratio(self.windowed_events, self.engine_epochs),
            ),
            ("zm4.recorded", self.recorded as f64),
            ("zm4.lost", self.lost as f64),
            ("zm4.fifo_high_water", self.fifo_high_water as f64),
            ("zm4.detector_resyncs", self.detector_resyncs as f64),
            (
                "zm4.samples_per_event",
                ratio(self.samples, self.recorded + self.lost),
            ),
        ]
    }
}

/// What a replayed job produced.
pub struct JobTrace {
    /// How the run ended.
    pub run_end: RunEnd,
    /// Final simulated time, nanoseconds.
    pub sim_end_ns: u64,
    /// The trace digest, as `harness::execute` computes it.
    pub digest: String,
    /// Work units the workload reported.
    pub work_units: u64,
    /// Mean worker utilization, percent.
    pub utilization_percent: Option<f64>,
    /// Host time from the first analyzer call to the job's resources
    /// being freed, milliseconds.
    pub wall_ms: f64,
    /// The part of `wall_ms` the spans cover.
    pub spanned_ms: f64,
    /// Span lengths by name, milliseconds.
    pub spans: BTreeMap<&'static str, f64>,
    /// The job's counters; `findings` stays 0 until the caller fills it
    /// in from [`findings`].
    pub counters: Counters,
}

/// A workload whose pre-flight can be replayed layer by layer.
pub trait Replayable: Workload {
    /// Calls the layer entry points of this workload's pre-flight hook one
    /// after another, closing one span per layer.
    fn analyze(cfg: &PipelineConfig<Self>, laps: &mut Laps, counters: &mut Counters);

    /// The hook the untraced run's pre-flight calls.
    fn hook(cfg: &PipelineConfig<Self>) -> PreflightSummary;
}

impl Replayable for AppConfig {
    /// The layers `analyzer::pipeline_hook` runs under the pre-flight
    /// budget: token lints, protocol graph, structural net, flow
    /// explorer, scheduler model, race explorer, event rate.
    fn analyze(cfg: &PipelineConfig<AppConfig>, laps: &mut Laps, counters: &mut Counters) {
        let app = &cfg.workload;
        let budget = ModelBudget::preflight();
        std::hint::black_box(analyzer::lint_stock_maps());
        laps.split("analyzer.token_ms");
        std::hint::black_box(analyzer::analyze_protocol(app));
        laps.split("analyzer.protocol_ms");
        let st = analyzer::analyze_structural(app);
        std::hint::black_box(analyzer::structural::structural_findings(app, &st));
        laps.split("analyzer.structural_ms");
        let flow = FlowModel::from_protocol(
            u32::from(app.servants),
            app.window,
            app.bundle_size,
            app.pixel_queue_capacity,
            app.write_chunk,
            app.eager_writeback,
        )
        .explore(budget.flow_states);
        counters.flow_states += flow.states as u64;
        counters.flow_budget_hit += u64::from(flow.bounded);
        laps.split("analyzer.flow_ms");
        std::hint::black_box(check_sched(
            SchedModel {
                master_agents: app.version.master_agents(),
                servant_agents: app.version.servant_agents(),
                preemptive: false,
            },
            budget.sched_states,
        ));
        laps.split("analyzer.sched_ms");
        std::hint::black_box(analyzer::check_races(app, &budget, false));
        laps.split("analyzer.race_ms");
        std::hint::black_box(analyzer::analyze_rate(app, &cfg.machine, &cfg.zm4));
        laps.split("analyzer.rate_ms");
    }

    fn hook(cfg: &PipelineConfig<AppConfig>) -> PreflightSummary {
        analyzer::pipeline_hook(cfg)
    }
}

impl Replayable for JacobiConfig {
    /// `analyzer::workload_hook` is token lints only; the other layers'
    /// spans stay empty.
    fn analyze(cfg: &PipelineConfig<JacobiConfig>, laps: &mut Laps, _: &mut Counters) {
        std::hint::black_box(analyzer::workload_hook(cfg));
        for name in ANALYZER_SPANS {
            laps.split(name);
        }
    }

    fn hook(cfg: &PipelineConfig<JacobiConfig>) -> PreflightSummary {
        analyzer::workload_hook(cfg)
    }
}

/// Builds the machine, installs the workload and builds the monitor —
/// everything `try_run_workload` does between pre-flight and
/// `Machine::run` on the sequential monitor path.
///
/// # Errors
///
/// Returns a message when the machine configuration is invalid.
pub fn set_up<W: Workload>(
    cfg: &PipelineConfig<W>,
) -> Result<(Machine, Harvest<W::Output>, zm4::Zm4), String> {
    let mut machine_cfg = cfg.machine.clone();
    if cfg.workload.wants_kernel_events() {
        machine_cfg.kernel_instrumentation = true;
    }
    let mut machine = Machine::new(machine_cfg, cfg.seed)
        .map_err(|e| format!("invalid machine configuration: {e:?}"))?;
    machine.set_engine_shards(cfg.engine_shards);
    let harvest = cfg.workload.launch(&mut machine);
    let monitor = cfg.zm4.build(cfg.workload.channels(&machine), cfg.seed);
    Ok((machine, harvest, monitor))
}

/// Replays one job stage by stage.
///
/// # Errors
///
/// Returns a message when the machine cannot be built.
pub fn replay<W: Replayable>(cfg: &PipelineConfig<W>) -> Result<JobTrace, String> {
    let mut counters = Counters::default();
    let mut laps = Laps::start();
    let job_start = laps.last;

    W::analyze(cfg, &mut laps, &mut counters);
    let (mut machine, harvest, monitor) = set_up(cfg)?;
    laps.split("suprenum.build_ms");
    let outcome = machine.run(cfg.horizon);
    laps.split("suprenum.run_ms");
    let faults = cfg.faults;
    let mut samples = 0u64;
    let measurement = monitor.observe_iter(
        pipeline::trace::probe_sample_iter(&machine)
            .filter_map(move |s| faults.apply(s))
            .inspect(|_| samples += 1),
    );
    laps.split("zm4.observe_ms");
    let trace = pipeline::to_simple_trace(&measurement);
    laps.split("pipeline.to_simple_ms");
    let output = harvest(&machine);
    laps.split("pipeline.harvest_ms");
    let metrics = cfg.workload.metrics(&trace, outcome.truncated(), &output);
    laps.split("simple.metrics_ms");
    let digest = harness::trace_digest(
        &trace,
        outcome.end.as_nanos(),
        outcome.reason,
        outcome.events,
    );
    laps.split("harness.digest_ms");
    let spanned_ms = (laps.last - job_start).as_secs_f64() * 1e3;

    let stats = machine.stats();
    let profile = machine.engine_profile();
    counters.events = outcome.events;
    counters.ctx_switches = stats.ctx_switches;
    counters.preemptions = stats.preemptions;
    counters.display_writes = machine.signals().display_writes().len() as u64;
    counters.engine_epochs = profile.as_ref().map_or(0, |p| p.epochs);
    counters.windowed_events = profile.as_ref().map_or(0, |p| p.shard_events.iter().sum());
    counters.samples = samples;
    counters.recorded = measurement.total_recorded();
    counters.lost = measurement.total_lost();
    counters.fifo_high_water = measurement
        .recorder_stats
        .iter()
        .map(|r| r.max_fifo_occupancy as u64)
        .max()
        .unwrap_or(0);
    counters.detector_resyncs = measurement
        .detector_stats
        .iter()
        .map(|d| d.atomicity_violations + d.discarded_partials)
        .sum();
    drop((machine, measurement, trace, output));
    let wall_ms = job_start.elapsed().as_secs_f64() * 1e3;

    Ok(JobTrace {
        run_end: outcome.reason,
        sim_end_ns: outcome.end.as_nanos(),
        digest,
        work_units: metrics.work_units,
        utilization_percent: metrics.utilization_percent,
        wall_ms,
        spanned_ms,
        spans: laps.spans,
        counters,
    })
}

/// The finding counts of the job's pre-flight hook, `(errors, warnings,
/// infos)`. Called after every replay has been timed, because it runs
/// the analysis again.
pub fn findings<W: Replayable>(cfg: &PipelineConfig<W>) -> (u64, u64, u64) {
    let s = W::hook(cfg);
    (s.errors as u64, s.warnings as u64, s.infos as u64)
}
