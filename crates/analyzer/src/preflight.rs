//! The analyzer's entry point and its [`pipeline::Preflight`] hooks.
//!
//! The analyzer plugs into the measurement pipeline through the
//! fn-pointer seam [`pipeline::Preflight`]: [`pipeline_warn`] prints
//! findings and lets a ray-tracer run proceed (how the paper's
//! experiments must run — version 3's queue bug has to execute to be
//! measured), [`pipeline_deny`] refuses to start a run whose analysis
//! reports errors, and [`workload_warn`] / [`workload_deny`] lint any
//! workload's token map. `ANALYZER_POLICY=off|warn|deny` overrides a
//! harness's default through [`pipeline::PolicyMode::from_env`].
//!
//! [`analyze`] comes in two depths: the hooks pass
//! [`ModelBudget::preflight`] (cheap enough to run before every sweep
//! run; bounded explorations report `AN-MODEL-005` instead of universal
//! claims), while the `analyze` CLI and the CI gate pass
//! [`ModelBudget::full`], which closes every stock V1–V4 state space.

use std::time::{Duration, Instant};

use pipeline::{PipelineConfig, Preflight, PreflightSummary, Workload};
use raysim::config::{AppConfig, Version};

use crate::diag::{Report, Severity};
use crate::model::{check_app_timed, ModelBudget};
use crate::protocol::analyze_protocol;
use crate::rate::analyze_rate;
use crate::token_lints::{lint_pair, lint_stock_maps, TokenMap};

/// Wall time spent in each analysis layer, published by `analyze
/// --json` so analyzer cost regressions show up in CI artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimings {
    /// Token-map lints (`AN-TOKEN-*`).
    pub token: Duration,
    /// Protocol graph analysis (`AN-PROTO-*`).
    pub protocol: Duration,
    /// Event-rate prediction (`AN-RATE-*`).
    pub rate: Duration,
    /// Structural place/transition-net layer (`AN-STRUCT-*`).
    pub structural: Duration,
    /// Flow/exact explorations and the effective-synchrony verdict
    /// (`AN-MODEL-*`).
    pub model: Duration,
    /// Race report (`AN-RACE-*`). It shares one memoized interleaving
    /// search with effective synchrony; the search's time lands in
    /// whichever layer asks first (`model` here), and the other reads
    /// the memo.
    pub race: Duration,
}

/// Analyzes a ray-tracer run configuration under an explicit
/// model-checking budget: the stock point maps, the version's protocol,
/// the protocol models, and the event-rate prediction against the
/// configured machine and monitor — with the per-layer wall-time
/// breakdown alongside the report.
pub fn analyze(cfg: &PipelineConfig<AppConfig>, budget: &ModelBudget) -> (Report, LayerTimings) {
    let app = &cfg.workload;
    let mut timings = LayerTimings::default();
    let mut report = Report::new(format!("{}", app.version));
    let phase = Instant::now();
    report.merge(lint_stock_maps());
    timings.token = phase.elapsed();
    let phase = Instant::now();
    report.merge(analyze_protocol(app));
    timings.protocol = phase.elapsed();
    let (model_report, model_timings) = check_app_timed(app, budget);
    report.merge(model_report);
    timings.structural = model_timings.structural;
    timings.model = model_timings.model;
    timings.race = model_timings.race;
    let phase = Instant::now();
    report.merge(analyze_rate(app, &cfg.machine, &cfg.zm4));
    timings.rate = phase.elapsed();
    (report, timings)
}

/// Analyzes a stock program version under its stock run configuration
/// and the cheap pre-flight budget.
pub fn analyze_version(version: Version) -> Report {
    let cfg = PipelineConfig::new(AppConfig::version(version));
    analyze(&cfg, &ModelBudget::preflight()).0
}

/// Flattens a report into the pipeline's summary shape.
fn summarize(report: &Report) -> PreflightSummary {
    PreflightSummary {
        errors: report.errors(),
        warnings: report.warnings(),
        infos: report.count(Severity::Info),
        rendered: report.render(),
    }
}

/// The ray-tracer pre-flight hook: [`analyze`] under the cheap
/// pre-flight budget, flattened into counts plus rendered text.
pub fn pipeline_hook(cfg: &PipelineConfig<AppConfig>) -> PreflightSummary {
    summarize(&analyze(cfg, &ModelBudget::preflight()).0)
}

/// A pipeline pre-flight that analyzes the ray tracer, reports, and
/// runs anyway.
pub fn pipeline_warn() -> Preflight<AppConfig> {
    Preflight::warn(pipeline_hook)
}

/// A pipeline pre-flight that refuses to run ray-tracer configurations
/// with errors.
pub fn pipeline_deny() -> Preflight<AppConfig> {
    Preflight::deny(pipeline_hook)
}

/// The workload-agnostic hook: lints any workload's declared token map
/// (`AN-TOKEN-*`) — against itself and against the kernel map it will
/// share every node's display channel with. Protocol and rate analyses
/// are ray-tracer-shaped and do not run here; a workload wanting them
/// supplies its own hook.
pub fn workload_hook<W: Workload>(cfg: &PipelineConfig<W>) -> PreflightSummary {
    let app = TokenMap::from_workload(&cfg.workload);
    let kernel = TokenMap::suprenum_kernel();
    let mut report = Report::new(format!("{} instrumentation", cfg.workload.id()));
    report.merge(app.lint());
    report.merge(kernel.lint());
    report.merge(lint_pair(&app, &kernel));
    if cfg.workload.wants_kernel_events()
        && cfg.machine.monitoring != hybridmon::MonitoringMode::Hybrid
    {
        report.push(
            crate::diag::Finding::warning(
                "AN-TOKEN-006",
                format!(
                    "workload '{}' requests kernel instrumentation, but monitoring mode {:?} \
                     drops kernel events silently — switch the machine to hybrid monitoring",
                    cfg.workload.id(),
                    cfg.machine.monitoring
                ),
            )
            .at("machine.monitoring"),
        );
    }
    summarize(&report)
}

/// A pre-flight for any workload that runs the token-map lints, warns,
/// and proceeds.
pub fn workload_warn<W: Workload>() -> Preflight<W> {
    Preflight::warn(workload_hook::<W>)
}

/// A pre-flight for any workload that refuses to run on token-map
/// errors.
pub fn workload_deny<W: Workload>() -> Preflight<W> {
    Preflight::deny(workload_hook::<W>)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_version_reports_match_the_paper_story() {
        let reports: Vec<Report> = Version::ALL.into_iter().map(analyze_version).collect();
        assert_eq!(reports.len(), 4);
        // V1: pseudo-synchronous in both directions, no errors.
        assert!(!reports[0].has_errors());
        assert!(reports[0].warnings() >= 2);
        // V2: the result path still warns.
        assert!(!reports[1].has_errors());
        assert_eq!(reports[1].warnings(), 1);
        // V3: the queue bug, found statically — by the linear lint and
        // by the model checker's reachability verdict.
        assert!(reports[2].has_errors());
        assert!(reports[2].contains("AN-PROTO-002"));
        assert!(reports[2].contains("AN-MODEL-002"));
        // V4: no errors, no warnings.
        assert!(!reports[3].has_errors());
        assert_eq!(reports[3].warnings(), 0);
    }

    #[test]
    fn a_wide_window_preflights_on_a_worker_sized_stack() {
        // 255 servants × window 100 over a 65 535-pixel queue of one-ray
        // bundles: the flow model's first send-closure folds 25 500
        // sends into one edge. The harness runs jobs on 2 MiB threads.
        let mut app = AppConfig::version(Version::V1);
        app.servants = 255;
        app.window = 100;
        app.pixel_queue_capacity = 65_535;
        app.validate().expect("the shape is a valid configuration");
        let cfg = PipelineConfig::new(app);
        let summary = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || pipeline_hook(&cfg))
            .expect("spawn")
            .join()
            .expect("the pre-flight must not overflow a 2 MiB stack");
        assert_eq!(summary.errors, 0, "{}", summary.rendered);
        assert!(summary
            .rendered
            .contains("flow model stopped at 100000 states"));
    }

    #[test]
    fn hook_flattens_counts() {
        let summary = pipeline_hook(&PipelineConfig::new(AppConfig::version(Version::V3)));
        assert!(summary.errors >= 1);
        assert!(summary.rendered.contains("AN-PROTO-002"));
        assert!(summary.rendered.contains("error["));
    }

    #[test]
    fn pipeline_warn_lets_v3_run_to_the_preflight_stage() {
        let mut cfg = PipelineConfig::new(AppConfig::version(Version::V3));
        cfg.preflight = pipeline_warn();
        // Warn returns the summary even with errors present.
        let summary = pipeline::try_preflight(&cfg)
            .expect("warn never denies")
            .expect("policy is on");
        assert!(summary.errors >= 1);
    }

    #[test]
    fn pipeline_deny_passes_v4() {
        let mut cfg = PipelineConfig::new(AppConfig::version(Version::V4));
        cfg.preflight = pipeline_deny();
        let summary = pipeline::try_preflight(&cfg)
            .expect("V4 has no errors")
            .expect("policy is on");
        assert_eq!(summary.errors, 0);
    }

    #[test]
    fn pipeline_deny_stops_v3_without_running_it() {
        let mut cfg = PipelineConfig::new(AppConfig::version(Version::V3));
        cfg.preflight = pipeline_deny();
        let denied = pipeline::try_preflight(&cfg).unwrap_err();
        assert!(denied.summary.errors >= 1);
        assert!(denied.summary.rendered.contains("AN-PROTO-002"));
    }

    #[test]
    fn generic_workload_hook_lints_jacobi_cleanly() {
        let cfg = PipelineConfig::new(pipeline::jacobi::JacobiConfig::default());
        let summary = workload_hook(&cfg);
        assert_eq!(summary.errors, 0, "{}", summary.rendered);
        assert_eq!(summary.warnings, 0, "{}", summary.rendered);
        // And the deny pre-flight lets a clean map through.
        let mut cfg = cfg;
        cfg.preflight = workload_deny();
        assert!(pipeline::try_preflight(&cfg).is_ok());
    }

    #[test]
    fn workload_hook_warns_when_kernel_events_would_be_dropped() {
        // A ray-tracer app that wants kernel events under software-only
        // monitoring: the pipeline would silently drop every kernel
        // token, so the hook must say so (AN-TOKEN-006).
        let mut app = AppConfig::version(Version::V1);
        app.kernel_events = true;
        let mut cfg = PipelineConfig::new(app);
        cfg.machine.monitoring = hybridmon::MonitoringMode::Software;
        let summary = workload_hook(&cfg);
        assert_eq!(summary.errors, 0, "{}", summary.rendered);
        assert!(summary.warnings >= 1, "{}", summary.rendered);
        assert!(
            summary.rendered.contains("AN-TOKEN-006"),
            "{}",
            summary.rendered
        );
        // Under hybrid monitoring the same request is fine.
        cfg.machine.monitoring = hybridmon::MonitoringMode::Hybrid;
        let summary = workload_hook(&cfg);
        assert!(
            !summary.rendered.contains("AN-TOKEN-006"),
            "{}",
            summary.rendered
        );
    }
}
