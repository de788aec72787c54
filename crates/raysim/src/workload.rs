//! The ray tracer as a [`pipeline::Workload`].
//!
//! This is the first (and historically the original) workload of the
//! measurement pipeline: [`AppConfig`] declares the Figure 6 token map
//! and the protocol's proven orderings, launches the master on node 0,
//! and folds the rendered image plus the application counters back out
//! of the finished machine.

use std::sync::Arc;

use pipeline::{Harvest, OrderEdge, RunMetrics, TokenDecl, Workload};
use raytracer::Framebuffer;
use simple::Trace;
use suprenum::{Machine, NodeId, Process};

use crate::analysis::{servant_utilization, servant_utilization_steady, steady_phase, work_phase};
use crate::config::AppConfig;
use crate::context::{AppStats, RenderContext, Shared};
use crate::master::Master;
use crate::tokens;

/// What a ray-tracer run folds out of the machine: the image assembled
/// by the master's pixel writes, plus the application counters.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// The rendered image.
    pub image: Framebuffer,
    /// Application counters (jobs sent, results received, …).
    pub stats: AppStats,
}

/// The orderings guaranteed by message causality and the blocking
/// mailbox protocol, as witnessed by the analyzer's scheduler model: a
/// message is accepted only after its send began, so each job's
/// instrumentation points are totally ordered across nodes. Jobs are
/// matched globally by the job id in the event parameter — one job id
/// exists once in the whole system.
pub fn proven_orders(app: &AppConfig) -> Vec<OrderEdge> {
    let mut orders = vec![
        OrderEdge::global(
            "job-sent-before-work",
            tokens::SEND_JOBS_BEGIN,
            tokens::WORK_BEGIN,
            "a servant can only start working on a job after the master began sending it",
        ),
        OrderEdge::global(
            "work-before-result-received",
            tokens::WORK_BEGIN,
            tokens::RECEIVE_RESULTS_BEGIN,
            "the master can only receive a result after the servant started the work",
        ),
    ];
    if app.instrument_send_results {
        orders.push(OrderEdge::global(
            "work-before-result-sent",
            tokens::WORK_BEGIN,
            tokens::SEND_RESULTS_BEGIN,
            "a servant sends a result only after starting its work",
        ));
        orders.push(OrderEdge::global(
            "result-sent-before-received",
            tokens::SEND_RESULTS_BEGIN,
            tokens::RECEIVE_RESULTS_BEGIN,
            "the master can only receive a result after the servant began sending it",
        ));
    }
    orders
}

impl Workload for AppConfig {
    type Output = RenderOutput;

    fn id(&self) -> &'static str {
        "raytracer"
    }

    fn validate(&self) -> Result<(), String> {
        AppConfig::validate(self)
    }

    fn nodes_required(&self) -> u32 {
        u32::from(self.servants) + 1
    }

    fn wants_kernel_events(&self) -> bool {
        self.kernel_events
    }

    fn token_map(&self) -> Vec<TokenDecl> {
        tokens::point_map()
            .into_iter()
            .map(|(token, name, group)| TokenDecl::new(token, name, group))
            .collect()
    }

    fn proven_orders(&self) -> Vec<OrderEdge> {
        proven_orders(self)
    }

    fn launch(&self, machine: &mut Machine) -> Harvest<RenderOutput> {
        launch_master(self.clone(), machine, Master::new)
    }

    fn metrics(&self, trace: &Trace, truncated: bool, output: &RenderOutput) -> RunMetrics {
        let servants = u32::from(self.servants);
        let has_phase = work_phase(trace).is_some();
        let utilization_percent = (!truncated && has_phase && servants > 0)
            .then(|| servant_utilization(trace, servants).mean_percent());
        let steady_percent = (!truncated && servants > 0 && steady_phase(trace).is_some())
            .then(|| servant_utilization_steady(trace, servants).mean_percent());
        RunMetrics {
            work_units: output.stats.jobs_sent,
            utilization_percent,
            steady_percent,
        }
    }
}

/// Installs the master `build` makes from the shared render state on
/// node 0 and returns the harvest of the image and the counters — the
/// launch every master/servant ray-tracer workload shares.
pub(crate) fn launch_master<P: Process + 'static>(
    app: AppConfig,
    machine: &mut Machine,
    build: impl FnOnce(
        Arc<AppConfig>,
        Arc<RenderContext>,
        Shared<AppStats>,
        Shared<Framebuffer>,
    ) -> Box<P>,
) -> Harvest<RenderOutput> {
    let app = Arc::new(app);
    let ctx = RenderContext::new(&app);
    let stats = Shared::new(AppStats::default());
    let fb = Shared::new(Framebuffer::new(app.width, app.height));
    machine.add_process(NodeId::new(0), build(app, ctx, stats.clone(), fb.clone()));

    Box::new(move |_machine| {
        // The image is *taken* out of the shared cell (leaving the
        // empty default behind) instead of being deep-copied — a
        // truncated run leaves the master alive holding its clone, so
        // the handle is not necessarily unique.
        let image = std::mem::take(&mut *fb.borrow_mut());
        let stats = *stats.borrow();
        RenderOutput { image, stats }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SceneKind, Version};
    use pipeline::{run_workload, try_run_workload, PipelineConfig, PipelineError};

    fn tiny_app(version: Version) -> AppConfig {
        let mut app = AppConfig::version(version);
        app.servants = 2;
        app.scene = SceneKind::Quickstart;
        app.width = 8;
        app.height = 8;
        app
    }

    #[test]
    fn raytracer_runs_through_the_generic_pipeline() {
        let result = run_workload(PipelineConfig::new(tiny_app(Version::V4)));
        assert!(result.completed());
        assert!(result.output.image.mean_luminance() > 0.0);
        assert!(result.output.stats.jobs_sent > 0);
        let metrics = result.metrics(&tiny_app(Version::V4));
        assert_eq!(metrics.work_units, result.output.stats.jobs_sent);
        assert!(metrics.utilization_percent.is_some());
    }

    // A truncated run leaves the master alive holding its framebuffer
    // handle; the harvest must still hand the image back (by take, not
    // by clone) without panicking.
    #[test]
    fn truncated_run_still_yields_the_image() {
        let mut cfg = PipelineConfig::new(tiny_app(Version::V4));
        cfg.horizon = des::time::SimTime::from_millis(1);
        let result = run_workload(cfg);
        assert!(result.truncated());
        assert!(result.ensure_completed().is_err());
        // 8×8 was allocated; the take preserves the real buffer.
        assert_eq!(result.output.image.pixel_count(), 64);
    }

    #[test]
    fn bad_scene_description_fails_validation_not_the_launch() {
        let mut cfg = PipelineConfig::new(tiny_app(Version::V4));
        cfg.workload.scene = SceneKind::from_description(
            "camera eye 0 0 0 target 0 0 -1 up 0 1 0 fov 60 aspect NaN",
        );
        let Err(PipelineError::Invalid(msg)) = try_run_workload(cfg) else {
            panic!("a bad scene must fail validation");
        };
        assert!(
            msg.contains("line 1") && msg.contains("not a finite number"),
            "{msg}"
        );
    }

    #[test]
    fn too_deep_a_fractal_fails_validation_not_the_launch() {
        let mut cfg = PipelineConfig::new(tiny_app(Version::V4));
        cfg.workload.scene = SceneKind::FractalPyramid(raytracer::scenes::MAX_FRACTAL_DEPTH + 1);
        let Err(PipelineError::Invalid(msg)) = try_run_workload(cfg) else {
            panic!("a fractal deeper than the limit must fail validation");
        };
        assert!(
            msg.contains("depth 7") && msg.contains("limit of 6"),
            "{msg}"
        );
    }

    #[test]
    fn declared_orders_follow_instrumentation() {
        assert_eq!(proven_orders(&tiny_app(Version::V1)).len(), 2);
        let v4 = proven_orders(&tiny_app(Version::V4));
        assert_eq!(v4.len(), 4);
        assert!(v4.iter().any(|o| o.name == "result-sent-before-received"));
    }

    #[test]
    fn token_map_matches_the_declared_points() {
        let map = Workload::token_map(&tiny_app(Version::V4));
        assert_eq!(map.len(), 14);
        assert_eq!(map[0].group, "Master");
    }
}
