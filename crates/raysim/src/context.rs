//! Shared render context and application-level shared state.
//!
//! The scene description "must be replicated on each processor"
//! (paper §4.1); in the simulation every servant holds an `Rc` to one
//! [`RenderContext`] — the simulated machine charges the servants for
//! the *time* tracing would take, while the host computes the actual
//! colours once.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use des::time::SimDuration;
use raytracer::{scenes, Camera, Color, CostModel, Scene, TraceConfig, Tracer, WorkCounters};
use suprenum::{CondId, Message, ProcessId};

use crate::config::{AppConfig, SceneKind};

/// The replicated scene data plus tracing configuration.
#[derive(Debug)]
pub struct RenderContext {
    scene: Scene,
    camera: Camera,
    trace: TraceConfig,
    cost: CostModel,
    width: u32,
    height: u32,
    oversample: u32,
    per_job_base: SimDuration,
}

impl RenderContext {
    /// Builds the context for an application configuration.
    pub fn new(cfg: &AppConfig) -> Arc<Self> {
        let (scene, camera) = match &cfg.scene {
            SceneKind::Quickstart => scenes::quickstart_scene(),
            SceneKind::Moderate => scenes::moderate_scene(),
            SceneKind::FractalPyramid(depth) => scenes::fractal_pyramid(*depth),
            SceneKind::Described(text) => {
                let desc = raytracer::sdl::parse(text)
                    .expect("AppConfig::validate parses the scene description");
                (desc.scene, desc.camera)
            }
        };
        Arc::new(RenderContext {
            scene,
            camera,
            trace: cfg.trace,
            cost: cfg.cost.clone(),
            width: cfg.width,
            height: cfg.height,
            oversample: cfg.oversample,
            per_job_base: cfg.work_base,
        })
    }

    /// The scene being rendered.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// The camera.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Image dimensions.
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Traces a bundle of pixels: returns the computed colours and the
    /// simulated MC68020 time the work would have taken.
    pub fn trace_pixels(&self, pixels: &[u32]) -> (Vec<(u32, Color)>, SimDuration) {
        let tracer = Tracer::new(&self.scene, self.trace);
        let mut out = Vec::with_capacity(pixels.len());
        let mut work = WorkCounters::new();
        for &idx in pixels {
            let (px, py) = (idx % self.width, idx / self.width);
            let (color, w) = tracer.render_pixel(
                &self.camera,
                px,
                py,
                self.width,
                self.height,
                self.oversample,
            );
            work += w;
            out.push((idx, color));
        }
        (out, self.per_job_base + self.cost.simulated_time(&work))
    }
}

/// Aggregate application statistics collected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Jobs the master sent.
    pub jobs_sent: u64,
    /// Result messages the master received.
    pub results_received: u64,
    /// Disk writes ("Write Pixels" activities).
    pub disk_writes: u64,
    /// Peak size of the master's communication-agent pool.
    pub master_pool_peak: u32,
    /// Peak size of any servant's agent pool.
    pub servant_pool_peak: u32,
}

/// Shared mutable application state.
///
/// Backed by a mutex so process bodies stay `Send` when the engine runs
/// cluster shards on worker threads. Within one shard the simulation is
/// still sequential, so the lock is uncontended; the `borrow` /
/// `borrow_mut` names are kept because the access discipline is the
/// same one `RefCell` enforced. Guards must not overlap — a nested
/// borrow deadlocks where `RefCell` would have panicked.
#[derive(Debug)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T> Shared<T> {
    /// Wraps `value` for shared ownership.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Mutex::new(value)))
    }

    /// Locks the value for reading.
    pub fn borrow(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Locks the value for writing.
    pub fn borrow_mut(&self) -> MutexGuard<'_, T> {
        self.borrow()
    }
}

/// One communication-agent pool: the shared variables between an owner
/// process (master or servant) and its agents — the "pool of
/// light-weight processes" of §4.3, version 2.
///
/// The owner "indicates this fact to an agent, who is currently not
/// engaged in some other communication, by setting a shared variable":
/// each agent sleeps on its *own* condition; the owner pops a free agent
/// off the list and signals exactly that agent.
#[derive(Debug)]
pub struct AgentPool {
    /// Base value for per-agent condition ids.
    base_cond: u64,
    /// Messages waiting to be forwarded: `(destination, message)`.
    pub queue: VecDeque<(ProcessId, Message)>,
    /// Indices of agents currently asleep (available for designation).
    pub free: Vec<u32>,
    /// Agents currently forwarding a message (engaged).
    pub busy_agents: u32,
    /// Agents ever created in this pool.
    pub total_agents: u32,
}

impl AgentPool {
    /// Creates an empty pool. `base_cond` must leave room for one
    /// condition id per agent the pool may ever grow to.
    pub fn new(base_cond: u64) -> Shared<AgentPool> {
        Shared::new(AgentPool {
            base_cond,
            queue: VecDeque::new(),
            free: Vec::new(),
            busy_agents: 0,
            total_agents: 0,
        })
    }

    /// The private condition agent `index` sleeps on.
    pub fn agent_cond(&self, index: u32) -> CondId {
        CondId::new(self.base_cond + index as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Version;

    #[test]
    fn trace_pixels_returns_colours_and_time() {
        let mut cfg = AppConfig::version(Version::V1);
        cfg.scene = SceneKind::Quickstart;
        cfg.width = 16;
        cfg.height = 16;
        let ctx = RenderContext::new(&cfg);
        let (colors, time) = ctx.trace_pixels(&[0, 100, 200]);
        assert_eq!(colors.len(), 3);
        assert_eq!(colors[1].0, 100);
        assert!(
            time > cfg.work_base,
            "tracing must cost more than the base overhead"
        );
    }

    #[test]
    fn ray_cost_varies_with_content() {
        // The paper's premise: per-ray time varies considerably. Compare
        // a background pixel against a scene-center pixel.
        let mut cfg = AppConfig::version(Version::V1);
        cfg.scene = SceneKind::Moderate;
        let ctx = RenderContext::new(&cfg);
        let corner = ctx.trace_pixels(&[0]).1;
        let center_idx = (cfg.height / 2) * cfg.width + cfg.width / 2;
        let center = ctx.trace_pixels(&[center_idx]).1;
        assert!(
            center.as_nanos() > corner.as_nanos() * 2,
            "center ray ({center}) should cost much more than sky ray ({corner})"
        );
    }

    #[test]
    fn pool_starts_empty() {
        let pool = AgentPool::new(700);
        let p = pool.borrow();
        assert!(p.free.is_empty());
        assert_eq!(p.busy_agents, 0);
        assert_eq!(p.total_agents, 0);
        assert!(p.queue.is_empty());
        assert_eq!(p.agent_cond(3), CondId::new(703));
    }
}
