//! Shared render context and application-level shared state.
//!
//! The scene description "must be replicated on each processor"
//! (paper §4.1); in the simulation every servant holds an `Arc` to one
//! [`RenderContext`]. The simulated machine charges the servants for
//! the *time* tracing would take; the host traces the pixels to learn
//! both that time and the colours.
//!
//! Both are pure functions of the scene, the trace configuration, the
//! cost model, the image size and the oversampling factor, and a sweep
//! renders the same image on many rows. So the host keeps one *render
//! table* per distinct combination of those values, for the life of
//! the process: one `(Color, SimDuration)` slot per pixel (40 bytes;
//! 640 KiB for the paper's 128×128 image), each filled the first time
//! any run asks for that pixel. Sweep workers share the tables, no
//! pixel is traced twice, and a run that stops early traces only the
//! pixels it reached. The first run of an image pays for its tracing;
//! later runs of the same image in the same process read the table.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use des::time::SimDuration;
use raytracer::{scenes, Camera, Color, CostModel, Scene, TraceConfig, Tracer, WorkCounters};
use suprenum::{CondId, Message, ProcessId};

use crate::config::{AppConfig, SceneKind};

/// Everything that fixes a pixel's colour and simulated price: two
/// contexts with equal keys trace identical pixels at identical cost.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RenderKey {
    scene: SceneKind,
    trace: TraceConfig,
    cost: CostModel,
    width: u32,
    height: u32,
    oversample: u32,
}

/// One traced pixel: its colour and the simulated time tracing it
/// alone takes (`CostModel::simulated_time` of its own work).
type TracedPixel = (Color, SimDuration);

/// Every pixel of one image, each traced at most once per process.
type RenderTable = [OnceLock<TracedPixel>];

/// The process-wide render table for `key`, created empty on first
/// use. Locked only to look a table up, never while tracing.
fn render_table(key: &RenderKey) -> Arc<RenderTable> {
    static TABLES: OnceLock<Mutex<HashMap<RenderKey, Arc<RenderTable>>>> = OnceLock::new();
    let tables = TABLES.get_or_init(|| Mutex::new(HashMap::new()));
    // A panic elsewhere cannot leave the map half-updated: each change
    // is one `HashMap::insert` of an empty table.
    let mut tables = tables.lock().unwrap_or_else(|e| e.into_inner());
    let pixels = key.width as usize * key.height as usize;
    Arc::clone(
        tables
            .entry(key.clone())
            .or_insert_with(|| (0..pixels).map(|_| OnceLock::new()).collect()),
    )
}

/// The replicated scene data plus tracing configuration.
#[derive(Debug)]
pub struct RenderContext {
    scene: Scene,
    camera: Camera,
    key: RenderKey,
    per_job_base: SimDuration,
    /// This image's render table, looked up at the first
    /// [`trace_pixels`](Self::trace_pixels) call: a context that never
    /// traces (object partitioning reads only its scene) allocates none.
    table: OnceLock<Arc<RenderTable>>,
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
            key: RenderKey {
                scene: cfg.scene.clone(),
                trace: cfg.trace,
                cost: cfg.cost.clone(),
                width: cfg.width,
                height: cfg.height,
                oversample: cfg.oversample,
            },
            per_job_base: cfg.work_base,
            table: OnceLock::new(),
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
        (self.key.width, self.key.height)
    }

    /// Traces a bundle of pixels: returns the computed colours and the
    /// simulated MC68020 time the work would have taken.
    ///
    /// Pixels come from the process-wide render table; only those no
    /// earlier call traced are traced now. The time is the per-job base
    /// plus each pixel's own price, which equals pricing the bundle's
    /// summed work counters: the price is linear in integer
    /// nanoseconds.
    pub fn trace_pixels(&self, pixels: &[u32]) -> (Vec<(u32, Color)>, SimDuration) {
        let table = self.table();
        let mut tracer = None;
        let mut out = Vec::with_capacity(pixels.len());
        let mut time = self.per_job_base;
        for &idx in pixels {
            let &(color, cost) = table[idx as usize].get_or_init(|| {
                let tracer = tracer.get_or_insert_with(|| Tracer::new(&self.scene, self.key.trace));
                let (color, work) = self.render_pixel(tracer, idx);
                (color, self.key.cost.simulated_time(&work))
            });
            time += cost;
            out.push((idx, color));
        }
        (out, time)
    }

    /// This context's render table.
    fn table(&self) -> &Arc<RenderTable> {
        self.table.get_or_init(|| render_table(&self.key))
    }

    /// Traces pixel `idx` (row-major) with `tracer`.
    fn render_pixel(&self, tracer: &Tracer<'_>, idx: u32) -> (Color, WorkCounters) {
        let k = &self.key;
        tracer.render_pixel(
            &self.camera,
            idx % k.width,
            idx / k.width,
            k.width,
            k.height,
            k.oversample,
        )
    }

    /// The uncached trace the render table replaces: one tracer for the
    /// bundle, its work counters summed, priced once.
    #[cfg(test)]
    fn trace_pixels_uncached(&self, pixels: &[u32]) -> (Vec<(u32, Color)>, SimDuration) {
        let tracer = Tracer::new(&self.scene, self.key.trace);
        let mut out = Vec::with_capacity(pixels.len());
        let mut work = WorkCounters::new();
        for &idx in pixels {
            let (color, w) = self.render_pixel(&tracer, idx);
            work += w;
            out.push((idx, color));
        }
        (out, self.per_job_base + self.key.cost.simulated_time(&work))
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

    /// Row-major pixel indices `0..pixels` in a seeded random order, cut
    /// into bundles whose sizes cycle through `sizes`.
    fn shuffled_bundles(pixels: u32, sizes: &[usize], seed: u64) -> Vec<Vec<u32>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<u32> = (0..pixels).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let mut bundles = Vec::new();
        let mut rest = &order[..];
        for &size in sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (bundle, tail) = rest.split_at(size.min(rest.len()));
            bundles.push(bundle.to_vec());
            rest = tail;
        }
        bundles
    }

    /// A traced bundle with each colour as its bit patterns, so equal
    /// means bit-identical.
    fn bits(traced: (Vec<(u32, Color)>, SimDuration)) -> (Vec<(u32, [u64; 3])>, SimDuration) {
        let (colors, time) = traced;
        let colors = colors
            .into_iter()
            .map(|(idx, c)| (idx, [c.r.to_bits(), c.g.to_bits(), c.b.to_bits()]))
            .collect();
        (colors, time)
    }

    /// Asserts every bundle traces through the render table exactly as
    /// the uncached oracle traces it: colours bit for bit, time to the
    /// nanosecond.
    fn assert_matches_the_oracle(ctx: &RenderContext, bundles: &[Vec<u32>]) {
        for bundle in bundles {
            assert_eq!(
                bits(ctx.trace_pixels(bundle)),
                bits(ctx.trace_pixels_uncached(bundle)),
                "bundle {bundle:?}"
            );
        }
    }

    fn quickstart(width: u32, height: u32) -> AppConfig {
        let mut cfg = AppConfig::version(Version::V1);
        cfg.scene = SceneKind::Quickstart;
        cfg.width = width;
        cfg.height = height;
        cfg
    }

    #[test]
    fn the_paper_image_traces_as_the_oracle_does_in_any_bundling() {
        let cfg = AppConfig::version(Version::V1);
        let ctx = RenderContext::new(&cfg);
        assert_matches_the_oracle(
            &ctx,
            &shuffled_bundles(cfg.total_pixels(), &[1, 7, 100], 11),
        );
        // Every pixel is in the table now; a second bundling reads it.
        assert_matches_the_oracle(
            &ctx,
            &shuffled_bundles(cfg.total_pixels(), &[100, 7, 1], 12),
        );
    }

    #[test]
    fn oversampled_pixels_trace_as_the_oracle_does() {
        let mut cfg = quickstart(16, 16);
        cfg.oversample = 3;
        let ctx = RenderContext::new(&cfg);
        assert_matches_the_oracle(
            &ctx,
            &shuffled_bundles(cfg.total_pixels(), &[1, 7, 100], 13),
        );
    }

    #[test]
    fn vectorized_bvh_pixels_trace_as_the_oracle_does() {
        let mut cfg = AppConfig::version(Version::V4);
        cfg.width = 32;
        cfg.height = 32;
        cfg.trace.accel = raytracer::Accel::Bvh;
        cfg.trace.vector_mode = raytracer::VectorMode::Vectorized;
        // Prices of its own, so a table priced by any other model fails.
        cfg.cost.per_vector_chunk = SimDuration::from_nanos(123_457);
        cfg.cost.per_bvh_visit = SimDuration::from_nanos(45_001);
        let ctx = RenderContext::new(&cfg);
        assert_matches_the_oracle(
            &ctx,
            &shuffled_bundles(cfg.total_pixels(), &[1, 7, 100], 14),
        );
    }

    #[test]
    fn described_scene_pixels_trace_as_the_oracle_does() {
        let mut cfg = quickstart(20, 20);
        cfg.scene = SceneKind::from_description(
            "background 0.2 0.3 0.5\n\
             ambient 0.8 0.8 0.8\n\
             camera eye 0 2 2 target 0 0 -10 up 0 1 0 fov 60 aspect 1\n\
             light pos 8 10 2 color 0.9 0.9 0.9\n\
             material m0 color 0.85 0.25 0.2 ambient 0.1 diffuse 0.9 specular 0.4 \
             shininess 20 reflect 0.3 transparency 0 ior 1\n\
             material glass color 0.9 0.9 0.9 ambient 0 diffuse 0.1 specular 0.8 \
             shininess 60 reflect 0.1 transparency 0.8 ior 1.5\n\
             sphere center 0 0 -5 radius 1 material glass\n\
             sphere center 1.5 0.5 -7 radius 1 material m0\n\
             plane point 0 -1.5 0 normal 0 1 0 material m0\n\
             triangle a 0 2.5 -10 b 1 0 -9 c -1 0 -9 material m0\n",
        );
        cfg.validate().unwrap();
        let ctx = RenderContext::new(&cfg);
        assert_matches_the_oracle(
            &ctx,
            &shuffled_bundles(cfg.total_pixels(), &[1, 7, 100], 15),
        );
    }

    #[test]
    fn a_table_is_shared_by_equal_keys_only() {
        let base = quickstart(8, 8);
        let table = |cfg: &AppConfig| Arc::clone(RenderContext::new(cfg).table());
        let shared = table(&base);
        assert!(Arc::ptr_eq(&shared, &table(&base.clone())));
        // The per-job base prices jobs, not pixels: not part of the key.
        let mut cfg = base.clone();
        cfg.work_base = SimDuration::from_micros(1);
        assert!(Arc::ptr_eq(&shared, &table(&cfg)));

        let mut variants = Vec::new();
        let mut cfg = base.clone();
        cfg.scene = SceneKind::Moderate;
        variants.push(("scene", cfg));
        let mut cfg = base.clone();
        cfg.trace.max_depth -= 1;
        variants.push(("trace", cfg));
        let mut cfg = base.clone();
        cfg.cost.per_ray += SimDuration::from_nanos(1);
        variants.push(("cost", cfg));
        let mut cfg = base.clone();
        cfg.width += 1;
        variants.push(("width", cfg));
        let mut cfg = base.clone();
        cfg.height += 1;
        variants.push(("height", cfg));
        let mut cfg = base.clone();
        cfg.oversample += 1;
        variants.push(("oversample", cfg));
        for (field, cfg) in variants {
            assert!(!Arc::ptr_eq(&shared, &table(&cfg)), "{field}");
        }
    }

    #[test]
    fn a_table_slot_fits_in_forty_bytes() {
        assert!(std::mem::size_of::<OnceLock<TracedPixel>>() <= 40);
    }

    #[test]
    fn two_threads_filling_one_table_get_what_one_thread_gets() {
        // A size no other test uses, so both threads find the table
        // empty and race for every pixel.
        let cfg = quickstart(23, 19);
        let pixels: Vec<u32> = (0..cfg.total_pixels()).collect();
        let reversed: Vec<u32> = pixels.iter().rev().copied().collect();
        let ctx = RenderContext::new(&cfg);
        let oracle = bits(ctx.trace_pixels_uncached(&pixels));
        let start = std::sync::Barrier::new(2);
        let fill = |order: &[u32]| {
            let ctx = RenderContext::new(&cfg);
            start.wait();
            ctx.trace_pixels(order)
        };
        let (forward, backward) = std::thread::scope(|s| {
            let forward = s.spawn(|| fill(&pixels));
            let backward = s.spawn(|| fill(&reversed));
            (forward.join().unwrap(), backward.join().unwrap())
        });
        assert_eq!(bits(forward), oracle);
        let (mut colors, time) = bits(backward);
        colors.reverse();
        assert_eq!((colors, time), oracle);
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
