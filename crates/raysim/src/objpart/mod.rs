//! Object partitioning — the other parallelization scheme of §4.1.
//!
//! "Using object partitioning, each processor takes care of a certain
//! fraction of the objects in the scene to be rendered." The paper chose
//! ray partitioning instead, trading replicated scene storage for
//! independence; this module implements the road not taken so the
//! trade-off can actually be measured:
//!
//! * each servant stores only `1/N` of the geometry
//!   ([`partition::PartitionIndex`]) — the memory win;
//! * every ray of every generation is broadcast to all servants and
//!   their answers reduced ([`wavefront`]) — the communication and
//!   master-reduction cost.
//!
//! [`ObjPartConfig`] is a [`pipeline::Workload`], so the scheme runs on
//! the simulated machine under the same monitoring as the
//! ray-partitioned versions, and Gantt charts and utilization numbers
//! are directly comparable (`ablation_object_partitioning`).

pub mod master;
pub mod partition;
pub mod servant;
pub mod wavefront;

use std::sync::Arc;

use des::time::SimDuration;
use pipeline::{Harvest, TokenDecl, Workload};
use raytracer::Framebuffer;
use suprenum::{Machine, NodeId};

use crate::config::AppConfig;
use crate::context::{AppStats, RenderContext, Shared};

/// Configuration of an object-partitioned run.
#[derive(Debug, Clone)]
pub struct ObjPartConfig {
    /// Scene, image and shared cost constants. `servants` is the number
    /// of partitions; version/bundle/window fields are ignored.
    pub app: AppConfig,
    /// Master cost to reduce one partition answer.
    pub reduce_per_answer: SimDuration,
    /// Master cost to shade one hit.
    pub shade_per_hit: SimDuration,
    /// Wire bytes per broadcast task.
    pub bytes_per_task: u32,
    /// Wire bytes per partition answer.
    pub bytes_per_answer: u32,
}

impl ObjPartConfig {
    /// Defaults mirroring the ray-partitioned cost model.
    pub fn new(app: AppConfig) -> ObjPartConfig {
        ObjPartConfig {
            app,
            reduce_per_answer: SimDuration::from_micros(40),
            shade_per_hit: SimDuration::from_micros(250),
            bytes_per_task: 48,
            bytes_per_answer: 40,
        }
    }
}

/// What an object-partitioned run folds out of the machine.
#[derive(Debug, Clone)]
pub struct ObjPartOutput {
    /// The rendered image.
    pub image: Framebuffer,
    /// Broadcast rounds executed.
    pub rounds: u32,
    /// Largest per-servant geometry footprint, in objects — the memory
    /// argument for this scheme.
    pub max_objects_per_servant: usize,
}

impl Workload for ObjPartConfig {
    type Output = ObjPartOutput;

    fn id(&self) -> &'static str {
        "raytracer-objpart"
    }

    fn validate(&self) -> Result<(), String> {
        self.app.validate()
    }

    fn nodes_required(&self) -> u32 {
        u32::from(self.app.servants) + 1
    }

    fn token_map(&self) -> Vec<TokenDecl> {
        self.app.token_map()
    }

    fn launch(&self, machine: &mut Machine) -> Harvest<ObjPartOutput> {
        let cfg = Arc::new(self.clone());
        let ctx = RenderContext::new(&cfg.app);
        let fb = Shared::new(Framebuffer::new(cfg.app.width, cfg.app.height));
        let rounds = Shared::new(0u32);
        let max_objects_per_servant = ctx
            .scene()
            .primitive_count()
            .div_ceil(usize::from(cfg.app.servants));
        let stats = Shared::new(AppStats::default());
        let master = master::ObjMaster::new(cfg, ctx, stats, fb.clone(), rounds.clone());
        machine.add_process(NodeId::new(0), master);

        Box::new(move |_machine| ObjPartOutput {
            // Taken, not cloned: a truncated run leaves the master alive
            // holding its handle.
            image: std::mem::take(&mut *fb.borrow_mut()),
            rounds: *rounds.borrow(),
            max_objects_per_servant,
        })
    }
}
