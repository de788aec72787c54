//! Application configuration: the four program versions of §4.3.
//!
//! The versions differ **structurally**, exactly as in the paper — the
//! administrative cost constants are shared:
//!
//! | | communication master→servant | servant→master | bundle | pixel queue |
//! |---|---|---|---|---|
//! | V1 | mailbox (blocking in effect) | mailbox | 1 ray | adequate for 1-ray jobs |
//! | V2 | communication agents | mailbox | 1 ray | adequate |
//! | V3 | agents | agents | 50 rays | **inadequate constant** (the bug) |
//! | V4 | agents | agents | 100 rays | fixed (large) |

use des::time::SimDuration;
use raytracer::{scenes, CostModel, TraceConfig};

/// The program version under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Version {
    /// SUPRENUM's mailbox mechanism (≈15 % servant utilization).
    V1,
    /// Communication agents master→servant (≈29 %).
    V2,
    /// Agents in both directions, 50-ray bundles (≈46 %).
    V3,
    /// 100-ray bundles and the pixel-queue fix (≈60 %).
    V4,
}

impl Version {
    /// All versions in evolution order.
    pub const ALL: [Version; 4] = [Version::V1, Version::V2, Version::V3, Version::V4];

    /// Whether the master hands outgoing jobs to communication agents.
    pub fn master_agents(self) -> bool {
        !matches!(self, Version::V1)
    }

    /// Whether servants hand results to communication agents.
    pub fn servant_agents(self) -> bool {
        matches!(self, Version::V3 | Version::V4)
    }

    /// The paper's servant-utilization result for the moderate scene.
    pub fn paper_utilization_percent(self) -> f64 {
        match self {
            Version::V1 => 15.0,
            Version::V2 => 29.0,
            Version::V3 => 46.0,
            Version::V4 => 60.0,
        }
    }
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Version::V1 => f.write_str("Version 1 (mailbox)"),
            Version::V2 => f.write_str("Version 2 (agents one direction)"),
            Version::V3 => f.write_str("Version 3 (agents both, bundle 50)"),
            Version::V4 => f.write_str("Version 4 (bundle 100, queue fix)"),
        }
    }
}

/// Which scene the application renders.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SceneKind {
    /// A 4-primitive scene for fast tests.
    Quickstart,
    /// The paper's 25-primitive moderate scene.
    Moderate,
    /// The fractal pyramid at the given depth (>250 primitives at 3).
    FractalPyramid(u32),
    /// A scene description file (see [`raytracer::sdl`]) — what the
    /// paper's servants actually read during initialization.
    ///
    /// `Arc` rather than `Rc`: run configurations are shipped across
    /// worker threads by the sweep harness, so they must be `Send`.
    Described(std::sync::Arc<String>),
}

impl SceneKind {
    /// Wraps a scene-description text.
    pub fn from_description(text: impl Into<String>) -> SceneKind {
        SceneKind::Described(std::sync::Arc::new(text.into()))
    }
}

/// The parallel ray tracer's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AppConfig {
    /// Program version.
    pub version: Version,
    /// Number of servant processes (nodes `1..=servants`).
    pub servants: u16,
    /// Window-flow-control credits per servant (paper: 3).
    pub window: u32,
    /// Rays per job.
    pub bundle_size: u32,
    /// The pixel-queue length constant: bounds pixels in flight
    /// (assigned or completed-but-unwritten).
    pub pixel_queue_capacity: u32,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Oversampling factor (n×n rays per pixel).
    pub oversample: u32,
    /// Contiguous completed pixels required before the master writes a
    /// stretch to disk.
    pub write_chunk: u32,
    /// The scene to render.
    pub scene: SceneKind,
    /// Sequential-tracer configuration used inside servants.
    pub trace: TraceConfig,
    /// Work → simulated-time pricing.
    pub cost: CostModel,
    /// Whether the servants' "Send Results Begin" point is instrumented
    /// (the paper added it only for the Figure 9 measurements).
    pub instrument_send_results: bool,
    /// Eager write-back: when the master can neither send nor expect
    /// results, it flushes a partial contiguous stretch instead of
    /// waiting for a full `write_chunk`. `true` is the implemented
    /// master's behavior (and keeps the protocol deadlock-free);
    /// `false` models a strict chunked write-back, whose tail deadlock
    /// the model checker predicts and the simulator then reproduces.
    pub eager_writeback: bool,

    /// Master initialization time.
    pub master_init: SimDuration,
    /// Servant initialization time (reading the replicated scene
    /// description).
    pub servant_init: SimDuration,
    /// "Distribute Jobs" fixed cost per cycle.
    pub distribute_base: SimDuration,
    /// "Distribute Jobs" cost per pixel (re)inserted into the queue.
    pub distribute_per_pixel: SimDuration,
    /// "Send Jobs" fixed cost per job.
    pub send_base: SimDuration,
    /// "Send Jobs" cost per pixel in the job.
    pub send_per_pixel: SimDuration,
    /// "Receive Results" fixed cost per result message.
    pub receive_base: SimDuration,
    /// "Receive Results" cost per returned pixel (oversampling
    /// bookkeeping, queue update, reorder insertion).
    pub receive_per_pixel: SimDuration,
    /// Bytes written to the picture file per pixel.
    pub write_bytes_per_pixel: u32,
    /// Servant fixed overhead per job.
    pub work_base: SimDuration,
    /// Ask the pipeline to enable kernel instrumentation (dispatch,
    /// block, mailbox-service, preempt probes) alongside the
    /// application's own tokens. Requires hybrid monitoring to actually
    /// reach the trace; the analyzer's workload hook warns when the
    /// monitoring mode would silently drop them.
    pub kernel_events: bool,
}

impl AppConfig {
    /// The paper's measurement setup for `version`: 15 servants (16
    /// processors), moderate scene, window 3, and each version's bundle
    /// size and queue constant.
    pub fn version(version: Version) -> Self {
        let (bundle_size, pixel_queue_capacity, write_chunk) = match version {
            Version::V1 | Version::V2 => (1, 512, 4),
            // The version-3 bug: the constant is far below the
            // 15 servants × 3 credits × 50 rays = 2250 pixels the window
            // scheme could otherwise keep in flight.
            Version::V3 => (50, 768, 64),
            Version::V4 => (100, 16_384, 128),
        };
        AppConfig {
            version,
            servants: 15,
            window: 3,
            bundle_size,
            pixel_queue_capacity,
            width: 128,
            height: 128,
            oversample: 1,
            write_chunk,
            scene: SceneKind::Moderate,
            trace: TraceConfig::default(),
            cost: CostModel::mc68020(),
            instrument_send_results: version != Version::V1,
            eager_writeback: true,
            master_init: SimDuration::from_millis(40),
            servant_init: SimDuration::from_millis(80),
            distribute_base: SimDuration::from_micros(300),
            distribute_per_pixel: SimDuration::from_micros(200),
            send_base: SimDuration::from_micros(250),
            send_per_pixel: SimDuration::from_micros(30),
            receive_base: SimDuration::from_micros(300),
            receive_per_pixel: SimDuration::from_micros(3_000),
            write_bytes_per_pixel: 16,
            work_base: SimDuration::from_micros(500),
            kernel_events: false,
        }
    }

    /// The Figure 7 setup: version 1 on **two processors** (one master,
    /// one servant).
    pub fn two_processor() -> Self {
        AppConfig {
            servants: 1,
            ..AppConfig::version(Version::V1)
        }
    }

    /// Total pixels in the image.
    pub fn total_pixels(&self) -> u32 {
        self.width * self.height
    }

    /// Processors used (master + servants) — the paper's "ray tracer on
    /// N processors".
    pub fn processors(&self) -> u16 {
        self.servants + 1
    }

    /// Checks internal consistency, including that a described scene
    /// parses and a fractal pyramid is no deeper than
    /// [`scenes::MAX_FRACTAL_DEPTH`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.servants == 0 {
            return Err("need at least one servant".into());
        }
        if self.window == 0 {
            return Err("window flow control needs at least one credit".into());
        }
        if self.bundle_size == 0 {
            return Err("jobs need at least one ray".into());
        }
        if self.width == 0 || self.height == 0 {
            return Err("image must be nonempty".into());
        }
        if self.oversample == 0 {
            return Err("oversampling factor must be at least 1".into());
        }
        if self.pixel_queue_capacity < self.bundle_size {
            return Err("pixel queue must hold at least one bundle".into());
        }
        if self.write_chunk == 0 {
            return Err("write chunk must be nonzero".into());
        }
        match &self.scene {
            SceneKind::FractalPyramid(depth) if *depth > scenes::MAX_FRACTAL_DEPTH => {
                return Err(format!(
                    "fractal pyramid depth {depth} exceeds the limit of {}",
                    scenes::MAX_FRACTAL_DEPTH
                ));
            }
            SceneKind::Described(text) => {
                raytracer::sdl::parse(text).map_err(|e| e.to_string())?;
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_table_matches_paper() {
        assert!(!Version::V1.master_agents());
        assert!(Version::V2.master_agents());
        assert!(!Version::V2.servant_agents());
        assert!(Version::V3.servant_agents());
        assert_eq!(AppConfig::version(Version::V3).bundle_size, 50);
        assert_eq!(AppConfig::version(Version::V4).bundle_size, 100);
        assert_eq!(AppConfig::version(Version::V1).bundle_size, 1);
        let ladder: Vec<f64> = Version::ALL
            .iter()
            .map(|v| v.paper_utilization_percent())
            .collect();
        assert_eq!(ladder, vec![15.0, 29.0, 46.0, 60.0]);
    }

    #[test]
    fn v3_queue_constant_is_the_bug() {
        let v3 = AppConfig::version(Version::V3);
        let demand = v3.servants as u32 * v3.window * v3.bundle_size;
        assert!(
            v3.pixel_queue_capacity < demand,
            "V3's queue constant must be inadequate ({} < {demand})",
            v3.pixel_queue_capacity
        );
        let v4 = AppConfig::version(Version::V4);
        let demand4 = v4.servants as u32 * v4.window * v4.bundle_size;
        assert!(v4.pixel_queue_capacity >= demand4, "V4 fixes the constant");
    }

    #[test]
    fn all_versions_validate() {
        for v in Version::ALL {
            AppConfig::version(v).validate().unwrap();
        }
        AppConfig::two_processor().validate().unwrap();
        assert_eq!(AppConfig::two_processor().processors(), 2);
        assert_eq!(AppConfig::version(Version::V1).processors(), 16);
    }

    #[test]
    fn validation_catches_errors() {
        let mut cfg = AppConfig::version(Version::V1);
        cfg.window = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = AppConfig::version(Version::V4);
        cfg.pixel_queue_capacity = 10;
        assert!(cfg.validate().unwrap_err().contains("bundle"));
    }

    #[test]
    fn display_names() {
        assert!(Version::V1.to_string().contains("mailbox"));
        assert!(Version::V4.to_string().contains("100"));
    }
}
