//! The paper's case study: a parallel ray tracer on SUPRENUM, observed
//! through hybrid monitoring.
//!
//! This crate implements §4 of the paper end to end:
//!
//! * the **dynamic ray partitioning** scheme — one master administrating
//!   a pixel queue and window flow control, N servants tracing ray
//!   bundles ([`master`], [`servant`], [`pixels`], [`protocol`]);
//! * the **four program versions** whose evolution the measurements
//!   drove ([`config::Version`]): mailbox communication (V1),
//!   communication agents ([`agent`]) in one (V2) then both (V3)
//!   directions with ray bundling, and the pixel-queue fix (V4);
//! * the **instrumentation points** of Figure 6 ([`tokens`]);
//! * the program as a [`pipeline::Workload`] ([`workload`]), so
//!   [`pipeline::run_workload`] wires it into the simulated machine and
//!   the simulated ZM4 — as it does the static-partitioning baseline
//!   ([`static_partition::StaticConfig`]) and object partitioning
//!   ([`objpart::ObjPartConfig`]);
//! * the **evaluation** ([`analysis`]) that regenerates the paper's
//!   Gantt tracks and utilization numbers.
//!
//! Pre-flight analysis plugs in through [`pipeline::Preflight`]; the
//! analyzer crate supplies `analyzer::pipeline_warn` and
//! `analyzer::pipeline_deny`.
//!
//! # Examples
//!
//! Measure servant utilization of version 2 on a small image:
//!
//! ```
//! use pipeline::{run_workload, PipelineConfig};
//! use raysim::analysis::servant_utilization;
//! use raysim::config::{AppConfig, SceneKind, Version};
//!
//! let mut app = AppConfig::version(Version::V2);
//! app.servants = 2;
//! app.scene = SceneKind::Quickstart;
//! app.width = 8;
//! app.height = 8;
//! let result = run_workload(PipelineConfig::new(app));
//! assert!(result.completed());
//! assert!(result.output.image.mean_luminance() > 0.0);
//! let report = servant_utilization(&result.trace, 2);
//! assert!(report.mean > 0.0 && report.mean <= 1.0);
//! ```

pub mod agent;
pub mod analysis;
pub mod config;
pub mod context;
pub mod diag;
pub mod master;
pub mod objpart;
pub mod pixels;
pub mod protocol;
pub mod servant;
pub mod static_partition;
pub mod tokens;
pub mod workload;

pub use config::{AppConfig, SceneKind, Version};
pub use context::{AppStats, RenderContext};
pub use workload::RenderOutput;
