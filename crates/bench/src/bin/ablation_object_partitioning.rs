//! Ablation: object partitioning vs ray partitioning (paper §4.1).
//!
//! Object partitioning stores only 1/N of the scene per processor but
//! broadcasts every ray generation to all processors and reduces their
//! answers at the master. Ray partitioning replicates the scene and
//! communicates only jobs/results. The paper chose ray partitioning;
//! this measures what that choice bought.

use suprenum_monitor::des::time::SimTime;
use suprenum_monitor::pipeline::{run_workload, PipelineConfig, PipelineResult, Workload};
use suprenum_monitor::raysim::analysis::servant_utilization;
use suprenum_monitor::raysim::config::{AppConfig, SceneKind, Version};
use suprenum_monitor::raysim::objpart::ObjPartConfig;

/// Runs `workload` to completion.
fn measure<W: Workload>(label: &str, workload: W, horizon: SimTime) -> PipelineResult<W> {
    let mut cfg = PipelineConfig::new(workload);
    cfg.horizon = horizon;
    let r = run_workload(cfg);
    r.ensure_completed()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    r
}

fn main() {
    let horizon = SimTime::from_secs(360_000);
    let base = || {
        let mut app = AppConfig::version(Version::V4);
        app.scene = SceneKind::Moderate;
        app.servants = 15;
        app.width = 48;
        app.height = 48;
        app.bundle_size = 16;
        app.write_chunk = 32;
        app
    };

    println!(
        "{:<20} {:>12} {:>14} {:>14} {:>16} {:>12}",
        "scheme", "utilization", "objects/node", "bytes moved", "simulated end", "msgs"
    );

    // Object partitioning.
    let obj = measure("object partitioning", ObjPartConfig::new(base()), horizon);
    let u = servant_utilization(&obj.trace, 15);
    let ic = obj.machine.interconnect_stats();
    println!(
        "{:<20} {:>11.1}% {:>14} {:>14} {:>15.1}s {:>12}",
        "object partitioning",
        u.mean_percent(),
        obj.output.max_objects_per_servant,
        ic.bytes_moved,
        obj.outcome.end.as_secs_f64(),
        ic.intra_cluster_transfers + ic.local_transfers,
    );

    // Ray partitioning (version 4).
    let ray = measure("ray partitioning", base(), horizon);
    let u = servant_utilization(&ray.trace, 15);
    let ic = ray.machine.interconnect_stats();
    println!(
        "{:<20} {:>11.1}% {:>14} {:>14} {:>15.1}s {:>12}",
        "ray partitioning",
        u.mean_percent(),
        25, // the full replicated scene
        ic.bytes_moved,
        ray.outcome.end.as_secs_f64(),
        ic.intra_cluster_transfers + ic.local_transfers,
    );
    println!(
        "\nobject partitioning executed {} broadcast rounds; its servants idle at every",
        obj.output.rounds
    );
    println!("round barrier while the master reduces 15 answer sets per ray generation —");
    println!("the communication/synchronization price of not replicating the scene.");
}
