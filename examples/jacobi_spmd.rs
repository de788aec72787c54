//! Monitoring a second application: SPMD Jacobi relaxation.
//!
//! The machine hosted more than ray tracers — reference [2] of the paper
//! solves the neutron diffusion equation on SUPRENUM. This example runs
//! a distributed Jacobi solver under the same hybrid monitoring and
//! shows its compute/exchange stripes in a Gantt chart.
//!
//! Run with: `cargo run --release --example jacobi_spmd`

use suprenum_monitor::pipeline::jacobi::{worker_activity_model, JacobiConfig};
use suprenum_monitor::pipeline::{run_workload, PipelineConfig};
use suprenum_monitor::simple::Gantt;

fn main() {
    let cfg = JacobiConfig {
        workers: 6,
        cells_per_worker: 96,
        iterations: 24,
        ..JacobiConfig::default()
    };
    let workers = cfg.workers;
    println!("running {workers}-worker Jacobi relaxation on the simulated SUPRENUM...");
    let r = run_workload(PipelineConfig::new(cfg));
    assert!(r.completed(), "run failed: {:?}", r.outcome);
    println!(
        "done at simulated t={} — max error vs sequential reference: {:e}",
        r.machine.now(),
        r.output.max_error
    );
    assert_eq!(
        r.output.max_error, 0.0,
        "distributed result must match exactly"
    );

    let (from, to) = r.trace.span();
    let model = worker_activity_model();
    let tracks: Vec<_> = (1..=workers as usize)
        .map(|w| {
            model.derive_track(
                format!("Worker {w}"),
                r.trace.channel(w).events().iter(),
                to,
            )
        })
        .collect();
    let gantt = Gantt::new(tracks, from, to);
    println!("\n{}", gantt.render_text());
    println!("the BSP stripe pattern: all workers alternate Exchange and Compute in");
    println!("lockstep — a completely different program, the same measurement method.");
}
