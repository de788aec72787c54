//! Calibration sweep: measured servant utilization for each program
//! version at paper scale (used to sanity-check cost-model constants).

use des::time::SimTime;
use pipeline::{run_workload, PipelineConfig};
use raysim::analysis::servant_utilization;
use raysim::config::{AppConfig, Version};

fn main() {
    for v in Version::ALL {
        let app = AppConfig::version(v);
        let servants = app.servants as u32;
        let mut cfg = PipelineConfig::new(app);
        cfg.horizon = SimTime::from_secs(36_000);
        let t0 = std::time::Instant::now();
        let result = run_workload(cfg);
        let host = t0.elapsed();
        let util = servant_utilization(&result.trace, servants);
        println!(
            "{v}: util={:.1}% (paper {:.0}%) end={} jobs={} mpool={} spool={} host={:.1}s events={}",
            util.mean_percent(),
            v.paper_utilization_percent(),
            result.outcome.end,
            result.output.stats.jobs_sent,
            result.output.stats.master_pool_peak,
            result.output.stats.servant_pool_peak,
            host.as_secs_f64(),
            result.trace.len(),
        );
    }
}
