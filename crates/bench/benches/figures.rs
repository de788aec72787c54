//! Whole-pipeline benchmarks: quick-scale versions of the paper's
//! measurement runs, timing the complete simulate-monitor-evaluate
//! pipeline. (Full-scale figure regeneration lives in the `bench`
//! crate's binaries and the sweep harness, e.g. `cargo run --release
//! -p harness -- sweep fig10 --scale paper`.)

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use suprenum_monitor::experiments::{
    clock_sync_ablation, fig7_mailbox_gantt, mailbox_anatomy, Scale,
};
use suprenum_monitor::pipeline::jacobi::JacobiConfig;
use suprenum_monitor::pipeline::{run_workload, PipelineConfig};

fn bench_pipelines(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiment_pipelines");
    g.sample_size(10);
    g.bench_function("fig7_two_processor_quick", |b| {
        b.iter(|| black_box(fig7_mailbox_gantt(1992, Scale::Quick)));
    });
    g.bench_function("mailbox_anatomy", |b| {
        b.iter(|| black_box(mailbox_anatomy(7)));
    });
    g.bench_function("clock_sync_ablation", |b| {
        b.iter(|| black_box(clock_sync_ablation(7)));
    });
    g.bench_function("jacobi_6_workers", |b| {
        b.iter(|| {
            let mut cfg = PipelineConfig::new(JacobiConfig {
                workers: 6,
                iterations: 12,
                ..JacobiConfig::default()
            });
            cfg.seed = 7;
            black_box(run_workload(cfg).output.max_error)
        });
    });
    g.finish();
}

criterion_group!(benches, bench_pipelines);
criterion_main!(benches);
