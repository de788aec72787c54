//! Event-recorder benchmarks: the monitor's recording path (request
//! stream, FIFO model, CEC merge) under different load shapes, on four
//! channels sharing one recorder.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use suprenum_monitor::des::time::SimTime;
use suprenum_monitor::hybridmon::MonEvent;
use suprenum_monitor::zm4::{DetectedEvent, Zm4Config};

fn events(count: u64, period_ns: u64) -> Vec<DetectedEvent> {
    (0..count)
        .map(|k| DetectedEvent {
            time: SimTime::from_nanos(1_000 + k * period_ns),
            channel: (k % 4) as usize,
            event: MonEvent::new(k as u16, k as u32),
        })
        .collect()
}

fn bench_recorder(c: &mut Criterion) {
    let monitor = Zm4Config::default().build(4, 1);
    assert_eq!(monitor.recorders(), 1);
    let mut g = c.benchmark_group("event_recorder");
    for &(label, period) in &[
        ("sustained_9k_per_s", 111_111u64),
        ("burst_1M_per_s", 1_000),
        ("burst_10M_per_s", 100),
    ] {
        let evs = events(10_000, period);
        g.throughput(Throughput::Elements(evs.len() as u64));
        g.bench_function(label, |b| {
            b.iter(|| black_box(monitor.observe_decoded(evs.iter().copied())));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_recorder);
criterion_main!(benches);
