//! Event-recorder benchmarks: FIFO ingest under different load shapes.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use suprenum_monitor::des::clock::ClockModel;
use suprenum_monitor::des::time::{SimDuration, SimTime};
use suprenum_monitor::hybridmon::MonEvent;
use suprenum_monitor::zm4::{DetectedEvent, EventRecorder};

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
    let mut g = c.benchmark_group("event_recorder");
    for &(label, period) in &[
        ("sustained_9k_per_s", 111_111u64),
        ("burst_1M_per_s", 1_000),
        ("burst_10M_per_s", 100),
    ] {
        let evs = events(10_000, period);
        g.throughput(Throughput::Elements(evs.len() as u64));
        g.bench_function(label, |b| {
            b.iter(|| {
                let clock = ClockModel::synchronized(SimDuration::from_nanos(100));
                let mut rec = EventRecorder::new(clock, 32 * 1024, SimDuration::from_micros(100));
                for &ev in &evs {
                    rec.record(ev);
                }
                black_box(rec.finish())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_recorder);
criterion_main!(benches);
