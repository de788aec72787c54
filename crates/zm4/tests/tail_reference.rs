//! The measurement tail against a reference copy of the tail it
//! replaced: one queue and one stable sort per DPU, a FIFO of whole
//! records drained into a stored trace per recorder, then the CEC's
//! concatenation of the stored traces and a stable sort. Whole
//! measurements must match: the trace with `recorder` and `true_time`,
//! the recorder stats and the detector stats.

use std::collections::VecDeque;

use des::clock::ClockModel;
use des::rng::DetRng;
use des::time::{SimDuration, SimTime};
use hybridmon::decode::DecodeStats;
use hybridmon::MonEvent;
use proptest::prelude::*;
use zm4::{DetectedEvent, Measurement, RecorderStats, TraceRecord, Zm4Config};

/// A record as the reference recorder writes it to disk.
#[derive(Debug, Clone, Copy)]
struct StoredRecord {
    local_ts: u64,
    channel: usize,
    event: MonEvent,
    true_time: SimTime,
}

/// One recorder of the reference: a FIFO of records with their
/// departure times, drained into `stored`.
fn reference_recorder(
    cfg: &Zm4Config,
    clock: &ClockModel,
    mut queue: Vec<DetectedEvent>,
) -> (Vec<StoredRecord>, RecorderStats) {
    queue.sort_by_key(|e| (e.time, e.channel));
    let service = cfg.drain_service_time();
    let mut fifo: VecDeque<(StoredRecord, SimTime)> = VecDeque::new();
    let mut last_departure = SimTime::ZERO;
    let mut stored = Vec::new();
    let mut stats = RecorderStats::default();
    for ev in queue {
        while let Some(&(record, departure)) = fifo.front() {
            if departure > ev.time {
                break;
            }
            stored.push(record);
            fifo.pop_front();
        }
        if fifo.len() >= cfg.fifo_capacity {
            stats.lost += 1;
            continue;
        }
        let record = StoredRecord {
            local_ts: clock.stamp(ev.time),
            channel: ev.channel,
            event: ev.event,
            true_time: ev.time,
        };
        let departure = ev.time.max(last_departure) + service;
        last_departure = departure;
        fifo.push_back((record, departure));
        stats.recorded += 1;
        stats.max_fifo_occupancy = stats.max_fifo_occupancy.max(fifo.len());
    }
    stored.extend(fifo.into_iter().map(|(record, _)| record));
    (stored, stats)
}

/// The replaced tail over events a detector assembled cleanly, with the
/// recorder clocks drawn as the monitor draws them.
fn reference(cfg: &Zm4Config, channels: usize, seed: u64, events: &[DetectedEvent]) -> Measurement {
    let recorders = channels.div_ceil(cfg.streams_per_recorder);
    let mut detector_stats = vec![DecodeStats::default(); channels];
    let mut queues = vec![Vec::new(); recorders];
    for &ev in events {
        detector_stats[ev.channel].events += 1;
        queues[ev.channel / cfg.streams_per_recorder].push(ev);
    }
    let rng = DetRng::new(seed);
    let mut local_traces = Vec::new();
    let mut recorder_stats = Vec::new();
    for (index, queue) in queues.into_iter().enumerate() {
        let clock = if cfg.mtg_synchronized {
            ClockModel::synchronized(cfg.clock_resolution)
        } else {
            ClockModel::random_skew(
                &mut rng.derive_indexed("recorder-clock", index as u64),
                cfg.skew_max_offset,
                cfg.skew_max_drift_ppm,
                cfg.clock_resolution,
            )
        };
        let (stored, stats) = reference_recorder(cfg, &clock, queue);
        local_traces.push(stored);
        recorder_stats.push(stats);
    }
    let mut trace = Vec::new();
    for (recorder, stored) in local_traces.into_iter().enumerate() {
        trace.extend(stored.into_iter().map(|r| TraceRecord {
            ts_ns: r.local_ts,
            channel: r.channel,
            recorder,
            event: r.event,
            true_time: r.true_time,
        }));
    }
    trace.sort_by_key(|r| (r.ts_ns, r.channel, r.event.token.value()));
    Measurement {
        trace,
        recorder_stats,
        detector_stats,
    }
}

/// The default drain service time: 10 000 events/s.
const SERVICE_NS: u64 = 100_000;

/// A deterministic Fisher–Yates shuffle driven by splitmix64.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Events from `(gap kind, gap, channel, token, param)` draws: gaps of
/// zero (equal times, within and across channels), a few nanoseconds
/// (same 100 ns tick), a few microseconds (bursts that overflow a small
/// FIFO), exactly one drain service time (arrivals at a departure) and
/// up to 300 us (the FIFO drains), in one of four orders.
fn events(
    draws: &[(u8, u64, usize, u16, u32)],
    channels: usize,
    order: u8,
    seed: u64,
) -> Vec<DetectedEvent> {
    let mut t = 1_000;
    let mut out: Vec<DetectedEvent> = draws
        .iter()
        .map(|&(kind, gap, channel, token, param)| {
            t += match kind {
                0 => 0,
                1 => gap % 200,
                2 => gap % 5_000,
                3 => SERVICE_NS,
                _ => gap,
            };
            DetectedEvent {
                time: SimTime::from_nanos(t),
                channel: channel % channels,
                event: MonEvent::new(token, param),
            }
        })
        .collect();
    match order {
        // Time order, channels interleaved as drawn.
        0 => {}
        // Channel after channel, each in time order.
        1 => out.sort_by_key(|e| e.channel),
        2 => out.reverse(),
        _ => shuffle(&mut out, seed),
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tail_matches_the_per_recorder_reference(
        channels in 1usize..17,
        streams_per_recorder in 1usize..5,
        fifo_capacity in 1usize..9,
        clocks in (any::<bool>(), 0u64..10_000_000, 0.0f64..200.0),
        seed in any::<u64>(),
        order in 0u8..4,
        draws in proptest::collection::vec(
            (0u8..5, 0u64..300_000, 0usize..16, 0u16..4, any::<u32>()),
            0..300,
        ),
    ) {
        let (mtg_synchronized, max_offset_ns, max_drift_ppm) = clocks;
        let cfg = Zm4Config {
            streams_per_recorder,
            fifo_capacity,
            mtg_synchronized,
            skew_max_offset: SimDuration::from_nanos(max_offset_ns),
            skew_max_drift_ppm: max_drift_ppm,
            ..Zm4Config::default()
        };
        prop_assert_eq!(cfg.drain_service_time().as_nanos(), SERVICE_NS);
        let events = events(&draws, channels, order, seed);
        let ours = cfg.build(channels, seed).observe_decoded(events.iter().copied());
        let expected = reference(&cfg, channels, seed, &events);
        prop_assert_eq!(ours, expected);
    }
}

#[test]
fn reference_loses_events_and_reorders_under_skew() {
    // The property above is only as strong as its inputs: check that
    // they reach loss and a skewed merge.
    let cfg = Zm4Config {
        streams_per_recorder: 1,
        fifo_capacity: 2,
        mtg_synchronized: false,
        skew_max_offset: SimDuration::from_millis(5),
        ..Zm4Config::default()
    };
    let draws: Vec<_> = (0..200u64)
        .map(|k| {
            (
                (k % 5) as u8,
                k * 7_919,
                (k % 5) as usize,
                (k % 3) as u16,
                k as u32,
            )
        })
        .collect();
    let events = events(&draws, 4, 2, 9);
    let m = reference(&cfg, 4, 9, &events);
    assert!(m.recorder_stats.iter().map(|s| s.lost).sum::<u64>() > 0);
    assert!(m.causality_violations() > 0);
    assert_eq!(cfg.build(4, 9).observe_decoded(events), m);
}
