//! Differential tests of direct decoding: on a fault-free probe plane the
//! measurement decoded straight from the kernel's display emissions must
//! equal the pattern-level ZM4 over the expanded writes, field by field
//! (trace, recorder statistics, detector statistics). Covered here are
//! the monitor configurations no golden reaches — recorders that lose
//! events, free-running recorder clocks on one stream per recorder — and
//! random multi-node emission streams shaped by the kernel's display
//! serializer. On random streams the faulted path (each emission
//! observed as one burst through the probe faults) is checked the same
//! way, against the pattern-level ZM4 over the faulted signal log.

use des::time::{SimDuration, SimTime};
use pipeline::jacobi::JacobiConfig;
use pipeline::trace::{decoded_events, probe_sample, probe_sample_iter};
use pipeline::{observe, run_workload, FaultConfig, PipelineConfig, Workload};
use proptest::prelude::*;
use suprenum::{EmissionRecord, MachineConfig, NodeId, SignalLog};
use zm4::{Measurement, ProbeSample, Zm4, Zm4Config};

/// Runs `cfg` and checks its (directly decoded) measurement against the
/// pattern-level ZM4 over the run's whole time-sorted signal log.
fn assert_direct_matches_patterns(cfg: &PipelineConfig<JacobiConfig>) -> Measurement {
    let result = run_workload(cfg.clone());
    assert!(result.completed());
    let monitor = cfg
        .zm4
        .build(cfg.workload.channels(&result.machine), cfg.seed);
    let oracle = monitor.observe_iter(probe_sample_iter(&result.machine));
    assert_eq!(result.measurement.trace, oracle.trace);
    assert_eq!(result.measurement.recorder_stats, oracle.recorder_stats);
    assert_eq!(result.measurement.detector_stats, oracle.detector_stats);
    oracle
}

fn jacobi(workers: u16) -> PipelineConfig<JacobiConfig> {
    PipelineConfig::new(JacobiConfig {
        workers,
        iterations: 6,
        ..JacobiConfig::default()
    })
}

#[test]
fn direct_decoding_matches_patterns_when_the_fifo_loses_events() {
    let mut cfg = jacobi(7);
    cfg.zm4.fifo_capacity = 2;
    let m = assert_direct_matches_patterns(&cfg);
    assert!(m.total_lost() > 0, "the undersized FIFO must lose events");
    assert!(m.total_recorded() > 0);
}

#[test]
fn direct_decoding_matches_patterns_with_free_running_clocks() {
    let mut cfg = jacobi(7);
    cfg.zm4.mtg_synchronized = false;
    cfg.zm4.streams_per_recorder = 1;
    let m = assert_direct_matches_patterns(&cfg);
    assert_eq!(m.recorder_stats.len(), 8, "one recorder per channel");
    assert!(
        m.max_timestamp_error_ns() > 0,
        "skewed clocks must misstamp events"
    );
}

#[test]
fn direct_decoding_matches_patterns_with_kernel_events_on_two_clusters() {
    // Kernel and application emissions share every display at different
    // pattern spacings; 18 workers span two clusters.
    let mut cfg = jacobi(18);
    cfg.machine.kernel_instrumentation = true;
    cfg.engine_shards = 2;
    let m = assert_direct_matches_patterns(&cfg);
    assert!(m.total_recorded() > 0);
}

/// Pattern spacings the kernel uses: application and kernel emissions
/// under the stock costs (equal: both spread 110 µs over 32 writes), a
/// kernel emission under a cheaper kernel event cost, and the kernel's
/// 100 ns floor.
fn spacings() -> [SimDuration; 3] {
    let cfg = MachineConfig::single_cluster(16);
    let kernel = |cost: SimDuration| {
        (cost / EmissionRecord::write_count() as u64).max(SimDuration::from_nanos(100))
    };
    assert_eq!(
        kernel(cfg.kernel_event_cost),
        cfg.monitor_costs.hybrid_write_spacing()
    );
    [
        cfg.monitor_costs.hybrid_write_spacing(),
        kernel(SimDuration::from_micros(40)),
        kernel(SimDuration::from_nanos(1)),
    ]
}

/// Emission records for `requests` of `(node, gap selector, gap ns,
/// spacing selector)`, serialized per node like the kernel's display:
/// an emission starts at the request time or when the node's previous
/// emission has left the display, whichever is later. A zero gap
/// selector issues the request at the same instant as the previous one.
/// The first request is issued at `origin`.
fn emission_stream(
    requests: &[(u16, u8, u64, usize)],
    nodes: u16,
    origin: SimTime,
) -> Vec<EmissionRecord> {
    let spacings = spacings();
    let mut now = origin;
    let mut free = vec![SimTime::ZERO; usize::from(nodes)];
    requests
        .iter()
        .enumerate()
        .map(|(i, &(node, sel, gap, pick))| {
            if sel != 0 {
                now += SimDuration::from_nanos(gap);
            }
            let node = node % nodes;
            let spacing = spacings[pick % spacings.len()];
            let start = now.max(free[usize::from(node)]);
            free[usize::from(node)] = start + spacing * (EmissionRecord::write_count() as u64 + 1);
            EmissionRecord {
                start,
                spacing,
                node: NodeId::new(node),
                token: (i % 0x400) as u16,
                param: (i as u32).wrapping_mul(0x9E37_79B9),
            }
        })
        .collect()
}

/// A monitor for `nodes` channels: `streams_per_recorder` channels a
/// recorder, FIFOs of 2, 16 or 32 K records (`fifo_pick`), recorder
/// clocks on the MTG or free running.
fn monitor(
    nodes: u16,
    streams_per_recorder: usize,
    fifo_pick: usize,
    mtg_synchronized: bool,
    seed: u64,
) -> Zm4 {
    let cfg = Zm4Config {
        streams_per_recorder,
        fifo_capacity: [2, 16, 32 * 1024][fifo_pick],
        mtg_synchronized,
        ..Zm4Config::default()
    };
    Zm4::new(cfg, usize::from(nodes), seed)
}

/// The pattern-level measurement of `records`: the time-sorted signal
/// log's samples, each through `FaultConfig::apply`, into
/// `Zm4::observe`.
fn pattern_oracle(monitor: &Zm4, records: &[EmissionRecord], faults: FaultConfig) -> Measurement {
    let log = SignalLog::from_streams(records.iter().flat_map(EmissionRecord::writes), []);
    let samples: Vec<ProbeSample> = log
        .display_writes()
        .iter()
        .copied()
        .map(probe_sample)
        .filter_map(|s| faults.apply(s))
        .collect();
    monitor.observe(&samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any multi-node emission stream the display serializer can
    /// produce, under any recorder wiring, FIFO size and clock mode, the
    /// directly decoded measurement equals the pattern-level one over
    /// the time-sorted signal log.
    #[test]
    fn direct_decoding_matches_patterns_on_random_emission_streams(
        nodes in 1u16..9,
        requests in proptest::collection::vec(
            (0u16..9, 0u8..3, 0u64..200_000, 0usize..3),
            0..120,
        ),
        streams_per_recorder in 1usize..=4,
        fifo_pick in 0usize..3,
        mtg_synchronized in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let records = emission_stream(&requests, nodes, SimTime::from_micros(1));
        let monitor = monitor(nodes, streams_per_recorder, fifo_pick, mtg_synchronized, seed);
        let oracle = pattern_oracle(&monitor, &records, FaultConfig::default());
        let direct = monitor.observe_decoded(decoded_events(
            &records,
            monitor.config().detector_latency,
        ));
        prop_assert_eq!(oracle.detector_stats.iter().map(|d| d.events).sum::<u64>(), records.len() as u64);
        prop_assert_eq!(&direct, &oracle);
        prop_assert_eq!(&observe(&monitor, &records, FaultConfig::default()), &oracle);
    }

    /// For any such stream and any probe faults, the faulted
    /// measurement (each emission observed as one burst) equals the
    /// pattern-level monitor over the time-sorted signal log with every
    /// sample through `FaultConfig::apply`. Streams that start past the
    /// five simulated hours where drifted clocks leave `i64` run the
    /// drift's wide fallback. A stream that starts 20 µs below `2^32` ns
    /// often opens with a burst that straddles that byte boundary of the
    /// write time (about two cases in five), so the burst's verdicts are
    /// hashed at a width its early writes do not fill.
    #[test]
    fn faulted_observation_matches_patterns_on_random_emission_streams(
        nodes in 1u16..9,
        requests in proptest::collection::vec(
            (0u16..9, 0u8..3, 0u64..200_000, 0usize..3),
            0..120,
        ),
        origin_pick in 0usize..4,
        drop in permille(),
        corrupt in permille(),
        drift in (0u32..500_000, 0u8..4).prop_map(|(ppm, edge)| match edge {
            0 => 0,
            1 => 499_999,
            _ => ppm,
        }),
        fault_seed in any::<u64>(),
        streams_per_recorder in 1usize..=4,
        fifo_pick in 0usize..3,
        mtg_synchronized in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let origin = [
            SimTime::from_micros(1),
            SimTime::from_secs(6 * 3_600),
            SimTime::from_secs(1_000 * 3_600),
            SimTime::from_nanos((1 << 32) - 20_000),
        ][origin_pick];
        let records = emission_stream(&requests, nodes, origin);
        let faults = FaultConfig {
            probe_drop_permille: drop,
            probe_corrupt_permille: corrupt,
            clock_drift_ppm: drift,
            seed: fault_seed,
        };
        prop_assert!(faults.validate().is_ok());
        let monitor = monitor(nodes, streams_per_recorder, fifo_pick, mtg_synchronized, seed);
        let oracle = pattern_oracle(&monitor, &records, faults);
        let bursts = observe(&monitor, &records, faults);
        prop_assert_eq!(&bursts.trace, &oracle.trace);
        prop_assert_eq!(&bursts.recorder_stats, &oracle.recorder_stats);
        prop_assert_eq!(&bursts.detector_stats, &oracle.detector_stats);
    }
}

/// A per-mille fault rate, one time in four each: none, every write, a
/// rate of at most 30 ‰ (so that some of an emission's 32 writes all
/// survive it and events still reach the recorders), or any rate.
fn permille() -> impl Strategy<Value = u16> {
    (0u16..=1000, 0u8..4).prop_map(|(rate, pick)| match pick {
        0 => 0,
        1 => 1000,
        2 => rate % 31,
        _ => rate,
    })
}
