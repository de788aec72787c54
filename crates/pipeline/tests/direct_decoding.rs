//! Differential tests of direct decoding: on a fault-free probe plane the
//! measurement decoded straight from the kernel's display emissions must
//! equal the pattern-level ZM4 over the expanded writes, field by field
//! (trace, recorder statistics, detector statistics). Covered here are
//! the monitor configurations no golden reaches — recorders that lose
//! events, free-running recorder clocks on one stream per recorder — and
//! random multi-node emission streams shaped by the kernel's display
//! serializer.

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
fn emission_stream(requests: &[(u16, u8, u64, usize)], nodes: u16) -> Vec<EmissionRecord> {
    let spacings = spacings();
    let mut now = SimTime::from_micros(1);
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
        let records = emission_stream(&requests, nodes);
        let cfg = Zm4Config {
            streams_per_recorder,
            fifo_capacity: [2, 16, 32 * 1024][fifo_pick],
            mtg_synchronized,
            ..Zm4Config::default()
        };
        let monitor = Zm4::new(cfg, usize::from(nodes), seed);
        let log = SignalLog::from_streams(records.iter().flat_map(EmissionRecord::writes), []);
        let samples: Vec<ProbeSample> =
            log.display_writes().iter().copied().map(probe_sample).collect();
        let oracle = monitor.observe(&samples);
        let direct = monitor.observe_decoded(decoded_events(
            &records,
            monitor.config().detector_latency,
        ));
        prop_assert_eq!(oracle.detector_stats.iter().map(|d| d.events).sum::<u64>(), records.len() as u64);
        prop_assert_eq!(&direct, &oracle);
        prop_assert_eq!(&observe(&monitor, &records, FaultConfig::default()), &oracle);
    }
}
