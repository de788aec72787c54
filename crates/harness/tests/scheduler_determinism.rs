//! Satellite: the scheduler extraction is behaviour-preserving, and
//! seeded scheduling fuzz is deterministic.
//!
//! Two properties guard the refactor. First, round-robin is the
//! pre-refactor semantics: explicitly overriding a job to `rr` must be
//! a bit-identical no-op against the default, across every worker
//! count and engine-shard packing — the digests
//! are the same ones the golden files pin. Second, `fuzz:<base>:<seed>`
//! must be a pure function of the seed: the same seed reproduces the
//! same digest regardless of how the harness parallelises the runs,
//! because the perturbation draws from the scheduler's own derived RNG
//! stream, never from wall-clock or thread identity.

use harness::{execute, run_sweep, RunSpec, Sweep};
use pipeline::jacobi::JacobiConfig;
use pipeline::{Job, PipelineConfig};
use proptest::prelude::*;
use raysim::config::{AppConfig, SceneKind, Version};
use suprenum::SchedulerKind;

/// A small instrumented ray run: kernel events on, so the digest is
/// sensitive to every dispatch decision the policy makes.
fn ray_spec() -> RunSpec {
    let mut app = AppConfig::version(Version::V4);
    app.servants = 3;
    app.scene = SceneKind::Quickstart;
    app.width = 12;
    app.height = 12;
    app.bundle_size = 16;
    app.pixel_queue_capacity = 2_048;
    app.write_chunk = 16;
    app.kernel_events = true;
    let mut cfg = PipelineConfig::new(app.clone());
    cfg.seed = 1992;
    RunSpec {
        label: "V4".to_owned(),
        job: Job::new(cfg),
        version: Some(Version::V4),
        app: Some(app),
        paper_percent: None,
        faults: None,
    }
}

/// A two-cluster Jacobi run, so the parallel engine path is covered.
fn jacobi_spec() -> RunSpec {
    let mut cfg = PipelineConfig::new(JacobiConfig {
        workers: 18,
        cells_per_worker: 8,
        iterations: 3,
        ..JacobiConfig::default()
    });
    cfg.seed = 1992;
    RunSpec {
        label: "jacobi".to_owned(),
        job: Job::new(cfg),
        version: None,
        app: None,
        paper_percent: None,
        faults: None,
    }
}

fn spec(workload: usize) -> RunSpec {
    if workload == 0 {
        ray_spec()
    } else {
        jacobi_spec()
    }
}

/// Directed: an explicit `rr` override is the identity — digests match
/// the default-scheduled oracle bit for bit on both stock shapes.
#[test]
fn explicit_round_robin_override_is_a_digest_noop() {
    for workload in 0..2 {
        let oracle = execute(&spec(workload));
        assert!(!oracle.truncated, "{} truncated", oracle.label);
        assert_eq!(oracle.scheduler, "rr", "default policy must be rr");
        let mut overridden = spec(workload);
        overridden.job.override_scheduler(SchedulerKind::RoundRobin);
        let run = execute(&overridden);
        assert_eq!(
            oracle.trace_digest, run.trace_digest,
            "{}: overriding rr changed the digest — the extraction is not \
             behaviour-preserving",
            oracle.label
        );
        assert_eq!(oracle.sim_end_ns, run.sim_end_ns);
        assert_eq!(oracle.events_processed, run.events_processed);
        assert_eq!(oracle.trace_events, run.trace_events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// RR digests are bit-identical across worker counts × engine
    /// shards, with the policy explicitly pinned.
    #[test]
    fn round_robin_digests_survive_any_parallelisation(
        workload in 0usize..2,
        engine_shards in 1usize..=4,
        workers in 1usize..4,
    ) {
        let oracle = execute(&spec(workload));
        let mut run_spec = spec(workload);
        run_spec.job.override_scheduler(SchedulerKind::RoundRobin);
        run_spec.job.override_engine_shards(engine_shards);
        let sweep = Sweep {
            name: "sched-rr-prop".into(),
            runs: vec![run_spec],
        };
        let report = run_sweep(&sweep, workers);
        let run = &report.records[0];
        prop_assert_eq!(&run.scheduler, "rr");
        prop_assert_eq!(&oracle.trace_digest, &run.trace_digest);
        prop_assert_eq!(oracle.sim_end_ns, run.sim_end_ns);
        prop_assert_eq!(oracle.run_end, run.run_end);
    }

    /// Fuzzed scheduling is a pure function of the seed: for any base
    /// policy and seed, the digest is reproducible across worker
    /// counts.
    #[test]
    fn fuzz_digests_are_reproducible_per_seed(
        workload in 0usize..2,
        base_is_preemptive in any::<bool>(),
        seed in 0u64..1_000,
        workers in 1usize..4,
    ) {
        let base = if base_is_preemptive {
            SchedulerKind::Preemptive {
                quantum: suprenum::sched::DEFAULT_QUANTUM,
            }
        } else {
            SchedulerKind::RoundRobin
        };
        let kind = SchedulerKind::Fuzz {
            base: Box::new(base),
            seed,
        };

        let mut oracle_spec = spec(workload);
        oracle_spec.job.override_scheduler(kind.clone());
        let oracle = execute(&oracle_spec);

        let mut run_spec = spec(workload);
        run_spec.job.override_scheduler(kind.clone());
        let sweep = Sweep {
            name: "sched-fuzz-prop".into(),
            runs: vec![run_spec],
        };
        let report = run_sweep(&sweep, workers);
        let run = &report.records[0];
        prop_assert_eq!(&run.scheduler, &kind.name());
        prop_assert_eq!(&oracle.trace_digest, &run.trace_digest);
        prop_assert_eq!(oracle.sim_end_ns, run.sim_end_ns);
        prop_assert_eq!(oracle.run_end, run.run_end);
    }
}
