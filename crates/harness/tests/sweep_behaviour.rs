//! End-to-end behaviour of the sweep harness: truncation reporting and
//! worker-count determinism.

use des::time::SimTime;
use harness::{execute, run_sweep, sweeps, RunSpec, Sweep};
use pipeline::{Job, PipelineConfig};
use proptest::prelude::*;
use raysim::config::{AppConfig, SceneKind, Version};
use suprenum::RunEnd;

fn tiny_spec(label: &str, seed: u64, horizon: SimTime) -> RunSpec {
    let mut app = AppConfig::version(Version::V4);
    app.servants = 3;
    app.scene = SceneKind::Quickstart;
    app.width = 12;
    app.height = 12;
    app.bundle_size = 6;
    app.pixel_queue_capacity = 128;
    app.write_chunk = 6;
    let mut cfg = PipelineConfig::new(app.clone());
    cfg.seed = seed;
    cfg.horizon = horizon;
    RunSpec {
        label: label.to_owned(),
        job: Job::new(cfg),
        version: Some(Version::V4),
        app: Some(app),
        paper_percent: None,
        faults: None,
    }
}

/// Satellite: a deliberately truncated run (tiny horizon) must be
/// reported as truncated end to end — in the record, the JSON artifact,
/// the rendered table, and the process exit code.
#[test]
fn truncation_is_reported_end_to_end() {
    let sweep = Sweep {
        name: "horizon-cut".into(),
        runs: vec![
            tiny_spec("full", 7, SimTime::from_secs(600)),
            tiny_spec("cut", 7, SimTime::from_millis(200)),
        ],
    };
    let report = run_sweep(&sweep, 2);

    let full = &report.records[0];
    assert_eq!(full.run_end, RunEnd::Completed);
    assert!(!full.truncated);
    assert!(full.utilization_percent.is_some());

    let cut = &report.records[1];
    assert_eq!(cut.run_end, RunEnd::Horizon);
    assert!(cut.truncated);
    assert_eq!(
        cut.utilization_percent, None,
        "a truncated run must not report utilization as if it were valid"
    );
    assert!(cut.events_processed > 0);
    assert!(cut.sim_end_ns <= 200_000_000);

    let json = report.to_json();
    assert!(json.contains("\"run_end\": \"horizon\""));
    assert!(json.contains("\"truncated\": true"));
    assert!(json.contains("\"all_completed\": false"));
    assert!(report.render_table().contains("TRUNCATED"));
    assert_eq!(report.exit_code(), 2);
}

/// The smoke sweep — CI's golden reference — completes at quick scale
/// and yields a digest per run.
#[test]
fn smoke_sweep_completes_with_digests() {
    let sweep = sweeps::smoke(1992);
    let report = run_sweep(&sweep, 2);
    assert_eq!(report.exit_code(), 0);
    assert_eq!(report.records.len(), sweep.runs.len());
    for rec in &report.records {
        assert!(!rec.truncated, "{} truncated", rec.label);
        assert_eq!(rec.trace_digest.len(), 16);
    }
    let lines = report.digest_lines();
    assert_eq!(lines.lines().count(), sweep.runs.len());
    assert!(report.check_digests(&lines).is_ok());
}

/// A record's digest must equal the digest of the same spec executed
/// directly on the calling thread — pooling changes scheduling of host
/// threads, never simulated behaviour.
#[test]
fn pooled_and_direct_execution_agree() {
    let spec = tiny_spec("direct", 23, SimTime::from_secs(600));
    let direct = execute(&spec);
    let report = run_sweep(
        &Sweep {
            name: "one".into(),
            runs: vec![spec],
        },
        3,
    );
    assert_eq!(report.records[0].trace_digest, direct.trace_digest);
    assert_eq!(report.records[0].fingerprint, direct.fingerprint);
    assert_eq!(report.records[0].events_processed, direct.events_processed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: results are bit-identical regardless of worker count.
    /// Any sweep of up to 5 runs with arbitrary seeds digests the same
    /// under 1 worker and under N.
    #[test]
    fn worker_count_never_changes_results(
        seeds in proptest::collection::vec(0u64..10_000, 1..5),
        workers in 2usize..6,
    ) {
        let sweep = Sweep {
            name: "prop".into(),
            runs: seeds
                .iter()
                .enumerate()
                .map(|(i, &s)| tiny_spec(&format!("r{i}"), s, SimTime::from_secs(600)))
                .collect(),
        };
        let serial = run_sweep(&sweep, 1);
        let pooled = run_sweep(&sweep, workers);
        for (a, b) in serial.records.iter().zip(pooled.records.iter()) {
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(&a.trace_digest, &b.trace_digest);
            prop_assert_eq!(&a.fingerprint, &b.fingerprint);
            prop_assert_eq!(a.events_processed, b.events_processed);
            prop_assert_eq!(a.sim_end_ns, b.sim_end_ns);
            prop_assert_eq!(a.run_end, b.run_end);
        }
    }
}

/// Numeric flags whose value overflows the simulated clock are usage
/// errors (exit 64) before anything runs — never a silently wrapped
/// horizon or quantum that truncates every run.
#[test]
fn overflowing_cli_values_are_usage_errors() {
    for flags in [
        ["--horizon-secs", "18446744073709552"],
        ["--scheduler", "preempt:18446744073709552"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(["sweep", "smoke"])
            .args(flags)
            .output()
            .expect("the harness binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "{flags:?}: {stderr}");
        assert!(
            stderr.contains("overflows the simulated clock"),
            "{flags:?}: {stderr}"
        );
    }
}
