//! Differential soundness tests for the flow model's partial-order
//! reduction.
//!
//! The flow explorer ships with an unreduced twin (`explore_full`)
//! that expands every enabled transition from every state. These tests
//! pin the contract that makes the reduction trustworthy: on any
//! configuration small enough to close both ways, the reduced
//! exploration must reach exactly the same verdict as the full one —
//! same deadlock reachability, same peak concurrency, same invariant
//! results — while visiting no more states. (The race explorer, which
//! also yields the effective-synchrony verdict, searches plainly and
//! needs no twin.)

use analyzer::model::flow::FlowModel;
use proptest::prelude::*;

/// A witness/counterexample path must be renderable: non-empty steps,
/// one line each.
fn assert_path_well_formed(path: &[String]) {
    for (i, step) in path.iter().enumerate() {
        assert!(!step.trim().is_empty(), "blank step at index {i}");
        assert!(!step.contains('\n'), "multi-line step at index {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flow model's send-priority reduction agrees with full
    /// exploration on every randomized small configuration.
    #[test]
    fn flow_reduction_agrees_with_full_exploration(
        servants in 1u32..=3,
        window in 1u32..=3,
        bundle in 1u32..=5,
        capacity in 1u32..=24,
        chunk in 1u32..=8,
        eager in any::<bool>(),
    ) {
        let model = FlowModel::from_protocol(servants, window, bundle, capacity, chunk, eager);
        let reduced = model.explore(3_000_000);
        let full = model.explore_full(3_000_000);
        prop_assert!(!reduced.bounded, "reduced exploration must close: {} states", reduced.states);
        prop_assert!(!full.bounded, "full exploration must close: {} states", full.states);
        prop_assert_eq!(reduced.deadlock.is_some(), full.deadlock.is_some());
        prop_assert_eq!(reduced.max_outstanding, full.max_outstanding);
        prop_assert_eq!(reduced.credits_conserved, full.credits_conserved);
        prop_assert_eq!(reduced.capacity_respected, full.capacity_respected);
        prop_assert_eq!(reduced.completion_reachable, full.completion_reachable);
        prop_assert!(reduced.states <= full.states,
            "reduction grew the space: {} > {}", reduced.states, full.states);
        if let Some(path) = &reduced.deadlock {
            assert_path_well_formed(path);
        }
        assert_path_well_formed(&reduced.peak_witness);
    }
}

/// Seeded regression for the V3 witness path: the reduced flow
/// exploration of the paper's version-3 configuration must keep
/// producing the same deterministic, well-formed path to the collapsed
/// concurrency ceiling of 15 jobs.
#[test]
fn v3_peak_witness_path_is_stable() {
    let app = raysim::config::AppConfig::version(raysim::config::Version::V3);
    let model = FlowModel::from_protocol(
        u32::from(app.servants),
        app.window,
        app.bundle_size,
        app.pixel_queue_capacity,
        app.write_chunk,
        app.eager_writeback,
    );
    let first = model.explore(2_000_000);
    let second = model.explore(2_000_000);
    assert!(!first.bounded);
    assert_eq!(first.max_outstanding, 15, "the V3 collapse ceiling");
    assert!(!first.peak_witness.is_empty());
    assert_path_well_formed(&first.peak_witness);
    // BFS over a deterministic successor order: the witness is
    // reproducible run to run.
    assert_eq!(first.peak_witness, second.peak_witness);
    assert_eq!(first.states, second.states);
    // The urgent-send closure leaves its fingerprint: the path reaches
    // the peak through at least one folded send burst.
    assert!(
        first
            .peak_witness
            .iter()
            .any(|l| l.contains("without yielding")),
        "{:?}",
        first.peak_witness
    );
}
