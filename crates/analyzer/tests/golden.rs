//! Golden snapshots of the V1–V4 analysis output, in both machine
//! formats.
//!
//! The JSON and SARIF renderings of each stock version's full analysis
//! (pre-flight model budget — deterministic, closed for V3/V4, bounded
//! at a fixed state count for V1/V2) are pinned under `tests/golden/`.
//! Any change to diagnostics — new findings, changed codes, reworded
//! messages, different state counts — shows up as a reviewable golden
//! diff instead of a silent output drift.
//!
//! Regenerate with `BLESS=1 cargo test -p analyzer --test golden`.

use std::path::PathBuf;

use analyzer::{analyze_version, check_races, report_json, sarif, ModelBudget};
use raysim::config::{AppConfig, Version};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with BLESS=1", path.display()));
    assert_eq!(
        actual, expected,
        "analysis output for {name} drifted from its golden; if the change is \
         intentional, regenerate with BLESS=1"
    );
}

#[test]
fn stock_version_reports_match_their_goldens() {
    for (i, version) in Version::ALL.iter().enumerate() {
        let report = analyze_version(*version);
        check(&format!("v{}.json", i + 1), &report_json(&report));
        check(
            &format!("v{}.sarif", i + 1),
            &sarif(std::slice::from_ref(&report)),
        );
    }
}

#[test]
fn preemptive_race_reports_match_their_goldens() {
    // The `analyze --races --preemptive` section: the explorer's
    // witnesses are produced by a breadth-first search over a fixed
    // successor order, so the whole report — including every witness
    // interleaving — is deterministic and snapshot-worthy.
    let budget = ModelBudget::full();
    for (i, version) in Version::ALL.iter().enumerate() {
        let report = check_races(&AppConfig::version(*version), &budget, true);
        check(&format!("v{}_races.json", i + 1), &report_json(&report));
        check(
            &format!("v{}_races.sarif", i + 1),
            &sarif(std::slice::from_ref(&report)),
        );
    }
}
