//! The expected-output gate: every job's result is compared against the
//! values stored under `expected/`, and the fig10 digests also against
//! the harness's golden `bench_digests.txt`. (The harness's
//! `scaling_digests.txt` records the scaling sweep at quick scale; the
//! `scaling` workload runs its ray rungs at paper scale, so their
//! digests are stored here.)
//!
//! An expected-file line is
//! `label seed digest errors warnings infos work_units utilization`, with
//! seed `*` when the values hold for every seed. On a seed with no stored
//! line for a job, only seed-independent properties are checked:
//! completion, the pre-flight finding counts, and for a fault-injected
//! row, a machine outcome equal to its un-faulted twin's.

use harness::RunRecord;
use suprenum::RunEnd;

use crate::workloads::Case;

/// The result of one job, from `harness::execute` or from the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// The job's row label.
    pub label: String,
    /// How the run ended.
    pub run_end: RunEnd,
    /// Final simulated time, nanoseconds.
    pub sim_end_ns: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Trace digest.
    pub digest: String,
    /// Pre-flight findings: errors, warnings, infos.
    pub findings: (u64, u64, u64),
    /// Work units the workload reported.
    pub work_units: u64,
    /// Mean worker utilization, percent.
    pub utilization_percent: Option<f64>,
}

impl From<&RunRecord> for Observed {
    fn from(r: &RunRecord) -> Observed {
        Observed {
            label: r.label.clone(),
            run_end: r.run_end,
            sim_end_ns: r.sim_end_ns,
            events: r.events_processed,
            digest: r.trace_digest.clone(),
            findings: (r.analysis_errors, r.analysis_warnings, r.analysis_infos),
            work_units: r.work_units,
            utilization_percent: r.utilization_percent,
        }
    }
}

impl Observed {
    /// Utilization to 0.1 %, the resolution the gate compares at.
    fn utilization(&self) -> String {
        self.utilization_percent
            .map_or_else(|| "-".to_owned(), |u| format!("{u:.1}"))
    }

    /// This result as an expected-file line for `seed`.
    pub fn line(&self, seed: u64) -> String {
        let (e, w, i) = self.findings;
        format!(
            "{} {seed} {} {e} {w} {i} {} {}",
            self.label,
            self.digest,
            self.work_units,
            self.utilization()
        )
    }
}

/// One parsed expected-file line.
struct Row<'a> {
    label: &'a str,
    seed: Option<u64>,
    digest: &'a str,
    findings: (u64, u64, u64),
    work_units: u64,
    utilization: &'a str,
}

fn expected_text(workload: &str) -> &'static str {
    match workload {
        "fig10" => include_str!("../expected/fig10.txt"),
        "scaling" => include_str!("../expected/scaling.txt"),
        "sched-faults" => include_str!("../expected/sched-faults.txt"),
        _ => "",
    }
}

/// The harness's golden `label digest` lines covering `workload`'s jobs.
fn golden_text(workload: &str) -> &'static str {
    match workload {
        "fig10" => include_str!("../../crates/harness/tests/golden/bench_digests.txt"),
        _ => "",
    }
}

fn parse(text: &str) -> Result<Vec<Row<'_>>, String> {
    let number = |s: &str| s.parse::<u64>().map_err(|e| format!("'{s}': {e}"));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [label, seed, digest, e, w, i, units, util] = f[..] else {
                return Err(format!(
                    "expected-file line '{line}' does not have 8 fields"
                ));
            };
            Ok(Row {
                label,
                seed: if seed == "*" {
                    None
                } else {
                    Some(number(seed)?)
                },
                digest,
                findings: (number(e)?, number(w)?, number(i)?),
                work_units: number(units)?,
                utilization: util,
            })
        })
        .collect()
}

/// Checks every job of `workload` at `seed`. Returns one message per
/// failed job; an empty list means every job passed.
///
/// # Errors
///
/// Returns a message when the stored expected file is malformed.
pub fn check(
    workload: &str,
    seed: u64,
    cases: &[Case],
    observed: &[Observed],
) -> Result<Vec<String>, String> {
    let rows = parse(expected_text(workload))?;
    let golden: Vec<(&str, &str)> = golden_text(workload)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .collect();
    let mut failures = Vec::new();
    for (case, o) in cases.iter().zip(observed) {
        let mut why: Vec<String> = Vec::new();
        if o.run_end != RunEnd::Completed {
            why.push(format!("ended by {}", o.run_end));
        }
        let exact = rows
            .iter()
            .find(|r| r.label == o.label && r.seed.is_none_or(|s| s == seed));
        match (exact, rows.iter().find(|r| r.label == o.label)) {
            (Some(r), _) => {
                if o.digest != r.digest {
                    why.push(format!("digest {} != expected {}", o.digest, r.digest));
                }
                if o.findings != r.findings {
                    why.push(format!(
                        "findings {:?} != expected {:?}",
                        o.findings, r.findings
                    ));
                }
                if o.work_units != r.work_units {
                    why.push(format!(
                        "work units {} != expected {}",
                        o.work_units, r.work_units
                    ));
                }
                if o.utilization() != r.utilization {
                    why.push(format!(
                        "utilization {} != expected {}",
                        o.utilization(),
                        r.utilization
                    ));
                }
                if let Some((_, g)) = golden.iter().find(|(l, _)| *l == o.label) {
                    if o.digest != *g {
                        why.push(format!("digest {} != harness golden {g}", o.digest));
                    }
                }
            }
            (None, Some(r)) => {
                if o.findings != r.findings {
                    why.push(format!(
                        "findings {:?} != expected {:?}",
                        o.findings, r.findings
                    ));
                }
            }
            (None, None) => why.push("no expected values stored".to_owned()),
        }
        if let Some(twin) = case.twin {
            match observed.iter().find(|t| t.label == twin) {
                Some(t)
                    if (t.run_end, t.sim_end_ns, t.events)
                        == (o.run_end, o.sim_end_ns, o.events) => {}
                Some(_) => why.push(format!(
                    "machine outcome differs from un-faulted twin {twin}"
                )),
                None => why.push(format!("un-faulted twin {twin} did not run")),
            }
        }
        if !why.is_empty() {
            failures.push(format!("{}: {}", o.label, why.join("; ")));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_expected_file_parses_and_names_known_jobs() {
        for workload in crate::workloads::NAMES {
            let rows = parse(expected_text(workload)).expect(workload);
            assert!(!rows.is_empty(), "{workload} has no expected rows");
            let cases = crate::workloads::build(workload, 1992).expect(workload);
            for r in &rows {
                assert!(
                    cases.iter().any(|c| c.spec.label == r.label),
                    "{workload}: '{}' is not a job of the workload",
                    r.label
                );
            }
        }
    }

    #[test]
    fn fig10_digests_equal_the_harness_golden() {
        let rows = parse(expected_text("fig10")).expect("fig10");
        let golden: Vec<_> = golden_text("fig10")
            .lines()
            .filter_map(|l| l.split_once(' '))
            .filter(|(label, _)| label.starts_with('V'))
            .collect();
        assert_eq!(golden.len(), 4);
        for (label, digest) in golden {
            let row = rows.iter().find(|r| r.label == label).expect(label);
            assert_eq!((row.seed, row.digest), (None, digest), "{label}");
        }
    }
}
