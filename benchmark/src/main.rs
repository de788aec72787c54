//! One process of the repository benchmark; `run.py` starts a fresh one
//! per measured repetition and aggregates them.
//!
//! ```text
//! suprenum-benchmark run    <workload> <seed>   # untraced, end to end
//! suprenum-benchmark trace  <workload> <seed>   # stage-by-stage replay
//! suprenum-benchmark expect <workload> <seed>   # expected-file lines
//! ```
//!
//! `run` executes the workload's jobs through `harness::run_sweep` with
//! one worker and stock defaults, checks every result, then times the
//! machine set-up of every job once more on its own. `trace` replays each
//! job from the public stage calls with a span around each. Both print
//! one JSON object on stdout; wall-clock instants are nanoseconds since
//! the Unix epoch, so the parent can measure from the moment it started
//! the process.

mod expect;
mod replay;
mod workloads;

use std::fmt::Write as _;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use expect::Observed;
use harness::Sweep;
use replay::{Counters, JobTrace};
use workloads::{Case, Config};

/// How often `run` repeats the set-up of every job to time it.
const SETUP_REPEATS: usize = 5;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.as_slice() {
        [mode, workload, seed] => match seed.parse::<u64>() {
            Ok(seed) => match mode.as_str() {
                "run" => run(workload, seed),
                "trace" => trace(workload, seed),
                "expect" => expect_lines(workload, seed),
                other => Err(format!("unknown mode '{other}'")),
            },
            Err(e) => Err(format!("seed '{seed}': {e}")),
        },
        _ => Err("usage: suprenum-benchmark <run|trace|expect> <workload> <seed>".to_owned()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("suprenum-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// Nanoseconds since the Unix epoch.
fn epoch_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Executes the workload through the harness and checks every result.
fn execute(
    workload: &str,
    seed: u64,
    cases: &[Case],
) -> Result<(Vec<Observed>, Vec<String>), String> {
    let sweep = Sweep {
        name: workload.to_owned(),
        runs: cases.iter().map(|c| c.spec.clone()).collect(),
    };
    let report = harness::run_sweep(&sweep, 1);
    let observed: Vec<Observed> = report.records.iter().map(Observed::from).collect();
    let failures = expect::check(workload, seed, cases, &observed)?;
    Ok((observed, failures))
}

fn run(workload: &str, seed: u64) -> Result<String, String> {
    let cases = workloads::build(workload, seed)?;
    let built_ns = epoch_ns();
    let (observed, failures) = execute(workload, seed, &cases)?;
    let end_ns = epoch_ns();
    let peak_rss_mb = peak_rss_mb()?;

    // The set-up the timed run just did inside each job, repeated on its
    // own after the clock stopped, so `setup_s` can count it; the median
    // of several repeats.
    let mut launches = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        for case in &cases {
            match &case.config {
                Config::Ray(cfg) => drop(replay::set_up(cfg)?),
                Config::Jacobi(cfg) => drop(replay::set_up(cfg)?),
            }
        }
        launches.push(started.elapsed().as_secs_f64());
    }
    launches.sort_by(f64::total_cmp);
    let launch_s = launches[SETUP_REPEATS / 2];

    let events: u64 = observed.iter().map(|o| o.events).sum();
    let mut out = format!(
        "{{\"mode\": \"run\", \"built_ns\": {built_ns}, \"end_ns\": {end_ns}, \
         \"launch_s\": {launch_s}, \"events\": {events}, \"peak_rss_mb\": {peak_rss_mb}, "
    );
    push_results(&mut out, &observed, &failures);
    out.push('}');
    Ok(out)
}

fn trace(workload: &str, seed: u64) -> Result<String, String> {
    let cases = workloads::build(workload, seed)?;
    // On one worker thread, as `harness::run_sweep` runs the untraced jobs.
    let jobs: Vec<JobTrace> = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                cases
                    .iter()
                    .map(|case| match &case.config {
                        Config::Ray(cfg) => replay::replay(cfg),
                        Config::Jacobi(cfg) => replay::replay(cfg),
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .join()
            .map_err(|_| "a replay panicked".to_owned())?
    })?;
    let end_ns = epoch_ns();

    let mut counters = Counters::default();
    let mut observed = Vec::new();
    for (case, job) in cases.iter().zip(&jobs) {
        let findings = match &case.config {
            Config::Ray(cfg) => replay::findings(cfg),
            Config::Jacobi(cfg) => replay::findings(cfg),
        };
        let mut c = job.counters;
        c.findings = findings.0 + findings.1 + findings.2;
        counters.absorb(&c);
        observed.push(Observed {
            label: case.spec.label.clone(),
            run_end: job.run_end,
            sim_end_ns: job.sim_end_ns,
            events: job.counters.events,
            digest: job.digest.clone(),
            findings,
            work_units: job.work_units,
            utilization_percent: job.utilization_percent,
        });
    }
    let failures = expect::check(workload, seed, &cases, &observed)?;

    let mut spans = std::collections::BTreeMap::<&str, f64>::new();
    for job in &jobs {
        for (name, ms) in &job.spans {
            *spans.entry(name).or_default() += ms;
        }
    }
    let preflight_ms: f64 = replay::ANALYZER_SPANS.iter().map(|n| spans[n]).sum();
    let run_ms = spans["suprenum.run_ms"];
    let coverage = jobs
        .iter()
        .map(|j| j.spanned_ms / j.wall_ms)
        .fold(f64::INFINITY, f64::min);

    let mut out =
        format!("{{\"mode\": \"trace\", \"end_ns\": {end_ns}, \"min_coverage\": {coverage}, ");
    out.push_str("\"metrics\": {");
    let mut metrics: Vec<(&str, f64)> = vec![("analyzer.preflight_ms", preflight_ms)];
    metrics.extend(spans.iter().map(|(n, ms)| (*n, *ms)));
    metrics.push((
        "suprenum.ns_per_event",
        if counters.events == 0 {
            0.0
        } else {
            run_ms * 1e6 / counters.events as f64
        },
    ));
    metrics.extend(counters.named());
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {value}");
    }
    out.push_str("}, ");
    push_results(&mut out, &observed, &failures);
    out.push('}');
    Ok(out)
}

fn expect_lines(workload: &str, seed: u64) -> Result<String, String> {
    let cases = workloads::build(workload, seed)?;
    let (observed, _) = execute(workload, seed, &cases)?;
    Ok(observed
        .iter()
        .map(|o| o.line(seed))
        .collect::<Vec<_>>()
        .join("\n"))
}

/// Appends the `jobs`, `digests` and `failures` fields.
fn push_results(out: &mut String, observed: &[Observed], failures: &[String]) {
    let _ = write!(out, "\"jobs\": {}, \"digests\": {{", observed.len());
    for (i, o) in observed.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{}: \"{}\"", json_str(&o.label), o.digest);
    }
    out.push_str("}, \"failures\": [");
    let quoted: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    out.push_str(&quoted.join(", "));
    out.push(']');
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// This process's peak resident set (Linux `VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay::Replayable;

    /// The replay's deterministic counters and digests repeat bit for
    /// bit: two replays of every job in one process agree exactly.
    #[test]
    fn replay_counters_repeat_exactly() {
        for workload in workloads::NAMES {
            let cases = workloads::build(workload, 1992).expect(workload);
            for case in &cases {
                let once = || match &case.config {
                    Config::Ray(cfg) => replay_key(cfg),
                    Config::Jacobi(cfg) => replay_key(cfg),
                };
                assert_eq!(once(), once(), "{workload} {}", case.spec.label);
            }
        }
    }

    fn replay_key<W: Replayable>(cfg: &pipeline::PipelineConfig<W>) -> (String, Counters) {
        let job = replay::replay(cfg).expect("replay");
        (job.digest, job.counters)
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
