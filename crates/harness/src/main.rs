//! `harness` — run named experiment sweeps in parallel.
//!
//! ```text
//! harness list
//! harness sweep <name> [--scale paper|quick] [--workers N] [--seed S]
//!                      [--engine-shards K] [--horizon-secs T]
//!                      [--scheduler SPEC] [--out PATH]
//!                      [--check-digests FILE] [--write-digests FILE]
//! harness bench [names…] [--scale paper|quick] [--workers N] [--seed S]
//!                        [--engine-shards K]
//!                        [--scheduler SPEC] [--out PATH]
//!                        [--check-digests FILE]
//! harness compare <BASELINE.json> <CANDIDATE.json>
//! harness verify [name] [--scale paper|quick] [--seed S]
//!                       [--scheduler SPEC] [--json PATH] [--sarif PATH]
//!                       [--races]
//! ```
//!
//! `--engine-shards K` packs a multi-cluster machine's per-cluster
//! engine shards onto `K` worker threads (single-cluster shapes ignore
//! it). It is behaviourally invisible — trace digests stay bit-identical
//! to the sequential engine for any `K` — so the flag only changes
//! wall-clock numbers.
//!
//! `--scheduler SPEC` overrides the kernel scheduling policy on every
//! run: `rr` (cooperative round-robin, the default), `preempt[:us]`
//! (fixed-priority with a quantum), `cfs[:us]` (vruntime fair), or
//! `fuzz[:base[:seed]]` (seeded perturbation of a base policy).
//! Scheduling — unlike engine sharding — is behaviourally *visible*: digests
//! only match goldens recorded under the same policy, and artifacts
//! record the policy so `compare` can refuse cross-scheduler diffs.
//!
//! `bench` runs the named sweeps (default: `fig10 smoke`) and writes a
//! single dated baseline artifact (`artifacts/BENCH_<date>.json`) with
//! per-run events/sec and wall time, for cross-commit comparison.
//!
//! `compare` contrasts two artifacts run by run (digests must match;
//! throughput deltas are printed). Artifacts written at a different
//! schema version are refused — regenerate them instead of comparing
//! fields whose meaning changed.
//!
//! `verify` executes a sweep (default: `smoke`) and validates every
//! recorded trace against the protocol model checker's proven orderings
//! with the happens-before engine. `ANALYZER_POLICY=off|warn|deny`
//! overrides each run's pre-flight policy; denied runs are all reported
//! before the command fails. `--races` adds the DPOR race cross-check:
//! every `AN-RACE-*` witness must replay against the model and be
//! confirmed concurrent by the vector-clock engine, and a dynamic race
//! in a statically race-free shape fails verification. Each run also
//! gets a scheduler cross-check (`AN-RACE-004`): preemption tokens
//! recorded under round-robin, or a preemptive/CFS policy that never
//! preempts an instrumented workload, contradict the static scheduling
//! verdict and fail verification. The `sched` sweep exercises exactly
//! this reconciliation across all shipped policies (plus two
//! fault-injection rows whose measurement-plane checks are
//! informational only). Every ray run
//! additionally has its recorded credit accounting checked against the
//! structural layer's P-invariant certificate (`AN-STRUCT-001`) — a
//! trace with more jobs outstanding than window credits exist
//! contradicts the algebra and fails verification.
//!
//! Exit codes: `0` all runs completed and digests (if checked) match;
//! `1` a proven ordering was violated (`verify`); `2` at least one run
//! was truncated; `3` digest mismatch; `4` pre-flight policy denied a
//! run (`verify`); `64` usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{default_workers, run_sweep, sweeps, BenchReport, Scale, VerifyOptions};
use suprenum::SchedulerKind;

const USAGE: &str = "usage:
  harness list
  harness sweep <name> [--scale paper|quick] [--workers N] [--seed S]
                       [--engine-shards K] [--horizon-secs T]
                       [--scheduler SPEC] [--out PATH]
                       [--check-digests FILE] [--write-digests FILE]
  harness bench [names…] [--scale paper|quick] [--workers N] [--seed S]
                         [--engine-shards K]
                         [--scheduler SPEC] [--out PATH]
                         [--check-digests FILE]
  harness compare <BASELINE.json> <CANDIDATE.json>
  harness verify [name] [--scale paper|quick] [--seed S]
                        [--scheduler SPEC] [--json PATH] [--sarif PATH]
                        [--races]

--horizon-secs caps every run's simulated-time budget (a too-small cap
truncates the runs; the sweep then exits 2 and marks each record).

--engine-shards packs a multi-cluster machine's per-cluster engine
shards onto K worker threads; digests stay bit-identical to the
sequential engine.

--scheduler overrides the kernel scheduling policy on every run:
rr | preempt[:quantum_us] | cfs[:quantum_us] | fuzz[:base[:seed]].
Unlike engine sharding this is behaviourally visible — only compare digests
recorded under the same policy. Artifacts record the policy.

bench defaults to the fig10 and smoke sweeps and writes the combined
baseline to artifacts/BENCH_<date>.json.

compare contrasts two artifacts run by run; artifacts from another
schema version are refused.

verify executes a sweep (default smoke) and checks every trace against
the model checker's proven orderings and the structural layer's
P-invariant credit certificates (ANALYZER_POLICY=off|warn|deny
overrides the per-run pre-flight policy); --races adds the DPOR race
cross-check with witness replay and vector-clock confirmation.

sweeps: fig10, bundle, window, seeds, smoke, jacobi, scaling, sched";

struct Args {
    name: String,
    scale: Scale,
    workers: usize,
    seed: u64,
    engine_shards: Option<usize>,
    horizon_secs: Option<u64>,
    scheduler: Option<SchedulerKind>,
    out: Option<PathBuf>,
    check_digests: Option<PathBuf>,
    write_digests: Option<PathBuf>,
}

fn parse_scheduler(spec: &str) -> Result<SchedulerKind, String> {
    SchedulerKind::parse(spec).map_err(|e| format!("--scheduler: {e}"))
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("harness: {msg}\n\n{USAGE}");
    ExitCode::from(64)
}

fn parse_sweep_args(rest: &[String]) -> Result<Args, String> {
    let mut it = rest.iter();
    let name = it.next().ok_or("missing sweep name")?.clone();
    let mut args = Args {
        name,
        scale: Scale::Paper,
        workers: default_workers(),
        seed: 1992,
        engine_shards: None,
        horizon_secs: None,
        scheduler: None,
        out: None,
        check_digests: None,
        write_digests: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scale" => {
                let v = value()?;
                args.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--workers" => {
                args.workers = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| w > 0)
                    .ok_or("--workers needs a positive integer")?;
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?;
            }
            "--engine-shards" => {
                args.engine_shards = Some(
                    value()?
                        .parse::<usize>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or("--engine-shards needs a positive integer")?,
                );
            }
            "--horizon-secs" => {
                args.horizon_secs = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--horizon-secs needs an integer")?,
                );
            }
            "--scheduler" => args.scheduler = Some(parse_scheduler(value()?)?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check-digests" => args.check_digests = Some(PathBuf::from(value()?)),
            "--write-digests" => args.write_digests = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

struct BenchArgs {
    names: Vec<String>,
    scale: Scale,
    workers: usize,
    seed: u64,
    engine_shards: Option<usize>,
    scheduler: Option<SchedulerKind>,
    out: Option<PathBuf>,
    check_digests: Option<PathBuf>,
}

fn parse_bench_args(rest: &[String]) -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        names: Vec::new(),
        scale: Scale::Paper,
        workers: default_workers(),
        seed: 1992,
        engine_shards: None,
        scheduler: None,
        out: None,
        check_digests: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                args.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--workers" => {
                args.workers = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| w > 0)
                    .ok_or("--workers needs a positive integer")?;
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?;
            }
            "--engine-shards" => {
                args.engine_shards = Some(
                    value()?
                        .parse::<usize>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or("--engine-shards needs a positive integer")?,
                );
            }
            "--scheduler" => args.scheduler = Some(parse_scheduler(value()?)?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check-digests" => args.check_digests = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => args.names.push(name.to_owned()),
        }
    }
    if args.names.is_empty() {
        args.names = vec!["fig10".to_owned(), "smoke".to_owned()];
    }
    Ok(args)
}

struct VerifyArgs {
    name: String,
    scale: Scale,
    seed: u64,
    json: Option<PathBuf>,
    sarif: Option<PathBuf>,
    races: bool,
    scheduler: Option<SchedulerKind>,
}

fn parse_verify_args(rest: &[String]) -> Result<VerifyArgs, String> {
    let mut args = VerifyArgs {
        name: "smoke".to_owned(),
        scale: Scale::Quick,
        seed: 1992,
        json: None,
        sarif: None,
        races: false,
        scheduler: None,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                args.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?;
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--sarif" => args.sarif = Some(PathBuf::from(value()?)),
            "--races" => args.races = true,
            "--scheduler" => args.scheduler = Some(parse_scheduler(value()?)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => args.name = name.to_owned(),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => {
            println!("available sweeps:");
            println!("  fig10   the version ladder V1-V4 (paper: 15/29/46/60 %)");
            println!("  bundle  ray-bundle size ablation on version 4");
            println!("  window  window-credit ablation on version 3");
            println!("  seeds   version 4 across five seeds (stability)");
            println!("  smoke   tiny CI sweep; digests are the determinism golden");
            println!("  jacobi  SPMD Jacobi worker ladder (second stock workload)");
            println!("  scaling 16/32/64-node ladders (ray + jacobi) over 1-4 clusters");
            println!(
                "  sched   fig10 ladder + mailbox synchrony under every scheduler \
                 policy (rr/preempt/cfs/fuzz) plus probe-fault rows"
            );
            ExitCode::SUCCESS
        }
        Some("sweep") => {
            let args = match parse_sweep_args(&argv[1..]) {
                Ok(a) => a,
                Err(e) => return usage_error(&e),
            };
            let Some(mut sweep) = sweeps::by_name(&args.name, args.scale, args.seed) else {
                return usage_error(&format!("unknown sweep '{}'", args.name));
            };
            if let Some(secs) = args.horizon_secs {
                for spec in &mut sweep.runs {
                    spec.job
                        .override_horizon(des::time::SimTime::from_secs(secs));
                }
            }
            if let Some(engine_shards) = args.engine_shards {
                for spec in &mut sweep.runs {
                    spec.job.override_engine_shards(engine_shards);
                }
            }
            if let Some(scheduler) = &args.scheduler {
                for spec in &mut sweep.runs {
                    spec.job.override_scheduler(scheduler.clone());
                }
            }
            eprintln!(
                "running sweep '{}' ({} runs) on {} worker(s), {} engine shard(s){}…",
                sweep.name,
                sweep.runs.len(),
                args.workers,
                args.engine_shards.unwrap_or(1),
                match &args.scheduler {
                    Some(s) => format!(", scheduler {s}"),
                    None => String::new(),
                }
            );
            let report = run_sweep(&sweep, args.workers);
            print!("{}", report.render_table());

            let out = args
                .out
                .unwrap_or_else(|| PathBuf::from(format!("artifacts/{}.json", report.sweep)));
            match report.write_artifact(&out) {
                Ok(path) => eprintln!("artifact written to {}", path.display()),
                Err(e) => {
                    eprintln!("harness: cannot write artifact {}: {e}", out.display());
                    return ExitCode::from(64);
                }
            }

            if let Some(path) = &args.write_digests {
                if let Err(e) = std::fs::write(path, report.digest_lines()) {
                    eprintln!("harness: cannot write digests {}: {e}", path.display());
                    return ExitCode::from(64);
                }
                eprintln!("digests written to {}", path.display());
            }

            let mut code = report.exit_code();
            if let Some(path) = &args.check_digests {
                let golden = match std::fs::read_to_string(path) {
                    Ok(g) => g,
                    Err(e) => {
                        eprintln!("harness: cannot read goldens {}: {e}", path.display());
                        return ExitCode::from(64);
                    }
                };
                match report.check_digests(&golden) {
                    Ok(()) => eprintln!(
                        "digests match the goldens in {} — deterministic",
                        path.display()
                    ),
                    Err(errors) => {
                        for e in errors {
                            eprintln!("digest check: {e}");
                        }
                        code = 3;
                    }
                }
            }
            if code == 2 {
                eprintln!(
                    "harness: {} run(s) truncated — exiting nonzero, the sweep is not a \
                     valid measurement",
                    report.truncated_runs().len()
                );
            }
            ExitCode::from(u8::try_from(code).unwrap_or(1))
        }
        Some("bench") => {
            let args = match parse_bench_args(&argv[1..]) {
                Ok(a) => a,
                Err(e) => return usage_error(&e),
            };
            let mut reports = Vec::with_capacity(args.names.len());
            for name in &args.names {
                let Some(mut sweep) = sweeps::by_name(name, args.scale, args.seed) else {
                    return usage_error(&format!("unknown sweep '{name}'"));
                };
                if let Some(engine_shards) = args.engine_shards {
                    for spec in &mut sweep.runs {
                        spec.job.override_engine_shards(engine_shards);
                    }
                }
                if let Some(scheduler) = &args.scheduler {
                    for spec in &mut sweep.runs {
                        spec.job.override_scheduler(scheduler.clone());
                    }
                }
                eprintln!(
                    "benching sweep '{}' ({} runs) on {} worker(s)…",
                    sweep.name,
                    sweep.runs.len(),
                    args.workers
                );
                let report = run_sweep(&sweep, args.workers);
                print!("{}", report.render_table());
                reports.push(report);
            }
            let bench = BenchReport {
                date: harness::utc_date_string(),
                reports,
            };

            let out = args
                .out
                .unwrap_or_else(|| PathBuf::from(format!("artifacts/BENCH_{}.json", bench.date)));
            match bench.write_artifact(&out) {
                Ok(path) => eprintln!("baseline written to {}", path.display()),
                Err(e) => {
                    eprintln!("harness: cannot write baseline {}: {e}", out.display());
                    return ExitCode::from(64);
                }
            }

            let mut code = bench.exit_code();
            if let Some(path) = &args.check_digests {
                let golden = match std::fs::read_to_string(path) {
                    Ok(g) => g,
                    Err(e) => {
                        eprintln!("harness: cannot read goldens {}: {e}", path.display());
                        return ExitCode::from(64);
                    }
                };
                match bench.check_digests(&golden) {
                    Ok(()) => eprintln!(
                        "digests match the goldens in {} — deterministic",
                        path.display()
                    ),
                    Err(errors) => {
                        for e in errors {
                            eprintln!("digest check: {e}");
                        }
                        code = 3;
                    }
                }
            }
            if code == 2 {
                eprintln!("harness: truncated run(s) — the baseline is not a valid measurement");
            }
            ExitCode::from(u8::try_from(code).unwrap_or(1))
        }
        Some("compare") => {
            let [baseline, candidate] = &argv[1..] else {
                return usage_error("compare needs exactly a baseline and a candidate artifact");
            };
            let read = |p: &str| {
                std::fs::read_to_string(p).map_err(|e| format!("cannot read artifact {p}: {e}"))
            };
            let (base, cand) = match (read(baseline), read(candidate)) {
                (Ok(b), Ok(c)) => (b, c),
                (Err(e), _) | (_, Err(e)) => return usage_error(&e),
            };
            match harness::compare_artifacts(&base, &cand) {
                Ok(table) => {
                    println!("comparing {baseline} (baseline) vs {candidate} (candidate)");
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(errors) => {
                    for e in errors {
                        eprintln!("compare: {e}");
                    }
                    ExitCode::from(3)
                }
            }
        }
        Some("verify") => {
            let args = match parse_verify_args(&argv[1..]) {
                Ok(a) => a,
                Err(e) => return usage_error(&e),
            };
            let Some(sweep) = sweeps::by_name(&args.name, args.scale, args.seed) else {
                return usage_error(&format!("unknown sweep '{}'", args.name));
            };
            eprintln!(
                "verifying sweep '{}' ({} runs) against the protocol models{}…",
                sweep.name,
                sweep.runs.len(),
                match &args.scheduler {
                    Some(s) => format!(" under scheduler {s}"),
                    None => String::new(),
                }
            );
            let opts = VerifyOptions {
                races: args.races,
                scheduler: args.scheduler.clone(),
            };
            let report = harness::verify_sweep_opts(&sweep, &opts);
            for r in report
                .run_reports
                .iter()
                .chain(&report.race_reports)
                .chain(&report.structural_reports)
                .chain(&report.sched_reports)
            {
                print!("{}", r.render());
                println!();
            }
            for label in &report.truncated {
                eprintln!(
                    "note: run '{label}' did not complete; its (partial) trace was \
                     still validated"
                );
            }
            for label in &report.denied {
                eprintln!("DENIED: pre-flight policy refused run '{label}'");
            }

            let all_reports: Vec<analyzer::Report> = report
                .run_reports
                .iter()
                .chain(&report.race_reports)
                .chain(&report.structural_reports)
                .chain(&report.sched_reports)
                .cloned()
                .collect();
            if let Some(path) = &args.json {
                if let Err(e) = std::fs::write(path, analyzer::reports_json(&all_reports)) {
                    eprintln!("harness: cannot write {}: {e}", path.display());
                    return ExitCode::from(64);
                }
                eprintln!("JSON written to {}", path.display());
            }
            if let Some(path) = &args.sarif {
                if let Err(e) = std::fs::write(path, analyzer::sarif(&all_reports)) {
                    eprintln!("harness: cannot write {}: {e}", path.display());
                    return ExitCode::from(64);
                }
                eprintln!("SARIF written to {}", path.display());
            }

            match report.exit_code() {
                0 => eprintln!(
                    "verified: every proven ordering and structural certificate holds in \
                     all {} trace(s){}",
                    report.run_reports.len(),
                    if args.races {
                        " and every race witness cross-checks"
                    } else {
                        ""
                    }
                ),
                1 => eprintln!(
                    "harness: {} happens-before violation(s), {} race inconsistenc(ies), \
                     {} certificate violation(s), {} scheduler inconsistenc(ies) — the \
                     traces contradict the protocol model",
                    report.violations(),
                    report.race_inconsistencies(),
                    report.certificate_violations(),
                    report.sched_inconsistencies()
                ),
                4 => eprintln!(
                    "harness: pre-flight policy denied {} run(s)",
                    report.denied.len()
                ),
                _ => {}
            }
            ExitCode::from(report.exit_code())
        }
        Some(other) => usage_error(&format!("unknown command '{other}'")),
        None => usage_error("missing command"),
    }
}
