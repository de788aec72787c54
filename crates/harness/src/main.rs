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
//! before the command fails. `--races` adds the race cross-check:
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

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use des::time::SimTime;
use harness::{default_workers, run_sweep, sweeps, BenchReport, Scale, Sweep, VerifyOptions};
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
overrides the per-run pre-flight policy); --races adds the race
cross-check with witness replay and vector-clock confirmation.

sweeps: fig10, bundle, window, seeds, smoke, jacobi, scaling, sched";

/// Every command's flags; each command accepts the subset its usage
/// line lists (see [`parse_args`]).
struct Args {
    names: Vec<String>,
    scale: Scale,
    workers: usize,
    seed: u64,
    engine_shards: Option<usize>,
    horizon: Option<SimTime>,
    scheduler: Option<SchedulerKind>,
    out: Option<PathBuf>,
    check_digests: Option<PathBuf>,
    write_digests: Option<PathBuf>,
    json: Option<PathBuf>,
    sarif: Option<PathBuf>,
    races: bool,
}

const SWEEP_FLAGS: &str = "--scale --workers --seed --engine-shards --horizon-secs --scheduler \
                           --out --check-digests --write-digests";
const BENCH_FLAGS: &str =
    "--scale --workers --seed --engine-shards --scheduler --out --check-digests";
const VERIFY_FLAGS: &str = "--scale --seed --scheduler --json --sarif --races";

/// Parses `rest` accepting only the space-separated `flags`; anything
/// else not starting with `--` is a sweep name.
fn parse_args(rest: &[String], flags: &str, scale: Scale) -> Result<Args, String> {
    let mut args = Args {
        names: Vec::new(),
        scale,
        workers: default_workers(),
        seed: 1992,
        engine_shards: None,
        horizon: None,
        scheduler: None,
        out: None,
        check_digests: None,
        write_digests: None,
        json: None,
        sarif: None,
        races: false,
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") && !flags.split_whitespace().any(|f| f == arg) {
            return Err(format!("unknown flag '{arg}'"));
        }
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        let positive = |v: &str| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("{arg} needs a positive integer"))
        };
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                args.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale '{v}'"))?;
            }
            "--workers" => args.workers = positive(value()?)?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--engine-shards" => args.engine_shards = Some(positive(value()?)?),
            "--horizon-secs" => {
                let secs: u64 = value()?
                    .parse()
                    .map_err(|_| "--horizon-secs needs an integer")?;
                let nanos = secs.checked_mul(1_000_000_000).ok_or_else(|| {
                    format!(
                        "--horizon-secs {secs} overflows the simulated clock (at most {} s)",
                        u64::MAX / 1_000_000_000
                    )
                })?;
                args.horizon = Some(SimTime::from_nanos(nanos));
            }
            "--scheduler" => {
                let spec = value()?;
                let kind = SchedulerKind::parse(spec).map_err(|e| format!("--scheduler: {e}"))?;
                args.scheduler = Some(kind);
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--check-digests" => args.check_digests = Some(PathBuf::from(value()?)),
            "--write-digests" => args.write_digests = Some(PathBuf::from(value()?)),
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--sarif" => args.sarif = Some(PathBuf::from(value()?)),
            "--races" => args.races = true,
            name => args.names.push(name.to_owned()),
        }
    }
    Ok(args)
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("harness: {msg}\n\n{USAGE}");
    ExitCode::from(64)
}

/// The named sweep with the per-run overrides `args` carries applied.
fn configured_sweep(name: &str, args: &Args) -> Result<Sweep, ExitCode> {
    let Some(mut sweep) = sweeps::by_name(name, args.scale, args.seed) else {
        return Err(usage_error(&format!("unknown sweep '{name}'")));
    };
    for spec in &mut sweep.runs {
        if let Some(horizon) = args.horizon {
            spec.job.override_horizon(horizon);
        }
        if let Some(engine_shards) = args.engine_shards {
            spec.job.override_engine_shards(engine_shards);
        }
        if let Some(scheduler) = &args.scheduler {
            spec.job.override_scheduler(scheduler.clone());
        }
    }
    Ok(sweep)
}

/// Writes `contents` to `path`, creating parent directories, and
/// reports `what` was written.
fn write_file(path: &Path, contents: &str, what: &str) -> Result<(), ExitCode> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let written = parent
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    match written {
        Ok(()) => {
            eprintln!("{what} written to {}", path.display());
            Ok(())
        }
        Err(e) => {
            eprintln!("harness: cannot write {what} {}: {e}", path.display());
            Err(ExitCode::from(64))
        }
    }
}

/// Checks digests against the golden file at `path` (when given):
/// `Ok(3)` on drift, `Ok(code)` otherwise.
fn check_goldens(
    path: Option<&Path>,
    code: i32,
    check: impl FnOnce(&str) -> Result<(), Vec<String>>,
) -> Result<i32, ExitCode> {
    let Some(path) = path else {
        return Ok(code);
    };
    let golden = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("harness: cannot read goldens {}: {e}", path.display());
        ExitCode::from(64)
    })?;
    match check(&golden) {
        Ok(()) => {
            eprintln!(
                "digests match the goldens in {} — deterministic",
                path.display()
            );
            Ok(code)
        }
        Err(errors) => {
            for e in errors {
                eprintln!("digest check: {e}");
            }
            Ok(3)
        }
    }
}

fn sweep(args: &Args) -> Result<ExitCode, ExitCode> {
    let [name] = args.names.as_slice() else {
        return Err(usage_error("sweep needs exactly one sweep name"));
    };
    let sweep = configured_sweep(name, args)?;
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

    let default_out = PathBuf::from(format!("artifacts/{}.json", report.sweep));
    let out = args.out.as_ref().unwrap_or(&default_out);
    write_file(out, &report.to_json(), "artifact")?;
    if let Some(path) = &args.write_digests {
        write_file(path, &report.digest_lines(), "digests")?;
    }
    let code = check_goldens(args.check_digests.as_deref(), report.exit_code(), |g| {
        report.check_digests(g)
    })?;
    if code == 2 {
        eprintln!(
            "harness: {} run(s) truncated — exiting nonzero, the sweep is not a valid measurement",
            report.truncated_runs().len()
        );
    }
    Ok(ExitCode::from(u8::try_from(code).unwrap_or(1)))
}

fn bench(args: &Args) -> Result<ExitCode, ExitCode> {
    let default_names = ["fig10".to_owned(), "smoke".to_owned()];
    let names = if args.names.is_empty() {
        &default_names[..]
    } else {
        &args.names
    };
    let mut reports = Vec::with_capacity(names.len());
    for name in names {
        let sweep = configured_sweep(name, args)?;
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

    let default_out = PathBuf::from(format!("artifacts/BENCH_{}.json", bench.date));
    let out = args.out.as_ref().unwrap_or(&default_out);
    write_file(out, &bench.to_json(), "baseline")?;
    let code = check_goldens(args.check_digests.as_deref(), bench.exit_code(), |g| {
        bench.check_digests(g)
    })?;
    if code == 2 {
        eprintln!("harness: truncated run(s) — the baseline is not a valid measurement");
    }
    Ok(ExitCode::from(u8::try_from(code).unwrap_or(1)))
}

fn compare(paths: &[String]) -> ExitCode {
    let [baseline, candidate] = paths else {
        return usage_error("compare needs exactly a baseline and a candidate artifact");
    };
    let read =
        |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read artifact {p}: {e}"));
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

fn verify(args: &Args) -> Result<ExitCode, ExitCode> {
    let name = match args.names.as_slice() {
        [] => "smoke",
        [name] => name.as_str(),
        _ => return Err(usage_error("verify takes at most one sweep name")),
    };
    let Some(sweep) = sweeps::by_name(name, args.scale, args.seed) else {
        return Err(usage_error(&format!("unknown sweep '{name}'")));
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
    let report = harness::verify_sweep(&sweep, &opts);
    let all_reports: Vec<analyzer::Report> = report
        .run_reports
        .iter()
        .chain(&report.race_reports)
        .chain(&report.structural_reports)
        .chain(&report.sched_reports)
        .cloned()
        .collect();
    for r in &all_reports {
        print!("{}", r.render());
        println!();
    }
    for label in &report.truncated {
        eprintln!("note: run '{label}' did not complete; its (partial) trace was still validated");
    }
    for label in &report.denied {
        eprintln!("DENIED: pre-flight policy refused run '{label}'");
    }
    if let Some(path) = &args.json {
        write_file(path, &analyzer::reports_json(&all_reports), "JSON")?;
    }
    if let Some(path) = &args.sarif {
        write_file(path, &analyzer::sarif(&all_reports), "SARIF")?;
    }

    match report.exit_code() {
        0 => eprintln!(
            "verified: every proven ordering and structural certificate holds in all {} \
             trace(s){}",
            report.run_reports.len(),
            if args.races {
                " and every race witness cross-checks"
            } else {
                ""
            }
        ),
        1 => eprintln!(
            "harness: {} happens-before violation(s), {} race inconsistenc(ies), {} \
             certificate violation(s), {} scheduler inconsistenc(ies) — the traces \
             contradict the protocol model",
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
    Ok(ExitCode::from(report.exit_code()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => return usage_error("missing command"),
    };
    let run = |flags: &str, scale: Scale, command: fn(&Args) -> Result<ExitCode, ExitCode>| {
        match parse_args(rest, flags, scale) {
            Ok(args) => command(&args).unwrap_or_else(|code| code),
            Err(e) => usage_error(&e),
        }
    };
    match command {
        "list" => {
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
        "sweep" => run(SWEEP_FLAGS, Scale::Paper, sweep),
        "bench" => run(BENCH_FLAGS, Scale::Paper, bench),
        "compare" => compare(rest),
        "verify" => run(VERIFY_FLAGS, Scale::Quick, verify),
        other => usage_error(&format!("unknown command '{other}'")),
    }
}
