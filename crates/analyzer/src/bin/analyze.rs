//! Pre-flight static analysis of the paper's measurement setups.
//!
//! ```text
//! analyze [v1|v2|v3|v4 ...] [options]
//!
//! options:
//!   --deep             close the model state spaces (full budget)
//!                      instead of the cheap pre-flight bound
//!   --fail-on LEVEL    exit nonzero when any diagnostic is at or
//!                      above LEVEL (info|warning|error)
//!   --strict           shorthand for --fail-on error
//!   --json PATH        write all reports as JSON ("-" for stdout)
//!   --sarif PATH       write all reports as SARIF 2.1.0 ("-" for
//!                      stdout; at most one of the two may be "-")
//!   --preemptive       also model-check the preemptive-scheduler
//!                      variant and print its counterexample
//!   --races            run the DPOR message-race explorer and append
//!                      a race report per version (uses the scheduler
//!                      selected by --preemptive; round-robin by
//!                      default). Race warnings stay warnings unless
//!                      --strict, which denies them (escalates
//!                      AN-RACE-* warnings to errors)
//! ```
//!
//! `--json` reports also carry a `timings` array with per-layer wall
//! time (token/protocol/rate/structural/model/race, milliseconds) for
//! each analyzed version, so regressions in analysis cost are visible
//! in CI artifacts.
//!
//! The human-readable reports go to stdout, or to stderr when `--json -`
//! or `--sarif -` puts a document there, so that stdout parses.
//!
//! With no version arguments, analyzes all four.

use std::fmt::Write as _;
use std::process::ExitCode;

use analyzer::{
    check_preemptive_variant, reports_json_with_timings, sarif, ModelBudget, Report, Severity,
    SubjectTimings,
};
use pipeline::PipelineConfig;
use raysim::config::{AppConfig, Version};

fn parse_version(arg: &str) -> Option<Version> {
    match arg.to_ascii_lowercase().as_str() {
        "v1" | "1" => Some(Version::V1),
        "v2" | "2" => Some(Version::V2),
        "v3" | "3" => Some(Version::V3),
        "v4" | "4" => Some(Version::V4),
        _ => None,
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: analyze [v1|v2|v3|v4 ...] [--deep] [--fail-on info|warning|error] \
         [--strict] [--json PATH] [--sarif PATH] [--preemptive] [--races]"
    );
    ExitCode::from(2)
}

fn write_out(path: &str, contents: &str) -> std::io::Result<()> {
    if path == "-" {
        print!("{contents}");
        Ok(())
    } else {
        std::fs::write(path, contents)
    }
}

fn main() -> ExitCode {
    let mut versions: Vec<Version> = Vec::new();
    let mut fail_on: Option<Severity> = None;
    let mut deep = false;
    let mut strict = false;
    let mut preemptive = false;
    let mut races = false;
    let mut json_path: Option<String> = None;
    let mut sarif_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => {
                strict = true;
                fail_on = Some(Severity::Error);
            }
            "--deep" => deep = true,
            "--preemptive" => preemptive = true,
            "--races" => races = true,
            "--fail-on" => match args.next().as_deref().map(Severity::parse) {
                Some(Some(level)) => fail_on = Some(level),
                _ => return usage("--fail-on needs a level: info|warning|error"),
            },
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => return usage("--json needs a path (or `-`)"),
            },
            "--sarif" => match args.next() {
                Some(path) => sarif_path = Some(path),
                None => return usage("--sarif needs a path (or `-`)"),
            },
            other => match parse_version(other) {
                Some(v) => versions.push(v),
                None => return usage(&format!("unknown argument `{other}`")),
            },
        }
    }
    if versions.is_empty() {
        versions = Version::ALL.to_vec();
    }
    let json_on_stdout = json_path.as_deref() == Some("-");
    let sarif_on_stdout = sarif_path.as_deref() == Some("-");
    if json_on_stdout && sarif_on_stdout {
        return usage("only one of --json and --sarif can write to stdout (`-`)");
    }
    let say = |text: String| {
        if json_on_stdout || sarif_on_stdout {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
    };

    let budget = if deep {
        ModelBudget::full()
    } else {
        ModelBudget::preflight()
    };

    let mut reports: Vec<Report> = Vec::new();
    let mut timings: Vec<SubjectTimings> = Vec::new();
    let mut worst: Option<Severity> = None;
    for &version in &versions {
        let cfg = PipelineConfig::new(AppConfig::version(version));
        let (report, layers) = analyzer::analyze(&cfg, &budget);
        say(format!("== {version} ==\n{}\n", report.render()));
        worst = worst.max(report.max_severity());
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        timings.push((
            report.subject.clone(),
            vec![
                ("token_ms", ms(layers.token)),
                ("protocol_ms", ms(layers.protocol)),
                ("rate_ms", ms(layers.rate)),
                ("structural_ms", ms(layers.structural)),
                ("model_ms", ms(layers.model)),
                ("race_ms", ms(layers.race)),
            ],
        ));
        reports.push(report);
    }

    if preemptive {
        for &version in &versions {
            let app = AppConfig::version(version);
            let verdict = check_preemptive_variant(&app, &budget);
            let mut stanza = format!("== {version}, preemptive scheduler variant ==\n");
            match verdict.sync2_violation.or(verdict.sync1_violation) {
                Some(path) => {
                    stanza.push_str(
                        "effective synchrony BREAKS under preemption; counterexample \
                         interleaving:\n",
                    );
                    for (i, step) in path.iter().enumerate() {
                        let _ = writeln!(stanza, "  {:>3}. {step}", i + 1);
                    }
                }
                None => {
                    let _ = writeln!(
                        stanza,
                        "no violation found ({} states explored{})",
                        verdict.states,
                        if verdict.bounded { ", bounded" } else { "" }
                    );
                }
            }
            stanza.push('\n');
            say(stanza);
        }
    }

    if races {
        for &version in &versions {
            let app = AppConfig::version(version);
            let mut report = analyzer::check_races(&app, &budget, preemptive);
            if strict {
                let raised = report.escalate_warnings("AN-RACE-");
                if raised > 0 {
                    eprintln!("strict mode: {raised} race warning(s) denied for {version}");
                }
            }
            say(format!("== {} ==\n{}\n", report.subject, report.render()));
            worst = worst.max(report.max_severity());
            reports.push(report);
        }
    }

    if let Some(path) = &json_path {
        if let Err(e) = write_out(path, &reports_json_with_timings(&reports, &timings)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(3);
        }
    }
    if let Some(path) = &sarif_path {
        if let Err(e) = write_out(path, &sarif(&reports)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(3);
        }
    }

    if let (Some(threshold), Some(worst)) = (fail_on, worst) {
        if worst >= threshold {
            let total: usize = reports.iter().map(|r| r.count_at_least(threshold)).sum();
            eprintln!("analysis failed: {total} diagnostic(s) at or above {threshold}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
