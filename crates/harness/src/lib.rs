//! Parallel, deterministic experiment-sweep runner.
//!
//! The paper's evaluation is a *sweep* — four program versions, several
//! scenes, plus bundle/window/agent-pool ablations — yet re-running every
//! configuration serially wastes all but one core, and ad-hoc text output
//! loses the one fact monitoring literature insists on: whether each
//! measurement actually *completed*. This crate makes both first-class:
//!
//! * a [`Sweep`] is a named list of [`RunSpec`]s; [`run_sweep`] fans the
//!   runs out over a fixed-size pool of OS threads. Each simulation stays
//!   single-threaded and seed-deterministic, so results are **bit-identical
//!   regardless of worker count** — guaranteed by the per-run
//!   [`RunRecord::trace_digest`] and checked by this crate's tests;
//! * a spec wraps a type-erased [`pipeline::Job`], so one sweep can mix
//!   ray-tracer and Jacobi runs (and any future [`pipeline::Workload`])
//!   in the same queue — the harness never mentions a workload type;
//! * every run yields a [`RunRecord`]: workload id, config fingerprint,
//!   seed, [`RunEnd`], simulated and wall time, events processed,
//!   utilization/intrusion statistics, and the trace digest. A truncated
//!   run (horizon, event budget, operator release, deadlock) is recorded
//!   as such and poisons the sweep's exit code — it can never masquerade
//!   as a valid measurement;
//! * [`SweepReport`] renders the whole sweep as one JSON artifact (written
//!   under `artifacts/` by the CLI) plus a summary table.
//!
//! The `harness` binary exposes the named sweeps of [`sweeps`]:
//!
//! ```text
//! cargo run --release -p harness -- sweep fig10 --workers 4
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use des::digest::Fnv64;
use pipeline::Job;
use raysim::config::{AppConfig, Version};
use simple::json::{self, Value};
use simple::Trace;
use suprenum::RunEnd;

pub mod sweeps;
pub mod verify;

pub use sweeps::Scale;
pub use verify::{verify_sweep, VerifyOptions, VerifyReport};

/// Version of the JSON artifact schema this harness writes (sweep
/// artifacts and bench baselines alike). Bumped whenever a field
/// changes meaning; artifacts from different schema versions must never
/// be compared — see [`artifact_schema_version`]. Purely additive fields
/// (readers treat absence as the documented default, e.g.
/// `engine_shards` absent = 1) do not bump the schema, and neither does
/// retiring one that readers ignore (`shards`, the monitor-shard count
/// older schema-4 artifacts carry, always behaviourally invisible), so
/// newer binaries stay comparable against committed baselines.
pub const SCHEMA_VERSION: u64 = 4;

/// Reads the `schema_version` field of a parsed artifact.
///
/// # Errors
///
/// Returns a message when the field is absent or not an unsigned
/// integer — such a value is not a harness artifact at all.
pub fn artifact_schema_version(artifact: &Value) -> Result<u64, String> {
    artifact
        .get("schema_version")
        .ok_or_else(|| "artifact has no schema_version field".to_owned())?
        .as_u64()
        .ok_or_else(|| "artifact schema_version is not a number".to_owned())
}

/// One configured run inside a sweep.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Short row label (e.g. `"V3"`, `"bundle-50"`, `"jacobi-w4"`).
    pub label: String,
    /// The frozen measurement job (workload, machine, monitor, seed,
    /// horizon, pre-flight policy) with its workload type erased.
    pub job: Job,
    /// The program version, where the row corresponds to one.
    pub version: Option<Version>,
    /// The actual application shape the job was built from, where the
    /// row is a ray-tracer run. The job freezes its configuration
    /// behind a closure, so this is the only place the true servant
    /// count / window / queue capacity survive for `harness verify` to
    /// cross-check the structural invariant certificates against the
    /// recorded trace. `None` for non-ray workloads.
    pub app: Option<AppConfig>,
    /// The paper's utilization number for this row, where it has one.
    pub paper_percent: Option<f64>,
    /// The probe-plane fault injection this row runs with, where it is
    /// a fault-study row. `harness verify` skips the measurement-plane
    /// cross-checks for such rows — injected drops, corruptions, and
    /// clock drift are the *subject* of the measurement, so a
    /// happens-before anomaly there is data, not a defect.
    pub faults: Option<pipeline::FaultConfig>,
}

// Run specifications cross worker-thread boundaries; keep that fact
// checked at compile time rather than discovered at the spawn site.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<RunSpec>();
};

/// A named list of runs executed together.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Sweep name (also the default artifact stem).
    pub name: String,
    /// The runs, in presentation order.
    pub runs: Vec<RunSpec>,
}

/// Everything recorded about one executed run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec's label.
    pub label: String,
    /// The workload's stable identifier (e.g. `"raytracer"`,
    /// `"jacobi"`).
    pub workload: String,
    /// FNV-1a fingerprint of the configuration (workload + machine +
    /// monitor + seed + horizon), hex-encoded. Two records with equal
    /// fingerprints measured the same configuration.
    pub fingerprint: String,
    /// Determinism seed.
    pub seed: u64,
    /// How the run ended.
    pub run_end: RunEnd,
    /// `true` when `run_end` is anything but completion — derived
    /// statistics then describe an interrupted execution.
    pub truncated: bool,
    /// Final simulated time, nanoseconds.
    pub sim_end_ns: u64,
    /// Host wall-clock time of the simulation engine (and monitor
    /// plane), milliseconds — pre-flight analysis excluded, see
    /// [`analysis_ms`](Self::analysis_ms). Informational only: never
    /// part of the digest.
    pub wall_ms: f64,
    /// Host wall-clock time the pre-flight analysis took, milliseconds.
    /// Reported separately so engine throughput is not diluted by a
    /// run-independent static-analysis cost. Informational only.
    pub analysis_ms: f64,
    /// Error findings the pre-flight analysis reported (0 when the
    /// policy was `Off`). Additive schema-4 fields — absent in older
    /// artifacts, read back as 0 — so `harness compare` can surface
    /// analysis drift (a proof or defect appearing between commits)
    /// alongside throughput drift.
    pub analysis_errors: u64,
    /// Warning findings the pre-flight analysis reported.
    pub analysis_warnings: u64,
    /// Informational findings (proofs of absence, certificates).
    pub analysis_infos: u64,
    /// Kernel events the simulation loop processed.
    pub events_processed: u64,
    /// Event-loop throughput: `events_processed` per engine wall-clock
    /// second (`wall_ms`). Host-dependent and informational only — never
    /// part of the digest; the benchmark baseline compares this across
    /// commits.
    pub events_per_sec: f64,
    /// Engine worker-thread count the run executed with. Behaviourally
    /// invisible — a multi-cluster machine always partitions per
    /// cluster, this only packs the shards onto threads — so it only
    /// contextualizes the wall-clock numbers. Additive schema-4 field —
    /// absent in older artifacts, which all ran with 1.
    pub engine_shards: usize,
    /// Canonical name of the kernel scheduling policy the run executed
    /// under (see [`suprenum::SchedulerKind::name`]). Unlike engine
    /// sharding this *does* change simulated behaviour, so `harness compare`
    /// refuses to diff records across policies. Additive schema-4
    /// field — absent in older artifacts, which all ran round-robin
    /// (`"rr"`).
    pub scheduler: String,
    /// Events in the merged monitoring trace.
    pub trace_events: usize,
    /// FNV-1a digest over the merged trace and the run outcome,
    /// hex-encoded. Bit-identical across worker counts and across runs
    /// of the same configuration.
    pub trace_digest: String,
    /// The digest's state after the first 2^10, 2^11, … trace events
    /// (see [`trace_digest_prefixes`]), so a moved digest can be
    /// located. Additive schema-4 field — absent in older artifacts.
    pub digest_prefixes: Vec<String>,
    /// Work units the application completed (ray jobs sent, Jacobi
    /// strips relaxed, …) — the workload defines the unit.
    pub work_units: u64,
    /// Mean worker utilization over the productive phase, percent.
    /// `None` when the run truncated or the workload has no notion of
    /// utilization.
    pub utilization_percent: Option<f64>,
    /// Mean worker utilization over the steady (pipeline-full) phase,
    /// where the workload distinguishes one.
    pub steady_percent: Option<f64>,
    /// The paper's number for this row, where it has one.
    pub paper_percent: Option<f64>,
    /// Fraction of CPU time stolen by instrumentation.
    pub intrusion_ratio: f64,
    /// The program version, where the row corresponds to one.
    pub version: Option<Version>,
}

/// The result of executing a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The sweep's name.
    pub sweep: String,
    /// Worker threads used.
    pub workers: usize,
    /// One record per spec, in spec order.
    pub records: Vec<RunRecord>,
}

/// One run's comparison-relevant fields, read back from a written
/// artifact (sweep or bench — bench baselines embed sweep reports).
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactRun {
    /// The run's row label (unique within an artifact).
    pub label: String,
    /// The run's trace digest — must match across artifacts of the same
    /// configuration, or the comparison is meaningless.
    pub trace_digest: String,
    /// The digest's prefix states (see [`trace_digest_prefixes`]).
    /// Additive schema-4 field — `None` when the artifact predates it.
    pub digest_prefixes: Option<Vec<String>>,
    /// Engine throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Engine wall time, milliseconds.
    pub wall_ms: f64,
    /// Pre-flight finding counts (errors, warnings, infos). Additive
    /// schema-4 fields — zero when the artifact predates them — used
    /// to flag analysis drift between artifacts of the same
    /// configuration.
    pub analysis_counts: (u64, u64, u64),
    /// Kernel scheduling policy the run executed under. Additive
    /// schema-4 field — artifacts written before it exist all ran
    /// round-robin, so absence reads back as `"rr"`.
    pub scheduler: String,
}

/// Reads the per-run rows back out of an artifact's JSON text: the
/// root's `runs` in a sweep artifact, every `sweeps[i].runs` in a bench
/// baseline.
///
/// `label`, `trace_digest`, `events_per_sec` and `wall_ms` are required.
/// Absent additive schema-4 fields read as their documented defaults
/// (`analysis_*` as 0, `scheduler` as `"rr"`, `digest_prefixes` as
/// `None`), and fields the reader does not use (such as the retired
/// `shards`) are ignored.
///
/// # Errors
///
/// Returns a message naming the problem when the text is not JSON (with
/// its line and column), holds no run, or a run lacks a required field
/// or carries one of the wrong type.
pub fn parse_artifact_runs(json_text: &str) -> Result<Vec<ArtifactRun>, String> {
    artifact_runs(&json::parse(json_text).map_err(|e| e.to_string())?)
}

fn artifact_runs(artifact: &Value) -> Result<Vec<ArtifactRun>, String> {
    let sweeps = match artifact.get("sweeps") {
        Some(sweeps) => sweeps
            .as_array()
            .ok_or("artifact's sweeps is not an array")?,
        None => std::slice::from_ref(artifact),
    };
    let mut runs = Vec::new();
    for sweep in sweeps {
        let list = sweep.get("runs").ok_or("artifact has no runs")?;
        for run in list.as_array().ok_or("artifact's runs is not an array")? {
            runs.push(artifact_run(run)?);
        }
    }
    if runs.is_empty() {
        return Err("artifact has no runs".to_owned());
    }
    Ok(runs)
}

fn artifact_run(run: &Value) -> Result<ArtifactRun, String> {
    let label = run
        .get("label")
        .ok_or("a run has no label")?
        .as_str()
        .ok_or("a run's label is not a string")?;
    let malformed = |key: &str, v: &Value| format!("run '{label}' has a malformed {key} ({v})");
    let text = |key: &str, v: &Value| {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| malformed(key, v))
    };
    let field = |key: &str| {
        run.get(key)
            .ok_or_else(|| format!("run '{label}' has no {key}"))
    };
    let float = |key: &str| field(key).and_then(|v| v.as_f64().ok_or_else(|| malformed(key, v)));
    // Additive schema-4 fields: absence reads as the documented default.
    let count = |key: &str| {
        run.get(key)
            .map_or(Ok(0), |v| v.as_u64().ok_or_else(|| malformed(key, v)))
    };
    let digest_prefixes = run
        .get("digest_prefixes")
        .map(|v| {
            v.as_array()
                .ok_or_else(|| malformed("digest_prefixes", v))?
                .iter()
                .map(|p| text("digest_prefixes", p))
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()?;
    Ok(ArtifactRun {
        label: label.to_owned(),
        trace_digest: field("trace_digest").and_then(|v| text("trace_digest", v))?,
        digest_prefixes,
        events_per_sec: float("events_per_sec")?,
        wall_ms: float("wall_ms")?,
        analysis_counts: (
            count("analysis_errors")?,
            count("analysis_warnings")?,
            count("analysis_infos")?,
        ),
        scheduler: run
            .get("scheduler")
            .map_or(Ok("rr".to_owned()), |v| text("scheduler", v))?,
    })
}

/// Compares two artifacts run by run: digests must match (same
/// simulated behaviour), then throughput is contrasted.
///
/// Both artifacts must carry the current [`SCHEMA_VERSION`] — fields
/// changed meaning across schemas, so cross-schema comparison is
/// refused outright rather than producing silently wrong deltas.
///
/// # Errors
///
/// One message per problem: schema mismatch, an unreadable artifact
/// (see [`parse_artifact_runs`]), run present in only one artifact, or
/// digest divergence.
pub fn compare_artifacts(baseline: &str, candidate: &str) -> Result<String, Vec<String>> {
    let read = |text: &str, what: &str| {
        let artifact = json::parse(text).map_err(|e| format!("{what}: {e}"))?;
        let found = artifact_schema_version(&artifact).map_err(|e| format!("{what}: {e}"))?;
        if found != SCHEMA_VERSION {
            // Fields changed meaning across schemas (schema 4 made
            // `wall_ms` engine-only, for instance): refuse, don't guess.
            return Err(format!(
                "{what} was written at schema_version {found}, but this harness writes \
                 schema_version {SCHEMA_VERSION} — comparing across schemas is meaningless \
                 (fields were added or changed meaning); regenerate the artifact with the \
                 current binary"
            ));
        }
        artifact_runs(&artifact).map_err(|e| format!("{what}: {e}"))
    };
    let (base_runs, cand_runs) = match (read(baseline, "baseline"), read(candidate, "candidate")) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => return Err([b.err(), c.err()].into_iter().flatten().collect()),
    };
    let mut errors = Vec::new();
    let mut rows = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        rows,
        "{:<14} {:>14} {:>14} {:>8}",
        "run", "base ev/s", "cand ev/s", "speedup"
    );
    // Aggregates over the digest-matched pairs: total throughput is
    // events over wall time on each side (events reconstructed as
    // ev/s × wall), the summary speedup is the geometric mean of the
    // per-run ratios so no single long run dominates.
    let mut log_speedup_sum = 0.0f64;
    let mut matched = 0u32;
    // Analysis drift is advisory, not an error: the digests already
    // prove the simulated behaviour matched, so a changed finding count
    // means the *analyzer* changed between artifacts (a proof appeared,
    // a lint was added) — worth a line, not a refusal.
    let mut analysis_drift: Vec<String> = Vec::new();
    let (mut base_events, mut base_wall_ms) = (0.0f64, 0.0f64);
    let (mut cand_events, mut cand_wall_ms) = (0.0f64, 0.0f64);
    for b in &base_runs {
        let Some(c) = cand_runs.iter().find(|c| c.label == b.label) else {
            errors.push(format!("run '{}' is missing from the candidate", b.label));
            continue;
        };
        if b.scheduler != c.scheduler {
            // Like cross-schema comparisons: different scheduling
            // policies simulate different behaviour by construction, so
            // a throughput delta between them is meaningless.
            errors.push(format!(
                "run '{}' executed under scheduler '{}' but the baseline ran '{}' — \
                 cross-scheduler comparison is meaningless; re-run both sides under \
                 the same --scheduler",
                b.label, c.scheduler, b.scheduler
            ));
            continue;
        }
        if b.trace_digest != c.trace_digest {
            errors.push(format!(
                "run '{}' digest {} != baseline {} — different simulated behaviour, \
                 throughput comparison is invalid{}",
                b.label,
                c.trace_digest,
                b.trace_digest,
                divergence(b.digest_prefixes.as_deref(), c.digest_prefixes.as_deref())
            ));
            continue;
        }
        if b.analysis_counts != c.analysis_counts {
            let fmt = |(e, w, i): (u64, u64, u64)| format!("{e} error(s)/{w} warning(s)/{i} info");
            analysis_drift.push(format!(
                "run '{}': analysis findings drifted, {} -> {}",
                b.label,
                fmt(b.analysis_counts),
                fmt(c.analysis_counts)
            ));
        }
        let speedup = if b.events_per_sec > 0.0 {
            c.events_per_sec / b.events_per_sec
        } else {
            0.0
        };
        if speedup > 0.0 {
            log_speedup_sum += speedup.ln();
            matched += 1;
        }
        base_events += b.events_per_sec * (b.wall_ms / 1e3);
        base_wall_ms += b.wall_ms;
        cand_events += c.events_per_sec * (c.wall_ms / 1e3);
        cand_wall_ms += c.wall_ms;
        let _ = writeln!(
            rows,
            "{:<14} {:>14.0} {:>14.0} {:>7.2}x",
            b.label, b.events_per_sec, c.events_per_sec, speedup
        );
    }
    if matched > 0 {
        let geo_mean = (log_speedup_sum / f64::from(matched)).exp();
        let total = |events: f64, wall_ms: f64| {
            if wall_ms > 0.0 {
                events / (wall_ms / 1e3)
            } else {
                0.0
            }
        };
        let _ = writeln!(
            rows,
            "{:<14} {:>14.0} {:>14.0} {:>7.2}x  (geometric mean; totals are events/s)",
            "aggregate",
            total(base_events, base_wall_ms),
            total(cand_events, cand_wall_ms),
            geo_mean
        );
    }
    for c in &cand_runs {
        if !base_runs.iter().any(|b| b.label == c.label) {
            errors.push(format!("run '{}' is missing from the baseline", c.label));
        }
    }
    if !analysis_drift.is_empty() {
        rows.push('\n');
        for note in &analysis_drift {
            let _ = writeln!(rows, "note: {note}");
        }
    }
    if errors.is_empty() {
        Ok(rows)
    } else {
        Err(errors)
    }
}

/// Where two runs' digests part, from their prefix states: the last
/// power of two of events both share, as a clause for the refusal.
/// Empty when either artifact predates the prefixes.
fn divergence(base: Option<&[String]>, cand: Option<&[String]>) -> String {
    let (Some(base), Some(cand)) = (base, cand) else {
        return String::new();
    };
    let shared = base.iter().zip(cand).take_while(|(b, c)| b == c).count();
    // Every prefix matches and neither trace reaches a further power of
    // two: the difference is in the events after the last prefix, or in
    // the outcome folded after the events.
    let all_shared = shared == base.len() && shared == cand.len();
    match (shared.checked_sub(1), all_shared) {
        (None, false) => format!("; diverged within the first 2^{FIRST_PREFIX_LOG2} events"),
        (None, true) => format!(
            "; the difference is in the first 2^{FIRST_PREFIX_LOG2} events or in the run's outcome"
        ),
        (Some(last), false) => {
            let k = FIRST_PREFIX_LOG2 as usize + last;
            format!("; same first 2^{k} events, diverged before 2^{}", k + 1)
        }
        (Some(last), true) => {
            let k = FIRST_PREFIX_LOG2 as usize + last;
            format!(
                "; same first 2^{k} events (the difference is after them or in the run's outcome)"
            )
        }
    }
}

/// The digest of a run: every merged trace event plus the outcome.
/// Wall-clock time and host-side derived floats are deliberately
/// excluded — the digest must depend only on simulated behaviour.
///
/// Public so differential tests can digest traces produced outside the
/// harness (e.g. straight from `pipeline::run_workload`) and compare
/// them against committed goldens.
pub fn trace_digest(trace: &Trace, end_ns: u64, reason: RunEnd, events: u64) -> String {
    format!(
        "{:016x}",
        fold_digest(trace, end_ns, reason, events, |_| {})
    )
}

/// The log2 of the first prefix [`trace_digest_prefixes`] keeps.
const FIRST_PREFIX_LOG2: u32 = 10;

/// [`trace_digest`] and, from the same pass, the digest's state after
/// the first 2^10, 2^11, … trace events, for every such power of two
/// the trace reaches, hex-encoded like the digest. Two runs share the
/// prefixes up to the last power of two at or before their first
/// differing event.
pub fn trace_digest_prefixes(
    trace: &Trace,
    end_ns: u64,
    reason: RunEnd,
    events: u64,
) -> (String, Vec<String>) {
    let mut prefixes = Vec::new();
    let digest = fold_digest(trace, end_ns, reason, events, |state| {
        prefixes.push(format!("{state:016x}"));
    });
    (format!("{digest:016x}"), prefixes)
}

/// Folds a run into its digest, handing `prefix` the state after each
/// power-of-two count of events from 2^10 on.
fn fold_digest(
    trace: &Trace,
    end_ns: u64,
    reason: RunEnd,
    events: u64,
    mut prefix: impl FnMut(u64),
) -> u64 {
    let mut h = Fnv64::new();
    for (i, e) in trace.events().iter().enumerate() {
        h.write_u64(e.ts_ns);
        h.write_u64(e.channel as u64);
        h.write_u64(u64::from(e.token.value()));
        h.write_u64(u64::from(e.param.value()));
        let folded = i + 1;
        if folded >> FIRST_PREFIX_LOG2 != 0 && folded.is_power_of_two() {
            prefix(h.finish());
        }
    }
    h.write_u64(end_ns);
    h.write_u64(reason as u64);
    h.write_u64(events);
    h.finish()
}

/// Executes one spec on the calling thread and derives its record.
/// The workload folds its own metrics (work units, utilization) inside
/// the job — the harness records them without knowing the workload.
pub fn execute(spec: &RunSpec) -> RunRecord {
    let started = Instant::now();
    let run = spec.job.run();
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let analysis_ms = run.analysis.as_secs_f64() * 1e3;
    // Engine time: the pre-flight analyzer runs once per configuration
    // regardless of scene scale, so folding it into throughput would
    // punish short runs and mask engine regressions.
    let wall_ms = (total_ms - analysis_ms).max(0.0);
    let (trace_digest, digest_prefixes) = trace_digest_prefixes(
        &run.trace,
        run.outcome.end.as_nanos(),
        run.outcome.reason,
        run.outcome.events,
    );

    RunRecord {
        label: spec.label.clone(),
        workload: spec.job.workload_id().to_owned(),
        fingerprint: spec.job.fingerprint(),
        seed: spec.job.seed(),
        run_end: run.outcome.reason,
        truncated: run.outcome.truncated(),
        sim_end_ns: run.outcome.end.as_nanos(),
        wall_ms,
        analysis_ms,
        analysis_errors: run.preflight.as_ref().map_or(0, |p| p.errors as u64),
        analysis_warnings: run.preflight.as_ref().map_or(0, |p| p.warnings as u64),
        analysis_infos: run.preflight.as_ref().map_or(0, |p| p.infos as u64),
        events_processed: run.outcome.events,
        events_per_sec: if wall_ms > 0.0 {
            run.outcome.events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        engine_shards: run.engine_shards,
        scheduler: run.scheduler.name(),
        trace_events: run.trace.len(),
        trace_digest,
        digest_prefixes,
        work_units: run.metrics.work_units,
        utilization_percent: run.metrics.utilization_percent,
        steady_percent: run.metrics.steady_percent,
        paper_percent: spec.paper_percent,
        intrusion_ratio: run.intrusion_ratio,
        version: spec.version,
    }
}

/// A sensible worker count for this host: the available parallelism,
/// floor 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Finished runs of a sweep, and their pre-flight reports until the
/// runs before them have printed theirs.
struct Finished {
    records: Vec<Option<RunRecord>>,
    reports: Vec<Option<String>>,
    /// The first run whose reports are not printed yet.
    next: usize,
}

/// Runs every spec of `sweep` across `workers` OS threads and collects
/// the records in spec order.
///
/// Each simulation is single-threaded and seed-deterministic; the pool
/// only decides *which thread* hosts a run, never its event order, so
/// the records (and in particular their trace digests) are bit-identical
/// for any `workers >= 1`. The runs' pre-flight reports go to stderr in
/// spec order too (see [`pipeline::hold_reports`]), so stderr is
/// byte-identical for any worker count; a report that refuses its run
/// prints at once.
///
/// # Panics
///
/// Panics if `workers` is zero, or if a run panics (a simulation
/// protocol violation — see `raysim::diag` — or a refused pre-flight),
/// once the other workers have finished; the reports of every run that
/// ran, the panicking one included, still print in spec order.
pub fn run_sweep(sweep: &Sweep, workers: usize) -> SweepReport {
    assert!(workers > 0, "sweep needs at least one worker thread");
    let workers = workers.min(sweep.runs.len()).max(1);

    let jobs: Mutex<VecDeque<(usize, &RunSpec)>> =
        Mutex::new(sweep.runs.iter().enumerate().collect());
    let finished = Mutex::new(Finished {
        records: vec![None; sweep.runs.len()],
        reports: vec![None; sweep.runs.len()],
        next: 0,
    });

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = jobs.lock().expect("job queue poisoned").pop_front();
                let Some((idx, spec)) = job else { break };
                let (run, reports) = pipeline::hold_reports(|| execute(spec));
                let mut guard = finished.lock().expect("result store poisoned");
                let done = &mut *guard;
                done.reports[idx] = Some(reports);
                while let Some(reports) = done.reports.get_mut(done.next).and_then(Option::take) {
                    eprint!("{reports}");
                    done.next += 1;
                }
                match run {
                    Ok(record) => done.records[idx] = Some(record),
                    // Its reports print in turn; the panic goes on.
                    Err(panic) => {
                        drop(guard);
                        std::panic::resume_unwind(panic);
                    }
                }
            });
        }
    });

    let records = finished
        .into_inner()
        .expect("result store poisoned")
        .records
        .into_iter()
        .map(|r| r.expect("every job executed"))
        .collect();

    SweepReport {
        sweep: sweep.name.clone(),
        workers,
        records,
    }
}

impl SweepReport {
    /// The records of runs that did not complete.
    pub fn truncated_runs(&self) -> Vec<&RunRecord> {
        self.records.iter().filter(|r| r.truncated).collect()
    }

    /// Process exit code for a CLI wrapping this report: `0` when every
    /// run completed, `2` when any run was truncated.
    pub fn exit_code(&self) -> i32 {
        if self.truncated_runs().is_empty() {
            0
        } else {
            2
        }
    }

    /// Total kernel events processed across all runs.
    pub fn total_events(&self) -> u64 {
        self.records.iter().map(|r| r.events_processed).sum()
    }

    /// Total wall-clock milliseconds across all runs (summed over runs,
    /// so it is worker-count independent — unlike the sweep's elapsed
    /// time).
    pub fn total_wall_ms(&self) -> f64 {
        self.records.iter().map(|r| r.wall_ms).sum()
    }

    /// Aggregate event-loop throughput of the whole sweep: total events
    /// over total per-run wall time. `None` when nothing was measured.
    pub fn aggregate_events_per_sec(&self) -> Option<f64> {
        let wall = self.total_wall_ms();
        (wall > 0.0).then(|| self.total_events() as f64 / (wall / 1e3))
    }

    /// This report as a JSON value: the sweep artifact, and one entry
    /// of a bench baseline's `sweeps`.
    fn to_value(&self) -> Value {
        let runs = self
            .records
            .iter()
            .map(|r| {
                Value::object([
                    ("label", r.label.as_str().into()),
                    ("workload", r.workload.as_str().into()),
                    ("fingerprint", r.fingerprint.as_str().into()),
                    ("seed", r.seed.into()),
                    ("run_end", r.run_end.to_string().into()),
                    ("truncated", r.truncated.into()),
                    ("sim_end_ns", r.sim_end_ns.into()),
                    ("wall_ms", r.wall_ms.into()),
                    ("analysis_ms", r.analysis_ms.into()),
                    ("analysis_errors", r.analysis_errors.into()),
                    ("analysis_warnings", r.analysis_warnings.into()),
                    ("analysis_infos", r.analysis_infos.into()),
                    ("events_processed", r.events_processed.into()),
                    ("events_per_sec", r.events_per_sec.into()),
                    ("engine_shards", r.engine_shards.into()),
                    ("scheduler", r.scheduler.as_str().into()),
                    ("trace_events", r.trace_events.into()),
                    ("trace_digest", r.trace_digest.as_str().into()),
                    (
                        "digest_prefixes",
                        r.digest_prefixes.iter().map(String::as_str).collect(),
                    ),
                    ("work_units", r.work_units.into()),
                    ("utilization_percent", r.utilization_percent.into()),
                    ("steady_percent", r.steady_percent.into()),
                    ("paper_percent", r.paper_percent.into()),
                    ("intrusion_ratio", r.intrusion_ratio.into()),
                    ("version", r.version.map(|v| v as u64 + 1).into()),
                ])
            })
            .collect();

        // Schema 4: run objects gained "analysis_ms", and
        // "wall_ms"/"events_per_sec" became engine-only (pre-flight
        // analysis time excluded). "engine_shards", the
        // "analysis_errors"/"analysis_warnings"/"analysis_infos"
        // per-severity finding counts and "digest_prefixes" are
        // additive schema-4 fields (absent reads as 1 / 0 / 0 / 0 /
        // empty); the monitor-shard count
        // "shards" was written until the monitor plane lost its threads
        // and is ignored on read. Schema 3: run objects gained
        // "workload" and renamed "jobs_sent" to the workload-agnostic
        // "work_units".
        Value::object([
            ("schema_version", SCHEMA_VERSION.into()),
            ("sweep", self.sweep.as_str().into()),
            ("workers", self.workers.into()),
            ("all_completed", self.truncated_runs().is_empty().into()),
            ("total_events", self.total_events().into()),
            ("total_wall_ms", self.total_wall_ms().into()),
            (
                "aggregate_events_per_sec",
                self.aggregate_events_per_sec().into(),
            ),
            ("runs", runs),
        ])
    }

    /// Renders the whole report as a JSON artifact.
    pub fn to_json(&self) -> String {
        format!("{}\n", self.to_value())
    }

    /// Renders the summary table shown after a sweep.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep '{}' — {} runs on {} worker(s)",
            self.sweep,
            self.records.len(),
            self.workers
        );
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9} {:>12} {:>10} {:>8} {:>7} {:>7} {:>6}  {:<16}",
            "run",
            "workload",
            "end",
            "sim end",
            "events",
            "work",
            "util%",
            "steady%",
            "paper%",
            "digest"
        );
        for r in &self.records {
            let fmt_pct = |v: Option<f64>, digits: usize| {
                v.map_or_else(|| "-".to_owned(), |p| format!("{p:.digits$}"))
            };
            let _ = writeln!(
                out,
                "{:<14} {:>9} {:>9} {:>11.3}s {:>10} {:>8} {:>7} {:>7} {:>6}  {:<16}",
                r.label,
                r.workload,
                r.run_end.to_string(),
                r.sim_end_ns as f64 / 1e9,
                r.events_processed,
                r.work_units,
                fmt_pct(r.utilization_percent, 1),
                fmt_pct(r.steady_percent, 1),
                fmt_pct(r.paper_percent, 0),
                r.trace_digest,
            );
        }
        if let Some(throughput) = self.aggregate_events_per_sec() {
            let _ = writeln!(
                out,
                "aggregate: {} events in {:.3}s wall — {:.0} events/s",
                self.total_events(),
                self.total_wall_ms() / 1e3,
                throughput
            );
        }
        for r in self.truncated_runs() {
            let _ = writeln!(
                out,
                "TRUNCATED: '{}' ended by {} at {:.3}s — statistics above describe an \
                 interrupted run",
                r.label,
                r.run_end,
                r.sim_end_ns as f64 / 1e9
            );
        }
        out
    }

    /// One `label<space>digest` line per run — the golden-file format
    /// used by the CI determinism check.
    pub fn digest_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.label);
            out.push(' ');
            out.push_str(&r.trace_digest);
            out.push('\n');
        }
        out
    }

    /// Compares this report's digests against golden `label digest`
    /// lines (as produced by [`SweepReport::digest_lines`]).
    ///
    /// # Errors
    ///
    /// Returns one message per mismatching, missing, or extra line.
    pub fn check_digests(&self, golden: &str) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let golden_lines: Vec<(&str, &str)> = golden
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| l.split_once(' '))
            .collect();
        for r in &self.records {
            match golden_lines.iter().find(|(label, _)| *label == r.label) {
                None => errors.push(format!("run '{}' has no golden digest", r.label)),
                Some((_, expected)) if *expected != r.trace_digest => errors.push(format!(
                    "run '{}' digest {} != golden {expected} — nondeterminism or an \
                     unacknowledged behaviour change",
                    r.label, r.trace_digest
                )),
                Some(_) => {}
            }
        }
        for (label, _) in &golden_lines {
            if !self.records.iter().any(|r| r.label == *label) {
                errors.push(format!("golden digest '{label}' has no matching run"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

/// A benchmark baseline: several sweeps measured together, written as
/// one `BENCH_<date>.json` artifact so event-loop throughput can be
/// compared across commits.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// UTC date of the measurement (`YYYY-MM-DD`), also the artifact
    /// stem.
    pub date: String,
    /// One report per benched sweep, in execution order.
    pub reports: Vec<SweepReport>,
}

impl BenchReport {
    /// All records across all benched sweeps.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.reports.iter().flat_map(|r| r.records.iter())
    }

    /// Process exit code: `0` all runs completed, `2` any truncated.
    pub fn exit_code(&self) -> i32 {
        self.reports
            .iter()
            .map(SweepReport::exit_code)
            .max()
            .unwrap_or(0)
    }

    /// Checks every benched run's digest against golden `label digest`
    /// lines (all sweeps pooled — labels are unique across sweeps).
    ///
    /// # Errors
    ///
    /// Returns one message per mismatching, missing, or extra line.
    pub fn check_digests(&self, golden: &str) -> Result<(), Vec<String>> {
        let pooled = SweepReport {
            sweep: "bench".to_owned(),
            workers: 0,
            records: self.records().cloned().collect(),
        };
        pooled.check_digests(golden)
    }

    /// Renders the baseline as a JSON artifact: per-sweep reports (same
    /// schema as sweep artifacts) plus the date.
    pub fn to_json(&self) -> String {
        let root = Value::object([
            ("schema_version", SCHEMA_VERSION.into()),
            ("kind", "bench".into()),
            ("date", self.date.as_str().into()),
            (
                "sweeps",
                self.reports.iter().map(SweepReport::to_value).collect(),
            ),
        ]);
        format!("{root}\n")
    }
}

/// Today's UTC date as `YYYY-MM-DD`, derived from the system clock (no
/// external dependencies — civil-from-days per Howard Hinnant's
/// algorithm).
pub fn utc_date_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::time::SimTime;
    use pipeline::jacobi::JacobiConfig;
    use pipeline::PipelineConfig;
    use raysim::config::{AppConfig, SceneKind};

    fn tiny_spec(label: &str, seed: u64, horizon_ms: u64) -> RunSpec {
        let mut app = AppConfig::version(Version::V4);
        app.servants = 2;
        app.scene = SceneKind::Quickstart;
        app.width = 8;
        app.height = 8;
        app.bundle_size = 8;
        app.pixel_queue_capacity = 64;
        app.write_chunk = 8;
        let mut cfg = PipelineConfig::new(app.clone());
        cfg.seed = seed;
        cfg.horizon = SimTime::from_millis(horizon_ms);
        RunSpec {
            label: label.to_owned(),
            job: Job::new(cfg),
            version: Some(Version::V4),
            app: Some(app),
            paper_percent: None,
            faults: None,
        }
    }

    /// Set in the child process of [`a_panicking_run_keeps_every_report`].
    const PANIC_CHILD: &str = "HARNESS_TEST_PANICKING_SWEEP";

    fn warns(cfg: &PipelineConfig<JacobiConfig>) -> pipeline::PreflightSummary {
        pipeline::PreflightSummary {
            warnings: 1,
            rendered: format!("warning[TEST]: {} iterations\n", cfg.workload.iterations),
            ..pipeline::PreflightSummary::default()
        }
    }

    /// A run that panics after its pre-flight keeps its held report, and
    /// the run after it keeps its own. The sweep runs in a child process,
    /// whose stderr is the evidence: its first run warns and then panics
    /// (zero iterations fail validation after the pre-flight), its second
    /// warns and completes on the other worker.
    #[test]
    fn a_panicking_run_keeps_every_report() {
        if std::env::var_os(PANIC_CHILD).is_some() {
            let spec = |iterations| {
                let mut cfg = PipelineConfig::new(JacobiConfig {
                    workers: 2,
                    cells_per_worker: 8,
                    iterations: 5,
                    ..JacobiConfig::default()
                });
                cfg.workload.iterations = iterations;
                cfg.preflight = pipeline::Preflight::warn(warns);
                RunSpec {
                    label: format!("i{iterations}"),
                    job: Job::new(cfg),
                    version: None,
                    app: None,
                    paper_percent: None,
                    faults: None,
                }
            };
            let runs = vec![spec(0), spec(5)];
            run_sweep(
                &Sweep {
                    name: "panics".into(),
                    runs,
                },
                2,
            );
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::a_panicking_run_keeps_every_report"])
            .arg("--nocapture")
            .env(PANIC_CHILD, "1")
            .output()
            .expect("the test binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "the sweep re-raises the panic: {stderr}"
        );
        assert!(stderr.contains("iterations must be at least 1"), "{stderr}");
        let first = stderr.find("warning[TEST]: 0 iterations");
        let second = stderr.find("warning[TEST]: 5 iterations");
        assert!(
            matches!((first, second), (Some(a), Some(b)) if a < b),
            "both reports, in spec order: {stderr}"
        );
    }

    #[test]
    fn completed_run_yields_full_record() {
        let rec = execute(&tiny_spec("ok", 7, 600_000));
        assert_eq!(rec.workload, "raytracer");
        assert_eq!(rec.run_end, RunEnd::Completed);
        assert!(!rec.truncated);
        assert!(rec.events_processed > 0);
        assert!(rec.trace_events > 0);
        assert!(rec.work_units > 0);
        assert!(rec.utilization_percent.is_some());
        assert_eq!(rec.trace_digest.len(), 16);
    }

    #[test]
    fn one_sweep_mixes_workloads() {
        // The whole point of the type-erased job queue: ray-tracer and
        // Jacobi specs side by side in one sweep, each folding its own
        // metrics.
        let mut jacobi = PipelineConfig::new(JacobiConfig {
            workers: 2,
            cells_per_worker: 8,
            iterations: 5,
            ..JacobiConfig::default()
        });
        jacobi.seed = 7;
        let sweep = Sweep {
            name: "mixed".into(),
            runs: vec![
                tiny_spec("rays", 7, 600_000),
                RunSpec {
                    label: "strips".into(),
                    job: Job::new(jacobi),
                    version: None,
                    app: None,
                    paper_percent: None,
                    faults: None,
                },
            ],
        };
        let report = run_sweep(&sweep, 2);
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.records[0].workload, "raytracer");
        assert_eq!(report.records[1].workload, "jacobi");
        assert!(report.records.iter().all(|r| r.work_units > 0));
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"jacobi\""));
        assert!(json.contains("\"work_units\""));
    }

    #[test]
    fn truncated_run_is_marked_and_poisons_exit_code() {
        // A 1 ms horizon cannot even finish initialization.
        let sweep = Sweep {
            name: "trunc".into(),
            runs: vec![tiny_spec("cut", 7, 1)],
        };
        let report = run_sweep(&sweep, 1);
        let rec = &report.records[0];
        assert!(rec.truncated);
        assert_eq!(rec.run_end, RunEnd::Horizon);
        assert_eq!(rec.utilization_percent, None);
        assert_eq!(report.exit_code(), 2);
        assert!(report.to_json().contains("\"truncated\": true"));
        assert!(report.render_table().contains("TRUNCATED"));
    }

    #[test]
    fn worker_count_does_not_change_digests() {
        let sweep = Sweep {
            name: "det".into(),
            runs: (0..4)
                .map(|i| tiny_spec(&format!("s{i}"), 100 + i, 600_000))
                .collect(),
        };
        let serial = run_sweep(&sweep, 1);
        let parallel = run_sweep(&sweep, 4);
        let digests = |r: &SweepReport| {
            r.records
                .iter()
                .map(|x| x.trace_digest.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&serial), digests(&parallel));
        assert!(serial.check_digests(&parallel.digest_lines()).is_ok());
    }

    #[test]
    fn digest_check_reports_mismatches() {
        let report = run_sweep(
            &Sweep {
                name: "g".into(),
                runs: vec![tiny_spec("a", 1, 600_000)],
            },
            1,
        );
        let errs = report
            .check_digests("a 0000000000000000\nghost 1111111111111111\n")
            .unwrap_err();
        assert_eq!(errs.len(), 2);
        assert!(errs[0].contains("digest"));
        assert!(errs[1].contains("ghost"));
    }

    #[test]
    fn record_separates_engine_and_analysis_time() {
        let rec = execute(&tiny_spec("t", 7, 600_000));
        assert!(rec.analysis_ms >= 0.0);
        assert!(rec.wall_ms >= 0.0);
        assert!(rec.events_per_sec > 0.0);
        let report = run_sweep(
            &Sweep {
                name: "t".into(),
                runs: vec![tiny_spec("t", 7, 600_000)],
            },
            1,
        );
        let json = report.to_json();
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"analysis_ms\""));
        assert!(json.contains("\"engine_shards\": 1"));
    }

    #[test]
    fn artifact_roundtrip_and_self_compare() {
        let report = run_sweep(
            &Sweep {
                name: "rt".into(),
                runs: vec![tiny_spec("a", 1, 600_000), tiny_spec("b", 2, 600_000)],
            },
            1,
        );
        let json = report.to_json();
        let runs = parse_artifact_runs(&json).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "a");
        assert_eq!(runs[0].trace_digest, report.records[0].trace_digest);
        assert!(runs[0].events_per_sec > 0.0);
        let table = compare_artifacts(&json, &json).unwrap();
        assert!(table.contains("1.00x"), "{table}");
    }

    #[test]
    fn compare_aggregate_row_summarizes_matched_runs() {
        // Hand-written schema-4 fixtures with round numbers so the
        // aggregate arithmetic is checkable by eye: both sides carry
        // 2 000 events per run (ev/s × wall agrees), run 'a' speeds up
        // 2×, run 'b' not at all.
        let artifact = |a_evs: f64, a_wall: f64, b_evs: f64, b_wall: f64| {
            format!(
                "{{\"schema_version\": {SCHEMA_VERSION}, \"runs\": [\n\
                 {{\"label\": \"a\", \"trace_digest\": \"aaaaaaaaaaaaaaaa\",\n\
                  \"events_per_sec\": {a_evs}, \"wall_ms\": {a_wall}}},\n\
                 {{\"label\": \"b\", \"trace_digest\": \"bbbbbbbbbbbbbbbb\",\n\
                  \"events_per_sec\": {b_evs}, \"wall_ms\": {b_wall}}}\n]}}\n"
            )
        };
        let baseline = artifact(1000.0, 2000.0, 4000.0, 500.0);
        let candidate = artifact(2000.0, 1000.0, 4000.0, 500.0);
        let table = compare_artifacts(&baseline, &candidate).unwrap();
        let aggregate = table
            .lines()
            .find(|l| l.starts_with("aggregate"))
            .expect("aggregate row");
        // Totals: 4 000 events over 2.5 s vs over 1.5 s; the summary
        // speedup is the geometric mean √(2.0 × 1.0) ≈ 1.41, not the
        // arithmetic mean 1.5.
        assert!(aggregate.contains("1600"), "{aggregate}");
        assert!(aggregate.contains("2667"), "{aggregate}");
        assert!(aggregate.contains("1.41x"), "{aggregate}");
        assert!(aggregate.contains("geometric mean"), "{aggregate}");
    }

    /// A schema-4 sweep artifact with one run per `(label, digest)`
    /// pair, in the writer's layout. Each run's last field is
    /// `events_per_sec`, so deleting any other field's line keeps the
    /// text well-formed.
    fn fixture(runs: &[(&str, &str)]) -> String {
        let runs = runs
            .iter()
            .map(|&(label, digest)| {
                Value::object([
                    ("label", label.into()),
                    ("trace_digest", digest.into()),
                    ("wall_ms", 2.5.into()),
                    ("events_per_sec", 1000u64.into()),
                ])
            })
            .collect();
        let root = Value::object([("schema_version", SCHEMA_VERSION.into()), ("runs", runs)]);
        format!("{root}\n")
    }

    #[test]
    fn compare_reads_minified_artifacts() {
        // Whitespace is not structure: a minified pair reads like the
        // writer's layout, so it reaches the digest check (and fails it
        // here) instead of passing as an empty comparison.
        let minify = |text: String| text.split_whitespace().collect::<String>();
        let a = minify(fixture(&[("a", "aaaaaaaaaaaaaaaa")]));
        let b = minify(fixture(&[("a", "bbbbbbbbbbbbbbbb")]));
        assert!(!a.contains('\n'), "{a}");
        assert!(compare_artifacts(&a, &a).unwrap().contains("1.00x"));
        let errs = compare_artifacts(&a, &b).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].starts_with("run 'a' digest bbbbbbbbbbbbbbbb != baseline aaaaaaaaaaaaaaaa"),
            "{errs:?}"
        );
    }

    /// One changed event moves exactly the prefixes that hold it: the
    /// state after 2^k events moves when the event's index is below 2^k.
    #[test]
    fn one_changed_event_moves_the_prefixes_from_its_power_of_two_on() {
        use simple::Event;
        let events: Vec<Event> = (0..5_000u64)
            .map(|i| Event::new(i, (i % 3) as usize, 1, i as u32))
            .collect();
        let digest = |events: &[Event]| {
            let trace = Trace::from_events(events.to_vec()).unwrap();
            trace_digest_prefixes(&trace, 9, RunEnd::Completed, 7)
        };
        let (base, base_prefixes) = digest(&events);
        let trace = Trace::from_events(events.clone()).unwrap();
        assert_eq!(base, trace_digest(&trace, 9, RunEnd::Completed, 7));
        assert_eq!(base_prefixes.len(), 3, "after 2^10, 2^11 and 2^12 events");
        // The outcome is folded after the events: it moves the digest
        // and no prefix.
        let trace = Trace::from_events(events.clone()).unwrap();
        let (outcome, prefixes) = trace_digest_prefixes(&trace, 9, RunEnd::Completed, 8);
        assert_ne!(outcome, base);
        assert_eq!(prefixes, base_prefixes);
        for changed in [0, 1_023, 1_024, 2_047, 2_048, 4_095, 4_096, 4_999] {
            let mut moved = events.clone();
            moved[changed] = Event::new(changed as u64, 0, 1, u32::MAX);
            let (digest, prefixes) = digest(&moved);
            assert_ne!(digest, base);
            for (k, (a, b)) in base_prefixes.iter().zip(&prefixes).enumerate() {
                let holds_it = changed < 1 << (10 + k);
                assert_eq!(a != b, holds_it, "event {changed}, prefix 2^{}", 10 + k);
            }
        }
    }

    /// A refused digest names the last power of two of events both
    /// runs share, when both artifacts carry prefixes.
    #[test]
    fn compare_locates_a_moved_digest() {
        let with_prefixes = |digest: &str, prefixes: &[&str]| {
            let run = Value::object([
                ("label", "a".into()),
                ("trace_digest", digest.into()),
                ("digest_prefixes", prefixes.iter().copied().collect()),
                ("wall_ms", 2.5.into()),
                ("events_per_sec", 1000u64.into()),
            ]);
            let root = Value::object([
                ("schema_version", SCHEMA_VERSION.into()),
                ("runs", [run].into_iter().collect()),
            ]);
            format!("{root}\n")
        };
        let base = with_prefixes("aaaaaaaaaaaaaaaa", &["01", "02", "03"]);
        let moved = with_prefixes("bbbbbbbbbbbbbbbb", &["01", "02", "f3"]);
        let errs = compare_artifacts(&base, &moved).unwrap_err();
        assert!(
            errs[0].ends_with("; same first 2^11 events, diverged before 2^12"),
            "{errs:?}"
        );
        let early = with_prefixes("bbbbbbbbbbbbbbbb", &["f1", "f2", "f3"]);
        let errs = compare_artifacts(&base, &early).unwrap_err();
        assert!(
            errs[0].ends_with("; diverged within the first 2^10 events"),
            "{errs:?}"
        );
        // A shorter trace shares every prefix it has; one shorter than
        // 2^10 events has none.
        let short = with_prefixes("bbbbbbbbbbbbbbbb", &["01"]);
        let errs = compare_artifacts(&base, &short).unwrap_err();
        assert!(
            errs[0].ends_with("; same first 2^10 events, diverged before 2^11"),
            "{errs:?}"
        );
        let tiny = with_prefixes("bbbbbbbbbbbbbbbb", &[]);
        let errs = compare_artifacts(&base, &tiny).unwrap_err();
        assert!(
            errs[0].ends_with("; diverged within the first 2^10 events"),
            "{errs:?}"
        );
        // Every prefix matches: the events after the last one, or the
        // outcome (end time, reason, kernel event count), differ.
        let outcome = with_prefixes("bbbbbbbbbbbbbbbb", &["01", "02", "03"]);
        let errs = compare_artifacts(&base, &outcome).unwrap_err();
        assert!(
            errs[0].ends_with(
                "; same first 2^12 events (the difference is after them or in the run's outcome)"
            ),
            "{errs:?}"
        );
        let errs = compare_artifacts(&tiny, &with_prefixes("cccccccccccccccc", &[])).unwrap_err();
        assert!(
            errs[0]
                .ends_with("; the difference is in the first 2^10 events or in the run's outcome"),
            "{errs:?}"
        );
        // An artifact without prefixes still compares, without a locator.
        let old = fixture(&[("a", "bbbbbbbbbbbbbbbb")]);
        let errs = compare_artifacts(&base, &old).unwrap_err();
        assert!(errs[0].ends_with("comparison is invalid"), "{errs:?}");
        let prefixes = |text: &str| {
            parse_artifact_runs(text).unwrap()[0]
                .digest_prefixes
                .clone()
        };
        assert_eq!(prefixes(&base).map(|p| p.len()), Some(3));
        assert_eq!(prefixes(&old), None);
    }

    #[test]
    fn compare_refuses_text_that_is_not_json() {
        // The fields of a run, but no enclosing object: the first string
        // parses, and everything after it is trailing data.
        let loose = "\"schema_version\": 4,\n\"label\": \"a\",\n\
                     \"trace_digest\": \"aaaaaaaaaaaaaaaa\",\n\"events_per_sec\": 1000,\n\
                     \"wall_ms\": 2.5\n";
        let good = fixture(&[("a", "aaaaaaaaaaaaaaaa")]);
        let errs = compare_artifacts(loose, &good).unwrap_err();
        assert_eq!(
            errs,
            vec![
                "baseline: not JSON: line 1, column 17: trailing data after the JSON value"
                    .to_owned()
            ]
        );
        assert!(parse_artifact_runs(loose).is_err());
    }

    #[test]
    fn nested_objects_do_not_shadow_run_fields() {
        let good = fixture(&[("a", "aaaaaaaaaaaaaaaa")]);
        let nested = good.replace(
            "\"wall_ms\": 2.5,",
            "\"wall_ms\": 2.5,\n\"stages_ms\": {\"wall_ms\": 999, \"trace_digest\": \"x\"},",
        );
        assert_ne!(nested, good);
        let runs = parse_artifact_runs(&nested).unwrap();
        assert_eq!(runs[0].wall_ms, 2.5);
        assert_eq!(runs[0].trace_digest, "aaaaaaaaaaaaaaaa");
        assert!(compare_artifacts(&good, &nested).is_ok());
    }

    #[test]
    fn compare_refuses_malformed_numbers() {
        let good = fixture(&[("a", "aaaaaaaaaaaaaaaa")]);
        let bad = good.replace("\"events_per_sec\": 1000", "\"events_per_sec\": \"fast\"");
        let errs = compare_artifacts(&good, &bad).unwrap_err();
        assert_eq!(
            errs,
            vec!["candidate: run 'a' has a malformed events_per_sec (\"fast\")".to_owned()]
        );
        // No longer JSON at all: the parse error, with its place.
        let bad = good.replace("\"wall_ms\": 2.5", "\"wall_ms\": 2.5.1");
        let err = parse_artifact_runs(&bad).unwrap_err();
        assert!(err.starts_with("not JSON: line 7, column 21:"), "{err}");
        let bad = good.replace(
            "\"wall_ms\": 2.5,",
            "\"wall_ms\": 2.5,\n\"analysis_errors\": -1,",
        );
        assert!(parse_artifact_runs(&bad)
            .unwrap_err()
            .contains("malformed analysis_errors"));
    }

    #[test]
    fn compare_refuses_runs_without_a_digest() {
        let good = fixture(&[("a", "aaaaaaaaaaaaaaaa"), ("b", "bbbbbbbbbbbbbbbb")]);
        let bad: String = good
            .lines()
            .filter(|l| !l.contains("bbbbbbbbbbbbbbbb"))
            .map(|l| format!("{l}\n"))
            .collect();
        let errs = compare_artifacts(&bad, &good).unwrap_err();
        assert_eq!(
            errs,
            vec!["baseline: run 'b' has no trace_digest".to_owned()]
        );
        let no_wall = good.replace("\"wall_ms\": 2.5,\n", "");
        assert_eq!(
            parse_artifact_runs(&no_wall).unwrap_err(),
            "run 'a' has no wall_ms"
        );
    }

    #[test]
    fn artifacts_with_the_retired_shards_field_still_compare() {
        // Written before the monitor plane lost its threads: every run
        // carries "shards": 1.
        let committed = include_str!("../../../artifacts/BENCH_2026-08-09.json");
        assert!(committed.contains("\"shards\": 1"));
        let runs = parse_artifact_runs(committed).unwrap();
        assert!(runs.iter().any(|r| r.label == "V1"));
        assert!(compare_artifacts(committed, committed).is_ok());
        // …and against an artifact without the field.
        let current = fixture(&[("a", "aaaaaaaaaaaaaaaa")]);
        let legacy = current.replace("\"wall_ms\"", "\"shards\": 1,\n\"wall_ms\"");
        assert!(compare_artifacts(&legacy, &current).is_ok());
    }

    #[test]
    fn cross_schema_compare_is_refused() {
        let report = run_sweep(
            &Sweep {
                name: "old".into(),
                runs: vec![tiny_spec("a", 1, 600_000)],
            },
            1,
        );
        let current = report.to_json();
        let parsed = json::parse(&current).unwrap();
        assert_eq!(artifact_schema_version(&parsed).unwrap(), SCHEMA_VERSION);
        let stale = current.replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 3",
        );
        let errs = compare_artifacts(&stale, &current).unwrap_err();
        assert!(errs[0].contains("schema_version 3"), "{errs:?}");
        assert!(errs[0].contains("regenerate"), "{errs:?}");
        let err = artifact_schema_version(&Value::Object(Vec::new())).unwrap_err();
        assert!(err.contains("no schema_version"), "{err}");
        // The committed schema-2 baseline stays refused.
        let schema2 = include_str!("../../../artifacts/BENCH_2026-08-07.json");
        let errs = compare_artifacts(schema2, &current).unwrap_err();
        assert!(errs[0].contains("schema_version 2"), "{errs:?}");
    }

    #[test]
    fn every_prefix_of_a_committed_artifact_is_refused() {
        // A truncated artifact is refused, never half-read.
        let committed = include_str!("../../../artifacts/BENCH_2026-08-07.json");
        let cut = committed.trim_end();
        for end in (0..cut.len()).filter(|&i| cut.is_char_boundary(i)) {
            assert!(
                parse_artifact_runs(&committed[..end]).is_err(),
                "prefix {end}"
            );
        }
        assert!(parse_artifact_runs(committed).is_ok());
    }

    proptest::proptest! {
        #[test]
        fn random_bytes_are_refused_without_panicking(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512)
        ) {
            let text = String::from_utf8_lossy(&bytes);
            proptest::prop_assert!(parse_artifact_runs(&text).is_err());
            proptest::prop_assert!(compare_artifacts(&text, &text).is_err());
        }
    }

    #[test]
    fn compare_catches_digest_divergence_and_missing_runs() {
        let a = run_sweep(
            &Sweep {
                name: "x".into(),
                runs: vec![tiny_spec("a", 1, 600_000), tiny_spec("b", 2, 600_000)],
            },
            1,
        );
        let b = run_sweep(
            &Sweep {
                name: "x".into(),
                // A 1 ms horizon truncates 'a' → different digest;
                // 'b' absent, 'c' extra.
                runs: vec![tiny_spec("a", 1, 1), tiny_spec("c", 3, 600_000)],
            },
            1,
        );
        let errs = compare_artifacts(&a.to_json(), &b.to_json()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("digest")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("'b' is missing")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("'c' is missing")),
            "{errs:?}"
        );
    }

    #[test]
    fn cross_scheduler_compare_is_refused() {
        let mut spec = tiny_spec("a", 1, 600_000);
        let baseline = run_sweep(
            &Sweep {
                name: "sch".into(),
                runs: vec![spec.clone()],
            },
            1,
        );
        assert!(baseline.to_json().contains("\"scheduler\": \"rr\""));
        spec.job
            .override_scheduler(suprenum::SchedulerKind::Preemptive {
                quantum: des::time::SimDuration::from_millis(5),
            });
        let candidate = run_sweep(
            &Sweep {
                name: "sch".into(),
                runs: vec![spec],
            },
            1,
        );
        assert_eq!(candidate.records[0].scheduler, "preempt:5000");
        let errs = compare_artifacts(&baseline.to_json(), &candidate.to_json()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("cross-scheduler")),
            "{errs:?}"
        );
        // Legacy artifacts (no scheduler field) read back as round-robin
        // and stay comparable against fresh rr artifacts.
        let legacy: String = baseline
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"scheduler\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(parse_artifact_runs(&legacy).unwrap()[0].scheduler, "rr");
        assert!(compare_artifacts(&legacy, &baseline.to_json()).is_ok());
    }

    #[test]
    fn same_seed_same_fingerprint_and_digest() {
        let a = execute(&tiny_spec("x", 42, 600_000));
        let b = execute(&tiny_spec("x", 42, 600_000));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.trace_digest, b.trace_digest);
        let c = execute(&tiny_spec("x", 43, 600_000));
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
